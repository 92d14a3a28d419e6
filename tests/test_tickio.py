import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifamarket import tickio
from ifamarket.market import TickSeries


def _series(moves):
    return TickSeries(
        moves=np.asarray(moves, dtype=np.uint8),
        rule_number=54,
        w=4,
        init="UDUD",
        policy="prick:3",
    )


def test_rle_round_trip_basic():
    series = _series([1, 1, 1, 0, 0, 1])
    buf = io.StringIO()
    tickio.write_rle(series, buf)
    assert "3U 2D 1U" in buf.getvalue()
    buf.seek(0)
    back = tickio.read_rle(buf)
    assert back == series


def test_bits_round_trip_basic():
    series = _series([1, 0, 1, 1, 0, 0, 0, 1, 1])
    buf = io.BytesIO()
    tickio.write_bits(series, buf)
    buf.seek(0)
    back = tickio.read_bits(buf)
    assert back == series


def test_empty_series_round_trips():
    series = _series([])
    text = io.StringIO()
    tickio.write_rle(series, text)
    text.seek(0)
    assert tickio.read_rle(text) == series
    raw = io.BytesIO()
    tickio.write_bits(series, raw)
    raw.seek(0)
    assert tickio.read_bits(raw) == series


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
def test_round_trip_any_series(moves):
    series = _series(moves)
    text = io.StringIO()
    tickio.write_rle(series, text)
    text.seek(0)
    assert tickio.read_rle(text).moves.tolist() == moves
    raw = io.BytesIO()
    tickio.write_bits(series, raw)
    raw.seek(0)
    assert tickio.read_bits(raw).moves.tolist() == moves


def test_header_carries_metadata():
    series = _series([1, 0])
    buf = io.StringIO()
    tickio.write_rle(series, buf)
    head = buf.getvalue().splitlines()
    assert head[0] == "ifamarket-ticks v1 rle"
    assert "rule_number: 54" in head
    assert "policy: prick:3" in head


def test_rejects_wrong_magic_and_corrupt_bodies():
    with pytest.raises(ValueError):
        tickio.read_rle(io.StringIO("not-a-header\n\n3U\n"))
    series = _series([1] * 10)
    buf = io.BytesIO()
    tickio.write_bits(series, buf)
    truncated = buf.getvalue()[:-1]
    with pytest.raises(ValueError):
        tickio.read_bits(io.BytesIO(truncated))
    text = io.StringIO()
    tickio.write_rle(series, text)
    mangled = text.getvalue().replace("num_ticks: 10", "num_ticks: 11")
    with pytest.raises(ValueError):
        tickio.read_rle(io.StringIO(mangled))


def _token_rle(moves):
    # reference body: one token per run, sixteen tokens per line
    tokens = []
    for move in moves:
        letter = "U" if move else "D"
        if tokens and tokens[-1][1] == letter:
            tokens[-1][0] += 1
        else:
            tokens.append([1, letter])
    words = [f"{count}{letter}" for count, letter in tokens]
    return "".join(" ".join(words[i : i + 16]) + "\n" for i in range(0, len(words), 16))


def test_rle_body_matches_token_reference_across_chunks():
    # line-boundary lengths, and a series of more runs than one chunk
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 15, 16, 17, 31, 32, 33, 150_001):
        for moves in (rng.integers(0, 2, n), np.ones(n), np.arange(n) % 2):
            buf = io.StringIO()
            tickio.write_rle(_series(moves), buf)
            body = buf.getvalue().split("\n\n", 1)[1]
            assert body == _token_rle(np.asarray(moves, dtype=np.uint8).tolist())


def _rle_with_body(ticks, body):
    # the header of a series of ``ticks`` moves over the given body
    text = io.StringIO()
    tickio.write_rle(_series([1] * ticks), text)
    head = text.getvalue().split("\n\n", 1)[0]
    return io.StringIO(f"{head}\n\n{body}")


@pytest.mark.parametrize(
    "ticks, body",
    [
        (10, "1_0U\n"),  # int() reads underscores
        (3, "+3U\n"),  # and signs
        (3, "٣U\n"),  # and Arabic-Indic digits
        (6, "3U\x1c3D\n"),  # and str.split takes \x1c for whitespace
        (1, "0U 1D\n"),
        (1, "-1U\n"),
        (7, "3U4D\n"),
        (3, "3\n"),
        (1, "U\n"),
        (3, "3X\n"),
        (1, "1" * 19 + "U\n"),  # longer than any count of 18 digits
    ],
    ids=[
        "underscore", "sign", "arabic-indic", "file-separator", "zero",
        "negative", "no-space", "no-letter", "no-count", "bad-letter", "19-digits",
    ],
)
def test_rle_counts_are_decimal_digits(ticks, body):
    # the header counts the ticks that int() reads from each count, so
    # that only the token itself can be refused
    with pytest.raises(ValueError, match="bad run token"):
        tickio.read_rle(_rle_with_body(ticks, body))


def test_rle_reads_leading_zeros_and_any_ascii_whitespace():
    series = tickio.read_rle(_rle_with_body(7, "  03U\t2D\r\n\n1U\x0b001D\x0c"))
    assert series.moves.tolist() == [1, 1, 1, 0, 0, 1, 0]
    with pytest.raises(ValueError, match="body has 7 ticks, header says 6"):
        tickio.read_rle(_rle_with_body(6, "3U 4D"))
