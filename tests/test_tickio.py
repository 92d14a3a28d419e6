import io

import numpy as np
from hypothesis import given, strategies as st

from ifamarket import tickio
from ifamarket.market import TickSeries

import oracles


def _series(moves):
    return TickSeries(
        moves=np.asarray(moves, dtype=np.uint8),
        rule_number=54,
        w=4,
        init="UDUD",
        policy="prick:3",
    )


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


def _header(series, magic):
    return "\n".join(tickio._header_lines(series, magic)) + "\n\n"


def _assert_exact_output(moves):
    # each writer's whole output against the header and a reference body
    series = _series(moves)
    text = io.StringIO()
    tickio.write_rle(series, text)
    assert text.getvalue() == _header(series, tickio._MAGIC_RLE) + _token_rle(moves)
    raw = io.BytesIO()
    tickio.write_bits(series, raw)
    head = _header(series, tickio._MAGIC_BITS).encode("ascii")
    assert raw.getvalue() == head + oracles.pack_bits(moves)


def test_rle_round_trip_basic():
    moves = [1, 1, 1, 0, 0, 1]
    _assert_exact_output(moves)
    assert _token_rle(moves) == "3U 2D 1U\n"


def test_bits_round_trip_basic():
    moves = [1, 0, 1, 1, 0, 0, 0, 1, 1]
    _assert_exact_output(moves)
    assert oracles.pack_bits(moves) == bytes([0b10110001, 0b10000000])


def test_empty_series_round_trips():
    _assert_exact_output([])


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
def test_round_trip_any_series(moves):
    _assert_exact_output(moves)


def test_header_carries_metadata():
    series = _series([1, 0])
    buf = io.StringIO()
    tickio.write_rle(series, buf)
    assert buf.getvalue().split("\n\n")[0].splitlines() == [
        "ifamarket-ticks v1 rle",
        "rule_number: 54",
        "w: 4",
        "init: UDUD",
        "policy: prick:3",
        "num_ticks: 2",
    ]


def test_rle_body_matches_token_reference_across_chunks():
    # line-boundary lengths, and a series of more runs than one chunk
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 15, 16, 17, 31, 32, 33, 150_001):
        for moves in (rng.integers(0, 2, n), np.ones(n), np.arange(n) % 2):
            buf = io.StringIO()
            tickio.write_rle(_series(moves), buf)
            body = buf.getvalue().split("\n\n", 1)[1]
            assert body == _token_rle(np.asarray(moves, dtype=np.uint8).tolist())
