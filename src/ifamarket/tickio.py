"""Tick-series file formats: run-length text and packed bit stream.

Both formats carry the same header block so a series is self-describing:

    ifamarket-ticks v1 <rle|bits>
    rule_number: <int>
    w: <int>
    init: <U/D string, oldest first>
    policy: <policy literal>
    num_ticks: <int>

The RLE body is lines of space-separated tokens like ``17U 3D``
(consecutive run counts, oldest first).  The bits body is the moves
packed 8 per byte, oldest first, most significant bit first, zero-padded
at the end; it follows the header after a blank line.
"""

from __future__ import annotations

import io
import re
from typing import BinaryIO

import numpy as np

from .market import TickSeries

_MAGIC_RLE = "ifamarket-ticks v1 rle"
_MAGIC_BITS = "ifamarket-ticks v1 bits"
_RLE_TOKENS_PER_LINE = 16
_RUN_TOKEN = re.compile(r"[0-9]{1,18}[UD]")
# what separates run tokens: ASCII whitespace only
_SPACE = re.compile(r"[ \t\n\r\v\f]+")


def _header_lines(series: TickSeries, magic: str) -> list[str]:
    return [
        magic,
        f"rule_number: {series.rule_number}",
        f"w: {series.w}",
        f"init: {series.init}",
        f"policy: {series.policy}",
        f"num_ticks: {len(series)}",
    ]


def write_rle(series: TickSeries, stream: io.TextIOBase) -> None:
    for line in _header_lines(series, _MAGIC_RLE):
        stream.write(line + "\n")
    stream.write("\n")
    moves = series.moves
    if moves.size == 0:
        return
    boundaries = np.flatnonzero(moves[1:] != moves[:-1]) + 1
    lengths = np.diff(boundaries, prepend=0, append=moves.size)
    # runs alternate and a full line holds an even number of them, so
    # every line starts with the letter of the first run
    letters = "UD" if moves[0] else "DU"
    tokens = [f"%d{letters[i % 2]}" for i in range(_RLE_TOKENS_PER_LINE)]
    line = " ".join(tokens) + "\n"
    chunk = 4096 * _RLE_TOKENS_PER_LINE  # runs formatted per write
    for lo in range(0, lengths.size, chunk):
        runs = lengths[lo : lo + chunk].tolist()
        full, rest = divmod(len(runs), _RLE_TOKENS_PER_LINE)
        text = line * full
        if rest:
            text += " ".join(tokens[:rest]) + "\n"
        stream.write(text % tuple(runs))


def read_rle(stream: io.TextIOBase) -> TickSeries:
    header, body = _split_header(stream.read(), _MAGIC_RLE)
    counts: list[int] = []
    ups: list[bool] = []
    for token in _SPACE.split(body):
        if not token:  # before the first token or after the last
            continue
        count = int(token[:-1]) if _RUN_TOKEN.fullmatch(token) else 0
        if not count:
            raise ValueError(f"bad run token {token!r}")
        counts.append(count)
        ups.append(token[-1] == "U")
    num_ticks = int(header["num_ticks"])
    # checked before the moves are allocated
    total = sum(counts)
    if total != num_ticks:
        raise ValueError(f"body has {total} ticks, header says {num_ticks}")
    moves = np.repeat(np.array(ups, dtype=np.uint8), counts)
    return _series_from_header(header, moves)


def write_bits(series: TickSeries, stream: BinaryIO) -> None:
    text = "\n".join(_header_lines(series, _MAGIC_BITS)) + "\n\n"
    stream.write(text.encode("ascii"))
    stream.write(np.packbits(series.moves).tobytes())


def read_bits(stream: BinaryIO) -> TickSeries:
    blob = stream.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ValueError("missing header/body separator")
    header, _ = _split_header(blob[: sep + 2].decode("ascii"), _MAGIC_BITS)
    num_ticks = int(header["num_ticks"])
    packed = np.frombuffer(blob[sep + 2 :], dtype=np.uint8)
    if packed.size != (num_ticks + 7) // 8:
        raise ValueError(
            f"expected {(num_ticks + 7) // 8} packed bytes, got {packed.size}"
        )
    moves = np.unpackbits(packed)[:num_ticks]
    return _series_from_header(header, moves)


def _split_header(text: str, magic: str) -> tuple[dict, str]:
    head, sep, body = text.partition("\n\n")
    if not sep:
        raise ValueError("missing header/body separator")
    lines = head.splitlines()
    if not lines or lines[0] != magic:
        raise ValueError(f"bad magic line {lines[:1]!r}; expected {magic!r}")
    header = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        header[key] = value
    for key in ("rule_number", "w", "init", "policy", "num_ticks"):
        if key not in header:
            raise ValueError(f"header missing {key!r}")
    return header, body


def _series_from_header(header: dict, moves: np.ndarray) -> TickSeries:
    if moves.size != int(header["num_ticks"]):
        raise ValueError(
            f"body has {moves.size} ticks, header says {header['num_ticks']}"
        )
    return TickSeries(
        moves=moves,
        rule_number=int(header["rule_number"]),
        w=int(header["w"]),
        init=header["init"],
        policy=header["policy"],
    )
