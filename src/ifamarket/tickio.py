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

The package writes these files and reads none back.
"""

from __future__ import annotations

import io
from typing import BinaryIO

import numpy as np

from .market import TickSeries

_MAGIC_RLE = "ifamarket-ticks v1 rle"
_MAGIC_BITS = "ifamarket-ticks v1 bits"
_RLE_TOKENS_PER_LINE = 16


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


def write_bits(series: TickSeries, stream: BinaryIO) -> None:
    text = "\n".join(_header_lines(series, _MAGIC_BITS)) + "\n\n"
    stream.write(text.encode("ascii"))
    stream.write(np.packbits(series.moves).tobytes())
