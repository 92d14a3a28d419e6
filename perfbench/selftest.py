"""Shows that every check fails an op whose output is corrupted.

    python3 perfbench/selftest.py

Runs one round of each workload (about a minute), checks that every
output passes as written, then corrupts each kind of output in the ways
listed in ``CORRUPTIONS`` and checks that each corrupted op is reported
as failed and wrong.  Exits non-zero if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Checker  # noqa: E402


def _rle(moves: np.ndarray) -> bytes:
    edges = np.flatnonzero(np.diff(moves.astype(np.int8))) + 1
    starts = np.concatenate(([0], edges))
    lengths = np.diff(np.concatenate((starts, [moves.size])))
    tokens = [f"{n}{'U' if moves[s] else 'D'}" for s, n in zip(starts, lengths)]
    return ("\n".join(" ".join(tokens[i : i + 16]) for i in range(0, len(tokens), 16)) + "\n").encode()


def flip_rle_tick(data: bytes) -> bytes:
    """One tick flipped, written back as a well-formed RLE body."""
    head, _, body = data.partition(b"\n\n")
    letters = np.array([t[-1:] == b"U" for t in body.split()], dtype=np.uint8)
    counts = np.array([int(t[:-1]) for t in body.split()])
    moves = np.repeat(letters, counts)
    moves[123_457] ^= 1
    return head + b"\n\n" + _rle(moves)


def flip_bits_tick(data: bytes) -> bytes:
    head, _, body = data.partition(b"\n\n")
    body = bytearray(body)
    body[98_765] ^= 0x10
    return head + b"\n\n" + bytes(body)


def bump_csv_cell(row: int, column: str, factor: float):
    """Scale one cell of a report by ``factor``."""

    def corrupt(data: bytes) -> bytes:
        lines = data.decode().split("\n")
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        names = lines[first].split(",")
        cells = lines[first + 1 + row].split(",")
        k = names.index(column)
        cells[k] = repr(float(cells[k]) * factor) if "." in cells[k] else str(int(cells[k]) + 1)
        lines[first + 1 + row] = ",".join(cells)
        return "\n".join(lines).encode()

    return corrupt


def edit_json(key: str, delta: int):
    def corrupt(data: bytes) -> bytes:
        report = json.loads(data)
        report[key] += delta
        return (json.dumps(report) + "\n").encode()

    return corrupt


def drop_row(data: bytes) -> bytes:
    lines = data.decode().split("\n")
    del lines[-3]
    return "\n".join(lines).encode()


def swap_class(data: bytes) -> bytes:
    return re.sub(rb"^54,(.*),complex$", rb"54,\1,short_period", data, flags=re.M)


# op -> [(what, corruption)]; table1 rows: 0 none, 1.. prick 2..20, 20.. prop 2..20
CORRUPTIONS = {
    "cycle": [("cycle length - 1", edit_json("cycle_length", -1)),
              ("transient + 1", edit_json("transient_length", 1))],
    "simulate-rle": [("one tick flipped", flip_rle_tick)],
    "simulate-bits": [("one tick flipped", flip_bits_tick)],
    "moments": [("one skew cell * (1 + 1e-7)", bump_csv_cell(700, "skew", 1 + 1e-7)),
                ("one mean cell * (1 + 1e-7)", bump_csv_cell(5, "mean", 1 + 1e-7)),
                ("one window missing", drop_row)],
    "table1": [("none kurt_max_dev * (1 + 1e-7)", bump_csv_cell(0, "kurt_max_dev", 1 + 1e-7)),
               ("prick:7 avg_ann_vol * (1 + 1e-7)", bump_csv_cell(6, "avg_ann_vol", 1 + 1e-7)),
               ("prop:8 skew_max_dev * (1 + 1e-7)", bump_csv_cell(26, "skew_max_dev", 1 + 1e-7)),
               ("prop:17 kurt_max_dev + 0.002", bump_csv_cell(35, "kurt_max_dev", 1 + 0.002 / 14.657)),
               ("one row missing", drop_row)],
    "survey": [("rule 7 compression ratio * (1 + 1e-9)", bump_csv_cell(7, "compression_ratio", 1 + 1e-9)),
               ("rule 200 transient + 1", bump_csv_cell(200, "transient", 1)),
               ("rule 54 class", swap_class),
               ("one rule missing", drop_row)],
}


def _verdict(op: run.Op, checker: Checker) -> bool:
    """Whether the check reports ``op`` as failed and wrong."""
    op.failed = op.wrong = False
    run.check([op], checker)
    return op.failed and op.wrong


def main() -> int:
    workdir = run.RUNS / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    missed = 0
    try:
        for workload in ("anchor-w22", "regimes-w22", "rulespace-w22"):
            checker = Checker(seed=1)
            for op in run.cli_round(workload, workdir / workload, 0):
                clean = op.output.read_bytes()
                ok = not _verdict(op, checker)
                print(f"{op.name}: as written {'passes' if ok else 'FAILS'}")
                missed += not ok
                op.output = op.output.with_name("corrupt-" + op.output.name)
                for what, corrupt in CORRUPTIONS[op.name]:
                    op.output.write_bytes(corrupt(clean))
                    caught = _verdict(op, checker)
                    print(f"  {what}: {'failed, as it should' if caught else 'NOT CAUGHT'}")
                    missed += not caught
        ops, _ = run.short_round(1, workdir / "short-runs", 0)
        checker = Checker(seed=1)
        run.check(ops, checker)
        print(f"short-runs: {sum(op.failed for op in ops)} of {len(ops)} calls fail as written")
        missed += any(op.failed for op in ops)
        for k in (0, 17, len(ops) - 1):
            ops[k].moves = ops[k].moves.copy()
            ops[k].moves[len(ops[k].moves) // 2] ^= 1
            caught = _verdict(ops[k], checker)
            print(f"  call {k} with one tick flipped: {'failed, as it should' if caught else 'NOT CAUGHT'}")
            missed += not caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all corruptions caught" if not missed else f"{missed} problems")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
