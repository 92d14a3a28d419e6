"""Checks of every output against the oracles in ``oracles.py``.

A check takes the bytes of an op's output and returns the orbit ticks
the output covers, or raises :class:`Mismatch` naming what disagrees.
Reports are read by column name, so an added column breaks nothing.
Oracle values are computed once per run.
"""

from __future__ import annotations

import csv
import io
import json
import random
from functools import cached_property

import numpy as np

import oracles as orc

W = 22
TICKS_PER_DAY = 2048
SCALE = 0.00025
WINDOW_DAYS = 256
DAYS_PER_YEAR = 252
ALTERNATING = "UD" * (W // 2)
# table1 rows whose regulated orbit closes within about 1e5 ticks: the
# brute-force closed loop walks them and tiles them to the full span
BRUTE_FORCE_ROWS = [("prick", n) for n in range(2, 11)] + [("prop", 8)]
ORBIT_LIMIT = 100_000
SURVEY_ORBIT_LIMIT = 4096
XOR_RULES = (54, 201)
XOR_SAMPLE = 2000
# (regime, n, column, printed value, one unit of its last digit, factor
# from the CSV's fraction to the printed unit)
PAPER = [
    ("prick", 2, "avg_ann_mean", 3927, 1, 100),
    ("prop", 2, "avg_ann_mean", 3055, 1, 100),
    ("prick", 17, "skew_max_dev", 0.694, 0.001, 1),
    ("prick", 17, "kurt_max_dev", 1.255, 0.001, 1),
    ("prop", 17, "skew_max_dev", 2.432, 0.001, 1),
    ("prop", 17, "kurt_max_dev", 14.657, 0.001, 1),
    ("none", 0, "avg_ann_vol", 17.3, 0.1, 100),
    ("none", 0, "skew_max_dev", 2.66, 0.01, 1),
    ("none", 0, "kurt_max_dev", 18.91, 0.01, 1),
]
# relative and absolute tolerance of a printed value against the exact
# oracle: the program rounds in float64 and prints 15 digits
REL, ABS = 1e-9, 1e-12


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def read_report(data: bytes) -> tuple[dict, list]:
    """``# key: value`` lines, then a CSV whose rows are read by name."""
    meta, body = {}, []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#") and not body:
            key, _, value = line[1:].strip().partition(": ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def _is_digit(b):
    return (b >= 48) & (b <= 57)


def _is_letter(b):
    return (b == 85) | (b == 68)  # U, D


def _is_space(b):
    return (b == 32) | (b == 10)


def read_ticks(data: bytes) -> tuple[str, dict, np.ndarray]:
    """(format, header, moves) of a tick export, RLE or bits."""
    head, sep, body = data.partition(b"\n\n")
    expect(bool(sep), "tick file has no blank line after its header")
    lines = head.decode("ascii").split("\n")
    header = dict(line.split(": ", 1) for line in lines[1:])
    count = int(header["num_ticks"])
    if lines[0] == "ifamarket-ticks v1 bits":
        packed = np.frombuffer(body, dtype=np.uint8)
        expect(packed.size == (count + 7) // 8, "bits body has the wrong size")
        bits = np.unpackbits(packed)
        expect(not bits[count:].any(), "bits padding is not zero")
        return "bits", header, bits[:count]
    expect(lines[0] == "ifamarket-ticks v1 rle", f"bad magic line {lines[0]!r}")
    raw = np.frombuffer(body, dtype=np.uint8)
    after = np.append(raw[1:], 10)
    before = np.insert(raw[:-1], 0, 10)
    well_formed = (
        (_is_digit(raw) | _is_letter(raw) | _is_space(raw))
        & (~_is_letter(raw) | (_is_digit(before) & _is_space(after)))
        & (~_is_digit(raw) | _is_digit(after) | _is_letter(after))
    )
    expect(bool(well_formed.all()), "RLE body is not a list of <count><U|D> tokens")
    letters = raw[_is_letter(raw)] == 85
    counts = np.array(body.translate(bytes.maketrans(b"UD", b"  ")).split()).astype(np.int64)
    expect(counts.size == letters.size and bool((counts > 0).all()), "bad RLE run counts")
    expect(not (letters[1:] == letters[:-1]).any(), "RLE runs are not maximal")
    moves = np.repeat(letters.astype(np.uint8), counts)
    expect(moves.size == count, f"RLE body has {moves.size} ticks, header says {count}")
    return "rle", header, moves


def _close(a: float, b) -> bool:
    if b is None:  # zero variance: the program prints nan
        return a != a
    return orc.close(a, b, REL, ABS)


class Checker:
    """Checks the outputs of one run; ``seed`` picks the XOR sample."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._short: dict = {}

    def check(self, op: str, data: bytes) -> int:
        return getattr(self, "_" + op.replace("-", "_"))(data)

    def check_short(self, call: tuple, moves: np.ndarray) -> int:
        rule, w, init, policy, ticks = call
        if call not in self._short:
            self._short[call] = orc.run_loop(rule, orc.init_moves(init, w), policy, ticks)
        expect(np.array_equal(moves, self._short[call]), f"simulate{call} differs")
        return int(moves.size)

    # ------------------------------------------------------- oracle values

    @cached_property
    def period(self) -> int:
        """Rule 54's orbit at w = 22: the order of x mod x^22 + x + 1."""
        return orc.order_of_x(W)

    @cached_property
    def anchor_stream(self) -> np.ndarray:
        return orc.recurrence(orc.init_moves("alternating", W), self.period)

    @cached_property
    def anchor_moments(self) -> list:
        return orc.moments_rows(
            self.anchor_stream, TICKS_PER_DAY, SCALE, WINDOW_DAYS, DAYS_PER_YEAR
        )

    @cached_property
    def xor_confirmed(self) -> bool:
        rng = random.Random(self.seed)
        windows = [0, (1 << W) - 1] + [rng.getrandbits(W) for _ in range(XOR_SAMPLE)]
        return all(orc.is_xor_of_oldest(rule, W, windows) for rule in XOR_RULES)

    def _span(self) -> int:
        """Ticks every table1 row covers: the unregulated orbit, at least
        one rolling window of days."""
        return max(self.period, WINDOW_DAYS * TICKS_PER_DAY)

    def _regime_row(self, moves: np.ndarray) -> dict:
        return orc.regime_row(moves, TICKS_PER_DAY, SCALE, WINDOW_DAYS, DAYS_PER_YEAR)

    @cached_property
    def table1_rows(self) -> dict:
        rows = {("none", 0): self._regime_row(self.anchor_stream[: self._span()])}
        init = orc.init_moves("alternating", W)
        for regime, n in BRUTE_FORCE_ROWS:
            found = orc.orbit(54, init, f"{regime}:{n}", ORBIT_LIMIT)
            if found is not None:
                rows[(regime, n)] = self._regime_row(orc.tile(*found, self._span()))
        return rows

    @cached_property
    def survey_rows(self) -> dict:
        """rule -> (transient, cycle, zlib-9 ratio of one packed cycle)."""
        init = orc.init_moves("all_up", W)
        rows = {}
        for rule in range(256):
            found = orc.orbit(rule, init, "none", SURVEY_ORBIT_LIMIT)
            if found is not None:
                transient, cycle, moves = found
                loop = np.array(moves[transient:], dtype=np.uint8)
                rows[rule] = (transient, cycle, orc.zlib9_ratio(loop))
            elif rule in XOR_RULES and self.xor_confirmed:
                # the LFSR is invertible, so the orbit has no transient
                stream = orc.recurrence(init, self.period)
                rows[rule] = (0, self.period, orc.zlib9_ratio(stream))
        return rows

    # ---------------------------------------------------------- the checks

    def _anchor_config(self, config: dict) -> None:
        want = {
            "rule": 54, "w": W, "init": "alternating", "policy": "none",
            "ticks_per_day": TICKS_PER_DAY, "scale": SCALE,
            "window_days": WINDOW_DAYS, "days_per_year": DAYS_PER_YEAR,
        }
        for key, value in want.items():
            expect(config.get(key) == value, f"config {key} = {config.get(key)!r}")

    def _cycle(self, data: bytes) -> int:
        report = json.loads(data)
        self._anchor_config(report["config"])
        expect(report["transient_length"] == 0, "transient is not 0")
        expect(
            report["cycle_length"] == self.period,
            f"cycle {report['cycle_length']} != order of x, {self.period}",
        )
        return report["transient_length"] + report["cycle_length"]

    def _ticks_file(self, data: bytes, fmt: str) -> int:
        kind, header, moves = read_ticks(data)
        expect(kind == fmt, f"wrote {kind}, not {fmt}")
        want = {"rule_number": "54", "w": str(W), "init": ALTERNATING, "policy": "none"}
        for key, value in want.items():
            expect(header.get(key) == value, f"header {key} = {header.get(key)!r}")
        expect(moves.size == self.period, f"{moves.size} ticks, not {self.period}")
        ups = int(moves.sum())
        expect(ups == 1 << (W - 1), f"{ups} UPs, not 2^21")
        expect(moves.size - ups == (1 << (W - 1)) - 1, "DOWNs are not 2^21 - 1")
        expect(np.array_equal(moves, self.anchor_stream), "ticks differ from m_t = m_(t-22) ^ m_(t-21)")
        return int(moves.size)

    def _simulate_rle(self, data: bytes) -> int:
        return self._ticks_file(data, "rle")

    def _simulate_bits(self, data: bytes) -> int:
        return self._ticks_file(data, "bits")

    def _moments(self, data: bytes) -> int:
        meta, rows = read_report(data)
        config = json.loads(meta["config"])
        self._anchor_config(config)
        expect(config["ticks"] == self.period, f"config ticks {config['ticks']}")
        want = self.anchor_moments
        expect(len(rows) == len(want), f"{len(rows)} windows, not {len(want)}")
        for t, (row, (mean, vol, skew, kurt)) in enumerate(zip(rows, want)):
            expect(int(row["window_end_day"]) == t + WINDOW_DAYS - 1, f"row {t} end day")
            for column, value in (("mean", mean), ("vol", vol), ("skew", skew), ("kurt", kurt)):
                expect(_close(float(row[column]), value), f"row {t} {column} {row[column]} != {value}")
        return config["ticks"]

    def _table1(self, data: bytes) -> int:
        meta, rows = read_report(data)
        config = json.loads(meta["config"])
        self._anchor_config(config)
        table = {(row["regime"], int(row["n"])): row for row in rows}
        regimes = [("none", 0)] + [(r, n) for r in ("prick", "prop") for n in range(2, 21)]
        expect(len(rows) == len(table) and set(table) == set(regimes), "rows are not none + prick/prop 2..20")
        want = self.table1_rows
        expect(len(want) == 1 + len(BRUTE_FORCE_ROWS), "a listed orbit did not close in 1e5 ticks")
        for key, values in want.items():
            for column, value in values.items():
                got = float(table[key][column])
                expect(_close(got, value), f"{key} {column} {got} != {value}")
        for regime, n, column, printed, unit, factor in PAPER:
            got = float(table[(regime, n)][column]) * factor
            expect(abs(got - printed) < unit, f"{regime}:{n} {column} {got} vs paper {printed}")
        return len(rows) * self._span()

    def _survey(self, data: bytes) -> int:
        _, rows = read_report(data)
        expect(len(rows) == 256, f"{len(rows)} rows, not 256")
        expect(sorted(int(r["rule"]) for r in rows) == list(range(256)), "rules are not 0..255")
        want = self.survey_rows
        ticks = 0
        for row in rows:
            rule = int(row["rule"])
            transient, cycle = int(row["transient"]), int(row["cycle_length"])
            ratio = float(row["compression_ratio"])
            expect(int(row["w"]) == W, f"rule {rule} w {row['w']}")
            expect(rule in want, f"rule {rule}: no oracle orbit")
            expect((transient, cycle) == want[rule][:2], f"rule {rule} orbit {(transient, cycle)} != {want[rule][:2]}")
            expect(orc.close(ratio, want[rule][2], 1e-13, 0.0), f"rule {rule} ratio {ratio} != {want[rule][2]}")
            if cycle == 1:
                kind = "fixed"
            elif cycle >= 0.25 * (1 << W) and ratio > 0.9:
                kind = "complex"
            else:
                kind = "short_period"
            expect(row["class"] == kind, f"rule {rule} class {row['class']} != {kind}")
            ticks += transient + cycle
        return ticks
