"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to stream the lines.
Criterion 5's published baseline row and criterion 2's uniqueness count
are asserted exactly as stated; see README "Reproduction notes" for the
reconciliation of the two components that depend on conventions the
source material does not state.
"""

import json
import math
import time

import numpy as np
import pytest

from ifamarket import (
    RegulationPolicy,
    aggregate_days,
    annualize,
    decode_rule,
    find_cycle,
    max_deviation,
    rolling_moments,
    simulate,
    summarize_regime,
    survey_rules,
    window_from_literal,
)
from ifamarket.cli import main as cli_main

import oracles

W = 22
MAXCYC = (1 << W) - 1  # 4,194,303
RULE = decode_rule(54)
NONE = RegulationPolicy("none")
BASELINE_TICKS = MAXCYC


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def init_alt():
    return window_from_literal("alternating_up_first", W)


@pytest.fixture(scope="module")
def init_all_up():
    return window_from_literal("all_up", W)


@pytest.fixture(scope="module")
def baseline_summary(init_alt):
    return summarize_regime(RULE, W, init_alt, NONE, ticks=BASELINE_TICKS)


def test_criterion_1_cycle_length(init_alt):
    start = time.perf_counter()
    report = find_cycle(RULE, W, init_alt, NONE)
    elapsed = time.perf_counter() - start
    passed = report.cycle_length == 4_194_303 and elapsed < 1.0
    _report(
        "1 (cycle length)",
        passed,
        f"cycle_length={report.cycle_length} transient={report.transient_length} "
        f"runtime={elapsed:.3f}s",
    )
    assert report.cycle_length == 4_194_303
    assert elapsed < 1.0


def test_periodicity_of_tick_stream(init_alt):
    # over two full cycles the second half repeats the first exactly
    series = simulate(RULE, W, init_alt, NONE, 2 * MAXCYC)
    half = MAXCYC
    assert np.array_equal(series.moves[:half], series.moves[half:])


def test_criterion_2_uniqueness(init_all_up):
    start = time.perf_counter()
    rows = survey_rules(W, init_all_up, workers=2)
    elapsed = time.perf_counter() - start
    complex_rows = [r for r in rows if r.rule_class == "complex"]
    numbers = [r.rule_number for r in complex_rows]
    passed = numbers == [54] and elapsed < 30.0
    _report(
        "2 (uniqueness)",
        passed,
        f"complex rules={numbers} runtime={elapsed:.1f}s "
        "(54 and 201 encode the same automaton under its two state "
        "labelings and generate bit-identical streams; uniqueness holds "
        "at the machine level)",
    )
    assert elapsed < 30.0
    assert 54 in numbers
    assert numbers == [54], (
        "two rule numbers classify complex: rule 201 is rule 54 with its "
        "internal states relabeled, and the decision function never uses "
        "the one cell where their outputs differ, so their price streams "
        "are bit-identical from every initial window; no stream-based "
        "classifier can separate them"
    )


def test_criterion_3_prick_dominance(init_alt):
    start = time.perf_counter()
    failures = []
    for n in range(2, 21):
        prick = RegulationPolicy("prick", n)
        both = RegulationPolicy("both", n)
        report = find_cycle(RULE, W, init_alt, prick)
        ticks = report.transient_length + report.cycle_length
        series_prick = simulate(RULE, W, init_alt, prick, ticks)
        series_both = simulate(RULE, W, init_alt, both, ticks)
        if not np.array_equal(series_prick.moves, series_both.moves):
            failures.append(n)
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 120.0
    _report(
        "3 (prick ≡ both)",
        passed,
        f"n=2..20 bit-identical={not failures} runtime={elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 120.0


def _max_run(moves: np.ndarray, value: int) -> int:
    padded = np.concatenate(([1 - value], moves, [1 - value]))
    matches = (padded == value).astype(np.int8)
    starts = np.flatnonzero(np.diff(matches) == 1)
    ends = np.flatnonzero(np.diff(matches) == -1)
    return int((ends - starts).max()) if starts.size else 0


def test_criterion_4_run_length_bounds(init_alt):
    bad = []
    for n in range(2, 21):
        for regime, direction in (("prick", 1), ("prop", 0)):
            policy = RegulationPolicy(regime, n)
            report = find_cycle(RULE, W, init_alt, policy)
            ticks = report.transient_length + report.cycle_length
            moves = simulate(RULE, W, init_alt, policy, ticks).moves
            if _max_run(moves, direction) != n:
                bad.append((regime, n, _max_run(moves, direction)))
    _report("4 (run-length bounds)", not bad, f"violations={bad or 'none'}")
    assert not bad


def test_criterion_5_baseline_row(baseline_summary):
    targets = {
        "avg_annualized_mean": 0.0143,
        "avg_annualized_vol": 0.173,
        "skew_max_dev": 2.66,
        "kurt_max_dev": 18.91,
    }
    got = {k: getattr(baseline_summary, k) for k in targets}
    misses = {
        k: (got[k], targets[k])
        for k in targets
        if abs(got[k] - targets[k]) > 0.10 * abs(targets[k])
    }
    detail = ", ".join(
        f"{k}={got[k]:.4g} (target {v:.4g})" for k, v in targets.items()
    )
    _report("5 (baseline row ±10%)", not misses, detail)
    assert not misses, (
        f"components outside ±10%: {misses}; vol/skew/kurt reproduce the "
        "published values to their printed precision, the average "
        "annualized mean does not at any searched convention (see README "
        "Reproduction notes)"
    )


@pytest.fixture(scope="module")
def regulated_summaries(init_alt):
    rows = {}
    for n in (2, 3, 4, 5, 6, 17):
        for regime in ("prick", "prop"):
            rows[(regime, n)] = summarize_regime(
                RULE, W, init_alt, RegulationPolicy(regime, n), ticks=BASELINE_TICKS
            )
    return rows


def test_criterion_6_qualitative_structure(baseline_summary, regulated_summaries, init_alt):
    problems = []
    for n in range(2, 7):
        for regime in ("prick", "prop"):
            row = regulated_summaries[(regime, n)]
            if not row.avg_annualized_mean > baseline_summary.avg_annualized_mean:
                problems.append(f"{regime}:{n} mean not above baseline")
            if not row.avg_annualized_vol < baseline_summary.avg_annualized_vol:
                problems.append(f"{regime}:{n} vol not below baseline")
            if not row.skew_max_dev < 2.66:
                problems.append(f"{regime}:{n} skew dev >= 2.66")
            if not row.kurt_max_dev < 18.91:
                problems.append(f"{regime}:{n} kurt dev >= 18.91")
    if not (
        regulated_summaries[("prick", 2)].avg_annualized_mean
        > regulated_summaries[("prop", 2)].avg_annualized_mean
    ):
        problems.append("prick:2 mean does not exceed prop:2 mean")
    for n in range(2, 7):
        for regime in ("prick", "prop"):
            report = find_cycle(RULE, W, init_alt, RegulationPolicy(regime, n))
            if not report.cycle_length < 4_194_303:
                problems.append(f"{regime}:{n} cycle not shorter than baseline")
    _report("6 (qualitative structure)", not problems, f"problems={problems or 'none'}")
    assert not problems


def test_reference_n17_deviations(regulated_summaries):
    # reference values for n = 17: skew (kurt) deviations 0.69 (1.25)
    # under prick and 2.43 (14.66) under prop
    checks = [
        (("prick", 17), "skew_max_dev", 0.69),
        (("prick", 17), "kurt_max_dev", 1.25),
        (("prop", 17), "skew_max_dev", 2.43),
        (("prop", 17), "kurt_max_dev", 14.66),
    ]
    for key, attr, target in checks:
        got = getattr(regulated_summaries[key], attr)
        assert got == pytest.approx(target, rel=0.02), (key, attr, got, target)


def test_reference_n2_rows(regulated_summaries):
    # reference n=2 rows reproduce to their printed precision
    prick2 = regulated_summaries[("prick", 2)]
    prop2 = regulated_summaries[("prop", 2)]
    assert prick2.avg_annualized_mean == pytest.approx(39.27, rel=0.005)
    assert prop2.avg_annualized_mean == pytest.approx(30.55, rel=0.005)
    assert prick2.skew_max_dev == pytest.approx(0.64, rel=0.02)
    assert prick2.kurt_max_dev == pytest.approx(1.61, rel=0.02)
    assert prop2.skew_max_dev == pytest.approx(0.81, rel=0.02)
    assert prop2.kurt_max_dev == pytest.approx(1.10, rel=0.02)


def test_criterion_7_scaling_invariance(init_alt):
    series = simulate(RULE, W, init_alt, NONE, BASELINE_TICKS)
    rm1 = rolling_moments(aggregate_days(series, scale=0.00025))
    rm2 = rolling_moments(aggregate_days(series, scale=0.0005))
    mean_ok = np.array_equal(rm2.mean, 2.0 * rm1.mean)
    vol_ok = np.array_equal(rm2.vol, 2.0 * rm1.vol)
    skew_ok = np.array_equal(rm2.skew, rm1.skew, equal_nan=True)
    kurt_ok = np.array_equal(rm2.kurt, rm1.kurt, equal_nan=True)
    passed = mean_ok and vol_ok and skew_ok and kurt_ok
    _report(
        "7 (scaling invariance)",
        passed,
        f"mean x2={mean_ok} vol x2={vol_ok} skew bit-identical={skew_ok} "
        f"kurt bit-identical={kurt_ok}",
    )
    assert passed


def test_criterion_8_rolling_oracle():
    rng = np.random.default_rng(20260809)
    # synthetic 10,000-day input with heavy bursts, like the model's output
    returns = 0.0115 * rng.standard_t(df=3, size=10_000)
    returns[rng.integers(0, 10_000, size=40)] *= 8.0
    rm = rolling_moments(returns, window_days=256)
    worst = 0.0
    for t in range(len(rm)):
        mean, vol, skew, kurt = oracles.window_moments(
            returns[t : t + 256].tolist()
        )
        worst = max(
            worst,
            abs(rm.mean[t] - mean),
            abs(rm.vol[t] - vol),
            abs(rm.skew[t] - skew),
            abs(rm.kurt[t] - kurt),
        )
    _report("8 (rolling oracle)", worst <= 1e-12, f"max abs deviation={worst:.3e}")
    assert worst <= 1e-12


def test_criterion_9_determinism(tmp_path):
    configs = {
        "cycle": ["cycle", "--w", "16"],
        "simulate": ["simulate", "--w", "16", "--ticks", "5000", "--policy", "prick:4"],
        "moments": ["moments", "--w", "16", "--ticks-per-day", "128", "--window-days", "16"],
        "table1": [
            "table1", "--w", "14", "--ticks", "20000", "--ticks-per-day", "64",
            "--window-days", "8", "--n-min", "2", "--n-max", "4", "--workers", "2",
        ],
        "survey": ["survey", "--w", "10", "--init", "all_up", "--workers", "2"],
    }
    mismatched = []
    for name, argv in configs.items():
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            extra = (
                ["--ticks-out", str(out)] if name == "simulate" else ["--out", str(out)]
            )
            assert cli_main(argv + extra) == 0
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    _report("9 (determinism)", not mismatched, f"mismatched={mismatched or 'none'}")
    assert not mismatched


def test_default_cli_cycle_reports_anchor(tmp_path):
    out = tmp_path / "cycle.json"
    assert cli_main(["cycle", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cycle_length"] == 4_194_303
    assert payload["config"]["rule"] == 54 and payload["config"]["w"] == 22


def test_prick6_cycle_much_shorter(init_alt):
    report = find_cycle(RULE, W, init_alt, RegulationPolicy("prick", 6))
    assert report.cycle_length < 4_194_303
    # frozen from a verified run of this build
    assert (report.transient_length, report.cycle_length) == (3456, 8865)
