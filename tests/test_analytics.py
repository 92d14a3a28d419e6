import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifamarket.analytics import (
    DayReturns,
    aggregate_days,
    annualize,
    max_deviation,
    quantile_summary,
    rolling_moments,
    summarize_regime,
    table1,
)
from ifamarket.ifa import decode_rule
from ifamarket.market import window_from_literal
from ifamarket.regulation import RegulationPolicy

import oracles


def test_aggregate_all_up_day():
    days = aggregate_days(np.ones(2048, dtype=np.uint8))
    assert days.returns.tolist() == [0.512]


def test_aggregate_balanced_day():
    moves = np.concatenate([np.ones(1024, dtype=np.uint8), np.zeros(1024, dtype=np.uint8)])
    assert aggregate_days(moves).returns.tolist() == [0.0]


def test_aggregate_truncates_partial_day():
    days = aggregate_days(np.ones(3000, dtype=np.uint8))
    assert len(days) == 1


def test_aggregate_zero_and_bad_args():
    assert len(aggregate_days(np.empty(0, dtype=np.uint8))) == 0
    with pytest.raises(ValueError):
        aggregate_days(np.ones(10, dtype=np.uint8), ticks_per_day=0)


@settings(max_examples=30, deadline=None)
@given(
    moves=st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=400),
    ticks_per_day=st.integers(min_value=1, max_value=37),
)
def test_aggregate_matches_reference(moves, ticks_per_day):
    ours = aggregate_days(np.asarray(moves, dtype=np.uint8), ticks_per_day, 0.001)
    assert ours.returns.tolist() == pytest.approx(
        oracles.day_returns(moves, ticks_per_day, 0.001), abs=1e-15
    )


@pytest.mark.parametrize("ticks_per_day", [1, 7, 8, 9, 2048, 2049])
def test_aggregate_is_the_exact_day_sum(ticks_per_day):
    # the packed count of UPs equals the int64 sum of the 0/1 moves of
    # every day exactly, whether or not a day fills whole bytes
    rng = np.random.default_rng(ticks_per_day)
    moves = rng.integers(0, 2, size=5 * ticks_per_day + 3, dtype=np.uint8)
    num_days = moves.size // ticks_per_day
    ups = moves[: num_days * ticks_per_day].reshape(num_days, -1).astype(np.int64)
    net = 2 * ups.sum(axis=1) - ticks_per_day
    days = aggregate_days(moves, ticks_per_day, 0.00025)
    assert days.returns.tobytes() == (0.00025 * net.astype(np.float64)).tobytes()


def test_rolling_two_point_symmetric_window():
    c = 0.0125
    returns = np.tile([c, -c], 8)  # one 16-day window
    rm = rolling_moments(DayReturns(returns=returns), window_days=16)
    assert len(rm) == 1
    assert rm.mean[0] == 0.0
    assert rm.skew[0] == 0.0
    assert rm.kurt[0] == 1.0


def test_rolling_constant_window_undefined_shapes():
    rm = rolling_moments(DayReturns(returns=np.full(8, 0.25)), window_days=4)
    assert np.all(rm.vol == 0.0)
    assert np.all(np.isnan(rm.skew))
    assert np.all(np.isnan(rm.kurt))
    with pytest.raises(ValueError):
        max_deviation(rm)


def test_rolling_equal_values_have_no_variance_despite_rounding():
    # 0.016 is not a dyadic fraction, so the window mean rounds and the
    # deviations are not exactly 0; the window is still of equal values
    rm = rolling_moments(np.full(600, 0.016), 100)
    assert np.all(rm.vol == 0.0)
    assert np.all(np.isnan(rm.skew)) and np.all(np.isnan(rm.kurt))


def test_rolling_requires_enough_days():
    with pytest.raises(ValueError):
        rolling_moments(DayReturns(returns=np.zeros(5)), window_days=6)


def test_rolling_alignment():
    returns = np.arange(10, dtype=np.float64)
    rm = rolling_moments(DayReturns(returns=returns), window_days=4)
    assert len(rm) == 7
    assert rm.mean[0] == returns[:4].mean()
    assert rm.mean[-1] == returns[6:].mean()


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False).map(
            lambda x: 0.0 if abs(x) < 1e-6 else x  # keep m2 out of denormals
        ),
        min_size=12,
        max_size=200,
    ),
    window=st.integers(min_value=2, max_value=12),
)
def test_rolling_matches_per_window_reference(data, window):
    if len(data) < window:
        data = data + [0.0] * (window - len(data))
    rm = rolling_moments(DayReturns(returns=np.array(data)), window_days=window)
    for t in range(len(rm)):
        mean, vol, skew, kurt = oracles.window_moments(data[t : t + window])
        assert rm.mean[t] == pytest.approx(mean, abs=1e-12)
        assert rm.vol[t] == pytest.approx(vol, abs=1e-12)
        if math.isnan(skew):
            assert math.isnan(rm.skew[t]) and math.isnan(rm.kurt[t])
        else:
            assert rm.skew[t] == pytest.approx(skew, abs=1e-9)
            assert rm.kurt[t] == pytest.approx(kurt, abs=1e-9)


@pytest.mark.parametrize("num_windows", [255, 256, 257, 1793])
def test_rolling_moments_do_not_depend_on_the_block_size(monkeypatch, num_windows):
    # every output is bit-identical whatever the number of windows per
    # block, NaN windows (a constant stretch longer than a window) included
    from ifamarket import analytics

    window = 256
    rng = np.random.default_rng(num_windows)
    returns = 0.00025 * rng.integers(-64, 65, size=num_windows + window - 1)
    returns[100:400] = 0.0
    outputs = []
    for block in (1, 7, 256, 1 << 16):
        monkeypatch.setattr(analytics, "_BLOCK_VALUES", block * window)
        rm = rolling_moments(returns, window_days=window)
        outputs.append([a.tobytes() for a in (rm.mean, rm.vol, rm.skew, rm.kurt)])
    assert np.isnan(rm.skew).sum() >= 45
    assert all(out == outputs[0] for out in outputs[1:])


def test_annualize_scales_mean_and_vol_only():
    rng = np.random.default_rng(7)
    rm = rolling_moments(
        DayReturns(returns=rng.normal(0, 0.01, 600)), window_days=256
    )
    ann = annualize(rm, days_per_year=252)
    assert np.allclose(ann.mean, rm.mean * 252, rtol=0, atol=0)
    assert np.allclose(ann.vol, rm.vol * math.sqrt(252), rtol=0, atol=0)
    assert np.array_equal(ann.skew, rm.skew)
    assert np.array_equal(ann.kurt, rm.kurt)
    assert annualize(rm, 252).mean[0] == pytest.approx(rm.mean[0] * 252)


def test_annualize_arithmetic_examples():
    rm = rolling_moments(DayReturns(returns=np.array([0.001] * 5 + [0.0, 0.002] * 3)), window_days=8)
    ann = annualize(rm, 252)
    assert ann.mean[0] == pytest.approx(rm.mean[0] * 252)
    assert ann.vol[0] == pytest.approx(rm.vol[0] * math.sqrt(252))


def test_scale_equivariance_is_exact_for_doubling():
    rng = np.random.default_rng(11)
    net = rng.integers(-2048, 2049, size=800)
    base = DayReturns(returns=0.00025 * net.astype(np.float64))
    doubled = DayReturns(returns=0.0005 * net.astype(np.float64))
    rm1 = rolling_moments(base, 256)
    rm2 = rolling_moments(doubled, 256)
    assert np.array_equal(rm2.mean, 2.0 * rm1.mean)
    assert np.array_equal(rm2.vol, 2.0 * rm1.vol)
    assert np.array_equal(rm2.skew, rm1.skew, equal_nan=True)
    assert np.array_equal(rm2.kurt, rm1.kurt, equal_nan=True)


def test_shift_invariance_over_repeated_cycles():
    rng = np.random.default_rng(13)
    period = rng.normal(0, 0.01, 50)
    rm = rolling_moments(DayReturns(returns=np.tile(period, 3)), window_days=20)
    # windows one period apart see identical data, bit for bit
    assert np.array_equal(rm.mean[:50], rm.mean[50:100])
    assert np.array_equal(rm.vol[:50], rm.vol[50:100])
    assert np.array_equal(rm.skew[:50], rm.skew[50:100], equal_nan=True)
    assert np.array_equal(rm.kurt[:50], rm.kurt[50:100], equal_nan=True)


def test_max_deviation_ignores_undefined_windows():
    returns = np.concatenate([np.full(6, 0.25), [0.25, -0.25] * 6])
    rm = rolling_moments(DayReturns(returns=returns), window_days=6)
    skew_dev, kurt_dev = max_deviation(rm)
    assert skew_dev >= 0 and kurt_dev >= 0
    assert not math.isnan(skew_dev) and not math.isnan(kurt_dev)


def test_quantile_summary_examples():
    assert quantile_summary([5.0]) == (5, 5, 5, 5, 5)
    # linear interpolation between order statistics
    assert quantile_summary([1, 2, 3, 4, 5]) == (1.0, 1.4, 3.0, 4.6, 5.0)
    with pytest.raises(ValueError):
        quantile_summary([])


def test_day_return_bound_invariant():
    with pytest.raises(ValueError):
        DayReturns(
            returns=np.array([0.6]), ticks_per_day=2048, scale=0.00025
        )


def test_table1_builds_one_decision_table(monkeypatch):
    # with one worker the orbit search for the span and every row walk
    # the tables of one shared machine, and the rows equal rows
    # summarized one at a time
    from ifamarket import _engine

    init = window_from_literal("alternating_up_first", 12)
    small = dict(ticks_per_day=64, window_days=8)
    calls = []
    decision_table = _engine.decision_table

    def counting(*args):
        calls.append(args)
        return decision_table(*args)

    monkeypatch.setattr(_engine, "decision_table", counting)
    table1(decode_rule(54), 12, init, n_range=range(2, 5), workers=1, **small)
    # one for the unregulated orbit of find_cycle and all 7 rows
    assert len(calls) == 1
    calls.clear()
    # rule 30 decides differently from automaton state 1, so a table
    # built from the wrong state would show in the rows.  Its orbits here
    # close within 4w ticks, so its rows build a table only with the
    # scalar walk of Machine.run switched off: no budget and no probe
    short_days = dict(ticks_per_day=5, window_days=8)
    rule30 = decode_rule(30)
    probed = table1(
        rule30, 12, init, n_range=range(2, 5), ticks=600, workers=1, **short_days
    )
    assert len(calls) == 0
    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 0)
    monkeypatch.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
    rows = table1(
        rule30, 12, init, n_range=range(2, 5), ticks=600, workers=1, **short_days
    )
    assert len(calls) == 1
    monkeypatch.undo()
    assert probed == rows
    expected = [
        summarize_regime(
            rule30, 12, init, RegulationPolicy.parse(p), 600, **short_days
        )
        for p in ["none", "prick:2", "prick:3", "prick:4", "prop:2", "prop:3", "prop:4"]
    ]
    assert rows == expected


def test_table1_builds_no_table_where_every_orbit_closes_within_4w_ticks(monkeypatch):
    # rule 150 at w = 16 closes every orbit from alternating within 64
    # ticks, while its rows run 524,288 ticks each, far past 2**w / 8:
    # each row tiles its probe, and the machine shares no table
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a decision table was built")

    init = window_from_literal("alternating_up_first", 16)
    monkeypatch.setattr(_engine, "decision_table", no_table)
    rows = table1(decode_rule(150), 16, init, workers=1)
    monkeypatch.undo()
    assert len(rows) == 39 and {row.ticks for row in rows} == {256 * 2048}
    monkeypatch.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
    assert table1(decode_rule(150), 16, init, workers=1) == rows


@pytest.mark.parametrize("number, outlast, longest", [(35, 34, 236), (97, 24, 96)])
def test_table1_rows_that_close_within_the_scalar_budget_build_no_table(
    monkeypatch, number, outlast, longest
):
    # rule 35 is not bijective and rule 97 is, but neither is affine, so
    # neither cuts and no row builds a table.  From all-UP, some regulated
    # orbits, the oracle's, outlast the 4w-tick probe, and all close
    # within the scalar budget (512 ticks at w = 16); with the budget
    # forced down to 4w those rows walk on past it with the seen bitmap,
    # to the same rows
    from ifamarket import _engine
    from ifamarket.market import find_cycle

    rule, w = decode_rule(number), 16
    init = window_from_literal("all_up", w)
    decisions = _engine.decision_table(rule, w)
    half = decisions.size // 2
    assert bool((decisions[:half] != decisions[half:]).all()) == (number == 97)
    assert not _engine.Machine(rule, w).cuts
    assert _engine._scalar_budget(w) == 512
    policies = [
        RegulationPolicy(regime, n) for regime in ("both", "prick", "prop") for n in range(2, 21)
    ]
    spans = [sum(oracles.orbit(rule, oracles.window_moves(init), p)) for p in policies]
    assert spans == [sum(dataclasses.astuple(find_cycle(rule, w, init, p))) for p in policies]
    assert sum(span > 4 * w for span in spans) == outlast and max(spans) == longest

    def no_table(*args):
        pytest.fail("a decision table was built")

    walked, walk_scalar = [], _engine.walk_scalar

    def listed_walk(*args):
        walk = walk_scalar(*args)
        walked.append(len(walk[1]) - 1)
        return walk

    monkeypatch.setattr(_engine, "decision_table", no_table)
    rows = table1(rule, w, init, include_both=True, workers=1)
    assert len(rows) == 58
    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 4 * w)
    monkeypatch.setattr(_engine, "walk_scalar", listed_walk)
    assert table1(rule, w, init, include_both=True, workers=1) == rows
    assert max(walked) > 4 * w


def test_table1_rows_share_one_cut_state_when_together_they_are_long(monkeypatch):
    # rule 54 at w = 14 over 2,000 ticks: past the scalar budget (147
    # ticks) and short of 2**w / 8 (2,048), so no row is a long run alone,
    # but the 38 regulated rows together are.  table1 builds one cut state
    # and cuts every row whose orbit, the oracle's, outlasts the 4w-tick
    # probe, with the oracle's moves; the others close in the probe
    from ifamarket import _engine

    rule, w, ticks = decode_rule(54), 14, 2000
    init = window_from_literal("alternating_up_first", w)
    init_moves = oracles.window_moves(init)
    assert _engine._scalar_budget(w) < ticks < (1 << w) >> 3
    builds, cuts = [], []
    cut_state, cut_run = _engine.Machine._cut_state, _engine.Machine._cut_run

    def counted_build(self):
        builds.append(self._cut is None)
        return cut_state(self)

    def counted_cut(self, policy, start, num_ticks=None):
        moves = cut_run(self, policy, start, num_ticks)
        assert moves.tolist() == oracles.simulate(rule, init_moves, policy, num_ticks)
        cuts.append(policy)
        return moves

    monkeypatch.setattr(_engine.Machine, "_cut_state", counted_build)
    monkeypatch.setattr(_engine.Machine, "_cut_run", counted_cut)
    small = dict(ticks_per_day=10, window_days=8)
    rows = table1(rule, w, init, ticks=ticks, workers=1, **small)
    assert len(rows) == 39 and {row.ticks for row in rows} == {ticks}
    assert builds.count(True) == 1
    policies = [RegulationPolicy.parse(row.policy) for row in rows[1:]]
    outlast = [p for p in policies if sum(oracles.orbit(rule, init_moves, p)) > 4 * w]
    assert cuts == outlast and 0 < len(outlast) < len(policies)


def test_table1_rows_without_a_defined_window_report_nan_shapes():
    # rule 255 always decides UP: unregulated, every day returns the same
    # 64 ticks, so no rolling window has a shape, while mean and vol are
    # defined; prick:2 breaks the runs and its row has shapes
    init = window_from_literal("alternating_up_first", 12)
    rows = table1(
        decode_rule(255), 12, init, n_range=range(2, 3), ticks_per_day=64, window_days=8
    )
    none, prick = rows[0], rows[1]
    assert none.policy == "none" and prick.policy == "prick:2"
    assert none.avg_annualized_mean == pytest.approx(64 * 0.00025 * 252)
    assert none.avg_annualized_vol == 0.0
    assert math.isnan(none.skew_max_dev) and math.isnan(none.kurt_max_dev)
    assert math.isfinite(prick.skew_max_dev) and math.isfinite(prick.kurt_max_dev)


def test_table1_rows_share_the_cut_index(monkeypatch):
    # the machine the rows map over already holds the cut index and the
    # cycle moves of the unregulated orbit, so worker processes inherit
    # them instead of each building its own
    from ifamarket import analytics

    def inline(fn, items, workers):
        machine = fn.keywords["machine"]
        assert machine._cut is not None
        return list(map(fn, items))

    monkeypatch.setattr(analytics, "ordered_map", inline)
    init = window_from_literal("alternating_up_first", 12)
    rows = table1(
        decode_rule(54), 12, init, n_range=range(2, 5), ticks_per_day=64, window_days=8
    )
    assert len(rows) == 7


def test_table1_rows_do_not_depend_on_workers():
    # one machine per worker process gives the rows of one shared machine
    init = window_from_literal("alternating_up_first", 12)
    small = dict(ticks_per_day=64, window_days=8, include_both=True)
    rule = decode_rule(54)
    serial = table1(rule, 12, init, n_range=range(2, 14), workers=1, **small)
    parallel = table1(rule, 12, init, n_range=range(2, 14), workers=2, **small)
    assert len(serial) == 1 + 3 * 12
    assert parallel == serial


@pytest.mark.parametrize("workers", [1, 2])
def test_table1_rows_come_in_policy_order(workers):
    # none first, then each regime by name, each at n in increasing
    # order, whatever order n_range gives them in
    init = window_from_literal("alternating_up_first", 12)
    small = dict(ticks_per_day=64, window_days=8)
    rule = decode_rule(54)
    rows = table1(
        rule, 12, init, n_range=[4, 2, 3], include_both=True, workers=workers, **small
    )
    assert [row.policy for row in rows] == ["none"] + [
        f"{regime}:{n}" for regime in ("both", "prick", "prop") for n in (2, 3, 4)
    ]


def test_rows_leave_the_machine_unregulated(monkeypatch):
    # after every row's walk, scalar or cut, the machine's held orbit and
    # cut state are the ones it held before, also when a cut raises, and
    # the cut's marks are clear
    from ifamarket import _engine
    from ifamarket.market import Machine, simulate

    w = 12
    rule = decode_rule(54)
    init = window_from_literal("alternating_up_first", w)
    machine = Machine(rule, w)
    machine.orbit(RegulationPolicy("none"), init.bits)
    held = machine._held[1].copy()
    policies = [
        RegulationPolicy(regime, n)
        for n in range(1, w + 3)
        for regime in ("prick", "prop", "both")
    ]

    def rows():
        for policy in policies:
            series = simulate(rule, w, init, policy, 1 << w, machine=machine)
            assert series == simulate(rule, w, init, policy, 1 << w), policy
            assert np.array_equal(machine._held[1], held), policy

    def failing_walk(*args, **kwargs):
        raise RuntimeError("walk failed")

    rows()
    pos, moves, windows, starts, marks = machine._cut
    cut = [array.copy() for array in (pos, moves, windows)]
    with monkeypatch.context() as mp:
        # every cut looks up its first cycle's bounds once its marks are made
        mp.setattr(_engine, "bisect_right", failing_walk)
        for text in ("prick:3", "prick:9", "both:12"):
            policy = RegulationPolicy.parse(text)
            with pytest.raises(RuntimeError, match="walk failed"):
                simulate(rule, w, init, policy, 1 << w, machine=machine)
            assert np.array_equal(machine._held[1], held), policy
            assert marks == bytearray(1 << w), policy
    machine.share(policies, init.bits, 1 << w)
    assert machine._cut[0] is pos
    rows()
    assert all(np.array_equal(a, b) for a, b in zip((pos, moves, windows), cut))
    assert marks == bytearray(1 << w)
    assert not machine._held[1].flags.writeable


def test_machine_must_match_rule_and_width():
    from ifamarket.market import Machine

    init = window_from_literal("alternating_up_first", 12)
    with pytest.raises(ValueError, match="machine of rule 30 at w 12"):
        summarize_regime(decode_rule(54), 12, init, RegulationPolicy("none"),
                         machine=Machine(decode_rule(30), 12))
