import bisect
import concurrent.futures
import functools
import os
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifamarket.ifa import decode_rule
from ifamarket.market import (
    CycleReport,
    WindowState,
    describe_window,
    find_cycle,
    simulate,
    window_from_literal,
)
from ifamarket.regulation import RegulationPolicy

import oracles

NONE = RegulationPolicy("none")


def test_initial_window_alternating():
    win = window_from_literal("alternating_up_first", 4)
    assert oracles.window_moves(win) == [1, 0, 1, 0]


def test_initial_window_all_up():
    assert oracles.window_moves(window_from_literal("all_up", 3)) == [1] * 3


def test_initial_window_custom():
    assert oracles.window_moves(window_from_literal("D", 1)) == [0]
    with pytest.raises(ValueError):
        window_from_literal("D", 3)
    with pytest.raises(ValueError):
        window_from_literal("diagonal", 3)


def test_window_literals():
    assert window_from_literal("alternating", 4).bits == 0b1010
    assert window_from_literal("all_up", 3).bits == 0b111
    assert oracles.window_moves(window_from_literal("UDD", 3)) == [1, 0, 0]
    with pytest.raises(ValueError):
        window_from_literal("UDX", 3)
    with pytest.raises(ValueError):
        window_from_literal("UD", 3)


@given(st.text(alphabet="UD", min_size=1, max_size=30))
def test_window_state_round_trip(literal):
    bits = 0
    for move in literal:  # oldest first, so the newest lands in bit 0
        bits = 2 * bits + (move == "U")
    win = window_from_literal(literal, len(literal))
    assert (win.bits, win.width) == (bits, len(literal))
    assert describe_window(win) == literal


def test_window_kinds_are_their_literals():
    for w in range(1, 31):
        alternating = "".join("UD"[i % 2] for i in range(w))
        for kind, literal in [
            ("alternating", alternating),
            ("alternating_up_first", alternating),
            ("all_up", "U" * w),
        ]:
            assert window_from_literal(kind, w) == window_from_literal(literal, w)


@pytest.mark.parametrize(
    "literal, w",
    [("", 3), ("UDX", 3), ("UDUD", 3), ("UD", 3), ("alternating", 0),
     ("all_up", 0), ("alternating", 31), ("U" * 31, 31)],
)
def test_bad_window_literals(literal, w):
    with pytest.raises(ValueError):
        window_from_literal(literal, w)


def test_window_state_validation():
    with pytest.raises(ValueError):
        WindowState(bits=8, width=3)
    with pytest.raises(ValueError):
        WindowState(bits=0, width=0)
    with pytest.raises(ValueError):
        WindowState(bits=0, width=31)


def test_simulate_zero_ticks():
    series = simulate(decode_rule(54), 4, window_from_literal("all_up", 4), NONE, 0)
    assert len(series) == 0
    assert series.policy == "none"


def test_simulate_rejects_bad_args():
    init = window_from_literal("all_up", 4)
    with pytest.raises(ValueError):
        simulate(decode_rule(54), 5, init, NONE, 3)
    with pytest.raises(ValueError):
        simulate(decode_rule(54), 4, init, NONE, -1)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=9),
    init_bits=st.integers(min_value=0, max_value=(1 << 9) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    n=st.integers(min_value=1, max_value=12),
    ticks=st.integers(min_value=0, max_value=64),
)
def test_simulate_matches_reference(k, w, init_bits, regime, n, ticks):
    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    series = simulate(decode_rule(k), w, init, policy, ticks)
    expected = oracles.simulate(
        decode_rule(k), oracles.window_moves(init), policy, ticks
    )
    assert series.moves.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=2, max_value=8),
    init_bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    data=st.data(),
)
def test_find_cycle_matches_reference(k, w, init_bits, regime, data):
    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    n = data.draw(st.integers(min_value=1, max_value=3 * w), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    report = find_cycle(decode_rule(k), w, init, policy)
    transient, cycle = oracles.orbit(
        decode_rule(k), oracles.window_moves(init), policy
    )
    assert (report.transient_length, report.cycle_length) == (transient, cycle)
    # a trend length n > w adds at most n - w states per all-UP / all-DOWN window
    states = (1 << w) + 2 * max(n - w, 0)
    assert 1 <= report.cycle_length <= states
    assert report.transient_length + report.cycle_length <= states


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=9),
    init_bits=st.integers(min_value=0, max_value=(1 << 9) - 1),
    regime=st.sampled_from(["prick", "prop", "both"]),
    path=st.sampled_from(["auto", "scalar", "direct", "cap", "long"]),
    cut=st.booleans(),
    ticks=st.integers(min_value=0, max_value=120),
    data=st.data(),
)
def test_trend_longer_than_window_matches_reference(
    k, w, init_bits, regime, path, cut, ticks, data
):
    # n > w: the clamped machine stretched at its held windows, on every
    # engine path, against the oracles that track the whole history.
    # "direct" finds every orbit by the direct walk on the step table,
    # "cap" and "long" cap that walk at 0 ticks, so that a bijective
    # affine machine cuts every orbit; all but "scalar" switch off the
    # scalar budget and the 4w-tick probe.  With ``cut`` the rule is a
    # bijective affine one and its machine holds the cut state, so that
    # its long runs ("long" makes every run long) are cuts
    from ifamarket import _engine

    machine = None
    if cut:
        cutting = [j for j in range(256) if _engine.Machine(decode_rule(j), w).cuts]
        k = cutting[k % len(cutting)]
        machine = _engine.Machine(decode_rule(k), w)
        machine._cut_state()
    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    n = data.draw(st.integers(min_value=w + 1, max_value=3 * w), label="n")
    policy = RegulationPolicy(regime, n)
    init_moves = oracles.window_moves(init)
    with pytest.MonkeyPatch.context() as mp:
        if path != "auto":
            budget = 1 << 62 if path == "scalar" else 0
            mp.setattr(_engine, "_scalar_budget", lambda w: budget)
            if budget == 0:
                mp.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
        if path == "direct":
            mp.setattr(_engine, "_DIRECT_VISIT_SHIFT", 0)
        if path in ("cap", "long"):
            mp.setattr(_engine, "_DIRECT_VISIT_SHIFT", 64)
        if path == "long":
            mp.setattr(_engine, "_DIRECT_EMIT_SHIFT", 64)
        series = simulate(decode_rule(k), w, init, policy, ticks, machine=machine)
        report = find_cycle(decode_rule(k), w, init, policy, machine=machine)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(k), init_moves, policy, ticks
    )
    assert (report.transient_length, report.cycle_length) == oracles.orbit(
        decode_rule(k), init_moves, policy
    )


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=10),
    init_bits=st.integers(min_value=0, max_value=(1 << 10) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    min_ticks=st.integers(min_value=0, max_value=3000),
    data=st.data(),
)
def test_default_span_is_one_orbit_floored(k, w, init_bits, regime, min_ticks, data):
    # num_ticks=None runs transient + one cycle as find_cycle counts them,
    # n > w included, floored at min_ticks, with the oracle's moves
    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    n = data.draw(st.integers(min_value=1, max_value=w + 4), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    report = find_cycle(decode_rule(k), w, init, policy)
    series = simulate(decode_rule(k), w, init, policy, None, min_ticks=min_ticks)
    span = report.transient_length + report.cycle_length
    assert len(series) == max(span, min_ticks)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(k), oracles.window_moves(init), policy, len(series)
    )


def test_find_cycle_constant_rule_fixed_point():
    report = find_cycle(decode_rule(85), 6, window_from_literal("all_up", 6), NONE)
    assert report == CycleReport(transient_length=0, cycle_length=1)


def test_find_cycle_supports_run_state_wider_than_window():
    rule = decode_rule(54)
    init = window_from_literal("all_up", 4)
    policy = RegulationPolicy("prick", 5)
    report = find_cycle(rule, 4, init, policy)
    assert (report.transient_length, report.cycle_length) == oracles.orbit(
        rule, [1, 1, 1, 1], policy
    )
    # constant UP holds all-UP for n - w = 2 ticks past the clamped machine
    report = find_cycle(decode_rule(85), 3, window_from_literal("all_up", 3), policy)
    assert report == CycleReport(transient_length=0, cycle_length=6)
    assert oracles.orbit(decode_rule(85), [1, 1, 1], policy) == (0, 6)


def test_simulate_supports_run_state_wider_than_window():
    # trend length beyond w: all-UP is held n - w ticks past the clamped machine
    rule = decode_rule(85)  # constant UP
    series = simulate(
        rule, 3, window_from_literal("all_up", 3), RegulationPolicy("prick", 5), 8
    )
    # history starts with 3 UPs; runs reach 5 then get pricked
    assert series.moves.tolist() == [1, 1, 0, 1, 1, 1, 1, 1]


def test_simulate_huge_trend_length_returns_quickly():
    # the hold before the first prick is capped at the ticks asked for
    for n in (10**9, 10**18):
        start = time.perf_counter()
        series = simulate(
            decode_rule(85), 3, window_from_literal("all_up", 3),
            RegulationPolicy("prick", n), 50,
        )
        assert series.moves.tolist() == [1] * 50
        assert time.perf_counter() - start < 1.0


def test_determinism_same_inputs_same_series():
    rule = decode_rule(54)
    init = window_from_literal("alternating_up_first", 12)
    policy = RegulationPolicy("both", 3)
    a = simulate(rule, 12, init, policy, 5000)
    b = simulate(rule, 12, init, policy, 5000)
    assert a == b


def test_state_sufficiency_restart_mid_stream():
    rule = decode_rule(54)
    w = 12
    init = window_from_literal("alternating_up_first", w)
    policy = RegulationPolicy("prick", 4)
    full = simulate(rule, w, init, policy, 600)
    cut = 250
    # rebuild the window from the realized prefix and resume
    prefix = oracles.window_moves(init) + full.moves[:cut].tolist()
    mid = window_from_literal("".join("DU"[m] for m in prefix[-w:]), w)
    tail = simulate(rule, w, mid, policy, 600 - cut)
    assert tail.moves.tolist() == full.moves[cut:].tolist()


def test_run_length_bound_under_prick_and_prop():
    rule = decode_rule(54)
    w = 14
    init = window_from_literal("alternating_up_first", w)
    for n in (2, 5, 9):
        for regime, direction in (("prick", 1), ("prop", 0)):
            policy = RegulationPolicy(regime, n)
            moves = simulate(rule, w, init, policy, 20000).moves
            runs = _run_lengths(moves, direction)
            assert runs.max() <= n


def _run_lengths(moves: np.ndarray, value: int) -> np.ndarray:
    padded = np.concatenate(([1 - value], moves, [1 - value]))
    matches = (padded == value).astype(np.int8)
    diffs = np.diff(matches)
    starts = np.flatnonzero(diffs == 1)
    ends = np.flatnonzero(diffs == -1)
    if starts.size == 0:
        return np.zeros(1, dtype=np.int64)
    return ends - starts


def test_every_rung_matches_the_oracles(monkeypatch):
    # the orbit engine against the brute-force oracles, first with its own
    # limits, then forced onto each path: the scalar walk alone (an
    # unbounded budget, which runs on a machine with no cut state take
    # whatever their length), the tables walked tick by tick
    # up to 2**w ticks (budget 0, emit shift 0), and every run long
    # (budget 0, emit shift 64), so that the regulated runs of rule 54, a
    # bijective affine machine, are cuts and the rest walk direct up to
    # 2**w ticks; budget 0 also switches the probe off
    from ifamarket import _engine

    w = 10
    prick3 = RegulationPolicy("prick", 3)
    prick13 = RegulationPolicy("prick", 13)
    # rule 54 from all-UP under prick:3 has transient 101 and cycle 27;
    # neither the cycle nor 3001 ticks is a multiple of w.  prick:13 runs
    # past the window: rule 54 decides DOWN at all-UP, so nothing is held,
    # while rule 156 decides UP there and holds it 3 ticks (transient 4)
    cases = [
        (54, "alternating_up_first", 3000, prick3),
        (54, "all_up", 3001, prick3),
        (54, "all_up", 100, prick3),
        (54, "all_up", 3001, prick13),
        (156, "all_up", 3001, prick13),
    ]
    for budget, shift in ((None, None), (1 << 62, None), (0, 0), (0, 64)):
        if budget is not None:
            monkeypatch.setattr(_engine, "_scalar_budget", lambda w: budget)
            if budget == 0:
                monkeypatch.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
        if shift is not None:
            monkeypatch.setattr(_engine, "_DIRECT_EMIT_SHIFT", shift)
        for k, kind, ticks, policy in cases:
            rule = decode_rule(k)
            init = window_from_literal(kind, w)
            init_moves = oracles.window_moves(init)
            report = find_cycle(rule, w, init, policy)
            assert (report.transient_length, report.cycle_length) == oracles.orbit(
                rule, init_moves, policy
            )
            series = simulate(rule, w, init, policy, ticks)
            assert series.moves.tolist() == oracles.simulate(
                rule, init_moves, policy, ticks
            )
    rule = decode_rule(54)
    long_orbit = find_cycle(rule, w, window_from_literal("all_up", w), prick3)
    assert long_orbit.transient_length > 0 and long_orbit.cycle_length % w != 0
    held = find_cycle(decode_rule(156), w, window_from_literal("all_up", w), prick13)
    assert held == CycleReport(transient_length=4, cycle_length=889)


def test_cycle_validity_window_recurrence():
    # the reported (t, c) really is a recurrence of the window state
    rule = decode_rule(54)
    w = 10
    init = window_from_literal("alternating_up_first", w)
    report = find_cycle(rule, w, init, NONE)
    t, c = report.transient_length, report.cycle_length
    realized = simulate(rule, w, init, NONE, t + 2 * c).moves.tolist()
    history = oracles.window_moves(init) + realized
    state_t = tuple(history[t : t + w])
    state_tc = tuple(history[t + c : t + c + w])
    assert state_t == state_tc
    # and no smaller recurrence at the same offset
    for smaller in range(1, c):
        if tuple(history[t + smaller : t + smaller + w]) == state_t:
            pytest.fail(f"cycle {c} not minimal, repeats at {smaller}")


def _oldest_first(window, w):
    return [(window >> age) & 1 for age in range(w - 1, -1, -1)]


def test_scalar_decision_matches_decision_table_and_oracle():
    # every window of every rule at w = 1..10, against the table and the
    # oracle's automaton pass over the window
    from ifamarket import _engine

    for k in range(256):
        rule = decode_rule(k)
        for w in range(1, 11):
            decide = _engine.scalar_decision(rule, w)
            scalar = [decide(x) for x in range(1 << w)]
            assert scalar == _engine.decision_table(rule, w).tolist(), (k, w)
            assert scalar == [
                oracles.decide(rule, _oldest_first(x, w)) for x in range(1 << w)
            ], (k, w)


def test_decision_table_matches_the_oracle():
    # every window of every rule at w = 1..10, read by the oracle's own
    # automaton pass
    from ifamarket import _engine

    for k in range(256):
        rule = decode_rule(k)
        for w in range(1, 11):
            table = _engine.decision_table(rule, w)
            assert table.dtype == np.uint8
            windows = (_oldest_first(x, w) for x in range(1 << w))
            expected = [oracles.decide(rule, window) for window in windows]
            assert table.tolist() == expected, (k, w)


def test_scalar_decision_matches_on_random_wide_windows():
    # 2,000 random (rule, window) draws at w = 22 and at w = 30, and the
    # full w = 22 decision tables of four rules at random windows
    from ifamarket import _engine

    rng = random.Random(20100)
    for w in (22, 30):
        for _ in range(2000):
            rule = decode_rule(rng.randrange(256))
            window = rng.getrandbits(w)
            assert _engine.scalar_decision(rule, w)(window) == oracles.decide(
                rule, _oldest_first(window, w)
            ), (rule, w, window)
    for k in (54, 99, 156, 201):
        rule = decode_rule(k)
        decide = _engine.scalar_decision(rule, 22)
        table = _engine.decision_table(rule, 22)
        windows = [rng.getrandbits(22) for _ in range(2000)]
        assert [decide(x) for x in windows] == table[windows].tolist()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=9),
    init_bits=st.integers(min_value=0, max_value=(1 << 9) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    ticks=st.integers(min_value=0, max_value=1200),
    data=st.data(),
)
def test_scalar_walk_matches_reference(k, w, init_bits, regime, ticks, data):
    # the scalar walk alone, orbit and tiled series, for every policy
    from ifamarket import _engine

    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    n = data.draw(st.integers(min_value=1, max_value=3 * w), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    init_moves = oracles.window_moves(init)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_scalar_budget", lambda w: 1 << 62)
        series = simulate(decode_rule(k), w, init, policy, ticks)
        report = find_cycle(decode_rule(k), w, init, policy)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(k), init_moves, policy, ticks
    )
    assert (report.transient_length, report.cycle_length) == oracles.orbit(
        decode_rule(k), init_moves, policy
    )


def test_scalar_walk_stops_at_budget_or_first_repeat():
    from ifamarket import _engine

    rule = decode_rule(54)
    start = window_from_literal("alternating_up_first", 10).bits
    first, windows = _engine.walk_scalar(rule, 10, NONE, start, 5)
    assert first is None and len(windows) == 6 and windows[0] == start
    transient, cycle = oracles.orbit(rule, _oldest_first(start, 10), NONE)
    first, windows = _engine.walk_scalar(rule, 10, NONE, start, transient + cycle)
    assert (first, len(windows)) == (transient, transient + cycle + 1)
    assert windows[-1] == windows[first]
    assert len(set(windows)) == transient + cycle


def test_direct_walk_continues_the_scalar_walk():
    # the direct walk picks up where the scalar walk's budget ran out and
    # stops at the first repeat, or gives first None past its limit
    from ifamarket import _engine

    w = 10
    rule = decode_rule(54)
    policy = RegulationPolicy("prick", 3)
    start = window_from_literal("all_up", w).bits
    transient, cycle = oracles.orbit(rule, _oldest_first(start, w), policy)
    step = _engine.step_table(_engine.decision_table(rule, w), w, policy)
    whole = _engine.walk_scalar(rule, w, policy, start, transient + cycle)[1]
    for known in (1, 7, transient + cycle):
        first, walked = _engine.walk_scalar(rule, w, policy, start, known - 1)
        assert first is None and len(walked) == known
        first, windows = _engine.walk_direct(step, walked, transient + cycle)
        assert (first, len(windows)) == (transient, transient + cycle + 1)
        assert windows.tolist() == whole
        first, windows = _engine.walk_direct(step, walked, transient + cycle - 1)
        assert first is None and windows.tolist() == whole[:-1]
        first, windows = _engine.walk_direct(step, walked, 0)
        assert first is None and windows.tolist() == [start]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=10),
    start=st.integers(min_value=0, max_value=(1 << 10) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    limit=st.integers(min_value=0, max_value=1 << 11),
    data=st.data(),
)
def test_walks_share_one_contract(k, w, start, regime, limit, data):
    # the scalar and direct walks give the same (first, windows) from the
    # same start and limit; with a limit of 2**w ticks or more every orbit
    # closes, and a regulated orbit cut on a bijective affine machine has
    # the moves of the closed walk
    from ifamarket import _engine

    rule = decode_rule(k)
    n = data.draw(st.integers(min_value=1, max_value=w + 3), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    start &= (1 << w) - 1
    step = _engine.step_table(_engine.decision_table(rule, w), w, policy)
    first, windows = _engine.walk_scalar(rule, w, policy, start, limit)
    direct = _engine.walk_direct(step, [start], limit)
    assert (direct[0], direct[1].tolist()) == (first, windows)
    assert first is not None or len(windows) == limit + 1
    assert first is not None or limit < 1 << w
    if first is not None:
        assert windows[-1] == windows[first] and len(set(windows)) == len(windows) - 1
    machine = _engine.Machine(rule, w)
    if first is not None and machine.cuts and regime != "none":
        cut = machine._cut_run(policy, start)
        assert (cut[0], cut[1].tolist()) == (first, _engine.walk_moves(windows).tolist())


def test_short_run_closed_by_the_scalar_walk_builds_no_table(monkeypatch):
    # rule 54 at w = 16 from alternating under prick:3 closes in 144 + 136
    # ticks, within the scalar budget of 512: a 4,000-tick run tiles that
    # orbit and never needs a decision table
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a decision table was built")

    monkeypatch.setattr(_engine, "decision_table", no_table)
    w, ticks, policy = 16, 4000, RegulationPolicy("prick", 3)
    init = window_from_literal("alternating_up_first", w)
    series = simulate(decode_rule(54), w, init, policy, ticks)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(54), oracles.window_moves(init), policy, ticks
    )


def test_short_run_past_the_scalar_budget_continues_directly():
    # prop:2 at the same size has a cycle of 14,691 ticks: the scalar walk
    # runs out at 512 ticks and the direct walk takes the run to 4,000
    w, ticks, policy = 16, 4000, RegulationPolicy("prop", 2)
    init = window_from_literal("alternating_up_first", w)
    series = simulate(decode_rule(54), w, init, policy, ticks)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(54), oracles.window_moves(init), policy, ticks
    )


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=1, max_value=14),
    start=st.integers(min_value=0, max_value=(1 << 14) - 1),
    regime=st.sampled_from(["none", "prick", "prop", "both"]),
    data=st.data(),
)
def test_no_table_for_an_orbit_within_4w_ticks(k, w, start, regime, data):
    # wherever the oracle's orbit closes within 4w ticks, n <= w or n > w,
    # no router builds a decision table: not find_cycle, not the default
    # span, and neither a short run nor a long one, on either side of
    # 2**w >> 3 ticks; every walk gives the oracle's moves either way
    from ifamarket import _engine

    rule = decode_rule(k)
    n = data.draw(st.integers(min_value=1, max_value=w + 4), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    init = WindowState(bits=start & ((1 << w) - 1), width=w)
    init_moves = oracles.window_moves(init)
    transient, cycle = oracles.orbit(rule, init_moves, policy)
    edge = (1 << w) >> 3
    short = data.draw(st.integers(min_value=0, max_value=max(edge - 1, 0)), label="short")
    long = data.draw(st.integers(min_value=edge, max_value=edge + 8 * w), label="long")
    min_ticks = data.draw(st.integers(min_value=0, max_value=2 * edge), label="min_ticks")

    def no_table(*args):
        pytest.fail("a decision table was built")

    with pytest.MonkeyPatch.context() as mp:
        if transient + cycle <= 4 * w:
            mp.setattr(_engine, "decision_table", no_table)
        report = find_cycle(rule, w, init, policy)
        default = simulate(rule, w, init, policy, None, min_ticks=min_ticks)
        runs = {ticks: simulate(rule, w, init, policy, ticks) for ticks in (short, long)}
    assert (report.transient_length, report.cycle_length) == (transient, cycle)
    assert len(default) == max(transient + cycle, min_ticks)
    runs[len(default)] = default
    for ticks, series in runs.items():
        assert series.moves.tolist() == oracles.simulate(rule, init_moves, policy, ticks)


@pytest.mark.parametrize("w", range(1, 31))
def test_stretch_reads_the_start_window_from_its_bits(w):
    # the held-window counts of a trend length n > w, from a start window
    # of any width, a multiple of 8 or not, equal the counts over the
    # history that oracles.window_moves spells out
    from ifamarket.market import _stretch

    rng = random.Random(w)
    for bits in {0, (1 << w) - 1, rng.getrandbits(w), rng.getrandbits(w)}:
        init = WindowState(bits=bits, width=w)
        moves = np.array([rng.getrandbits(1) for _ in range(3 * w)], dtype=np.uint8)
        moves[w : 2 * w] = bits & 1  # a run that fills the window
        history = oracles.window_moves(init) + moves.tolist()
        for held in ([0], [1], [1, 0]):
            expected = [
                7 if any(history[t : t + w] == [move] * w for move in held) else 0
                for t in range(moves.size)
            ]
            assert _stretch(init, moves, held, 7).tolist() == expected


@pytest.mark.parametrize("w", [7, 8, 16, 17])
def test_trend_longer_than_the_window_matches_the_oracle_at_byte_widths(w):
    # rule 156 decides UP at all-UP, so prick:n with n > w holds it
    rule, policy = decode_rule(156), RegulationPolicy("prick", w + 3)
    for kind in ("all_up", "alternating"):
        init = window_from_literal(kind, w)
        init_moves = oracles.window_moves(init)
        for ticks in (50, (1 << w) >> 3, None):
            series = simulate(rule, w, init, policy, ticks)
            assert series.moves.tolist() == oracles.simulate(
                rule, init_moves, policy, len(series)
            )
        report = find_cycle(rule, w, init, policy)
        assert (report.transient_length, report.cycle_length) == oracles.orbit(
            rule, init_moves, policy
        )


@pytest.mark.parametrize("ticks", [None, 300], ids=["default-span", "given-span"])
def test_simulate_finds_the_held_moves_once(monkeypatch, ticks):
    # a default span reuses the held moves of its orbit walk
    from ifamarket import market

    calls = []
    held_moves = market._held_moves

    def counting(*args):
        calls.append(args)
        return held_moves(*args)

    monkeypatch.setattr(market, "_held_moves", counting)
    rule, w, policy = decode_rule(156), 8, RegulationPolicy("prick", 13)
    init = window_from_literal("all_up", w)
    series = simulate(rule, w, init, policy, ticks)
    assert len(calls) == 1 and held_moves(rule, w, policy) == [1]
    assert series.moves.tolist() == oracles.simulate(
        rule, oracles.window_moves(init), policy, len(series)
    )


def test_orbits_just_past_the_scalar_budget_are_found_directly(monkeypatch):
    # rule 54 at w = 22 under prick:7..10 closes in 43,818 to 61,499
    # ticks: past the scalar budget, within the direct walk, so no cut
    from ifamarket import _engine

    def no_cut(*args):
        pytest.fail("the orbit was cut")

    monkeypatch.setattr(_engine.Machine, "_cut_run", no_cut)
    init = window_from_literal("alternating_up_first", 22)
    lengths = [
        find_cycle(decode_rule(54), 22, init, RegulationPolicy("prick", n))
        for n in (7, 8, 9, 10)
    ]
    assert [(r.transient_length, r.cycle_length) for r in lengths] == [
        (37236, 6701), (1100, 44476), (41311, 2507), (716, 60783)
    ]


def test_bijectivity_is_read_from_the_automaton():
    # the cut's O(w) gate against the table: the unregulated step
    # permutes the windows exactly when every two windows that differ only
    # in the oldest bit decide differently, and a machine cuts exactly
    # when it is affine and permutes them.  128 rule numbers are bijective
    # at w = 1, 96 at w = 2 and 88 from w = 3 on, 18 machines by their
    # smallest numbers, of which 6 are affine
    from ifamarket import _engine
    from ifamarket.survey import machine_groups

    counts = []
    for w in range(1, 15):
        found, cutting = [], []
        for k in range(256):
            decisions = _engine.decision_table(decode_rule(k), w)
            half = decisions.size // 2
            table = bool((decisions[:half] != decisions[half:]).all())
            # affine: every window decides as the zero and unit windows say
            c = int(decisions[0])
            a = sum((int(decisions[1 << i]) ^ c) << i for i in range(w))
            parity = np.bitwise_count(np.arange(1 << w, dtype=np.uint32) & a) & 1
            affine = bool((decisions == c ^ parity).all())
            cuts = _engine.Machine(decode_rule(k), w).cuts
            assert cuts == (table and affine), (k, w)
            if table:
                found.append(k)
            if cuts:
                cutting.append(k)
        counts.append(len(found))
    assert counts == [128, 96] + [88] * 12
    groups = [group[0] for group in machine_groups(14)]
    assert [k for k in groups if k in found] == [
        16, 52, 54, 60, 62, 64, 97, 99, 105, 107, 148, 158, 182, 188, 193, 203, 227, 233
    ]
    assert [k for k in groups if k in cutting] == [16, 54, 60, 64, 99, 105]


def _cutting_machine(rule, w, init):
    """A machine that holds the unregulated cycle of ``init``, found past
    the scalar probe."""
    from ifamarket import _engine

    machine = _engine.Machine(rule, w)
    first, moves = machine.orbit(NONE, init.bits)
    assert machine._held is not None and machine._held[1] is moves
    return machine


def _window_at(machine, p):
    """The window at position ``p`` of the machine's cut state."""
    return int(machine._cut[2][p])


def _run_walks(monkeypatch):
    """A list to which each direct walk that ``Machine.run`` takes appends
    its arguments; orbit searches still walk unlisted."""
    from ifamarket import _engine

    run, walk_direct = _engine.Machine.run, _engine.walk_direct
    running, walks = [], []

    def listed_run(*args):
        running.append(args)
        try:
            return run(*args)
        finally:
            running.pop()

    def listed_walk(*args):
        if running:
            walks.append(args)
        return walk_direct(*args)

    monkeypatch.setattr(_engine.Machine, "run", listed_run)
    monkeypatch.setattr(_engine, "walk_direct", listed_walk)
    return walks


def _counted_cuts(monkeypatch):
    """A list to which each cut appends its ticks, None for an orbit."""
    from ifamarket import _engine

    cut_run, cuts = _engine.Machine._cut_run, []

    def counted_cut(self, policy, start, num_ticks=None):
        cuts.append(num_ticks)
        return cut_run(self, policy, start, num_ticks)

    monkeypatch.setattr(_engine.Machine, "_cut_run", counted_cut)
    return cuts


@pytest.mark.parametrize("w", range(6, 15))
def test_cut_rung_matches_the_oracles(monkeypatch, w):
    # every policy with n <= w, from both standard starts, for rule 54,
    # its relabelling 201 and, up to w = 12, rule 52, which is bijective
    # but not affine: the orbit (first, moves), and a run past the orbit's
    # end, walked as cuts of the machine's unregulated cycles once share
    # has built them, against the oracles.  At w = 6 and 7, x^w + x + 1 is
    # primitive and rule 54's held cycle holds every nonzero window; at
    # w = 8, 9 and 14 it is one of several, and runs that leave it cut
    # another.  With the probe and the direct walk's cap off, every orbit
    # and every run of 54 and 201 is a cut, also one whose orbit closes
    # within 4w ticks, and none walks direct; rule 52 builds no cut state,
    # and its runs walk direct
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 0)
    monkeypatch.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
    monkeypatch.setattr(_engine, "_DIRECT_VISIT_SHIFT", 64)
    cuts = _counted_cuts(monkeypatch)
    walks = _run_walks(monkeypatch)
    groups = [(54, 201)] + ([(52,)] if w <= 12 else [])
    for kind in ("alternating_up_first", "all_up"):
        init = window_from_literal(kind, w)
        init_moves = oracles.window_moves(init)
        for numbers in groups:
            machines = [_engine.Machine(decode_rule(k), w) for k in numbers]
            for machine in machines:
                machine.orbit(NONE, init.bits)
            runs = []
            for regime in ("prick", "prop", "both"):
                for n in range(1, w + 1):
                    policy = RegulationPolicy(regime, n)
                    transient, cycle, moves = oracles.orbit_moves(
                        decode_rule(numbers[0]), init_moves, policy
                    )
                    # a run of at least 2**w / 8 ticks, which tiles the cycle
                    ticks = max(1 << (w - 3), transient + cycle + w)
                    moves += [
                        moves[transient + (t - transient) % cycle]
                        for t in range(len(moves), ticks)
                    ]
                    runs.append((policy, ticks, moves))
                    for machine in machines:
                        first, orbit = machine.orbit(policy, init.bits)
                        assert (first, orbit.size) == (transient, transient + cycle)
                        assert orbit.tolist() == moves[: orbit.size]
            for machine in machines:
                machine.share([policy for policy, _, _ in runs], init.bits, 1 << w)
                assert (machine._cut is not None) == machine.cuts == (52 not in numbers)
                for policy, ticks, moves in runs:
                    assert machine.run(policy, init.bits, ticks).tolist() == moves
    orbits = 2 * 3 * w * 2
    assert (cuts.count(None), len(cuts) - cuts.count(None)) == (orbits, orbits)
    assert len(walks) == (2 * 3 * w if w <= 12 else 0)


@pytest.mark.parametrize("w", range(6, 15))
def test_orbit_searches_through_the_cut_match_the_oracles(monkeypatch, w):
    # with the scalar budget, the probe and the direct walk's cap off,
    # every regulated orbit search of rule 54 and its relabelling 201 is a
    # cut: from both standard starts and two drawn ones, under every
    # policy with n <= w + 3, find_cycle and the default span of simulate
    # give the oracle's transient, cycle and moves (n > w stretches the
    # clamped orbit at its held windows).  The two rules decide every
    # window alike, so one oracle orbit serves both.  Among the orbits are
    # transients that end mid-arc, with a move the policy did not force,
    # so that the cut sees the orbit close only at a later firing window
    # and reads the transient back from the history
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 0)
    monkeypatch.setattr(_engine, "_PROBE_TICKS_PER_BIT", 0)
    monkeypatch.setattr(_engine, "_DIRECT_VISIT_SHIFT", 64)
    cuts = _counted_cuts(monkeypatch)
    rule = decode_rule(54)
    for x in range(1 << w):
        window = _oldest_first(x, w)
        assert oracles.decide(decode_rule(201), window) == oracles.decide(rule, window)
    draws = random.Random(w)
    starts = [window_from_literal(kind, w).bits for kind in ("alternating", "all_up")]
    starts += [draws.getrandbits(w) for _ in range(2)]
    machines = [_engine.Machine(decode_rule(k), w) for k in (54, 201)]
    searches = mid_arc = 0
    for start in starts:
        init, init_moves = WindowState(bits=start, width=w), _oldest_first(start, w)
        for regime in ("prick", "prop", "both"):
            for n in range(1, w + 4):
                policy = RegulationPolicy(regime, n)
                transient, cycle, moves = oracles.orbit_moves(rule, init_moves, policy)
                for machine in machines:
                    case = machine.rule.rule_number, start, policy
                    report = find_cycle(machine.rule, w, init, policy, machine=machine)
                    assert (report.transient_length, report.cycle_length) == (
                        transient, cycle
                    ), case
                    series = simulate(machine.rule, w, init, policy, None, machine=machine)
                    assert series.moves.tolist() == moves, case
                    searches += 2
                window = (init_moves + moves)[transient - 1 : transient - 1 + w]
                mid_arc += n <= w and transient > 0 and (
                    oracles.decide(rule, window) == moves[transient - 1]
                )
    assert cuts == [None] * searches and mid_arc > 0


@functools.lru_cache(maxsize=None)
def _cut_machine(number, w):
    """A machine of a bijective affine rule with its cut state, nothing held."""
    from ifamarket import _engine

    machine = _engine.Machine(decode_rule(number), w)
    machine._cut_state()
    return machine


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cut_runs_from_any_cycle_position_match_the_oracle(data):
    # rule 54 at w = 6..14, which splits into several cycles at w = 8, 9
    # and 14, and rule 150 at w = 6..12, whose many short cycles are
    # walked a window at a time: a run cut from a drawn position of
    # a drawn cycle (one within w of the cycle's end among them, so that
    # an arc wraps), for a span below the first firing window, about
    # transient + cycle or three times that, gives the oracle's moves.
    # n = w and ``none`` fire seldom or never
    number, w = data.draw(
        st.sampled_from([(54, w) for w in range(6, 15)] + [(150, w) for w in range(6, 13)]),
        label="machine",
    )
    rule, machine = decode_rule(number), _cut_machine(number, w)
    starts = machine._cut[3]
    c = data.draw(st.integers(0, len(starts) - 2), label="cycle")
    lo, hi = starts[c], starts[c + 1]
    at = data.draw(st.integers(lo, hi - 1) | st.integers(max(lo, hi - w), hi - 1), label="position")
    regime = data.draw(st.sampled_from(["none", "prick", "prop", "both"]))
    n = data.draw(st.integers(1, w) | st.just(w), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    start = _window_at(machine, at)
    init_moves = _oldest_first(start, w)
    transient, period, _ = oracles.orbit_moves(rule, init_moves, policy)
    orbit = transient + period
    spans = [span for span in (orbit - 1, orbit, orbit + 1, 3 * orbit) if span > 0]
    expected = oracles.simulate(rule, init_moves, policy, 3 * orbit)
    history = init_moves + expected
    fired = [
        t
        for t, move in enumerate(expected[:orbit])
        if oracles.decide(rule, history[t : t + w]) != move
    ]
    if fired and fired[0] > 0:
        spans.append(data.draw(st.integers(1, fired[0]), label="unfired span"))
    for num_ticks in spans:
        moves = machine._cut_run(policy, start, num_ticks)
        assert moves.tolist() == expected[:num_ticks], num_ticks


@pytest.mark.parametrize(
    "number, w, text", [(54, 8, "prop:1"), (54, 14, "prick:2"), (150, 10, "both:3")]
)
def test_cut_runs_from_the_end_of_every_cycle_match_the_oracle(number, w, text):
    # runs of 300 ticks from the last position of every cycle, and from
    # the first few firing windows whose forced move lands on a cycle
    # where the policy never fires, give the oracle's moves; among them
    # are runs whose first arc wraps round the end of a cycle other than
    # the first, and runs that follow an unmarked cycle to their end
    from ifamarket import _engine

    rule, machine, ticks = decode_rule(number), _cut_machine(number, w), 300
    policy = RegulationPolicy.parse(text)
    pos, _, _, starts, _ = machine._cut
    fires = set(_engine.firing(machine.decisions, w, policy).tolist())
    marked = {bisect.bisect_right(starts, pos[x]) - 1 for x in fires}
    ends = [_window_at(machine, hi - 1) for hi in starts[1:]]
    forced = {x: ((x << 1) & ((1 << w) - 1)) | (~x & 1) for x in fires}
    onto = sorted(x for x, y in forced.items() if bisect.bisect_right(starts, pos[y]) - 1 not in marked)
    wrapped = landed = 0
    for c, start in enumerate(ends + onto[:4]):
        init_moves = _oldest_first(start, w)
        expected = oracles.simulate(rule, init_moves, policy, ticks)
        assert machine._cut_run(policy, start, ticks).tolist() == expected, start
        wrapped += 0 < c < len(ends) and c in marked and start not in fires
        history = init_moves + expected
        walked = [
            sum(bit << age for age, bit in enumerate(reversed(history[t : t + w])))
            for t in range(ticks + 1)
        ]
        landed += any(
            x in fires and bisect.bisect_right(starts, pos[y]) - 1 not in marked
            for x, y in zip(walked, walked[1:])
        )
    assert wrapped > 0 and landed > 0


def test_unregulated_runs_from_the_held_start_tile_the_held_orbit(monkeypatch):
    # a default span of an orbit past the scalar probe tiles the moves of
    # that one orbit search, which the machine then holds: no cut state,
    # and no run walks direct.  Once share builds the cut state, which starts
    # with the held cycle, its windows rebuilt from the held moves, a cut
    # from another window of the cycle has no firing window, and gives
    # the moves of the unregulated run from there
    from ifamarket import _engine

    w, rule = 12, decode_rule(54)
    init = window_from_literal("alternating_up_first", w)
    init_moves = oracles.window_moves(init)
    machine = _engine.Machine(rule, w)
    walks = _run_walks(monkeypatch)
    series = simulate(rule, w, init, NONE, None, machine=machine)
    assert len(series) == oracles.order_of_x(w)
    assert machine._held is not None and machine._cut is None
    for ticks in (1 << w, 3 * (1 << w) + 5):
        series = simulate(rule, w, init, NONE, None, min_ticks=ticks, machine=machine)
        assert series.moves.tolist() == oracles.simulate(rule, init_moves, NONE, ticks)
        assert machine._cut is None
    machine.share([NONE], init.bits, 5000)
    windows, starts = machine._cut[2:4]
    held = windows[: starts[1]]
    assert held.size == oracles.order_of_x(w)
    assert np.array_equal(held & 1, machine._held[1])
    other = int(held[5])
    expected = oracles.simulate(rule, _oldest_first(other, w), NONE, 5000)
    assert machine._cut_run(NONE, other, 5000).tolist() == expected
    assert machine.run(NONE, other, 5000).tolist() == expected
    assert walks == [], "the run walked direct"


def test_cycle_moves_follow_the_held_orbit():
    # rule 54 from alternating at w = 14 holds a cycle of 11,811 windows,
    # which window 7 is off.  The cut state puts the held cycle first and
    # the 7 other cycles after it; each position holds the unregulated
    # successor of the one before it in its cycle, every window is placed
    # once, and each move is its window's newest bit, the held moves on
    # the held cycle.  The orbit search of 7's unregulated orbit of 3,937
    # then holds that cycle, but the cut state stays, and runs from 7 are
    # cut from it; each cut clears the marks it made
    from ifamarket import _engine

    w, rule, ticks = 14, decode_rule(54), 5000
    init = window_from_literal("alternating_up_first", w)
    machine = _cutting_machine(rule, w, init)
    held_moves = machine._held[1]
    pos, moves, windows, starts, marks = cut = machine._cut_state()
    assert np.array_equal(moves[:11811], held_moves)
    assert starts[:2] == [0, 11811] and starts[-1] == 1 << w
    assert sorted(np.diff(starts).tolist()) == [1, 3, 31, 93, 127, 381, 3937, 11811]
    assert np.array_equal(pos[windows], np.arange(1 << w))
    assert np.array_equal(moves, windows & 1)
    decisions = machine.decisions
    successor = ((windows << 1) & ((1 << w) - 1)) | decisions[windows]
    for lo, hi in zip(starts, starts[1:]):
        assert np.array_equal(successor[lo:hi], np.roll(windows[lo:hi], -1))
    assert pos[7] >= 11811
    first, walked = machine.orbit(NONE, 7)
    assert (first, walked.size) == (0, 3937)
    assert machine._held[1] is walked and machine._cut is cut
    for n in range(2, w + 1):
        for regime in ("prick", "prop"):
            policy = RegulationPolicy(regime, n)
            expected = oracles.simulate(rule, _oldest_first(7, w), policy, ticks)
            assert machine.run(policy, 7, ticks).tolist() == expected, policy
            assert marks == bytearray(1 << w), policy
    # the held moves and the cut state are read-only, but for the marks
    tables = (held_moves, pos, moves, windows)
    assert not any(table.flags.writeable for table in tables)


def test_a_cut_that_fails_clears_its_marks(monkeypatch):
    # the marks are the cut state's one buffer, shared by every cut: a cut
    # that raises part way leaves them clear, and the next cut matches the
    # oracle
    from ifamarket import _engine

    w, rule, ticks = 12, decode_rule(54), 3000
    policy = RegulationPolicy("prick", 4)
    machine = _cut_machine(54, w)
    marks = machine._cut[4]

    def broken(*args):
        raise ZeroDivisionError

    with pytest.MonkeyPatch.context() as mp:
        # every cut looks up its first cycle's bounds once its marks are made
        mp.setattr(_engine, "bisect_right", broken)
        with pytest.raises(ZeroDivisionError):
            machine._cut_run(policy, 7, ticks)
    assert marks == bytearray(1 << w)
    expected = oracles.simulate(rule, _oldest_first(7, w), policy, ticks)
    assert machine._cut_run(policy, 7, ticks).tolist() == expected


def test_orbit_searches_and_surveys_build_no_cut_index(monkeypatch):
    # the cut index is built only for a walk that cuts: the unregulated
    # orbit search of ``cycle``, repeated from the held start, and every
    # classification of a survey hold the cycle they walked but index none
    from ifamarket import _engine
    from ifamarket.survey import survey_rules

    def no_index(self):
        pytest.fail("a cut index was built")

    monkeypatch.setattr(_engine.Machine, "_cut_state", no_index)
    w = 12
    init = window_from_literal("alternating_up_first", w)
    machine = _cutting_machine(decode_rule(54), w, init)
    assert find_cycle(decode_rule(54), w, init, NONE, machine=machine) == CycleReport(
        transient_length=0, cycle_length=oracles.order_of_x(w)
    )
    assert len(survey_rules(w, window_from_literal("all_up", w))) == 256


def test_affine_machines_cycle_as_their_algebra_says():
    # the 10 non-constant affine machines, by their smallest rule numbers,
    # decide c ^ parity(a & window); their orbits from both standard
    # starts follow from (c, a) alone.  Unregulated rule 54 realizes
    # m_t = m_(t-w) xor m_(t-w+1), a shift register with characteristic
    # polynomial x^w + x + 1: its step is a bijection (no transient), and
    # the cycle is the order of x, short where the trinomial factors
    # (w = 8, 9, 16, 17 give 63, 73, 255, 273)
    assert oracles.affine_form(decode_rule(33), 8) is None
    for number in (16, 39, 45, 54, 60, 64, 99, 105, 114, 120):
        rule = decode_rule(number)
        for w in range(3, 21):
            c, a = oracles.affine_form(rule, w)
            assert c == (number >= 64), (number, w)
            for kind in ("alternating_up_first", "all_up"):
                init = window_from_literal(kind, w)
                report = find_cycle(rule, w, init, NONE)
                assert (report.transient_length, report.cycle_length) == (
                    oracles.affine_orbit(c, a, w, init.bits)
                ), (number, w, kind)
                if number == 54:
                    assert report == CycleReport(0, oracles.order_of_x(w))
            if number == 54:
                assert a == 0b11 << (w - 2)
                order, modulus = oracles.order_of_x(w), (1 << w) | 0b11
                assert oracles.gf2_pow(0b10, order, modulus) == 1
                for p in oracles.prime_factors(order):
                    assert oracles.gf2_pow(0b10, order // p, modulus) != 1
    assert [oracles.order_of_x(w) for w in (8, 9, 16, 17)] == [63, 73, 255, 273]


AFFINE_MACHINES = (16, 39, 45, 54, 60, 64, 99, 105, 114, 120)


def test_affine_form_matches_the_oracle():
    # the O(w) affinity test, which builds no table, against the oracle's
    # check of every window, for every rule at w = 1..12: the (c, a) it
    # returns and the rules it finds not affine
    from ifamarket import _engine

    for w in range(1, 13):
        for k in range(256):
            rule = decode_rule(k)
            assert _engine.affine_form(rule, w) == oracles.affine_form(rule, w), (k, w)


@pytest.mark.parametrize("number", AFFINE_MACHINES)
def test_affine_algebra_matches_the_oracle_up_to_w30(monkeypatch, number):
    # Berlekamp-Massey and the order of t give each affine machine's
    # transient and cycle from both standard starts and two drawn ones at
    # w = 3..30 with no table, as the oracle's elimination and order do,
    # and up to w = 14 lag doubling gives the oracle's first 200 moves.
    # The machines that are not bijective (39, 45, 114, 120) have a
    # transient of 1 from some start, the bijective ones none
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a decision table was built")

    monkeypatch.setattr(_engine, "decision_table", no_table)
    rule, transients, draws = decode_rule(number), set(), random.Random(number)
    for w in range(3, 31):
        c, a = oracles.affine_form(rule, w)
        assert _engine.affine_form(rule, w) == (c, a), w
        starts = [window_from_literal(kind, w).bits for kind in ("alternating", "all_up")]
        for start in starts + [draws.getrandbits(w), draws.getrandbits(w)]:
            expected = oracles.affine_orbit(c, a, w, start)
            assert _engine.affine_orbit(c, a, w, start) == expected, (w, start)
            transients.add(expected[0])
            if w <= 14:
                moves = _engine.affine_moves(c, a, w, start, 200)
                init_moves = _oldest_first(start, w)
                assert moves.tolist() == oracles.simulate(rule, init_moves, NONE, 200)
    bijective = number in (16, 54, 60, 64, 99, 105)
    assert transients == ({0} if bijective else {0, 1})


@pytest.mark.parametrize("number", [54, 201, 99, 156])
def test_affine_rung_gives_the_moves_of_the_tables(monkeypatch, number):
    # the affine machines whose unregulated orbits outlast the 4w probe:
    # with no table, find_cycle gives the algebra's orbit at w = 3..22, an
    # orbit search's moves begin as the oracle's and a long run's are the
    # oracle's up to w = 12, and at w <= 16 both are the moves of the direct
    # walk through a step table built here before the tables are switched
    # off.
    # The orbit from alternating outlasts the probe from w = 5 on
    from ifamarket import _engine

    rule, walks = decode_rule(number), {}
    for w in range(3, 17):
        step = _engine.step_table(_engine.decision_table(rule, w), w, NONE)
        for kind in ("alternating_up_first", "all_up"):
            start = window_from_literal(kind, w).bits
            first, windows = _engine.walk_direct(step, [start], step.size)
            walks[w, kind] = first, _engine.walk_moves(windows)

    def no_table(*args):
        pytest.fail("a decision table was built")

    monkeypatch.setattr(_engine, "decision_table", no_table)
    rung = 0
    for w in range(3, 23):
        form = oracles.affine_form(rule, w)
        for kind in ("alternating_up_first", "all_up"):
            init = window_from_literal(kind, w)
            transient, cycle = oracles.affine_orbit(*form, w, init.bits)
            rung += transient + cycle > 4 * w
            machine = _engine.Machine(rule, w)
            first, moves = machine.orbit(NONE, init.bits)
            assert (first, moves.size) == (transient, transient + cycle), (w, kind)
            assert find_cycle(rule, w, init, NONE) == CycleReport(transient, cycle)
            init_moves = oracles.window_moves(init)
            head = min(moves.size, 300)
            expected = oracles.simulate(rule, init_moves, NONE, head)
            assert moves[:head].tolist() == expected
            ticks = (1 << w) // 8 + 5 * w
            run = machine.run(NONE, init.bits, ticks)
            if w <= 12:
                assert run.tolist() == oracles.simulate(rule, init_moves, NONE, ticks)
            if w <= 16:
                walked = walks[w, kind]
                assert first == walked[0] and np.array_equal(moves, walked[1])
                assert np.array_equal(run, _engine.tile(*walked, ticks))
    assert rung >= 18


def test_short_affine_orbits_close_in_the_probe(monkeypatch):
    # every unregulated orbit of the other affine machines from both
    # standard starts closes within 4w ticks at w = 3..30, so the scalar
    # probe finds it: no algebra and no table
    from ifamarket import _engine

    def fail(*args):
        pytest.fail("the probe did not close the orbit")

    monkeypatch.setattr(_engine, "affine_orbit", fail)
    monkeypatch.setattr(_engine, "decision_table", fail)
    for number in set(AFFINE_MACHINES) - {54, 99}:
        rule = decode_rule(number)
        for w in range(3, 31):
            for kind in ("alternating_up_first", "all_up"):
                init = window_from_literal(kind, w)
                report = find_cycle(rule, w, init, NONE)
                form = oracles.affine_form(rule, w)
                assert (report.transient_length, report.cycle_length) == (
                    oracles.affine_orbit(*form, w, init.bits)
                ), (number, w, kind)


def test_anchor_default_span_builds_no_table(monkeypatch):
    # rule 54 from alternating at w = 22 takes the affine rung: no
    # decision table or step table.  Its cycle is an m-sequence
    # of 2**22 - 1 ticks, with 2**21 UPs, which repeats past its end
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a table was built")

    for name in ("decision_table", "step_table"):
        monkeypatch.setattr(_engine, name, no_table)
    rule, w = decode_rule(54), 22
    init = window_from_literal("alternating", w)
    series = simulate(rule, w, init, NONE)
    assert len(series) == (1 << w) - 1 and int(series.moves.sum()) == 1 << (w - 1)
    assert series.moves[:500].tolist() == oracles.simulate(
        rule, oracles.window_moves(init), NONE, 500
    )
    longer = simulate(rule, w, init, NONE, None, min_ticks=len(series) + 1000)
    assert np.array_equal(longer.moves[: len(series)], series.moves)
    assert np.array_equal(longer.moves[len(series) :], series.moves[:1000])


def test_rule54_cut_state_at_w22_follows_the_jump_ahead_identity():
    # unregulated rule 54 steps its window by a GF(2) linear map whose
    # characteristic polynomial is x^22 + x + 1, so the window after k
    # ticks is the XOR of the windows after i < 22 ticks over the powers
    # x^i in x^k mod that trinomial.  The trinomial is primitive, so the
    # cut state at w = 22 is the held cycle of every nonzero window, then
    # the fixed point 0, which the cycle walk places: no step table is
    # built.  Sampled positions and moves of the held cycle
    # are checked against the identity, with the first 22 windows from
    # the reference decision alone
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a step table was built")

    w, rule = 22, decode_rule(54)
    modulus = (1 << w) | 0b11
    history = _oldest_first(window_from_literal("alternating_up_first", w).bits, w)
    basis = []
    for _ in range(w):
        basis.append(sum(bit << age for age, bit in enumerate(reversed(history))))
        history = history[1:] + [oracles.decide(rule, history)]
    machine = _engine.Machine(rule, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "step_table", no_table)
        machine.orbit(NONE, basis[0])
        pos, moves, windows, starts, _ = machine._cut_state()
    assert np.array_equal(moves[:-1], machine._held[1])
    assert starts == [0, (1 << w) - 1, 1 << w] and windows[-1] == 0
    assert pos[0] == (1 << w) - 1 and moves[-1] == 0
    draws = random.Random(22)
    for _ in range(200):
        k = draws.randrange(1, 1 << w)
        jump = oracles.gf2_pow(0b10, k, modulus)
        window = 0
        for i in range(w):
            if jump >> i & 1:
                window ^= basis[i]
        assert pos[window] == k - 1, k
        assert moves[k - 1] == window & 1, k


def test_ordered_map_starts_no_more_processes_than_items(monkeypatch):
    from ifamarket import _engine

    asked = []

    class InlinePool:
        # records the processes asked for and maps here, through the
        # worker's initializer
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(_engine, "_worker_fn", None)
    monkeypatch.setattr(_engine, "_inline", False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert _engine.ordered_map(str, range(3), 64) == ["0", "1", "2"]
    assert asked == [3]


@pytest.mark.parametrize(
    "items, workers",
    [(range(5), 1), (range(1), 8), ([], 8)],
    ids=["one-worker", "one-item", "no-items"],
)
def test_ordered_map_maps_serially_without_an_executor(monkeypatch, items, workers):
    from ifamarket import _engine

    def no_pool(*args, **kwargs):
        raise AssertionError("ordered_map built an executor")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert _engine.ordered_map(str, items, workers) == [str(i) for i in items]


def _set_cores(monkeypatch, cores):
    mask = set(range(cores))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)


def _worker_threads(item):
    from ifamarket import _engine

    return _engine._threads()


def test_table_passes_on_any_core_count_match_one_core(monkeypatch):
    # rule 54 at w = 14 from the alternating window, in pieces of 1,000
    # entries: 17 pieces of a table, the last of 384, and in the cut state
    # 12 of the rows of its held cycle's windows rebuilt from its moves,
    # 12 of that cycle of 11,811 and 5 of the 4,573 windows of the other
    # cycles; each pass of every core count gives the arrays of one core,
    # and leaves no thread alive
    from ifamarket import _engine

    w, rule = 14, decode_rule(54)
    start = window_from_literal("alternating_up_first", w).bits
    policy = RegulationPolicy("prick", 5)
    made = []

    class Spy(_engine.Thread):
        def start(self):
            made.append(self)
            super().start()

    monkeypatch.setattr(_engine, "_inline", False)
    monkeypatch.setattr(_engine, "_GATHER_CHUNK", 1000)
    monkeypatch.setattr(_engine, "Thread", Spy)

    def tables(cores):
        _set_cores(monkeypatch, cores)
        made.clear()
        decisions = _engine.decision_table(rule, w)
        step = _engine.step_table(decisions, w, policy)
        machine = _cutting_machine(rule, w, window_from_literal("alternating_up_first", w))
        first, held = machine._held
        windows = _engine._cycle_windows(held[first:], w)
        pos, moves, cycles, starts, _ = machine._cut_state()
        out = [step, windows, pos, moves, cycles, np.array(starts)]
        assert len(made) == 0 if cores == 1 else len(made) > 0
        assert not any(thread.is_alive() for thread in made)
        return first, out

    first, expected = tables(1)
    assert first == 0 and expected[1].size == 11811
    # threads switched as often as the interpreter allows, three of them
    # on a host that may have fewer cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (2, 3):
            first_now, now = tables(cores)
            assert first_now == first
            for got, want in zip(now, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want), cores
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_table1_with_workers_matches_one_worker_on_any_core_count(
    monkeypatch, tmp_path, cores
):
    from ifamarket import _engine
    from ifamarket.cli import main

    monkeypatch.setattr(_engine, "_inline", False)
    monkeypatch.setattr(_engine, "_GATHER_CHUNK", 1000)
    _set_cores(monkeypatch, cores)
    argv = ["table1", "--w", "14", "--include-both", "--out"]
    assert main([*argv, str(tmp_path / "one.csv"), "--workers", "1"]) == 0
    assert main([*argv, str(tmp_path / "two.csv"), "--workers", "2"]) == 0
    one = (tmp_path / "one.csv").read_bytes()
    assert one.count(b"\n") > 50 and (tmp_path / "two.csv").read_bytes() == one


def test_ordered_map_workers_run_table_passes_inline(monkeypatch):
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_inline", False)
    _set_cores(monkeypatch, 3)
    assert _engine._threads() == 3
    assert _engine.ordered_map(_worker_threads, range(4), 2) == [1, 1, 1, 1]
    assert _engine._threads() == 3


def test_a_piece_that_raises_fails_its_pass_once_every_thread_is_joined(monkeypatch):
    # three threads deal six pieces of 1,000: this one 0 and 3,000, the
    # others 1,000 and 4,000, and 2,000 and 5,000; the second stops at
    # its first piece
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_inline", False)
    monkeypatch.setattr(_engine, "_GATHER_CHUNK", 1000)
    _set_cores(monkeypatch, 3)
    done = []

    def task(lo, hi):
        if lo == 1000:
            raise ZeroDivisionError(lo)
        done.append((lo, hi))

    with pytest.raises(ZeroDivisionError):
        _engine._in_pieces(6000, task)
    assert sorted(done) == [(0, 1000), (2000, 3000), (3000, 4000), (5000, 6000)]
