import concurrent.futures
import math
import os
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifamarket.ifa import Move, decode_rule
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
    assert win.to_moves() == [Move.UP, Move.DOWN, Move.UP, Move.DOWN]


def test_initial_window_all_up():
    assert window_from_literal("all_up", 3).to_moves() == [Move.UP] * 3


def test_initial_window_custom():
    assert window_from_literal("D", 1).to_moves() == [Move.DOWN]
    with pytest.raises(ValueError):
        window_from_literal("D", 3)
    with pytest.raises(ValueError):
        window_from_literal("diagonal", 3)


def test_window_literals():
    assert window_from_literal("alternating", 4).bits == 0b1010
    assert window_from_literal("all_up", 3).bits == 0b111
    assert window_from_literal("UDD", 3).to_moves() == [Move.UP, Move.DOWN, Move.DOWN]
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
        decode_rule(k), [int(m) for m in init.to_moves()], policy, ticks
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
        decode_rule(k), [int(m) for m in init.to_moves()], policy
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
    path=st.sampled_from(["auto", "scalar", "direct", "table", "hop"]),
    route=st.sampled_from(["auto", "patch", "full"]),
    ticks=st.integers(min_value=0, max_value=120),
    data=st.data(),
)
def test_trend_longer_than_window_matches_reference(
    k, w, init_bits, regime, path, route, ticks, data
):
    # n > w: the clamped machine stretched at its held windows, on every
    # engine path, against the oracles that track the whole history.
    # "direct" finds every orbit by the direct walk on the step table,
    # "table" and "hop" search every orbit through step**w, which
    # "route" gets by a patch of the unregulated one or by squaring
    from ifamarket import _engine

    init = WindowState(bits=init_bits & ((1 << w) - 1), width=w)
    n = data.draw(st.integers(min_value=w + 1, max_value=3 * w), label="n")
    policy = RegulationPolicy(regime, n)
    init_moves = [int(m) for m in init.to_moves()]
    with pytest.MonkeyPatch.context() as mp:
        if path != "auto":
            budget = 1 << 62 if path == "scalar" else 0
            mp.setattr(_engine, "_scalar_budget", lambda w: budget)
        if path == "direct":
            mp.setattr(_engine, "_DIRECT_VISIT_SHIFT", 0)
        if path in ("table", "hop"):
            mp.setattr(_engine, "_DIRECT_VISIT_SHIFT", 64)
        if path == "hop":
            mp.setattr(_engine, "_DIRECT_EMIT_SHIFT", 64)
        if route != "auto":
            share = math.inf if route == "patch" else -1
            mp.setattr(_engine, "_PATCH_MAX_SHARE", share)
        series = simulate(decode_rule(k), w, init, policy, ticks)
        report = find_cycle(decode_rule(k), w, init, policy)
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
        decode_rule(k), [int(m) for m in init.to_moves()], policy, len(series)
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
    prefix = [int(m) for m in init.to_moves()] + full.moves[:cut].tolist()
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
    # unbounded budget) for every walk but runs of 2**w / 8 ticks or more,
    # which hop, the tables walked tick by tick up to 2**w ticks
    # (budget 0, emit shift 0), and the tables with every walk hopping w
    # ticks at a time through step**w (budget 0, emit shift 64)
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
        if shift is not None:
            monkeypatch.setattr(_engine, "_DIRECT_EMIT_SHIFT", shift)
        for k, kind, ticks, policy in cases:
            rule = decode_rule(k)
            init = window_from_literal(kind, w)
            init_moves = [int(m) for m in init.to_moves()]
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
    history = [int(m) for m in init.to_moves()] + realized
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
    init_moves = [int(m) for m in init.to_moves()]
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


def _forced_route(monkeypatch, route):
    from ifamarket import _engine

    share = math.inf if route == "patch" else -1
    monkeypatch.setattr(_engine, "_PATCH_MAX_SHARE", share)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=255),
    w=st.integers(min_value=2, max_value=12),
    regime=st.sampled_from(["prick", "prop", "both"]),
    route=st.sampled_from(["patch", "full"]),
    data=st.data(),
)
def test_machine_power_matches_full_build(k, w, regime, route, data):
    # every policy's step**w from the machine, patched or squared, equals
    # the square of its own step table and is a table of its own: the
    # unregulated step**w the machine holds is read-only and unchanged
    from ifamarket import _engine

    n = data.draw(st.integers(min_value=1, max_value=w + 3), label="n")
    policy = RegulationPolicy(regime, n)
    machine = _engine.Machine(decode_rule(k), w)
    decisions = _engine.decision_table(decode_rule(k), w)
    base = _engine._power(_engine.step_table(decisions, w, NONE), w)
    expected = _engine._power(_engine.step_table(decisions, w, policy), w)
    with pytest.MonkeyPatch.context() as mp:
        _forced_route(mp, route)
        assert np.array_equal(machine.power(NONE), base)
        power = machine.power(policy)
        assert np.array_equal(power, expected)
        assert power is not machine._base
    assert np.array_equal(machine._base, base)
    assert not machine._base.flags.writeable


def test_machine_patch_rewrites_only_windows_that_reach_a_run():
    # rule 54 at w = 22: prick:14 changes step**w on about 0.04% of the
    # windows, and the search stops early for prick:3 (over an eighth)
    from ifamarket import _engine

    machine = _engine.Machine(decode_rule(54), 22)
    affected = machine._affected(RegulationPolicy("prick", 14))
    assert 0 < affected.size < (1 << 22) // 2000
    assert np.unique(affected).size == affected.size
    assert machine._affected(RegulationPolicy("prick", 3)) is None
    assert machine._base is None  # the search needs the decisions alone


def test_machine_patches_only_a_table_it_holds(monkeypatch):
    # before the unregulated step**w exists a policy squares its own
    # table rather than build that one too; afterwards it patches it
    from ifamarket import _engine

    w = 12
    machine = _engine.Machine(decode_rule(54), w)
    policy = RegulationPolicy("prick", 8)
    squared = []
    power = _engine._power
    monkeypatch.setattr(
        _engine, "_power", lambda *args: squared.append(args) or power(*args)
    )
    assert machine.power(policy) is not None and machine._base is None
    assert len(squared) == 1
    # an orbit search past the direct walk (prop:8 from alternating has
    # cycle 2,441 > 2**12 / 64) leaves no table behind either
    init = window_from_literal("alternating_up_first", w)
    report = find_cycle(
        decode_rule(54), w, init, RegulationPolicy("prop", 8), machine=machine
    )
    assert report == CycleReport(transient_length=0, cycle_length=2441)
    assert machine._base is None and len(squared) == 2
    base = machine.power(NONE)
    assert machine.power(policy) is not base and machine.power(NONE) is base
    assert len(squared) == 3
    series = simulate(decode_rule(54), w, init, NONE, 1 << w, machine=machine)
    assert series == simulate(decode_rule(54), w, init, NONE, 1 << w)


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
    # same start and limit, and with a limit of 2**w ticks or more, within
    # which every orbit closes, the hop walk's
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
    if first is not None:
        assert windows[-1] == windows[first] and len(set(windows)) == len(windows) - 1
    if limit >= 1 << w:
        hop = _engine.walk_orbit(_engine._power(step, w), start)
        assert (hop[0], hop[1].tolist()) == (first, windows)


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
        decode_rule(54), [int(m) for m in init.to_moves()], policy, ticks
    )


def test_short_run_past_the_scalar_budget_continues_directly():
    # prop:2 at the same size has a cycle of 14,691 ticks: the scalar walk
    # runs out at 512 ticks and the direct walk takes the run to 4,000
    w, ticks, policy = 16, 4000, RegulationPolicy("prop", 2)
    init = window_from_literal("alternating_up_first", w)
    series = simulate(decode_rule(54), w, init, policy, ticks)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(54), [int(m) for m in init.to_moves()], policy, ticks
    )


def test_orbits_just_past_the_scalar_budget_are_found_directly(monkeypatch):
    # rule 54 at w = 22 under prick:7..10 closes in 43,818 to 61,499
    # ticks: past the scalar budget, within the direct walk, so no step**w
    from ifamarket import _engine

    def no_power(*args):
        pytest.fail("step**w was built")

    monkeypatch.setattr(_engine, "_power", no_power)
    init = window_from_literal("alternating_up_first", 22)
    lengths = [
        find_cycle(decode_rule(54), 22, init, RegulationPolicy("prick", n))
        for n in (7, 8, 9, 10)
    ]
    assert [(r.transient_length, r.cycle_length) for r in lengths] == [
        (37236, 6701), (1100, 44476), (41311, 2507), (716, 60783)
    ]


def _cutting_machine(rule, w, init):
    """A machine that holds the unregulated cycle of ``init``, walked by hops."""
    from ifamarket import _engine

    machine = _engine.Machine(rule, w)
    first, windows = machine.orbit(NONE, init.bits)
    assert machine._held is not None and machine._held[1] is windows
    return machine


@pytest.mark.parametrize("w", range(6, 15))
def test_cut_rung_matches_the_oracles(monkeypatch, w):
    # every policy with n <= w, from both standard starts, for rule 54 and
    # its relabelling 201: the orbit (first, windows), which a machine
    # holding a cycle walks up the ladder without building its cut state,
    # and a run past the orbit's end, walked as cuts of the held
    # unregulated cycle, against the oracles.  At w = 6 and 7, x^w + x + 1
    # is primitive, the cycle holds every nonzero window, and no run
    # leaves it; at w = 14 some do, and hop
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 0)
    taken = {"cut": 0, "ladder": 0}
    cut_run = _engine.Machine._cut_run

    def counted(self, policy, start, num_ticks):
        found = cut_run(self, policy, start, num_ticks)
        taken["ladder" if found is None else "cut"] += 1
        return found

    monkeypatch.setattr(_engine.Machine, "_cut_run", counted)
    for kind in ("alternating_up_first", "all_up"):
        init = window_from_literal(kind, w)
        init_moves = [int(m) for m in init.to_moves()]
        machines = [_cutting_machine(decode_rule(k), w, init) for k in (54, 201)]
        runs = []
        for regime in ("prick", "prop", "both"):
            for n in range(1, w + 1):
                policy = RegulationPolicy(regime, n)
                transient, cycle, moves = oracles.orbit_moves(
                    decode_rule(54), init_moves, policy
                )
                # a run of at least 2**w / 8 ticks, which tiles the cycle
                ticks = max(1 << (w - 3), transient + cycle + w)
                moves += [
                    moves[transient + (t - transient) % cycle]
                    for t in range(len(moves), ticks)
                ]
                runs.append((policy, ticks, moves))
                for machine in machines:
                    first, windows = machine.orbit(policy, init.bits)
                    assert (first, len(windows) - 1) == (transient, transient + cycle)
                    assert windows[0] == init.bits
                    assert (np.asarray(windows[1:]) & 1).tolist() == moves[: len(windows) - 1]
                    assert machine._cut is None
        for policy, ticks, moves in runs:
            for machine in machines:
                assert machine.run(policy, init.bits, ticks).tolist() == moves
    if w in (6, 7):
        assert taken["ladder"] == 0
    if w == 14:
        assert taken["ladder"] > 0 and taken["cut"] > 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cut_runs_from_any_cycle_position_match_the_oracle(data):
    # rule 54 at w = 6..12: a run cut from the held unregulated cycle, from
    # a drawn cycle position (one within w of the cycle's end among them,
    # so that an arc wraps), for a span below the first firing window,
    # about transient + cycle or three times that, gives the oracle's
    # moves, or None exactly where the oracle's walk leaves the held cycle
    # within the span.  n = w and ``none`` never fire on the held cycle
    w = data.draw(st.integers(6, 12), label="w")
    rule = decode_rule(54)
    machine = _cutting_machine(rule, w, window_from_literal("alternating_up_first", w))
    first, windows = machine._held
    cycle = [int(x) for x in windows[first + 1 :]]
    size = len(cycle)
    at = data.draw(
        st.integers(0, size - 1) | st.integers(size - w, size - 1), label="position"
    )
    regime = data.draw(st.sampled_from(["none", "prick", "prop", "both"]))
    n = data.draw(st.integers(1, w) | st.just(w), label="n")
    policy = NONE if regime == "none" else RegulationPolicy(regime, n)
    init_moves = _oldest_first(cycle[at], w)
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
    on_cycle = set(cycle)
    walked = [
        sum(bit << age for age, bit in enumerate(reversed(history[t : t + w])))
        for t in range(3 * orbit + 1)
    ]
    # the first tick whose window is off the held cycle, if any
    off = next((t for t, x in enumerate(walked) if x not in on_cycle), math.inf)
    for num_ticks in spans:
        moves = machine._cut_run(policy, cycle[at], num_ticks)
        assert (moves is None) == (off <= num_ticks), num_ticks
        if moves is not None:
            assert moves.tolist() == expected[:num_ticks], num_ticks


def test_unregulated_runs_from_the_held_start_tile_the_held_orbit(monkeypatch):
    # a default span of an orbit the hops walk tiles that one walk, which
    # the machine then holds: no cut index, no cycle moves and no hop;
    # from another window of the cycle a run is a cut with no firing window
    from ifamarket import _engine

    w, rule = 12, decode_rule(54)
    init = window_from_literal("alternating_up_first", w)
    init_moves = [int(m) for m in init.to_moves()]
    machine = _engine.Machine(rule, w)

    def no_emit(*args):
        pytest.fail("the run hopped")

    monkeypatch.setattr(_engine, "walk_emit", no_emit)
    series = simulate(rule, w, init, NONE, None, machine=machine)
    assert len(series) == oracles.order_of_x(w)
    assert machine._held is not None and machine._cut is None
    for ticks in (1 << w, 3 * (1 << w) + 5):
        series = simulate(rule, w, init, NONE, None, min_ticks=ticks, machine=machine)
        assert series.moves.tolist() == oracles.simulate(rule, init_moves, NONE, ticks)
        assert machine._cut is None
    other = int(machine._held[1][5])
    expected = oracles.simulate(rule, _oldest_first(other, w), NONE, 5000)
    assert machine.run(NONE, other, 5000).tolist() == expected
    assert machine._cut is not None


def test_cycle_moves_follow_the_held_orbit():
    # rule 54 from alternating at w = 14 holds a cycle of 11,811 windows,
    # which window 7 is off: a machine that cut-ran on that cycle and
    # then hop-walks 7's unregulated orbit of 3,937 holds the new cycle,
    # and its regulated runs gather from that cycle's moves, rebuilt
    w, rule, ticks = 14, decode_rule(54), 5000
    init = window_from_literal("alternating_up_first", w)
    machine = _cutting_machine(rule, w, init)
    policy = RegulationPolicy("prick", 10)  # a walk that stays on the cycle
    expected = oracles.simulate(rule, _oldest_first(init.bits, w), policy, ticks)
    assert machine.run(policy, init.bits, ticks).tolist() == expected
    old = machine._cut[1]
    assert old is not None and machine._cut_state()[0][7] < 0
    first, windows = machine.orbit(NONE, 7)
    assert (first, len(windows) - 1) == (0, 3937)
    assert machine._held[1] is windows and machine._cut is None
    for n in range(2, w + 1):
        for regime in ("prick", "prop"):
            policy = RegulationPolicy(regime, n)
            expected = oracles.simulate(rule, _oldest_first(7, w), policy, ticks)
            assert machine.run(policy, 7, ticks).tolist() == expected, policy
    assert machine._cut[1] is not None and machine._cut[1] is not old
    assert machine._cut[1].tolist() == (windows[1:] & 1).tolist()
    # the held windows and their cut state are read-only
    assert not any(table.flags.writeable for table in (windows, *machine._cut))


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


def _prime_factors(n: int) -> list[int]:
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def test_rule54_cycles_are_the_order_of_x_mod_the_trinomial():
    # unregulated rule 54 realizes m_t = m_(t-w) xor m_(t-w+1), a shift
    # register with characteristic polynomial x^w + x + 1: its step is a
    # bijection (no transient), and from both standard starts the cycle
    # is the order of x, short where the trinomial factors (w = 8, 9,
    # 16, 17 give 63, 73, 255, 273)
    for w in range(3, 21):
        order = oracles.order_of_x(w)
        modulus = (1 << w) | 0b11
        assert oracles.gf2_pow(0b10, order, modulus) == 1
        for p in _prime_factors(order):
            assert oracles.gf2_pow(0b10, order // p, modulus) != 1
        for kind in ("alternating_up_first", "all_up"):
            report = find_cycle(decode_rule(54), w, window_from_literal(kind, w), NONE)
            assert (report.transient_length, report.cycle_length) == (0, order)
    assert [oracles.order_of_x(w) for w in (8, 9, 16, 17)] == [63, 73, 255, 273]


def test_rule54_cut_state_at_w22_follows_the_jump_ahead_identity():
    # unregulated rule 54 steps its window by a GF(2) linear map whose
    # characteristic polynomial is x^22 + x + 1, so the window after k
    # ticks is the XOR of the windows after i < 22 ticks over the powers
    # x^i in x^k mod that trinomial.  Sampled positions and moves of the
    # held cycle's cut state at w = 22 are checked against it, with the
    # first 22 windows from the reference decision alone
    from ifamarket import _engine

    w, rule = 22, decode_rule(54)
    modulus = (1 << w) | 0b11
    history = _oldest_first(window_from_literal("alternating_up_first", w).bits, w)
    basis = []
    for _ in range(w):
        basis.append(sum(bit << age for age, bit in enumerate(reversed(history))))
        history = history[1:] + [oracles.decide(rule, history)]
    machine = _engine.Machine(rule, w)
    machine.orbit(NONE, basis[0])
    pos, moves = machine._cut_state()
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
    # entries: 17 pieces of a table, the last of 384, 17 of the orbit's
    # rows of windows and 12 of its cycle of 11,811; each pass of every
    # core count gives the arrays of one core, and leaves no thread alive
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
        power = _engine._power(step, w)
        machine = _cutting_machine(rule, w, window_from_literal("alternating_up_first", w))
        first, windows = _engine.walk_orbit(machine.power(NONE), start)
        out = [step, power, windows, *machine._cut_state()]
        assert len(made) == 0 if cores == 1 else len(made) > 0
        assert not any(thread.is_alive() for thread in made)
        return first, out

    first, expected = tables(1)
    assert first == 0 and expected[2].size == 11812
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
