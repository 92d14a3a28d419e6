import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifamarket.ifa import Move, decode_rule, process_window
from ifamarket.market import (
    CycleReport,
    WindowState,
    find_cycle,
    initial_window,
    next_move,
    simulate,
    window_from_literal,
)
from ifamarket.regulation import RegulationPolicy

import oracles

NONE = RegulationPolicy("none")


def test_initial_window_alternating():
    win = initial_window("alternating_up_first", 4)
    assert win.to_moves() == [Move.UP, Move.DOWN, Move.UP, Move.DOWN]


def test_initial_window_all_up():
    assert initial_window("all_up", 3).to_moves() == [Move.UP] * 3


def test_initial_window_custom():
    assert initial_window("custom", 1, [Move.DOWN]).to_moves() == [Move.DOWN]
    with pytest.raises(ValueError):
        initial_window("custom", 3, [Move.DOWN])
    with pytest.raises(ValueError):
        initial_window("diagonal", 3)


def test_window_literals():
    assert window_from_literal("alternating", 4).bits == 0b1010
    assert window_from_literal("all_up", 3).bits == 0b111
    assert window_from_literal("UDD", 3).to_moves() == [Move.UP, Move.DOWN, Move.DOWN]
    with pytest.raises(ValueError):
        window_from_literal("UDX", 3)
    with pytest.raises(ValueError):
        window_from_literal("UD", 3)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30))
def test_window_state_round_trip(moves):
    win = WindowState.from_moves(moves)
    assert [int(m) for m in win.to_moves()] == moves
    assert win.width == len(moves)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=1),
)
def test_window_slide_matches_list_shift(moves, new):
    win = WindowState.from_moves(moves)
    slid = win.slide(Move(new))
    assert [int(m) for m in slid.to_moves()] == moves[1:] + [new]


def test_window_state_validation():
    with pytest.raises(ValueError):
        WindowState(bits=8, width=3)
    with pytest.raises(ValueError):
        WindowState(bits=0, width=0)
    with pytest.raises(ValueError):
        WindowState(bits=0, width=31)


def test_next_move_constant_and_passthrough():
    win = WindowState.from_moves([Move.UP, Move.DOWN, Move.DOWN])
    assert next_move(decode_rule(85), win) is Move.UP
    # passthrough decision is the oldest move under the resolved read order
    assert next_move(decode_rule(27), win) is Move.UP


def test_simulate_zero_ticks():
    series = simulate(decode_rule(54), 4, initial_window("all_up", 4), NONE, 0)
    assert len(series) == 0
    assert series.policy == "none"


def test_simulate_rejects_bad_args():
    init = initial_window("all_up", 4)
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


def test_find_cycle_constant_rule_fixed_point():
    report = find_cycle(decode_rule(85), 6, initial_window("all_up", 6), NONE)
    assert report == CycleReport(transient_length=0, cycle_length=1)


def test_find_cycle_supports_run_state_wider_than_window():
    rule = decode_rule(54)
    init = initial_window("all_up", 4)
    policy = RegulationPolicy("prick", 5)
    report = find_cycle(rule, 4, init, policy)
    assert (report.transient_length, report.cycle_length) == oracles.orbit(
        rule, [1, 1, 1, 1], policy
    )
    # constant UP holds all-UP for n - w = 2 ticks past the clamped machine
    report = find_cycle(decode_rule(85), 3, initial_window("all_up", 3), policy)
    assert report == CycleReport(transient_length=0, cycle_length=6)
    assert oracles.orbit(decode_rule(85), [1, 1, 1], policy) == (0, 6)


def test_simulate_supports_run_state_wider_than_window():
    # trend length beyond w: all-UP is held n - w ticks past the clamped machine
    rule = decode_rule(85)  # constant UP
    series = simulate(
        rule, 3, initial_window("all_up", 3), RegulationPolicy("prick", 5), 8
    )
    # history starts with 3 UPs; runs reach 5 then get pricked
    assert series.moves.tolist() == [1, 1, 0, 1, 1, 1, 1, 1]


def test_simulate_huge_trend_length_returns_quickly():
    # the hold before the first prick is capped at the ticks asked for
    for n in (10**9, 10**18):
        start = time.perf_counter()
        series = simulate(
            decode_rule(85), 3, initial_window("all_up", 3),
            RegulationPolicy("prick", n), 50,
        )
        assert series.moves.tolist() == [1] * 50
        assert time.perf_counter() - start < 1.0


def test_determinism_same_inputs_same_series():
    rule = decode_rule(54)
    init = initial_window("alternating_up_first", 12)
    policy = RegulationPolicy("both", 3)
    a = simulate(rule, 12, init, policy, 5000)
    b = simulate(rule, 12, init, policy, 5000)
    assert a == b


def test_state_sufficiency_restart_mid_stream():
    rule = decode_rule(54)
    w = 12
    init = initial_window("alternating_up_first", w)
    policy = RegulationPolicy("prick", 4)
    full = simulate(rule, w, init, policy, 600)
    cut = 250
    # rebuild the window from the realized prefix and resume
    prefix = [int(m) for m in init.to_moves()] + full.moves[:cut].tolist()
    mid = WindowState.from_moves(prefix[-w:])
    tail = simulate(rule, w, mid, policy, 600 - cut)
    assert tail.moves.tolist() == full.moves[cut:].tolist()


def test_run_length_bound_under_prick_and_prop():
    rule = decode_rule(54)
    w = 14
    init = initial_window("alternating_up_first", w)
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


def test_pure_python_walk_fallback(monkeypatch):
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
            init = initial_window(kind, w)
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
    long_orbit = find_cycle(rule, w, initial_window("all_up", w), prick3)
    assert long_orbit.transient_length > 0 and long_orbit.cycle_length % w != 0
    held = find_cycle(decode_rule(156), w, initial_window("all_up", w), prick13)
    assert held == CycleReport(transient_length=4, cycle_length=889)


def test_cycle_validity_window_recurrence():
    # the reported (t, c) really is a recurrence of the window state
    rule = decode_rule(54)
    w = 10
    init = initial_window("alternating_up_first", w)
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


def test_scalar_decision_matches_decision_table_and_process_window():
    # every window of every rule at w = 1..10
    from ifamarket import _engine

    for k in range(256):
        rule = decode_rule(k)
        for w in range(1, 11):
            decide = _engine.scalar_decision(rule, w)
            scalar = [decide(x) for x in range(1 << w)]
            assert scalar == _engine.decision_table(rule, w).tolist(), (k, w)
            assert scalar == [
                int(process_window(rule, _oldest_first(x, w))) for x in range(1 << w)
            ], (k, w)


def test_scalar_decision_matches_on_random_wide_windows():
    # 2,000 random (rule, window) draws at w = 22 and at w = 30, and the
    # full w = 22 decision tables of four rules at random windows
    from ifamarket import _engine

    rng = random.Random(20100)
    for w in (22, 30):
        for _ in range(2000):
            rule = decode_rule(rng.randrange(256))
            window = rng.getrandbits(w)
            assert _engine.scalar_decision(rule, w)(window) == int(
                process_window(rule, _oldest_first(window, w))
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
    start = initial_window("alternating_up_first", 10).bits
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
    # the square of its own step table, and the unregulated step**w the
    # machine holds is the same before and after
    from ifamarket import _engine

    n = data.draw(st.integers(min_value=1, max_value=w + 3), label="n")
    policy = RegulationPolicy(regime, n)
    machine = _engine.Machine(decode_rule(k), w)
    decisions = _engine.decision_table(decode_rule(k), w)
    base = _engine._power(_engine.step_table(decisions, w, NONE), w)
    expected = _engine._power(_engine.step_table(decisions, w, policy), w)
    with pytest.MonkeyPatch.context() as mp:
        _forced_route(mp, route)
        with machine.power(NONE) as power:
            assert np.array_equal(power, base)
        with machine.power(policy) as power:
            assert np.array_equal(power, expected)
            assert (power is machine._base) == (route == "patch")
    assert np.array_equal(machine._base, base)


def test_machine_patch_is_undone_when_the_walk_raises(monkeypatch):
    # an exception inside the with block still puts every saved entry back
    from ifamarket import _engine

    w = 12
    machine = _engine.Machine(decode_rule(54), w)
    with machine.power(NONE) as power:
        base = power.copy()
    _forced_route(monkeypatch, "patch")

    def failing_walk(*args, **kwargs):
        raise RuntimeError("walk failed")

    monkeypatch.setattr(_engine, "walk_emit", failing_walk)
    for policy in (RegulationPolicy("prick", 3), RegulationPolicy("both", 12)):
        with pytest.raises(RuntimeError, match="walk failed"):
            machine.run(policy, 5, 1 << w)
        assert np.array_equal(machine._base, base)
    with pytest.raises(KeyError):
        with machine.power(RegulationPolicy("prop", 2)) as power:
            assert not np.array_equal(power, base)
            raise KeyError
    assert np.array_equal(machine._base, base)


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
    with machine.power(policy) as table:
        assert machine._base is None and table is not None
    assert len(squared) == 1
    # an orbit search past the direct walk (prop:8 from alternating has
    # cycle 2,441 > 2**12 / 64) leaves no table behind either
    init = initial_window("alternating_up_first", w)
    report = find_cycle(
        decode_rule(54), w, init, RegulationPolicy("prop", 8), machine=machine
    )
    assert report == CycleReport(transient_length=0, cycle_length=2441)
    assert machine._base is None and len(squared) == 2
    with machine.power(NONE):
        pass
    with machine.power(policy) as table:
        assert table is machine._base
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
    start = initial_window("all_up", w).bits
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
    init = initial_window("alternating_up_first", w)
    series = simulate(decode_rule(54), w, init, policy, ticks)
    assert series.moves.tolist() == oracles.simulate(
        decode_rule(54), [int(m) for m in init.to_moves()], policy, ticks
    )


def test_short_run_past_the_scalar_budget_continues_directly():
    # prop:2 at the same size has a cycle of 14,691 ticks: the scalar walk
    # runs out at 512 ticks and the direct walk takes the run to 4,000
    w, ticks, policy = 16, 4000, RegulationPolicy("prop", 2)
    init = initial_window("alternating_up_first", w)
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
    init = initial_window("alternating_up_first", 22)
    lengths = [
        find_cycle(decode_rule(54), 22, init, RegulationPolicy("prick", n))
        for n in (7, 8, 9, 10)
    ]
    assert [(r.transient_length, r.cycle_length) for r in lengths] == [
        (37236, 6701), (1100, 44476), (41311, 2507), (716, 60783)
    ]


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
            report = find_cycle(decode_rule(54), w, initial_window(kind, w), NONE)
            assert (report.transient_length, report.cycle_length) == (0, order)
    assert [oracles.order_of_x(w) for w in (8, 9, 16, 17)] == [63, 73, 255, 273]
