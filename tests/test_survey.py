import pytest

from ifamarket.ifa import decode_rule
from ifamarket.market import window_from_literal
from ifamarket.survey import (
    classify_rule,
    compression_ratio,
    decides_alike,
    machine_groups,
    state_swap_rule,
    survey_rules,
    sweep_window,
)

import numpy as np


def test_constant_rule_is_fixed():
    row = classify_rule(decode_rule(85), 10, window_from_literal("all_up", 10))
    assert row.rule_class == "fixed"
    assert row.cycle_length == 1


def test_passthrough_rule_from_all_up_is_fixed():
    # output = input keeps an all-UP window all-UP forever
    row = classify_rule(decode_rule(27), 8, window_from_literal("all_up", 8))
    assert row.rule_class == "fixed"
    assert row.cycle_length == 1


def test_rule54_complex_at_small_w():
    row = classify_rule(decode_rule(54), 12, window_from_literal("all_up", 12))
    assert row.rule_class == "complex"
    assert row.cycle_length >= (1 << 12) // 4


def test_survey_small_w_complete_cover():
    rows = survey_rules(8, window_from_literal("all_up", 8))
    assert len(rows) == 256
    assert [r.rule_number for r in rows] == list(range(256))
    for row in rows:
        assert row.cycle_length <= 1 << 8
        assert row.transient_length + row.cycle_length <= 1 << 8
        assert row.rule_class in ("fixed", "short_period", "complex")
        if row.rule_class == "fixed":
            assert row.cycle_length == 1


def test_survey_deterministic_given_thresholds():
    init = window_from_literal("all_up", 8)
    a = survey_rules(8, init)
    b = survey_rules(8, init)
    assert a == b


def test_sweep_window_cycle_bounds():
    rows = sweep_window(decode_rule(54), range(2, 11), init_kind="all_up")
    assert [row.w for row in rows] == list(range(2, 11))
    for row in rows:
        assert row.cycle_length <= 1 << row.w


def test_sweep_window_takes_the_init_alias():
    # "alternating", as --init spells it, is the alternating_up_first window
    rule = decode_rule(54)
    rows = sweep_window(rule, range(2, 11), init_kind="alternating")
    assert rows == sweep_window(rule, range(2, 11), init_kind="alternating_up_first")


def test_survey_rows_do_not_depend_on_workers():
    init = window_from_literal("all_up", 10)
    assert survey_rules(10, init, workers=2) == survey_rules(10, init, workers=1)


def test_sweep_rows_do_not_depend_on_workers():
    rule = decode_rule(54)
    serial = sweep_window(rule, range(2, 13), "all_up", workers=1)
    assert sweep_window(rule, range(2, 13), "all_up", workers=2) == serial


@pytest.mark.parametrize("w", range(1, 17))
def test_machine_groups_are_the_decision_table_classes(w):
    # two rules share a group exactly when their decision tables agree
    from ifamarket._engine import decision_table

    classes = {}
    for k in range(256):
        classes.setdefault(decision_table(decode_rule(k), w).tobytes(), []).append(k)
    groups = machine_groups(w)
    assert sorted(groups) == sorted(classes.values())
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    if w >= 4:
        assert len(groups) == 100
        assert [54, 201] in groups


@pytest.mark.parametrize("w", [6, 7])
def test_decides_alike_is_decision_table_equality(w):
    from ifamarket._engine import decision_table

    rules = [decode_rule(k) for k in range(256)]
    tables = [decision_table(rule, w).tobytes() for rule in rules]
    for i, a in enumerate(rules):
        for j in range(i, 256):
            assert decides_alike(a, rules[j], w) == (tables[i] == tables[j]), (i, j)


@pytest.mark.parametrize("kind", ["all_up", "alternating_up_first"])
@pytest.mark.parametrize("w", range(1, 13))
def test_survey_rows_are_the_rows_of_each_rule(w, kind):
    # one row per machine, fanned out, is the row of every rule number
    init = window_from_literal(kind, w)
    each = [classify_rule(decode_rule(k), w, init) for k in range(256)]
    assert survey_rules(w, init, workers=1) == each
    assert survey_rules(w, init, workers=2) == each


def test_rule54_sweep_exceptional_windows():
    # "complex for almost any lookback window": the exceptions in 2..22,
    # frozen from a verified sweep (short algebraic cycles at these widths)
    rows = sweep_window(decode_rule(54), range(2, 23), init_kind="all_up")
    not_complex = [row.w for row in rows if row.rule_class != "complex"]
    assert not_complex == [8, 9, 16, 17, 21]
    by_w = {row.w: row for row in rows}
    assert by_w[22].cycle_length == 4_194_303
    assert by_w[15].cycle_length == 32_767
    assert by_w[16].cycle_length == 255


def test_any_rule_w1_cycle_at_most_two():
    for k in (0, 54, 85, 170, 255):
        row = classify_rule(decode_rule(k), 1, window_from_literal("all_up", 1))
        assert row.cycle_length <= 2


def test_state_swap_pairs():
    assert state_swap_rule(decode_rule(54)).rule_number == 201
    assert state_swap_rule(decode_rule(201)).rule_number == 54
    # swapping twice is the identity
    for k in (0, 27, 85, 120, 255):
        assert state_swap_rule(state_swap_rule(decode_rule(k))).rule_number == k


def test_compression_ratio_regular_vs_noisy():
    regular = np.tile(np.array([1, 0], dtype=np.uint8), 20000)
    assert compression_ratio(regular) < 0.1
    rng = np.random.default_rng(3)
    noisy = rng.integers(0, 2, size=40000).astype(np.uint8)
    assert compression_ratio(noisy) > 0.9
    assert compression_ratio(np.empty(0, dtype=np.uint8)) == 0.0


def test_survey_builds_tables_only_for_orbits_past_the_budget(monkeypatch):
    # from all-UP at w = 22, every orbit but those of rules 54 and 201
    # closes within the scalar budget, and theirs, one machine, since 201
    # is 54 with its states relabelled, is affine: no machine builds a
    # table
    from ifamarket import _engine

    built = []
    decision_table, step_table = _engine.decision_table, _engine.step_table

    def counting_decision_table(rule, w, *args):
        built.append(rule.rule_number)
        return decision_table(rule, w, *args)

    def counting_step_table(*args):
        built.append("step")
        return step_table(*args)

    monkeypatch.setattr(_engine, "decision_table", counting_decision_table)
    monkeypatch.setattr(_engine, "step_table", counting_step_table)
    rows = survey_rules(22, window_from_literal("all_up", 22))
    assert built == []
    long_orbits = [
        row.rule_number
        for row in rows
        if row.transient_length + row.cycle_length >= _engine._scalar_budget(22)
    ]
    assert long_orbits == [54, 201]
    assert [rows[54].cycle_length, rows[201].cycle_length] == [(1 << 22) - 1] * 2


@pytest.mark.parametrize("path", ["auto", "scalar", "table"])
def test_classify_rule_ratio_from_the_cycle_moves(monkeypatch, path):
    # the orbit and the compression ratio of exactly one cycle's moves,
    # against the brute-force oracles, whichever walk found the orbit
    from ifamarket import _engine
    from ifamarket.regulation import RegulationPolicy

    import oracles

    if path != "auto":
        budget = 1 << 62 if path == "scalar" else 0
        monkeypatch.setattr(_engine, "_scalar_budget", lambda w: budget)
    none = RegulationPolicy("none")
    for k in (27, 30, 54, 99, 110, 156):
        rule = decode_rule(k)
        init = window_from_literal("alternating_up_first", 9)
        init_moves = oracles.window_moves(init)
        transient, cycle = oracles.orbit(rule, init_moves, none)
        moves = oracles.simulate(rule, init_moves, none, transient + cycle)
        row = classify_rule(rule, 9, init)
        assert (row.transient_length, row.cycle_length) == (transient, cycle)
        assert row.compression_ratio == compression_ratio(
            np.array(moves[transient:], dtype=np.uint8)
        )
