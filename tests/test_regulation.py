import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifamarket._engine import firing
from ifamarket.ifa import Move
from ifamarket.regulation import RegulationPolicy, regulator


def _window(oldest_first: str) -> int:
    """Window bits from a U/D string, newest move in bit 0."""
    return int(oldest_first.replace("U", "1").replace("D", "0"), 2)


def _up_run(window: int) -> int:
    """Trailing UP run seen in the window (bit 0 = newest)."""
    return (window ^ (window + 1)).bit_length() - 1


def test_apply_prick_fires_at_threshold():
    policy = RegulationPolicy("prick", 3)
    assert regulator(policy, 5)(_window("DDUUU"), Move.UP) == Move.DOWN
    assert regulator(policy, 5)(_window("UDDUU"), Move.UP) == Move.UP
    # above threshold also fires (robust to long initial runs)
    assert regulator(policy, 7)(_window("UUUUUUU"), Move.UP) == Move.DOWN
    # no-op reversal when the investor already reverses
    assert regulator(policy, 5)(_window("DDUUU"), Move.DOWN) == Move.DOWN
    # n > w reads the whole window: the clamped machine fires at all-UP only
    wide = RegulationPolicy("prick", 9)
    assert regulator(wide, 4)(_window("UUUU"), Move.UP) == Move.DOWN
    assert regulator(wide, 4)(_window("DUUU"), Move.UP) == Move.UP


def test_apply_prop_fires_at_threshold():
    policy = RegulationPolicy("prop", 3)
    assert regulator(policy, 5)(_window("UUDDD"), Move.DOWN) == Move.UP
    assert regulator(policy, 5)(_window("DUUDD"), Move.DOWN) == Move.DOWN


def test_apply_none_is_identity():
    policy = RegulationPolicy("none")
    for w in (1, 4, 9):
        for window in range(1 << w):
            for intended in (Move.UP, Move.DOWN):
                assert regulator(policy, w)(window, intended) is intended


def test_apply_policy_tables_match_single_windows():
    # one function decides a tick (Python ints) and a table (numpy arrays),
    # and the engine's firing set is the windows where the ticks override
    w = 7
    windows = np.arange(1 << w, dtype=np.uint32)
    decisions = ((windows * 2654435761) >> 5 & 1).astype(np.uint8)
    for regime in ("none", "prick", "prop", "both"):
        for n in range(1, w + 3):
            policy = RegulationPolicy(regime, None if regime == "none" else n)
            table = regulator(policy, w)(windows, decisions)
            ticks = [
                int(regulator(policy, w)(int(x), int(d)))
                for x, d in zip(windows, decisions)
            ]
            assert table.tolist() == ticks
            fires = firing(decisions, w, policy)
            assert fires.dtype == np.uint32
            assert sorted(fires.tolist()) == [
                x for x, d, t in zip(range(1 << w), decisions, ticks) if t != d
            ]
            if regime == "none":
                break


@given(
    regime=st.sampled_from(["prick", "prop", "both"]),
    n=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=30),
    bits=st.integers(min_value=0, max_value=(1 << 30) - 1),
    intended=st.sampled_from([Move.UP, Move.DOWN]),
)
def test_mirror_symmetry_of_mechanism(regime, n, w, bits, intended):
    mask = (1 << w) - 1
    window = bits & mask
    mirrored_regime = {"prick": "prop", "prop": "prick", "both": "both"}[regime]
    mirrored = regulator(RegulationPolicy(mirrored_regime, n), w)
    lhs = mirrored(window ^ mask, Move(1 - intended))
    rhs = 1 - regulator(RegulationPolicy(regime, n), w)(window, intended)
    assert lhs == rhs


@given(
    n=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=30),
    bits=st.integers(min_value=0, max_value=(1 << 30) - 1),
    intended=st.sampled_from([Move.UP, Move.DOWN]),
)
def test_both_agrees_with_whichever_single_regime_fires(n, w, bits, intended):
    window = bits & ((1 << w) - 1)
    both = regulator(RegulationPolicy("both", n), w)(window, intended)
    prick = regulator(RegulationPolicy("prick", n), w)(window, intended)
    prop = regulator(RegulationPolicy("prop", n), w)(window, intended)
    # a trailing run has one direction, so at most one trigger fires
    assert both == (prick if prick != intended else prop)


def test_prick_caps_new_run_length():
    policy = RegulationPolicy("prick", 4)
    for w in range(1, 13):
        for window in range(1 << w):
            realized = regulator(policy, w)(window, Move.UP)
            new_run = _up_run(window) + 1 if realized == Move.UP else 0
            assert new_run <= 4 or realized == Move.DOWN


def test_policy_literals_round_trip():
    for literal in ("none", "prick:6", "prop:17", "both:2"):
        assert RegulationPolicy.parse(literal).describe() == literal


@pytest.mark.parametrize(
    "bad", ["prick:0", "prick", "both:-3", "up:4", "none:2", "prick:x", ""]
)
def test_bad_policy_literals(bad):
    with pytest.raises(ValueError):
        RegulationPolicy.parse(bad)


def test_policy_validation():
    with pytest.raises(ValueError):
        RegulationPolicy("prick", 0)
    with pytest.raises(ValueError):
        RegulationPolicy("none", 3)
    with pytest.raises(ValueError):
        RegulationPolicy("sideways", 3)
