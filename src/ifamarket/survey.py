"""Exhaustive classification of the 256-rule space.

A rule is classified from the exact orbit of its closed-loop dynamics:
``fixed`` for a fixed point, ``complex`` when the cycle is at least a
quarter of the state space AND one cycle's packed tick stream stays
essentially incompressible under zlib, ``short_period`` otherwise.
Compressibility guards against long but visibly regular orbits.

Note on state naming: every automaton appears in the rule space twice,
once per labeling of its two internal states (rules that are symmetric
under the swap appear once).  Rules 54 and 201 are such a pair, and
since their decision function is labeling-invariant they produce the
identical price stream.  ``state_swap_rule`` computes the partner.
More rule numbers share a decision function still: at every w from 4
to 30 the 256 numbers make 100 machines.  The survey classifies each
machine once, from its smallest rule number, and gives every rule
number of the machine that machine's row; ``machine_groups`` finds the
machines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable

import numpy as np

from ._engine import Machine, ordered_map, scalar_decision
from .ifa import IfaRule, decode_rule, encode_rule
from .market import WindowState, window_from_literal
from .regulation import RegulationPolicy

DEFAULT_LONG_CYCLE_FRACTION = 0.25
DEFAULT_COMPRESSION_THRESHOLD = 0.9
_ZLIB_LEVEL = 9


@dataclass(frozen=True)
class RuleClassification:
    rule_number: int
    w: int
    transient_length: int
    cycle_length: int
    compression_ratio: float
    rule_class: str  # fixed | short_period | complex


def compression_ratio(moves: np.ndarray) -> float:
    """Compressed / raw size of the packed bit stream; > 1 is possible
    for tiny streams (zlib framing overhead)."""
    packed = np.packbits(moves).tobytes()
    if not packed:
        return 0.0
    return len(zlib.compress(packed, _ZLIB_LEVEL)) / len(packed)


def classify_rule(
    rule: IfaRule,
    w: int,
    init: WindowState,
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
) -> RuleClassification:
    """Classify one rule from its unregulated orbit out of ``init``."""
    if init.width != w:
        raise ValueError(f"initial window width {init.width} != w {w}")
    # one orbit search gives the orbit and its moves
    transient, moves = Machine(rule, w).orbit(RegulationPolicy("none"), init.bits)
    cycle = moves.size - transient
    ratio = compression_ratio(moves[transient:])
    if cycle == 1:
        rule_class = "fixed"
    elif cycle >= long_cycle_fraction * (1 << w) and ratio > compression_threshold:
        rule_class = "complex"
    else:
        rule_class = "short_period"
    return RuleClassification(
        rule_number=rule.rule_number,
        w=w,
        transient_length=transient,
        cycle_length=cycle,
        compression_ratio=ratio,
        rule_class=rule_class,
    )


def decides_alike(a: IfaRule, b: IfaRule, w: int) -> bool:
    """Whether rules ``a`` and ``b`` decide every w-bit window alike.

    The check runs on the product automaton of the two rules (Hopcroft &
    Karp, 1971): it collects the state pairs that the newest w - 1 bits
    of some window reach from (0, 0), and compares the two outputs for
    either oldest bit on each.  At most four pairs a level, so it costs
    O(w), not O(2**w).
    """
    pairs = {(0, 0)}
    for _ in range(w - 1):
        pairs = {
            (a.next_state(s, bit), b.next_state(t, bit))
            for s, t in pairs
            for bit in (0, 1)
        }
    return all(
        a.output(s, bit) == b.output(t, bit) for s, t in pairs for bit in (0, 1)
    )


def machine_groups(w: int) -> list[list[int]]:
    """The 256 rule numbers grouped by their decision function at ``w``.

    Each group is ascending, and the groups are in the order of their
    smallest numbers.  A rule's decisions at w' = min(w, 4 + w % 2)
    propose its group: at every w from 4 to 30, the grouping at even w
    is the one at w = 4 and at odd w the one at w = 5, 100 machines.
    :func:`decides_alike` confirms each merge at ``w`` itself, so a rule
    that a proposal fails starts a group of its own.
    """
    key_w = min(w, 4 + w % 2)
    proposed: dict[tuple[int, ...], list[list[int]]] = {}
    groups = []
    for number in range(256):
        rule = decode_rule(number)
        key = tuple(map(scalar_decision(rule, key_w), range(1 << key_w)))
        candidates = proposed.setdefault(key, [])
        for group in candidates:
            if decides_alike(decode_rule(group[0]), rule, w):
                group.append(number)
                break
        else:
            candidates.append([number])
            groups.append(candidates[-1])
    return groups


def survey_rules(
    w: int,
    init: WindowState,
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
    workers: int = 1,
) -> list[RuleClassification]:
    """Classify all 256 rules, in rule-number order.

    Each machine of :func:`machine_groups` is classified once, from its
    smallest rule number, and every rule number of the machine gets
    that row with its own ``rule_number``.
    """
    classify = partial(
        classify_rule,
        w=w,
        init=init,
        long_cycle_fraction=long_cycle_fraction,
        compression_threshold=compression_threshold,
    )
    groups = machine_groups(w)
    rows = ordered_map(classify, [decode_rule(group[0]) for group in groups], workers)
    by_number = {}
    for group, row in zip(groups, rows):
        for number in group:
            by_number[number] = replace(row, rule_number=number)
    return [by_number[number] for number in range(256)]


def _classify_at(
    rule: IfaRule, init_kind: str, fraction: float, threshold: float, w: int
) -> RuleClassification:
    init = window_from_literal(init_kind, w)
    return classify_rule(rule, w, init, fraction, threshold)


def sweep_window(
    rule: IfaRule,
    w_range: Iterable[int],
    init_kind: str = "all_up",
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
    workers: int = 1,
) -> list[RuleClassification]:
    """Classify one rule across lookback windows.

    ``init_kind`` is an initial-window literal, as ``--init`` takes it.
    """
    classify = partial(
        _classify_at, rule, init_kind, long_cycle_fraction, compression_threshold
    )
    return ordered_map(classify, list(w_range), workers)


def state_swap_rule(rule: IfaRule) -> IfaRule:
    """The same automaton with its two internal states relabeled."""
    table = tuple(
        tuple(
            (1 - rule.next_state(1 - s, b), rule.output(1 - s, b))
            for b in (0, 1)
        )
        for s in (0, 1)
    )
    swapped = IfaRule(rule_number=-1, table=table)
    return decode_rule(encode_rule(swapped))
