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
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

import numpy as np

from ._engine import Machine, realized
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
    rule: IfaRule | int,
    w: int,
    init: WindowState,
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
) -> RuleClassification:
    """Classify one rule from its unregulated orbit out of ``init``."""
    if isinstance(rule, int):
        rule = decode_rule(rule)
    if init.width != w:
        raise ValueError(f"initial window width {init.width} != w {w}")
    # one walk gives the orbit and its moves
    transient, windows = Machine(rule, w).orbit(RegulationPolicy("none"), init.bits)
    cycle = len(windows) - 1 - transient
    ratio = compression_ratio(realized(windows)[transient:])
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


def survey_rules(
    w: int,
    init: WindowState,
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
    workers: int = 1,
) -> list[RuleClassification]:
    """Classify all 256 rules, in rule-number order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    classify = partial(
        classify_rule,
        w=w,
        init=init,
        long_cycle_fraction=long_cycle_fraction,
        compression_threshold=compression_threshold,
    )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(classify, range(256), chunksize=16))
    return list(map(classify, range(256)))


def sweep_window(
    rule: IfaRule | int,
    w_range: Iterable[int],
    init_kind: str = "all_up",
    long_cycle_fraction: float = DEFAULT_LONG_CYCLE_FRACTION,
    compression_threshold: float = DEFAULT_COMPRESSION_THRESHOLD,
) -> list[RuleClassification]:
    """Classify one rule across lookback windows.

    ``init_kind`` is an initial-window literal, as ``--init`` takes it.
    """
    if isinstance(rule, int):
        rule = decode_rule(rule)
    rows = []
    for w in w_range:
        init = window_from_literal(init_kind, w)
        rows.append(
            classify_rule(
                rule,
                w,
                init,
                long_cycle_fraction=long_cycle_fraction,
                compression_threshold=compression_threshold,
            )
        )
    return rows


def state_swap_rule(rule: IfaRule | int) -> IfaRule:
    """The same automaton with its two internal states relabeled."""
    if isinstance(rule, int):
        rule = decode_rule(rule)
    table = tuple(
        tuple(
            (1 - rule.next_state(1 - s, b), rule.output(1 - s, b))
            for b in (0, 1)
        )
        for s in (0, 1)
    )
    swapped = IfaRule(rule_number=-1, table=table)
    return decode_rule(encode_rule(swapped))
