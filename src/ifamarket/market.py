"""Deterministic tick-by-tick market process and exact orbit analysis.

The full dynamical state of the market is the lookback window: the w
most recent realized moves, packed into a w-bit integer (bit i = move
realized i ticks ago, bit 0 = newest).  Each tick the investor's rule
produces an intended move from the window, regulation may override it,
the realized move is appended, and the window slides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._engine import Machine, affine_orbit, scalar_decision, tile
from .ifa import IfaRule
from .regulation import RegulationPolicy, regulator

MAX_WINDOW_WIDTH = 30  # dense 2**w uint32 tables must fit in memory


@dataclass(frozen=True)
class WindowState:
    """w most recent realized moves packed as bits (bit 0 = newest)."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WINDOW_WIDTH:
            raise ValueError(
                f"window width must be in [1, {MAX_WINDOW_WIDTH}], got {self.width}"
            )
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(
                f"bits {self.bits:#x} do not fit in {self.width} bits"
            )


@dataclass(frozen=True)
class TickSeries:
    """Realized moves plus the configuration that produced them."""

    moves: np.ndarray  # uint8, 0 = DOWN, 1 = UP
    rule_number: int
    w: int
    init: str
    policy: str

    def __len__(self) -> int:
        return int(self.moves.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TickSeries):
            return NotImplemented
        return (
            self.rule_number == other.rule_number
            and self.w == other.w
            and self.init == other.init
            and self.policy == other.policy
            and np.array_equal(self.moves, other.moves)
        )


@dataclass(frozen=True)
class CycleReport:
    """Exact orbit structure: ticks before the cycle, and its length."""

    transient_length: int
    cycle_length: int


def _machine_for(
    rule: IfaRule, w: int, init: WindowState, machine: Optional[Machine]
) -> Machine:
    """``machine``, checked against the rule, w and the initial window, or a
    new one if None."""
    if init.width != w:
        raise ValueError(f"initial window width {init.width} != w {w}")
    if machine is None:
        return Machine(rule, w)
    if machine.rule != rule or machine.w != w:
        raise ValueError(
            f"machine of rule {machine.rule.rule_number} at w {machine.w} "
            f"given for rule {rule.rule_number} at w {w}"
        )
    return machine


def _held_moves(rule: IfaRule, w: int, policy: RegulationPolicy) -> list[int]:
    """Moves m whose all-m window a trend length n > w holds n - w ticks longer.

    A run of n > w UPs can only pass through the all-UP window, which
    every run enters exactly w long.  Where the machine clamped to n = w
    fires there, that is where the rule decides UP and the policy
    pricks, the true machine realizes n - w more UPs before it leaves
    the window as the clamped one does at once; likewise for DOWN.
    Elsewhere the two machines agree.
    """
    if policy.regime == "none" or policy.trend_length <= w:
        return []
    decide, regulate = scalar_decision(rule, w), regulator(policy, w)
    mask = (1 << w) - 1
    return [
        move
        for move, window in ((1, mask), (0, 0))
        if regulate(window, decide(window)) != decide(window)
    ]


def _stretch(
    init: WindowState, moves: np.ndarray, held: list[int], extra: int
) -> np.ndarray:
    """``extra`` for each tick of a clamped run that leaves a held window, else 0."""
    w = init.width
    ages = np.arange(w - 1, -1, -1)  # oldest first
    history = np.concatenate((((init.bits >> ages) & 1).astype(np.uint8), moves))
    added = np.zeros(moves.size, dtype=np.int64)
    for move in held:
        # seen[i + w] - seen[i] counts the move in the window before tick i
        seen = np.concatenate(([0], np.cumsum(history == move)))
        added[seen[w:-1] - seen[: moves.size] == w] = extra
    return added


def _orbit(
    machine: Machine, init: WindowState, policy: RegulationPolicy
) -> tuple[CycleReport, int, np.ndarray, list[int]]:
    """:func:`find_cycle`'s report, ``(first, moves)`` of its orbit, its held moves."""
    first, moves = machine.orbit(policy, init.bits)
    transient, cycle = first, moves.size - first
    held = _held_moves(machine.rule, machine.w, policy)
    if held:
        extra = policy.trend_length - machine.w
        added = _stretch(init, moves, held, extra)
        transient, cycle = (
            transient + int(added[:transient].sum()),
            cycle + int(added[transient:].sum()),
        )
    report = CycleReport(transient_length=transient, cycle_length=cycle)
    return report, first, moves, held


def simulate(
    rule: IfaRule,
    w: int,
    init: WindowState,
    policy: RegulationPolicy,
    num_ticks: Optional[int] = None,
    *,
    min_ticks: int = 0,
    machine: Optional[Machine] = None,
) -> TickSeries:
    """Generate the realized tick series.

    Realized (post-intervention) moves feed back into the window: the
    investor observes the market as regulated.  Trailing runs are
    counted over the whole realized history including the initial
    window.  ``machine`` is this rule's machine at this w that calls may
    share (a new one if None).  ``num_ticks=None`` is the default span,
    transient + one full cycle of the policy's own orbit, floored at
    ``min_ticks``: the moves of one orbit search, as :func:`find_cycle`
    takes, tiled.  A given span is :meth:`~ifamarket._engine.Machine.run`
    of the machine: a short run, one whose orbit closes within 4w ticks
    and an unregulated run of an affine machine, such as rule 54's, build
    no table.  A trend length n > w runs the machine clamped to n = w,
    then adds its holds.
    """
    machine = _machine_for(rule, w, init, machine)
    if num_ticks is not None and num_ticks < 0:
        raise ValueError(f"num_ticks must be >= 0, got {num_ticks}")
    if num_ticks is None:
        report, first, moves, held = _orbit(machine, init, policy)
        num_ticks = max(report.transient_length + report.cycle_length, min_ticks)
        # the holds below only lengthen it: num_ticks clamped moves suffice
        moves = tile(first, moves, num_ticks)
    else:
        moves = machine.run(policy, init.bits, num_ticks)
        held = _held_moves(rule, w, policy)
    if held:
        # a hold repeats the move before the tick it delays; holds are
        # capped at num_ticks, and only the ticks kept are expanded
        extra = min(policy.trend_length - w, num_ticks)
        counts = np.append(_stretch(init, moves, held, extra), 0)
        counts[1:] += 1
        keep = int(np.searchsorted(np.cumsum(counts), num_ticks)) + 1
        history = np.append(np.uint8(init.bits & 1), moves)[:keep]
        moves = np.repeat(history, counts[:keep])[:num_ticks]
    meta = describe_window(init), policy.describe()
    return TickSeries(moves, rule.rule_number, w, *meta)


def find_cycle(
    rule: IfaRule,
    w: int,
    init: WindowState,
    policy: RegulationPolicy,
    *,
    machine: Optional[Machine] = None,
) -> CycleReport:
    """Exact transient and cycle length of the closed-loop orbit.

    The lengths of an unregulated orbit of an affine machine, such as
    rule 54's, come from the algebra of its linear recurrence alone
    (:func:`~ifamarket._engine.affine_orbit`), with no moves and no
    table.  Any other orbit is :meth:`~ifamarket._engine.Machine.orbit`
    of ``machine`` (a new one if None), which walks without tables for
    up to about 2**w / (8w) ticks, and builds them only for an orbit
    that lasts longer; the default span of :func:`simulate` tiles its
    moves.  A trend length n > w walks the machine clamped to n = w,
    then adds its holds to the moves of that orbit.
    """
    machine = _machine_for(rule, w, init, machine)
    if policy.regime == "none" and machine.affine is not None:
        # no hold applies under none, so the lengths need no moves
        return CycleReport(*affine_orbit(*machine.affine, w, init.bits))
    return _orbit(machine, init, policy)[0]


_MOVE_LETTERS = str.maketrans("01", "DU")


def describe_window(init: WindowState) -> str:
    """Compact descriptor used in metadata: e.g. ``UDUD`` oldest-first."""
    return format(init.bits, f"0{init.width}b").translate(_MOVE_LETTERS)


def window_from_literal(literal: str, w: int) -> WindowState:
    """Parse an initial-window literal: a kind name or a U/D string.

    ``alternating`` (or ``alternating_up_first``) is UP, DOWN, UP, ...
    oldest-first, ``all_up`` is w UPs, and a U/D string of length w gives
    the moves oldest-first.  This is the one way to build a start window.
    """
    text = literal.strip()
    if text in ("alternating", "alternating_up_first"):
        text = ("UD" * w)[:w]
    elif text == "all_up":
        text = "U" * w
    elif not text or set(text) - {"U", "D"}:
        raise ValueError(
            f"bad initial-window literal {literal!r}; expected 'alternating', "
            "'all_up' or a string of U/D characters of length w"
        )
    elif len(text) != w:
        raise ValueError(f"custom initial window has {len(text)} moves, expected {w}")
    # the oldest move is the top bit; a width out of range is WindowState's error
    bits = int(text.replace("U", "1").replace("D", "0") or "0", 2)
    return WindowState(bits=bits, width=w)
