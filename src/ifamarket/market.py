"""Deterministic tick-by-tick market process and exact orbit analysis.

The full dynamical state of the market is the lookback window: the w
most recent realized moves, packed into a w-bit integer (bit i = move
realized i ticks ago, bit 0 = newest).  Each tick the investor's rule
produces an intended move from the window, regulation may override it,
the realized move is appended, and the window slides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._engine import Machine, realized
from .ifa import IfaRule, Move, process_window
from .regulation import RegulationPolicy

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

    @classmethod
    def from_moves(cls, moves: Sequence[Move | int]) -> "WindowState":
        """Pack an oldest-first move sequence."""
        width = len(moves)
        bits = 0
        for age, move in enumerate(reversed(moves)):
            if int(move) not in (0, 1):
                raise ValueError(f"non-binary move {move!r}")
            bits |= int(move) << age
        return cls(bits=bits, width=width)

    def to_moves(self) -> list[Move]:
        """Unpack to an oldest-first move sequence."""
        return [
            Move((self.bits >> age) & 1)
            for age in range(self.width - 1, -1, -1)
        ]

    def slide(self, realized: Move | int) -> "WindowState":
        """Append a realized move as the newest, dropping the oldest."""
        mask = (1 << self.width) - 1
        return WindowState(
            bits=((self.bits << 1) & mask) | int(realized), width=self.width
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


def initial_window(
    kind: str, w: int, moves: Optional[Sequence[Move | int]] = None
) -> WindowState:
    """Build a starting window.

    ``alternating_up_first`` is UP, DOWN, UP, ... oldest-first;
    ``all_up`` is w UPs; ``custom`` packs ``moves`` (length must be w).
    """
    if w < 1:
        raise ValueError(f"window width must be >= 1, got {w}")
    if kind == "alternating_up_first":
        seq = [Move.UP if i % 2 == 0 else Move.DOWN for i in range(w)]
        return WindowState.from_moves(seq)
    if kind == "all_up":
        return WindowState(bits=(1 << w) - 1, width=w)
    if kind == "custom":
        if moves is None:
            raise ValueError("custom initial window requires a move sequence")
        if len(moves) != w:
            raise ValueError(
                f"custom initial window has {len(moves)} moves, expected {w}"
            )
        return WindowState.from_moves(moves)
    raise ValueError(
        f"unknown initial-window kind {kind!r}; expected "
        "'alternating_up_first', 'all_up' or 'custom'"
    )


def next_move(rule: IfaRule, window: WindowState) -> Move:
    """Unregulated intended move for a window."""
    return process_window(rule, window.to_moves())


def _machine_for(rule: IfaRule, w: int, machine: Optional[Machine]) -> Machine:
    """``machine``, checked against the rule and w, or a new one if None."""
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
    every run enters exactly w long.  Where the rule decides UP there
    and the policy pricks, the machine realizes n - w more UPs before it
    leaves the window as the machine clamped to n = w does at once;
    likewise for DOWN.  Elsewhere the two machines agree.
    """
    if policy.regime == "none" or policy.trend_length <= w:
        return []
    mask = (1 << w) - 1
    return [
        move
        for move, regulated in ((1, policy.pricks), (0, policy.props))
        if regulated and next_move(rule, WindowState(move * mask, w)) == move
    ]


def _stretch(
    init: WindowState, moves: np.ndarray, held: list[int], extra: int
) -> np.ndarray:
    """``extra`` for each tick of a clamped run that leaves a held window, else 0."""
    w = init.width
    history = np.concatenate((np.array(init.to_moves(), dtype=np.uint8), moves))
    added = np.zeros(moves.size, dtype=np.int64)
    for move in held:
        # seen[i + w] - seen[i] counts the move in the window before tick i
        seen = np.concatenate(([0], np.cumsum(history == move)))
        added[seen[w:-1] - seen[: moves.size] == w] = extra
    return added


def simulate(
    rule: IfaRule,
    w: int,
    init: WindowState,
    policy: RegulationPolicy,
    num_ticks: int,
    *,
    machine: Optional[Machine] = None,
) -> TickSeries:
    """Generate the realized tick series.

    Realized (post-intervention) moves feed back into the window: the
    investor observes the market as regulated.  Trailing runs are
    counted over the whole realized history including the initial
    window.  The run is :meth:`~ifamarket._engine.Machine.run` of
    ``machine``, this rule's machine at this w that calls may share (a
    new one if None): a short run builds no table.  A trend length n > w
    runs the machine clamped to n = w, then adds its holds.
    """
    if init.width != w:
        raise ValueError(f"initial window width {init.width} != w {w}")
    if num_ticks < 0:
        raise ValueError(f"num_ticks must be >= 0, got {num_ticks}")
    meta = dict(
        rule_number=rule.rule_number,
        w=w,
        init=describe_window(init),
        policy=policy.describe(),
    )
    moves = _machine_for(rule, w, machine).run(policy, init.bits, num_ticks)
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
    return TickSeries(moves=moves, **meta)


def find_cycle(
    rule: IfaRule,
    w: int,
    init: WindowState,
    policy: RegulationPolicy,
    *,
    machine: Optional[Machine] = None,
) -> CycleReport:
    """Exact transient and cycle length of the closed-loop orbit.

    The orbit is :meth:`~ifamarket._engine.Machine.orbit` of
    ``machine`` (a new one if None), which walks without tables for up
    to about 2**w / (8w) ticks and builds them only for an orbit that
    lasts longer.  A trend length n > w walks the machine clamped to
    n = w, then adds its holds to the moves of that walk.
    """
    if init.width != w:
        raise ValueError(f"initial window width {init.width} != w {w}")
    transient, windows = _machine_for(rule, w, machine).orbit(policy, init.bits)
    cycle = len(windows) - 1 - transient
    held = _held_moves(rule, w, policy)
    if held:
        added = _stretch(init, realized(windows), held, policy.trend_length - w)
        transient, cycle = (
            transient + int(added[:transient].sum()),
            cycle + int(added[transient:].sum()),
        )
    return CycleReport(transient_length=transient, cycle_length=cycle)


def describe_window(init: WindowState) -> str:
    """Compact descriptor used in metadata: e.g. ``UDUD`` oldest-first."""
    return "".join(str(m) for m in init.to_moves())


def window_from_literal(literal: str, w: int) -> WindowState:
    """Parse an initial-window literal: a kind name or a U/D string."""
    text = literal.strip()
    aliases = {
        "alternating": "alternating_up_first",
        "alternating_up_first": "alternating_up_first",
        "all_up": "all_up",
    }
    if text in aliases:
        return initial_window(aliases[text], w)
    if text and set(text) <= {"U", "D"}:
        moves = [Move.UP if ch == "U" else Move.DOWN for ch in text]
        return initial_window("custom", w, moves)
    raise ValueError(
        f"bad initial-window literal {literal!r}; expected 'alternating', "
        "'all_up' or a string of U/D characters of length w"
    )
