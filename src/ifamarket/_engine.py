"""Vectorized window-state machinery shared by market and survey.

Window states are w-bit integers with bit i holding the move realized i
ticks ago (bit 0 = newest).  The closed-loop dynamics is a map over the
2**w window values: decide, regulate, shift.  Decision tables for all
2**w windows are built with a prefix trie (states shared across windows
that agree on their newest bits), which costs about 2 * 2**w cheap array
operations instead of w * 2**w.

Orbits are searched on a ladder of walks, each one taken only when the
one before has cost about what the next costs to set up (ski rental):
a scalar machine decides one window at a time from the rule's 2x2 tables
and builds nothing of size 2**w; then a direct walk on the step table
with a 2**w-bit seen bitmap; then hops of w ticks through step**w.
Runs take the scalar walk, the direct walk or the hops by their length.

A :class:`Machine` holds one rule's tables at one w: the decision table
and the unregulated step**w, and nothing else of size 2**w.  A regulated
policy changes the step table only on windows that end in a run, so
its step**w is the unregulated one patched in place over the windows
that reach such a window within w - 1 ticks; a policy that reaches too
many squares its own step table.  At most a regulated step table and
two step**w temporaries are held besides the machine's two tables.
Hop walks use numpy alone, one Python step per w ticks; each tick's
window is rebuilt from two consecutive hop states with shifts.  All
state arrays are uint32, which holds every window for w <= 30.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .ifa import IfaRule
from .regulation import RegulationPolicy, apply_policy, regulator

# Where a tick-by-tick table walk stops paying (2-core x86 host, numpy 2.4,
# w = 22): a direct emit costs ~0.3 us per tick against ~0.18 s for the hop
# path, so runs of 2**w / 8 ticks or more hop.
_DIRECT_EMIT_SHIFT = 3

# How far an orbit search walks the step table directly before it turns to
# step**w: 2**w / 64 ticks (65,536 at w = 22) at ~0.38 us a tick with the
# seen bitmap cost about what building the step table did (20-50 ms), as the
# scalar walk's budget costs about what the tables do.
_DIRECT_VISIT_SHIFT = 6

# A policy whose step**w differs from the unregulated one on more than this
# share of the windows squares its own step table instead of patching: a
# patch steps each window it rewrites w times, a full build gathers every
# window about 1.5 * log2(w) times.  Rule 54 at w = 22 on a 2-core x86 host:
# prick:6 rewrites 8.8% in 0.08 s and prick:5 17% in 0.15 s, against 0.13 s
# for a full build.
_PATCH_MAX_SHARE = 1 / 8

# entries per gather chunk; see _gather
_GATHER_CHUNK = 1 << 18

# bytes per window that the table path may hold at once: the decision
# table (1) and the unregulated step**w (4) of a machine, and a regulated
# step table (4) with the two temporaries of its step**w (4 each)
_TABLE_BYTES_PER_WINDOW = 1 + 4 + 4 + 2 * 4


def scalar_decision(rule: IfaRule, w: int) -> Callable[[int], int]:
    """``decide(window)``: the intended move for one w-bit window.

    Reads the window newest-first from automaton state 0 through the
    rule's 2x2 next-state and output tables, exactly as the trie of
    :func:`decision_table` does, and builds nothing of size 2**w.  The
    next-state table is first composed into one that reads four window
    bits per lookup.
    """
    nxt = tuple(tuple(rule.next_state(s, b) for b in (0, 1)) for s in (0, 1))
    out = tuple(tuple(rule.output(s, b) for b in (0, 1)) for s in (0, 1))
    nibble = nxt
    for width in (1, 2):  # read 2, then 4 bits: low half first
        nibble = tuple(
            tuple(
                nibble[nibble[s][bits & ((1 << width) - 1)]][bits >> width]
                for bits in range(1 << 2 * width)
            )
            for s in (0, 1)
        )
    nibbles, bits = divmod(w - 1, 4)

    def decide(window: int) -> int:
        state = 0
        for _ in range(nibbles):
            state = nibble[state][window & 15]
            window >>= 4
        for _ in range(bits):
            state = nxt[state][window & 1]
            window >>= 1
        return out[state][window & 1]

    return decide


def walk_scalar(
    rule: IfaRule, w: int, policy: RegulationPolicy, start: int, limit: int
) -> tuple[list[int], Optional[int]]:
    """Windows of the orbit of ``start``, walked for at most ``limit`` ticks.

    Returns ``(windows, first)`` with ``windows[t]`` the window after t
    ticks.  The walk stops at the first repeat, so that ``windows[-1] ==
    windows[first]``; if none comes within ``limit`` ticks, ``first`` is
    None and ``windows`` holds ``limit + 1`` windows.  Moves pass through
    :func:`~ifamarket.regulation.apply_policy` as in :func:`step_table`,
    with the policy bound once by :func:`~ifamarket.regulation.regulator`.
    """
    decide = scalar_decision(rule, w)
    regulate = regulator(policy, w)
    mask = (1 << w) - 1
    seen: dict[int, int] = {}  # window -> tick; keeps the windows in order
    x = int(start)
    for t in range(limit + 1):
        if x in seen:
            return [*seen, x], seen[x]
        seen[x] = t
        x = ((x << 1) & mask) | regulate(x, decide(x))
    return list(seen), None


def available_memory() -> Optional[int]:
    """Bytes that new allocations can take now, or None where unknown."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _mib(size: int) -> str:
    return f"{size / (1 << 20):,.0f} MiB"


def decision_table(rule: IfaRule, w: int, initial_state: int = 0) -> np.ndarray:
    """Intended move for every w-bit window value, as a uint8 array.

    The automaton pass consumes the window newest-first, so the trie is
    keyed on the j newest bits: entry p of the j-th level holds the
    automaton state after reading bits 0..j-1 of any window whose low j
    bits equal p.

    Every table path starts here, so this is where it checks, before
    allocating anything, that the tables it may hold at once fit in the
    memory available; if not it raises :class:`MemoryError`.
    """
    available = available_memory()
    if available is not None and _TABLE_BYTES_PER_WINDOW << w > available:
        raise MemoryError(
            f"the tables for w = {w} need up to "
            f"{_mib(_TABLE_BYTES_PER_WINDOW << w)} (decision {_mib(1 << w)}, "
            f"unregulated step**w {_mib(4 << w)}, step {_mib(4 << w)}, "
            f"two step**w temporaries of {_mib(4 << w)}), "
            f"but only {_mib(available)} is available"
        )
    # int16 keeps the t0b + s * (t1b - t0b) trick free of uint8 underflow
    nxt = np.array(
        [[rule.next_state(s, b) for b in (0, 1)] for s in (0, 1)], dtype=np.int16
    )
    out = np.array(
        [[rule.output(s, b) for b in (0, 1)] for s in (0, 1)], dtype=np.int16
    )
    states = np.full(1, initial_state, dtype=np.uint8)
    for _ in range(w - 1):
        expanded = np.empty(2 * states.size, dtype=np.uint8)
        # next state for consumed bit 0 / 1; states are 0/1 so a lookup
        # T[s, b] is t0b + s * (t1b - t0b) without fancy indexing
        expanded[: states.size] = nxt[0, 0] + states * (nxt[1, 0] - nxt[0, 0])
        expanded[states.size :] = nxt[0, 1] + states * (nxt[1, 1] - nxt[0, 1])
        states = expanded
    decisions = np.empty(2 * states.size, dtype=np.uint8)
    decisions[: states.size] = out[0, 0] + states * (out[1, 0] - out[0, 0])
    decisions[states.size :] = out[0, 1] + states * (out[1, 1] - out[0, 1])
    return decisions


def _run_slices(policy: RegulationPolicy, w: int) -> list[slice]:
    """Slices of the 2**w window values where ``policy`` may override the rule.

    Those whose newest min(n, w) bits are all UP if it pricks, all DOWN
    if it props: see :func:`~ifamarket.regulation.apply_policy`, which
    leaves every other window's move as the rule intends it.
    """
    if policy.regime == "none":
        return []
    period = 1 << min(policy.trend_length, w)
    return ([slice(period - 1, None, period)] if policy.pricks else []) + (
        [slice(0, None, period)] if policy.props else []
    )


def step_table(
    decisions: np.ndarray, w: int, policy: RegulationPolicy
) -> np.ndarray:
    """Next-window map over all 2**w states, regulation applied.

    For a trend length n > w this is the machine clamped to n = w (see
    :func:`~ifamarket.regulation.apply_policy`).  The policy is applied
    on the run windows alone, the only ones where it can act.
    """
    step = np.arange(1 << w, dtype=np.uint32)
    # in place, so that no more uint32 tables are alive than ``step``
    step <<= np.uint32(1)
    step &= np.uint32((1 << w) - 1)
    step |= decisions
    for runs in _run_slices(policy, w):
        intended = decisions[runs]
        # the windows of ``runs`` share the newest bits of ``runs.start``,
        # the only bits that apply_policy reads, so it stands for them all
        step[runs] ^= intended ^ apply_policy(policy, runs.start, w, intended)
    return step


def _gather(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``table[indices]``, a chunk at a time.

    numpy copies the indices of a gather to intp first; chunks keep that
    copy small (a whole uint32 table would take two tables' worth more),
    and on a 2-core x86 host with numpy 2.4 they also gather about a
    third faster.  ``clip`` skips the bounds check, which no table here
    can fail.  A table of one chunk is gathered in one call.
    """
    if indices.size <= _GATHER_CHUNK:
        return np.take(table, indices, mode="clip")
    out = np.empty_like(indices)
    for lo in range(0, indices.size, _GATHER_CHUNK):
        hi = lo + _GATHER_CHUNK
        np.take(table, indices[lo:hi], out=out[lo:hi], mode="clip")
    return out


def _power(step: np.ndarray, exponent: int) -> np.ndarray:
    """``step`` composed with itself ``exponent`` >= 1 times.

    Left-to-right binary exponentiation: about 1.5 * log2(exponent)
    gathers over the table, with at most two tables alive besides
    ``step``.  Powers of one map commute, so a multiplication by
    ``step`` gathers ``result`` at ``step``'s indices, which run nearly
    in order (x -> 2x or 2x + 1) and cost half a scattered gather.
    """
    result = step
    for bit in bin(exponent)[3:]:
        result = _gather(result, result)
        if bit == "1":
            result = _gather(result, step)
    return result


def _hops(power: np.ndarray, start: int, count: int) -> np.ndarray:
    """States after 0, w, 2w, ..., count * w ticks, ``power`` being step**w.

    One lookup per hop: after w ticks the window holds only moves
    realized during the hop, so each hop state is also the hop's w
    moves, oldest in the top bit.
    """
    nxt = memoryview(power)
    hops = np.empty(count + 1, dtype=np.uint32)
    out = memoryview(hops)
    x = out[0] = start
    for k in range(1, count + 1):
        x = out[k] = nxt[x]
    return hops


def _orbit_states(power: np.ndarray, start: int, count: int) -> np.ndarray:
    """The first ``count`` window states of the orbit, start included.

    Tick kw + j sees the j newest moves of hop k + 1 behind the w - j
    newest of hop k.
    """
    w = power.size.bit_length() - 1
    hops = _hops(power, start, -(-count // w))
    older, newer = hops[:-1], hops[1:]
    states = np.empty((older.size, w), dtype=np.uint32)
    for j in range(w):
        np.bitwise_or(older << j, newer >> (w - j), out=states[:, j])
    states &= np.uint32(power.size - 1)
    return states.reshape(-1)[:count]


def walk_direct(
    step: np.ndarray, walked: Sequence[int], limit: int
) -> Optional[tuple[int, int, np.ndarray]]:
    """(transient, cycle, states) of an orbit closed within ``limit`` ticks.

    ``walked`` holds the first windows of the orbit, all distinct, as
    :func:`walk_scalar` leaves them when its budget runs out; the walk
    goes on from the last one through the step table, one lookup a tick,
    and marks each window in a 2**w-bit seen bitmap until a window
    repeats.  ``states[t]`` is the window after t ticks, ending with the
    first repeat as in :func:`walk_orbit`.  None if no window repeats
    within ``limit`` ticks.
    """
    known = len(walked)
    if limit < known:
        return None
    states = np.empty(limit + 1, dtype=np.uint32)
    states[:known] = walked
    seen = np.zeros(-(-step.size // 8), dtype=np.uint8)
    done = states[: known - 1]
    np.bitwise_or.at(seen, done >> 3, (1 << (done & 7)).astype(np.uint8))
    bits, out, nxt = memoryview(seen), memoryview(states), memoryview(step)
    x = out[known - 1]
    for t in range(known - 1, limit + 1):
        byte, bit = x >> 3, 1 << (x & 7)
        if bits[byte] & bit:
            first = int(np.flatnonzero(states[:t] == x)[0])
            out[t] = x
            return first, t - first, states[: t + 1]
        bits[byte] |= bit
        out[t] = x
        x = nxt[x]
    return None


def walk_orbit(power: np.ndarray, start: int) -> tuple[int, int, np.ndarray]:
    """(transient, cycle length, states) of the orbit of ``start``.

    ``power`` is step**w for a uint32 next-window table as built by
    :func:`step_table`: every state shifts one bit left and takes its
    realized move as bit 0.  The hop path gives the 2**w + 1 first
    states, which must contain a repeat: the last of them lies on the
    cycle, its previous occurrence gives the cycle length, and the first
    state equal to the one a cycle later ends the transient.
    ``states[t]`` is the window after t ticks, so ``states[1:] & 1`` are
    the realized moves.
    """
    states = _orbit_states(power, int(start), power.size + 1)
    previous = states[:-1] == states[-1]
    cycle = 1 + int(np.argmax(previous[::-1]))
    transient = int(np.argmax(states[:-cycle] == states[cycle:]))
    return transient, cycle, states


def walk_visit(power: np.ndarray, start: int) -> tuple[int, int]:
    """(transient, cycle length) of the orbit of ``start``; see :func:`walk_orbit`."""
    transient, cycle, _ = walk_orbit(power, start)
    return transient, cycle


def walk_emit(
    table: np.ndarray, start: int, num_ticks: int, hop: bool = False
) -> np.ndarray:
    """Realized moves (newest window bit) along the orbit of ``start``.

    ``table`` is a step table as for :func:`step_table`, walked one tick
    per lookup, or with ``hop`` its power step**w, walked w ticks per
    lookup: each hop state unpacks into the hop's w moves.
    """
    if not hop:
        moves = np.empty(num_ticks, dtype=np.uint8)
        out = memoryview(moves)
        nxt = memoryview(table)
        x = int(start)
        for i in range(num_ticks):
            x = nxt[x]
            out[i] = x & 1
        return moves
    w = table.size.bit_length() - 1
    hops = _hops(table, int(start), -(-num_ticks // w))[1:]
    bits = np.unpackbits(hops.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - w :].reshape(-1)[:num_ticks]


class Machine:
    """One rule's tables at one window width, each built when first needed.

    It holds the decision table and the unregulated step**w, and nothing
    else of size 2**w, so that every policy walked on it shares them: see
    :meth:`power`.  A machine that only serves scalar walks builds
    nothing.
    """

    def __init__(self, rule: IfaRule, w: int) -> None:
        self.rule = rule
        self.w = w
        self._decisions: Optional[np.ndarray] = None
        self._base: Optional[np.ndarray] = None  # unregulated step**w

    @property
    def decisions(self) -> np.ndarray:
        if self._decisions is None:
            self._decisions = decision_table(self.rule, self.w)
        return self._decisions

    def step(self, policy: RegulationPolicy) -> np.ndarray:
        """The policy's step table, built anew: the machine keeps none."""
        return step_table(self.decisions, self.w, policy)

    def _base_power(self, step: Optional[np.ndarray] = None) -> np.ndarray:
        """The unregulated step**w, squared from ``step`` if it must be built."""
        if self._base is None:
            if step is None:
                step = self.step(RegulationPolicy("none"))
            self._base = _power(step, self.w)
        return self._base

    def _affected(self, policy: RegulationPolicy) -> Optional[np.ndarray]:
        """Windows whose step**w the policy may change, or None if too many.

        The policy overrides the rule only on windows whose newest
        min(n, w) bits are a run.  A window's step**w can change only if
        its unregulated path meets one of those within w - 1 ticks, so a
        breadth-first search back from them over the unregulated step,
        w - 1 levels deep, finds every such window once.  A window z has
        the predecessors z >> 1 and z >> 1 | 1 << (w - 1), those whose
        decision is z's newest bit.  The search stops with None once it
        passes ``_PATCH_MAX_SHARE`` of the windows.
        """
        w, decisions = self.w, self.decisions
        runs = np.concatenate(
            [
                np.arange(r.start, 1 << w, r.step, dtype=np.uint32)
                for r in _run_slices(policy, w)
            ]
        )
        intended = decisions[runs]
        level = runs[apply_policy(policy, runs, w, intended) != intended]
        limit = _PATCH_MAX_SHARE * (1 << w)
        visited = np.zeros(1 << w, dtype=bool)
        levels = [level]
        total = level.size
        top, one = np.uint32(1 << (w - 1)), np.uint32(1)
        for _ in range(w - 1):
            if total > limit:
                return None
            visited[level] = True
            half = level >> one
            preds = np.concatenate((half, half | top))
            newest = np.concatenate((level, level)) & one
            level = preds[(decisions[preds] == newest) & ~visited[preds]]
            levels.append(level)
            total += level.size
        return np.concatenate(levels) if total <= limit else None

    @contextmanager
    def power(
        self, policy: RegulationPolicy, step: Optional[np.ndarray] = None
    ) -> Iterator[np.ndarray]:
        """step**w for ``policy``, valid inside the ``with`` block.

        ``none`` gets the unregulated table, built if the machine does
        not hold it yet.  Once it does, a policy that changes it on few
        windows (see :meth:`_affected`) gets it patched in place: w
        vectorized steps of the regulated map over those windows give
        their entries, and the saved entries go back when the block
        exits, also by an exception.  Any other policy, and any policy
        before the unregulated table exists (building it would cost what
        squaring the policy's own table does), squares its own step
        table: ``step`` if the caller has built it.
        """
        # ``step`` is dropped as soon as it is not needed: the walk that
        # runs inside the block should not hold it
        if policy.regime == "none":
            base = self._base_power(step)
            del step
            yield base
            return
        base = self._base
        affected = None if base is None else self._affected(policy)
        if affected is None:
            squared = _power(self.step(policy) if step is None else step, self.w)
            del step
            yield squared
            return
        del step
        w, decisions = self.w, self.decisions
        mask, one = np.uint32(base.size - 1), np.uint32(1)
        ends = affected
        for _ in range(w):
            ends = ((ends << one) & mask) | apply_policy(
                policy, ends, w, decisions[ends]
            )
        saved = base[affected]
        try:
            base[affected] = ends
            del ends
            yield base
        finally:
            base[affected] = saved

    def orbit(
        self,
        policy: RegulationPolicy,
        walked: Sequence[int],
        with_states: bool = True,
    ) -> tuple[int, int, Optional[np.ndarray]]:
        """(transient, cycle, states) of the orbit that ``walked`` begins.

        ``walked`` holds the orbit's first windows, all distinct, as the
        scalar walk leaves them.  The step table is walked directly up to
        2**w >> ``_DIRECT_VISIT_SHIFT`` ticks; only then the hops through
        step**w search the orbit.  ``states`` as for :func:`walk_orbit`,
        or None unless ``with_states``.
        """
        step = self.step(policy)
        found = walk_direct(step, walked, step.size >> _DIRECT_VISIT_SHIFT)
        if found is not None:
            return found
        tables = self.power(policy, step)
        del step  # the tables keep it only while they need it
        with tables as power:
            if with_states:
                return walk_orbit(power, walked[0])
            return (*walk_visit(power, walked[0]), None)

    def emit(
        self, policy: RegulationPolicy, start: int, num_ticks: int
    ) -> np.ndarray:
        """Realized moves of ``num_ticks`` ticks from ``start``.

        Fewer than 2**w >> ``_DIRECT_EMIT_SHIFT`` ticks walk the step
        table directly; longer runs hop through step**w, which costs a
        few passes over the table, or a patch, but then only one Python
        step per w ticks.
        """
        if num_ticks < (1 << self.w) >> _DIRECT_EMIT_SHIFT:
            return walk_emit(self.step(policy), start, num_ticks)
        with self.power(policy) as power:
            return walk_emit(power, start, num_ticks, hop=True)
