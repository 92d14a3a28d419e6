"""Vectorized window-state machinery shared by market and survey.

Window states are w-bit integers with bit i holding the move realized i
ticks ago (bit 0 = newest).  The closed-loop dynamics is a map over the
2**w window values: decide, regulate, shift.  Decision tables for all
2**w windows are built with a prefix trie (states shared across windows
that agree on their newest bits), which costs about 2 * 2**w cheap array
operations instead of w * 2**w.

Every walk returns ``(first, windows)``: ``windows[t]`` is the window
after t ticks, and the walk stops at the first repeat, so that
``windows[-1] == windows[first]``; a walk that finds none within its
``limit`` ticks returns ``first`` None and ``limit + 1`` windows.  There
are three walks, a ladder in which each rung is taken only when the one
before has cost about what the next costs to set up (ski rental):
:func:`walk_scalar` decides one window at a time from the rule's 2x2
tables and builds nothing of size 2**w; :func:`walk_direct` walks the
step table with a 2**w-bit seen bitmap; :func:`walk_orbit` hops w ticks
at a time through step**w.  :meth:`Machine.orbit` and :meth:`Machine.run`
are the only routers: the first climbs the ladder until the orbit
closes, or, given a limit, until the limit runs out, without the hop
rung; the second takes a short run as that limited climb and tiles the
cycle of a walk that closes, and a long one as :func:`walk_emit`, the
hop walk of a run, which returns the moves alone.

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

# on a 2-core x86 host a scalar tick cost 1.3-2 us at w = 22, growing with
# w, and the decision and step tables 25-60 ms, growing with 2**w: the
# 2**w / (8w) = 23,832 scalar ticks at w = 22 cost about what the tables do.
# The closed-form decision since cut a scalar tick to about 0.6 of that.
_TABLE_PATH_MIN_TICKS_FACTOR = 8

# Where a tick-by-tick table walk stops paying (2-core x86 host, numpy 2.4,
# w = 22): a direct walk costs ~0.3-0.4 us per tick against ~0.18 s for the
# hop path, so runs of 2**w / 8 ticks or more hop.
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


def _scalar_budget(w: int) -> int:
    """Ticks a table-free walk may take: about the cost of the tables."""
    return -(-(1 << w) // (_TABLE_PATH_MIN_TICKS_FACTOR * w))


def scalar_decision(rule: IfaRule, w: int) -> Callable[[int], int]:
    """``decide(window)``: the intended move for one w-bit window.

    Gives what the trie of :func:`decision_table` gives, reading the
    window newest-first from automaton state 0, and builds nothing of
    size 2**w.  Each next-state map ``f_b = rule.next_state(., b)`` is
    a constant (a reset), the identity or a negation (a flip), so the
    state after the newest w - 1 bits is set by the last reset read,
    the oldest of them (0 if none), flipped once for each flip bit read
    after it.  The oldest bit then picks the output.
    """
    body = (1 << (w - 1)) - 1  # the bits read before the oldest
    # f_b(s) = reset_to[b] ^ (s & slope[b])
    reset_to = [rule.next_state(0, b) for b in (0, 1)]
    slope = [reset_to[b] ^ rule.next_state(1, b) for b in (0, 1)]
    # masks of the body bits that reset, that flip, when they are 0 / 1
    reset0, reset1 = (0 if slope[b] else body for b in (0, 1))
    flip0, flip1 = (body if slope[b] and reset_to[b] else 0 for b in (0, 1))
    out = tuple(tuple(rule.output(s, b) for b in (0, 1)) for s in (0, 1))

    def decide(window: int) -> int:
        zeros = ~window
        last = ((window & reset1) | (zeros & reset0)).bit_length()
        state = last and reset_to[(window >> (last - 1)) & 1]
        flips = ((window & flip1) | (zeros & flip0)) >> last
        return out[state ^ (flips.bit_count() & 1)][(window >> (w - 1)) & 1]

    return decide


def walk_scalar(
    rule: IfaRule, w: int, policy: RegulationPolicy, start: int, limit: int
) -> tuple[Optional[int], list[int]]:
    """``(first, windows)`` of the orbit of ``start``, at most ``limit`` ticks.

    The scalar rung: see the module docstring for the contract.  Moves
    pass through :func:`~ifamarket.regulation.apply_policy` as in
    :func:`step_table`, with the policy bound once by
    :func:`~ifamarket.regulation.regulator`.
    """
    decide = scalar_decision(rule, w)
    regulate = regulator(policy, w)
    mask = (1 << w) - 1
    seen: dict[int, int] = {}  # window -> tick; keeps the windows in order
    x = int(start)
    for t in range(limit + 1):
        if x in seen:
            return seen[x], [*seen, x]
        seen[x] = t
        x = ((x << 1) & mask) | regulate(x, decide(x))
    return None, list(seen)


def realized(windows: Sequence[int] | np.ndarray) -> np.ndarray:
    """The realized moves that led to ``windows[1:]``: their newest bits."""
    return (np.asarray(windows[1:], dtype=np.uint32) & 1).astype(np.uint8)


def _tile(
    first: Optional[int], windows: Sequence[int], num_ticks: int
) -> np.ndarray:
    """Moves of ``num_ticks`` ticks from a walk of at most that many ticks.

    A walk that closed repeats its cycle's moves over the ticks left.
    """
    moves = realized(windows)
    if first is None:
        return moves
    return np.concatenate(
        (moves[:first], np.resize(moves[first:], num_ticks - first))
    )


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


def decision_table(rule: IfaRule, w: int) -> np.ndarray:
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
    states = np.zeros(1, dtype=np.uint8)
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
) -> tuple[Optional[int], np.ndarray]:
    """``(first, windows)`` of the orbit ``walked`` begins, at most ``limit`` ticks.

    The direct rung: see the module docstring for the contract.
    ``walked`` holds the first windows of the orbit, all distinct, as
    :func:`walk_scalar` leaves them when its limit runs out; the walk
    goes on from the last one through the step table, one lookup a tick,
    and marks each window in a 2**w-bit seen bitmap until a window
    repeats.
    """
    known = min(len(walked), limit + 1)
    states = np.empty(limit + 1, dtype=np.uint32)
    states[:known] = walked[:known]
    seen = np.zeros(-(-step.size // 8), dtype=np.uint8)
    done = states[: known - 1]
    np.bitwise_or.at(seen, done >> 3, (1 << (done & 7)).astype(np.uint8))
    bits, out, nxt = memoryview(seen), memoryview(states), memoryview(step)
    x = out[known - 1]
    for t in range(known - 1, limit + 1):
        byte, bit = x >> 3, 1 << (x & 7)
        if bits[byte] & bit:
            out[t] = x
            return int(np.flatnonzero(states[:t] == x)[0]), states[: t + 1]
        bits[byte] |= bit
        out[t] = x
        x = nxt[x]
    return None, states


def walk_orbit(power: np.ndarray, start: int) -> tuple[int, np.ndarray]:
    """``(first, windows)`` of the orbit of ``start``, which always closes.

    The hop rung: see the module docstring for the contract.  ``power``
    is step**w for a uint32 next-window table as built by
    :func:`step_table`: every state shifts one bit left and takes its
    realized move as bit 0.  The hops give the 2**w + 1 first states,
    which must contain a repeat: the last of them lies on the cycle, its
    previous occurrence gives the cycle length, and the first state
    equal to the one a cycle later is the first to repeat.
    """
    states = _orbit_states(power, int(start), power.size + 1)
    previous = states[:-1] == states[-1]
    cycle = 1 + int(np.argmax(previous[::-1]))
    first = int(np.argmax(states[:-cycle] == states[cycle:]))
    return first, states[: first + cycle + 1]


def walk_emit(power: np.ndarray, start: int, num_ticks: int) -> np.ndarray:
    """Realized moves of ``num_ticks`` ticks from ``start``, hop by hop.

    ``power`` is step**w as for :func:`walk_orbit`, walked w ticks per
    lookup: each hop state unpacks into the hop's w moves.
    """
    w = power.size.bit_length() - 1
    hops = _hops(power, int(start), -(-num_ticks // w))[1:]
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
        self, policy: RegulationPolicy, start: int, limit: Optional[int] = None
    ) -> tuple[Optional[int], Sequence[int]]:
        """``(first, windows)`` of the orbit of ``start``.

        Climbs the ladder: the scalar walk for ``_scalar_budget(w)``
        ticks, then the step table walked directly up to 2**w >>
        ``_DIRECT_VISIT_SHIFT`` ticks, and only then the hops through
        step**w, so that the orbit always closes.  A walk with a
        ``limit`` keeps to the contract of every walk: the scalar rung
        runs up to ``limit`` ticks if the budget allows, the direct rung
        takes the rest, and it never hops.
        """
        budget = _scalar_budget(self.w)
        if limit is not None:
            budget = min(budget, limit)
        first, windows = walk_scalar(self.rule, self.w, policy, start, budget)
        if first is not None or budget == limit:
            return first, windows
        step = self.step(policy)
        first, windows = walk_direct(
            step, windows, step.size >> _DIRECT_VISIT_SHIFT if limit is None else limit
        )
        if first is not None or limit is not None:
            return first, windows
        del windows
        tables = self.power(policy, step)
        del step  # the tables keep it only while they need it
        with tables as power:
            return walk_orbit(power, start)

    def run(
        self, policy: RegulationPolicy, start: int, num_ticks: int
    ) -> np.ndarray:
        """Realized moves of ``num_ticks`` ticks from ``start``.

        Runs shorter than 2**w >> ``_DIRECT_EMIT_SHIFT`` ticks are the
        orbit search limited to ``num_ticks``, which builds no table if
        the scalar walk closes the orbit or runs out of ticks first; a
        walk that closes tiles its cycle over the ticks left.  Longer
        runs hop through step**w, which costs a few passes over the
        table, or a patch, but then only one Python step per w ticks.
        """
        if num_ticks < (1 << self.w) >> _DIRECT_EMIT_SHIFT:
            return _tile(*self.orbit(policy, start, num_ticks), num_ticks)
        with self.power(policy) as power:
            return walk_emit(power, start, num_ticks)
