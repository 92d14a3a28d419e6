"""Vectorized window-state machinery shared by market and survey.

Window states are w-bit integers with bit i holding the move realized i
ticks ago (bit 0 = newest).  The closed-loop dynamics is a map over the
2**w window values: decide, regulate, shift.  Decision tables for all
2**w windows are built with a prefix trie (states shared across windows
that agree on their newest bits), which costs about 2 * 2**w cheap array
operations instead of w * 2**w.

Most orbits close long before 2**w ticks, so a scalar machine walks
them first: it decides one window at a time from the rule's 2x2 tables
and builds nothing of size 2**w.  Orbits that outlast its budget, and
long runs, use the tables.  Table walks use numpy alone: short runs go
tick by tick, long ones hop w ticks at a time through step**w (built by
repeated squaring), so Python runs one step per w ticks; each tick's
window is rebuilt from two consecutive hop states with shifts.  All
state arrays are uint32, which holds every window for w <= 30.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

import numpy as np

from .ifa import IfaRule
from .regulation import RegulationPolicy, apply_policy

# Where a tick-by-tick table walk stops paying (2-core x86 host, numpy 2.4,
# w = 22): a direct emit costs ~0.3 us per tick against ~0.18 s for the hop
# path, so runs of 2**w / 8 ticks or more hop.
_DIRECT_EMIT_SHIFT = 3

# bytes per window that the table path may hold at once: the decision
# table (1), the step table (4) and two step**w temporaries (4 each)
_TABLE_BYTES_PER_WINDOW = 1 + 4 + 2 * 4


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
    :func:`~ifamarket.regulation.apply_policy` as in :func:`step_table`.
    """
    decide = scalar_decision(rule, w)
    mask = (1 << w) - 1
    seen: dict[int, int] = {}  # window -> tick; keeps the windows in order
    x = int(start)
    for t in range(limit + 1):
        if x in seen:
            return [*seen, x], seen[x]
        seen[x] = t
        x = ((x << 1) & mask) | apply_policy(policy, x, w, decide(x))
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
            f"step {_mib(4 << w)}, two step**w temporaries of {_mib(4 << w)}), "
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


def step_table(
    decisions: np.ndarray, w: int, policy: RegulationPolicy
) -> np.ndarray:
    """Next-window map over all 2**w states, regulation applied.

    For a trend length n > w this is the machine clamped to n = w (see
    :func:`~ifamarket.regulation.apply_policy`).
    """
    n_states = 1 << w
    mask = np.uint32(n_states - 1)
    values = np.arange(n_states, dtype=np.uint32)
    realized = apply_policy(policy, values, w, decisions)
    return ((values << np.uint32(1)) & mask) | realized.astype(np.uint32)


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
        result = np.take(result, result)
        if bit == "1":
            result = np.take(result, step)
    return result


def _hops(step: np.ndarray, start: int, count: int) -> np.ndarray:
    """States after 0, w, 2w, ..., count * w ticks (w = log2 of table size).

    One pass through step**w per hop: after w ticks the window holds
    only moves realized during the hop, so each hop state is also the
    hop's w moves, oldest in the top bit.
    """
    w = step.size.bit_length() - 1
    nxt = memoryview(_power(step, w))
    hops = np.empty(count + 1, dtype=np.uint32)
    out = memoryview(hops)
    x = out[0] = start
    for k in range(1, count + 1):
        x = out[k] = nxt[x]
    return hops


def _orbit_states(step: np.ndarray, start: int, count: int) -> np.ndarray:
    """The first ``count`` window states of the orbit, start included.

    Tick kw + j sees the j newest moves of hop k + 1 behind the w - j
    newest of hop k.
    """
    w = step.size.bit_length() - 1
    hops = _hops(step, start, -(-count // w))
    older, newer = hops[:-1], hops[1:]
    states = np.empty((older.size, w), dtype=np.uint32)
    for j in range(w):
        np.bitwise_or(older << j, newer >> (w - j), out=states[:, j])
    states &= np.uint32(step.size - 1)
    return states.reshape(-1)[:count]


def walk_orbit(step: np.ndarray, start: int) -> tuple[int, int, np.ndarray]:
    """(transient, cycle length, states) of the orbit of ``start`` under ``step``.

    ``step`` is a uint32 next-window table as built by :func:`step_table`:
    every state shifts one bit left and takes its realized move as bit 0.
    The hop path gives the 2**w + 1 first states, which must contain a
    repeat: the last of them lies on the cycle, its previous occurrence
    gives the cycle length, and the first state equal to the one a cycle
    later ends the transient.  ``states[t]`` is the window after t ticks,
    so ``states[1:] & 1`` are the realized moves.
    """
    states = _orbit_states(step, int(start), step.size + 1)
    previous = states[:-1] == states[-1]
    cycle = 1 + int(np.argmax(previous[::-1]))
    transient = int(np.argmax(states[:-cycle] == states[cycle:]))
    return transient, cycle, states


def walk_visit(step: np.ndarray, start: int) -> tuple[int, int]:
    """(transient, cycle length) of the orbit of ``start``; see :func:`walk_orbit`."""
    transient, cycle, _ = walk_orbit(step, start)
    return transient, cycle


def walk_emit(step: np.ndarray, start: int, num_ticks: int) -> np.ndarray:
    """Realized moves (newest window bit) along the orbit of ``start``.

    ``step`` is a next-window table as for :func:`walk_visit`.
    Fewer than 2**w >> _DIRECT_EMIT_SHIFT ticks are walked directly;
    longer runs unpack hop states, which costs a few passes over the
    table to build step**w but then only one Python step per w ticks.
    """
    n_states = step.size
    if num_ticks < n_states >> _DIRECT_EMIT_SHIFT:
        moves = np.empty(num_ticks, dtype=np.uint8)
        out = memoryview(moves)
        nxt = memoryview(step)
        x = int(start)
        for i in range(num_ticks):
            x = nxt[x]
            out[i] = x & 1
        return moves
    w = n_states.bit_length() - 1
    hops = _hops(step, int(start), -(-num_ticks // w))[1:]
    bits = np.unpackbits(hops.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - w :].reshape(-1)[:num_ticks]
