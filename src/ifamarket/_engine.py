"""Vectorized window-state machinery shared by market and survey.

Window states are w-bit integers with bit i holding the move realized i
ticks ago (bit 0 = newest).  The closed-loop dynamics is a map over the
2**w window values: decide, regulate, shift.  Decision tables for all
2**w windows are built with a prefix trie (states shared across windows
that agree on their newest bits), which costs about 2 * 2**w cheap array
operations instead of w * 2**w.

Orbit walks use numpy alone.  Short orbits and short runs are walked
tick by tick.  Long ones hop w ticks at a time through step**w (built by
repeated squaring), so Python runs one step per w ticks; each tick's
window is rebuilt from two consecutive hop states with shifts.  All
state arrays are uint32, which holds every window for w <= 30.
"""

from __future__ import annotations

import numpy as np

from .ifa import IfaRule
from .regulation import RegulationPolicy, apply_policy

# Where tick-by-tick walks stop paying (2-core x86 host, numpy 2.4, w = 22):
# a direct emit costs ~0.3 us per tick against ~0.18 s for the hop path, so
# runs of 2**w / 8 ticks or more hop.  A direct orbit search (~0.5 us per
# tick with its dict) that finds no repeat is wasted, so it gives up after
# 2**w / 64 ticks, about a tenth of what the hop path then costs.
_DIRECT_VISIT_SHIFT = 6
_DIRECT_EMIT_SHIFT = 3


def decision_table(rule: IfaRule, w: int, initial_state: int = 0) -> np.ndarray:
    """Intended move for every w-bit window value, as a uint8 array.

    The automaton pass consumes the window newest-first, so the trie is
    keyed on the j newest bits: entry p of the j-th level holds the
    automaton state after reading bits 0..j-1 of any window whose low j
    bits equal p.
    """
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


def _direct_visit(step: np.ndarray, start: int, limit: int):
    """(transient, cycle) if the orbit closes within ``limit`` ticks, else None."""
    nxt = memoryview(step)
    seen = {}
    x = start
    t = 0
    while x not in seen:
        if t == limit:
            return None
        seen[x] = t
        x = nxt[x]
        t += 1
    first = seen[x]
    return first, t - first


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


def walk_visit(step: np.ndarray, start: int) -> tuple[int, int]:
    """(transient, cycle length) of the orbit of ``start`` under ``step``.

    ``step`` is a uint32 next-window table as built by :func:`step_table`:
    every state shifts one bit left and takes its realized move as bit 0.
    Orbits closing within 2**w >> _DIRECT_VISIT_SHIFT ticks are found by
    a direct walk.  Longer ones take the hop path over all 2**w + 1
    first states, which must contain a repeat: the last of them lies on
    the cycle, its previous occurrence gives the cycle length, and the
    first state equal to the one a cycle later ends the transient.
    """
    n_states = step.size
    found = _direct_visit(step, int(start), n_states >> _DIRECT_VISIT_SHIFT)
    if found is not None:
        return found
    states = _orbit_states(step, int(start), n_states + 1)
    previous = states[:-1] == states[-1]
    cycle = 1 + int(np.argmax(previous[::-1]))
    transient = int(np.argmax(states[:-cycle] == states[cycle:]))
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
