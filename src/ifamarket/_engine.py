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
are the only routers, one job each.  The first searches an orbit up the
whole ladder, so the orbit always closes; a default span, transient +
one cycle, is that one walk, whose windows :func:`tile` turns into
moves.  The second takes a run of a given span: a short one as a scalar
then direct walk of at most its ticks, tiled in the same way, and a long
one as a cut of the held cycle (below) or as :func:`walk_emit`, the hop
walk of a run, which returns the moves alone.

A regulated walk is the unregulated one, cut where the policy fires (at
the windows that :func:`firing` finds, the one place that does) and
rejoined where the forced move lands.  So a machine whose orbit search
has hopped an unregulated orbit holds it, and a long run takes a cut
rung before any regulated table: between two firing windows the run
follows the held cycle.  The cycle positions where the policy fires are
marked one byte each, so the next one is one ``bytearray.find``, and the
cycle's moves up to it are copied into the run as the walk goes.  A run
that starts or lands off the held cycle hops as it would without one.
For rule 54 where x^w + x + 1 is primitive (w = 22 among them) the
unregulated cycle holds every nonzero window, so no regulated run from a
nonzero window leaves it.

A :class:`Machine` holds one rule's tables at one w: the decision table,
the unregulated step**w, the held unregulated walk and, built for the
first run that cuts it, its cut state: the cycle position of every
window and the moves of the cycle, one contiguous 0/1 byte per tick, so
that a cut run copies each arc of the cycle as one slice.  All but the
decision table are read-only once built.  A regulated policy changes the
step table only on the windows where it fires, so where it must hop its
step**w is a copy of the unregulated one, patched over the windows that
reach such a window within w - 1 ticks; a policy that reaches too many
squares its own step table.  Besides the machine's own tables, at most
a regulated step table and two step**w temporaries, or a patched copy,
are held at once.  Hop walks use numpy alone, one Python step per w
ticks; each tick's window is rebuilt from two consecutive hop states
with shifts.  All state arrays are uint32, which holds every w <= 30.

The passes over a whole table (the fill of a step table, each gather
that squares step**w, the rows of a hopped orbit's windows and the cut
index) run on every core: :func:`_in_pieces` deals their pieces to one
thread per core of the process's affinity mask, and numpy releases the
GIL in those calls.  Each pass joins its threads before it returns.  On
a 2-core x86 host with numpy 2.4, in a fresh process, step**22 squares
in 92-107 ms against 170-267 ms on one core.  A worker process of
:func:`ordered_map` runs its passes on one thread, since the pool's
processes already share the cores.
"""

from __future__ import annotations

import os
import sys
from array import array
from threading import Thread
from typing import Callable, Optional, Sequence

import numpy as np

from .ifa import IfaRule
from .regulation import RegulationPolicy, regulator

# The scalar walk's budget, 2**w / (8w) ticks, weighs a table-free walk
# against the decision and step tables it would otherwise build.  At
# w = 22 on a 2-core x86 host (numpy 2.4, one process) its 23,832 ticks
# take 1.1-1.2 us each, 26-29 ms, against 12-26 ms for the two tables; a
# change of it needs its own before/after benchmark.
_TABLE_PATH_MIN_TICKS_FACTOR = 8

# A run of 2**w >> 3 ticks or more hops through step**w rather than walk
# the step table a tick at a time: the hops pay for the squaring up
# front, the direct walk by the tick.  At w = 22 on a 2-core x86 host
# (numpy 2.4) a direct tick costs 0.40 us and squaring step**w on both
# cores 76-93 ms, so the break-even is near 2**w / 20 ticks; a change of
# the shift needs its own before/after benchmark.
_DIRECT_EMIT_SHIFT = 3

# An orbit search walks the step table directly for up to 2**w >> 6
# ticks before it squares step**w: the direct walk may close the orbit
# for a fraction of the squaring's cost, and wastes that fraction if it
# does not.  At w = 22 on a 2-core x86 host (numpy 2.4) its 65,536 ticks
# take 26-27 ms with the seen bitmap, against 76-93 ms to square.
_DIRECT_VISIT_SHIFT = 6

# A policy whose step**w differs from the unregulated one on more than
# this share of the windows squares its own step table instead of
# patching a copy: a patch steps each window it rewrites w times on one
# core, a full build gathers every window about 1.5 * log2(w) times on
# every core.  Rule 54 at w = 22 on a 2-core x86 host (numpy 2.4, one
# process): prick:6 rewrites 8.8% of the windows in 96-100 ms, and
# building and squaring its own step table takes 86-105 ms, so the
# break-even share is near 1/11; a change of it needs its own
# before/after benchmark.
_PATCH_MAX_SHARE = 1 / 8

# entries per piece of a table pass; see _in_pieces and _gather
_GATHER_CHUNK = 1 << 18

# bytes per window that the table path may hold at once: the decision
# table (1) and the unregulated step**w (4) of a machine, a regulated step
# table (4) with the two temporaries of its step**w (4 each), and the held
# unregulated cycle (4) with its cut index (4) and its moves (1).  A
# patched copy of the unregulated step**w squares nothing, so it fits in
# the regulated step table's 4 bytes, or a temporary's if one is built.  A
# cut run holds no regulated table: its firing marks (1) and visited bits,
# with the firing windows and their positions (4 each) that it marks from,
# fit in the 12 bytes of the step table and its temporaries.
_TABLE_BYTES_PER_WINDOW = 1 + 4 + 4 + 2 * 4 + 4 + 4 + 1

# tables smaller than this, about what the interpreter with numpy takes
# already, are built without reading the memory available first
_MEMORY_CHECK_MIN_BYTES = 32 << 20


# set in a worker process of ordered_map, whose table passes run inline
_inline = False


def _threads() -> int:
    """Threads for one table pass: one per core this process may run on."""
    if _inline:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _in_pieces(size: int, task: Callable[[int, int], None], width: int = 1) -> None:
    """Call ``task(lo, hi)`` over range(``size``) in pieces, one thread per core.

    A piece holds ``_GATHER_CHUNK // width`` items (rows of ``width``
    entries), and the pieces are dealt round-robin to :func:`_threads`
    threads, this one included, which are joined before this returns: no
    thread outlives a pass, so a process forked later inherits none.
    Tasks must write disjoint slices; they run in parallel only where
    numpy releases the GIL.  A pass of one piece runs inline.
    """
    step = max(1, _GATHER_CHUNK // width)
    pieces = [(lo, min(lo + step, size)) for lo in range(0, size, step)]
    count = min(_threads(), len(pieces)) if len(pieces) > 1 else 1
    if count == 1:
        for lo, hi in pieces:
            task(lo, hi)
        return
    errors: list[BaseException] = []

    def deal(k: int) -> None:
        try:
            for lo, hi in pieces[k::count]:
                task(lo, hi)
        except BaseException as exc:  # raised again once every thread is joined
            errors.append(exc)

    helpers = [Thread(target=deal, args=(k,)) for k in range(1, count)]
    for thread in helpers:
        thread.start()
    deal(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


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
    pass through :func:`~ifamarket.regulation.regulator`, bound once, as
    in :func:`step_table`.
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


def _low_bytes(windows: np.ndarray) -> np.ndarray:
    """A view of the low byte of each uint32 window: bit 0 is its newest move."""
    return windows.view(np.uint8)[0 if sys.byteorder == "little" else 3 :: 4]


def realized(windows: Sequence[int] | np.ndarray) -> np.ndarray:
    """The realized moves that led to ``windows[1:]``: their newest bits.

    Masked from the low bytes of the windows, so that a uint32 array of
    windows is not copied.
    """
    return np.bitwise_and(_low_bytes(np.asarray(windows, dtype=np.uint32))[1:], 1)


def _repeat_cycle(out: np.ndarray, first: int, done: int) -> np.ndarray:
    """Fill ``out`` past ``done`` by repeating its cycle, which starts at ``first``.

    ``out[first:done]`` holds whole cycles, so each copy may double it.
    """
    while done < out.size:
        count = min(done - first, out.size - done)
        out[done : done + count] = out[first : first + count]
        done += count
    return out


def tile(first: Optional[int], windows: Sequence[int], num_ticks: int) -> np.ndarray:
    """A new array of the realized moves of ``num_ticks`` ticks of a walk.

    ``(first, windows)`` is the walk: at most ``num_ticks`` ticks if it did
    not close, else its transient and one cycle, which repeats over the
    ticks left.  The low bytes of the windows are masked once, into the
    result, so that no other copy of the moves is made.
    """
    low = _low_bytes(np.asarray(windows, dtype=np.uint32))[1:]
    out = np.empty(num_ticks, dtype=np.uint8)
    done = min(low.size, num_ticks)
    np.bitwise_and(low[:done], 1, out=out[:done])
    return out if first is None else _repeat_cycle(out, first, done)


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
    memory available; if not it raises :class:`MemoryError`.  Tables of
    less than ``_MEMORY_CHECK_MIN_BYTES`` are not checked.
    """
    need = _TABLE_BYTES_PER_WINDOW << w
    available = None if need < _MEMORY_CHECK_MIN_BYTES else available_memory()
    if available is not None and need > available:
        table = _mib(4 << w)
        raise MemoryError(
            f"the tables for w = {w} need up to {_mib(need)} "
            f"(decision {_mib(1 << w)}, unregulated step**w {table}, "
            f"step {table}, two step**w temporaries of {table}, "
            f"held unregulated cycle {table}, its cut index {table}, "
            f"its moves {_mib(1 << w)}), "
            f"but only {_mib(available)} is available"
        )
    # the maps of a state by the bit read, and by the oldest bit to the move
    images = [
        [[f(s, b) for s in (0, 1)] for b in (0, 1)]
        for f in (rule.next_state, rule.output)
    ]
    states = np.zeros(1, dtype=np.uint8)
    for level in range(w):
        n = states.size
        expanded = np.empty(2 * n, dtype=np.uint8)
        for b, image in enumerate(images[level == w - 1]):
            # a map of {0, 1} to itself is a constant, the identity or a
            # negation, so each half is a fill, a copy or a flip
            part = expanded[b * n : (b + 1) * n]
            if image[0] == image[1]:
                part.fill(image[0])
            elif image[0]:
                np.bitwise_xor(states, np.uint8(1), out=part)
            else:
                part[:] = states
        states = expanded
    return states


def firing(decisions: np.ndarray, w: int, policy: RegulationPolicy) -> np.ndarray:
    """The windows, as uint32 in no set order, where ``policy`` fires.

    There :func:`~ifamarket.regulation.regulator` changes the move that
    the rule's ``decisions`` intend.  Only run windows can fire: the
    newest min(n, w) bits all UP if it pricks, all DOWN if it props.
    Those bits are the only ones the regulator reads, so the first run
    window of each kind stands for all of that kind.
    """
    found = [np.empty(0, dtype=np.uint32)]
    bits = w if policy.regime == "none" else min(policy.trend_length, w)
    regulate = regulator(policy, w)
    for first, acts in (((1 << bits) - 1, policy.pricks), (0, policy.props)):
        if acts:
            intended = decisions[first :: 1 << bits]
            fires = regulate(first, intended) != intended
            # shifted in place: a firing set can hold 2**(w - 1) windows
            at = np.flatnonzero(fires).astype(np.uint32)
            at <<= np.uint32(bits)
            at |= np.uint32(first)
            found.append(at)
    return np.concatenate(found)


def step_table(
    decisions: np.ndarray, w: int, policy: RegulationPolicy
) -> np.ndarray:
    """Next-window map over all 2**w states, regulation applied.

    For a trend length n > w this is the machine clamped to n = w (see
    :func:`~ifamarket.regulation.regulator`).  The policy reverses
    the decision on the windows where it fires, as :func:`firing` finds.
    """
    step = np.arange(1 << w, dtype=np.uint32)
    one, mask = np.uint32(1), np.uint32((1 << w) - 1)

    def fill(lo: int, hi: int) -> None:
        # in place, so that no more uint32 tables are alive than ``step``
        part = step[lo:hi]
        part <<= one
        part &= mask
        part |= decisions[lo:hi]

    _in_pieces(step.size, fill)
    step[firing(decisions, w, policy)] ^= one
    return step


def _gather(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``table[indices]``, a chunk at a time, the chunks spread over the cores.

    numpy copies the indices of a gather to intp first; chunks keep that
    copy small (a whole uint32 table would take two tables' worth more;
    a chunk takes 2 MiB in each thread of :func:`_in_pieces`), and on a
    2-core x86 host with numpy 2.4 they also gather about a third faster
    on one core.  ``np.take`` releases the GIL, so the threads gather in
    parallel: the six gathers that square step**22 take 92-107 ms on both
    cores of that host against 170-267 ms on one (fresh processes).
    ``clip`` skips the bounds check, which no table here can fail.
    """
    out = np.empty_like(indices)

    def gather(lo: int, hi: int) -> None:
        np.take(table, indices[lo:hi], out=out[lo:hi], mode="clip")

    _in_pieces(indices.size, gather)
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
    newest of hop k.  The rows of w states are built in pieces of about
    ``_GATHER_CHUNK`` states, spread over the cores.
    """
    w = power.size.bit_length() - 1
    hops = _hops(power, start, -(-count // w))
    older, newer = hops[:-1], hops[1:]
    states = np.empty((older.size, w), dtype=np.uint32)
    mask = np.uint32(power.size - 1)

    def fill(lo: int, hi: int) -> None:
        rows, old, new = states[lo:hi], older[lo:hi], newer[lo:hi]
        for j in range(w):
            np.bitwise_or(old << j, new >> (w - j), out=rows[:, j])
        rows &= mask

    _in_pieces(older.size, fill, w)
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


def _copy_around(
    dst: memoryview, at: int, src: memoryview, lo: int, count: int
) -> None:
    """Copy ``count`` entries of the cycle ``src`` from position ``lo`` on,
    wrapping once at its end, to ``dst[at:]``; ``lo`` may be len(``src``)."""
    head = min(count, len(src) - lo)
    dst[at : at + head] = src[lo : lo + head]
    dst[at + head : at + count] = src[: count - head]


class Machine:
    """One rule's tables at one window width, each built when first needed.

    It holds the decision table, the unregulated step**w, and the last
    unregulated orbit its hop rung walked with that orbit's cut state,
    and nothing else of size 2**w, so that every policy walked on it
    shares them: see :meth:`power` and :meth:`_cut_run`.  A machine that
    only serves scalar walks builds nothing.
    """

    def __init__(self, rule: IfaRule, w: int) -> None:
        self.rule = rule
        self.w = w
        self._decisions: Optional[np.ndarray] = None
        self._base: Optional[np.ndarray] = None  # unregulated step**w
        # the unregulated orbit last walked through the hop rung, as
        # (first, windows), and its cut state, built for the first cut
        self._held: Optional[tuple[int, np.ndarray]] = None
        self._cut: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def decisions(self) -> np.ndarray:
        if self._decisions is None:
            self._decisions = decision_table(self.rule, self.w)
        return self._decisions

    def step(self, policy: RegulationPolicy) -> np.ndarray:
        """The policy's step table, built anew: the machine keeps none."""
        return step_table(self.decisions, self.w, policy)

    def _affected(self, policy: RegulationPolicy) -> Optional[np.ndarray]:
        """Windows whose step**w the policy may change, or None if too many.

        A window's step**w can change only if its unregulated path meets
        a window where the policy fires (see :func:`firing`) within
        w - 1 ticks, so a breadth-first search back from those over the
        unregulated step, w - 1 levels deep, finds every such window
        once.  A window z has the predecessors z >> 1 and z >> 1 | 1 <<
        (w - 1), those whose decision is z's newest bit.  The search
        stops with None once it passes ``_PATCH_MAX_SHARE`` of the
        windows.
        """
        w, decisions = self.w, self.decisions
        level = firing(decisions, w, policy)
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

    def power(
        self, policy: RegulationPolicy, step: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """step**w for ``policy``; ``step`` is its step table if built already.

        ``none`` gets the unregulated table, which the machine builds on
        first use and holds read-only.  Once it does, a policy that changes
        it on few windows (see :meth:`_affected`) gets a copy of it patched
        over those windows: w vectorized steps of the regulated map give
        their entries.  Any other policy, and any policy before the
        unregulated table exists (building it would cost what squaring the
        policy's own table does), squares its own step table.
        """
        if policy.regime == "none":
            if self._base is None:
                self._base = _power(self.step(policy) if step is None else step, self.w)
                self._base.setflags(write=False)
            return self._base
        affected = None if self._base is None else self._affected(policy)
        if affected is None:
            return _power(self.step(policy) if step is None else step, self.w)
        decisions, regulate = self.decisions, regulator(policy, self.w)
        mask, one = np.uint32(self._base.size - 1), np.uint32(1)
        ends = affected
        for _ in range(self.w):
            ends = ((ends << one) & mask) | regulate(ends, decisions[ends])
        patched = self._base.copy()
        patched[affected] = ends
        return patched

    def _cut_state(self) -> tuple[np.ndarray, np.ndarray]:
        """The held cycle's cut index and moves, built when first needed.

        The index is the int32 cycle position of every window, -1 off the
        cycle; position k is the held walk's window ``windows[first + 1 +
        k]``, and its move is entry k of the moves, one contiguous byte
        per tick.
        """
        if self._cut is None:
            first, windows = self._held
            cycle = windows[first + 1 :]
            pos = np.full(1 << self.w, -1, dtype=np.int32)

            def index(lo: int, hi: int) -> None:
                # the cycle's windows are distinct, so the pieces write
                # disjoint entries; ``clip`` skips the bounds check, which
                # no window can fail
                at = np.arange(lo, hi, dtype=np.int32)
                np.put(pos, cycle[lo:hi], at, mode="clip")

            _in_pieces(cycle.size, index)
            moves = realized(windows[first:])
            pos.setflags(write=False)
            moves.setflags(write=False)
            self._cut = pos, moves
        return self._cut

    def share(self, num_ticks: int) -> None:
        """Build now what runs of ``num_ticks`` ticks on the machine share.

        A long run cuts the held cycle, with its cut state, or else hops
        through a patch of the unregulated step**w (see :meth:`power`).
        Processes forked after this inherit these instead of each building
        its own; for short runs nothing is built.
        """
        if num_ticks < (1 << self.w) >> _DIRECT_EMIT_SHIFT:
            return
        if self._held is not None:
            self._cut_state()
        else:
            self.power(RegulationPolicy("none"))

    def _cut_run(
        self, policy: RegulationPolicy, start: int, num_ticks: int
    ) -> Optional[np.ndarray]:
        """The run's realized moves, cut from the held cycle, or None off it.

        Between firing windows the run follows the held cycle; at one, it
        steps to the window the policy forces and goes on from that
        window's position.  The firing positions are marked in a
        ``bytearray``, one byte per cycle position, so the next one is a
        ``find`` from the current position, wrapping at most once, and
        the arc of moves up to it is copied into the result as one slice,
        two where it wraps round the cycle's end.  The override at a
        firing position repeats whatever led there, so the first repeated
        one closes the orbit.  The two arcs that reach it agree back to
        the later of their two starts and no further, since the window
        before a start is a firing window that the other walk is not at.
        So the transient ends that many ticks before the first visit, and
        the cycle is tiled over the ticks left.

        The walk keeps its state in a visited bitmap and a flat int array
        of the positions it visits, not in Python objects.
        """
        pos, moves = self._cut_state()
        at = int(pos[start])
        if at < 0:
            return None
        first, windows = self._held
        cycle = windows[first + 1 :]
        size = cycle.size
        # found before the marks are made, so that firing's temporaries
        # and the marks are never held at once
        fire = pos[firing(self.decisions, self.w, policy)]
        # firing windows off the cycle (position -1) mark the last byte,
        # which no search reads
        marks = bytearray(size + 1)
        np.put(np.frombuffer(marks, dtype=np.uint8), fire, 1, mode="wrap")
        del fire
        out = np.empty(num_ticks, dtype=np.uint8)
        dst, src = memoryview(out), memoryview(moves)
        if marks.find(1, 0, size) < 0:  # the policy never fires on the cycle
            count = min(size, num_ticks)
            _copy_around(dst, 0, src, at + 1, count)
            return _repeat_cycle(out, 0, count)
        states, index = memoryview(cycle), memoryview(pos)
        mask = (1 << self.w) - 1
        # the firing positions the walk has visited, a bit each, and each
        # visit's position in turn
        seen = bytearray((size >> 3) + 1)
        visits = array("q")
        lo, t = at, 0
        while True:
            # the arc: the moves into positions lo + 1 .. q, taken mod size
            q = marks.find(1, lo, size)
            if q < 0:  # it wraps, once per pass of the cycle
                q = marks.find(1, 0, lo)
                back = q + size - lo
            else:
                back = q - lo
            end = t + back
            if end >= num_ticks:
                _copy_around(dst, t, src, lo + 1, num_ticks - t)
                return out
            if q >= lo:  # most arcs: copied inline, saving a call a visit
                dst[t:end] = src[lo + 1 : q + 1]
            else:
                _copy_around(dst, t, src, lo + 1, back)
            t = end
            if seen[q >> 3] & (1 << (q & 7)):
                # replay the arcs up to the first visit to q, where each
                # visit lands one tick later, to its tick
                k = visits.index(q)
                visited = np.frombuffer(visits, dtype=np.int64)[: k + 1]
                x = cycle[visited]
                landed = pos[((x << 1) & np.uint32(mask)) | (~x & 1)]
                arcs = (visited - np.append(at, landed[:-1])) % size
                tick = int(arcs.sum()) + k
                transient = tick - min(int(arcs[-1]), back)
                return _repeat_cycle(out, transient, transient + t - tick)
            seen[q >> 3] |= 1 << (q & 7)
            visits.append(q)
            # a firing window's move reverses the run it ends
            x = states[q]
            move = ~x & 1
            dst[t] = move
            lo = index[((x << 1) & mask) | move]
            if lo < 0:
                return None
            t += 1

    def orbit(
        self, policy: RegulationPolicy, start: int
    ) -> tuple[int, Sequence[int]]:
        """``(first, windows)`` of the orbit of ``start``, which always closes.

        Climbs the ladder: the scalar walk for ``_scalar_budget(w)``
        ticks, then the step table walked directly up to 2**w >>
        ``_DIRECT_VISIT_SHIFT`` ticks, and only then the hops through
        step**w.  An unregulated orbit found by the hops is held for the
        cut runs of :meth:`run`; an orbit search never cuts.
        """
        first, windows = walk_scalar(
            self.rule, self.w, policy, start, _scalar_budget(self.w)
        )
        if first is not None:
            return first, windows
        step = self.step(policy)
        first, windows = walk_direct(step, windows, step.size >> _DIRECT_VISIT_SHIFT)
        if first is not None:
            return first, windows
        del windows
        power = self.power(policy, step)
        del step  # the walk should not hold it
        first, windows = walk_orbit(power, start)
        if policy.regime == "none":
            windows.setflags(write=False)
            self._held, self._cut = (first, windows), None
        return first, windows

    def run(
        self, policy: RegulationPolicy, start: int, num_ticks: int
    ) -> np.ndarray:
        """Realized moves of ``num_ticks`` ticks from ``start``.

        A span the caller gives: a default one, transient + one cycle, is
        the walk of :meth:`orbit`, tiled.  Runs shorter than 2**w >>
        ``_DIRECT_EMIT_SHIFT`` ticks take the scalar walk for as many of
        their ticks as ``_scalar_budget(w)`` allows and the step table
        walked directly for the rest, so they build no table if the scalar
        walk closes the orbit or runs out of ticks first; a walk that
        closes tiles its cycle over the ticks left.
        Longer runs are cuts of the held unregulated cycle if the machine
        holds one and the run stays on it (see :meth:`_cut_run`), copied
        from the cycle's moves.  Runs off the held cycle hop through
        step**w, which costs a few passes over the table, or a patch, but
        then only one Python step per w ticks.
        """
        if num_ticks < (1 << self.w) >> _DIRECT_EMIT_SHIFT:
            budget = min(_scalar_budget(self.w), num_ticks)
            first, windows = walk_scalar(self.rule, self.w, policy, start, budget)
            if first is None and budget < num_ticks:
                first, windows = walk_direct(self.step(policy), windows, num_ticks)
            return tile(first, windows, num_ticks)
        if self._held is not None:
            moves = self._cut_run(policy, start, num_ticks)
            if moves is not None:
                return moves
        return walk_emit(self.power(policy), start, num_ticks)


# the function that ordered_map's worker process maps, set by _start_worker
_worker_fn: Optional[Callable] = None


def _start_worker(fn: Callable) -> None:
    global _worker_fn, _inline
    # the pool's processes already share the cores
    _worker_fn, _inline = fn, True


def _run_worker(item: object) -> object:
    return _worker_fn(item)


def ordered_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``list(map(fn, items))`` in min(``workers``, len(``items``)) processes,
    or in this one if that is 1.  A worker gets ``fn`` once, inherited if
    forked or unpickled if spawned, and items in chunks of a quarter of its
    share, as ``multiprocessing.Pool.map`` sends them."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = min(workers, len(items))
    if n <= 1:
        return list(map(fn, items))
    # imported here: a process that maps inline does not pay for the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=n, initializer=_start_worker, initargs=(fn,)
    ) as pool:
        return list(pool.map(_run_worker, items, chunksize=-(-len(items) // (4 * n))))
