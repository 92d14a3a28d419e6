"""Vectorized window-state machinery shared by market and survey.

Window states are w-bit integers with bit i holding the move realized i
ticks ago (bit 0 = newest).  The closed-loop dynamics is a map over the
2**w window values: decide, regulate, shift.  Decision tables for all
2**w windows are built with a prefix trie (states shared across windows
that agree on their newest bits), which costs about 2 * 2**w cheap array
operations instead of w * 2**w.

The one walk, :func:`walk_scalar`, returns ``(first, windows)``:
``windows[t]`` is the window after t ticks, and the walk stops at the
first repeat, so that ``windows[-1] == windows[first]``; a walk that
finds none within its ``limit`` ticks returns ``first`` None and
``limit + 1`` windows.  It decides one window at a time from the rule's
2x2 tables and builds no table.  Past it lie the affine rung and the cut
(below), each for its own kind of machine.  The three rungs form a
ladder in which each is taken only when the one before has cost about
what the next costs to set up (ski rental).  :meth:`Machine.orbit` and
:meth:`Machine.run` are the only routers, one job each.  The first
searches an orbit up the ladder, so the orbit always closes, and gives
it as ``(first, moves)``, the moves of its transient and one cycle,
which a default span tiles (:func:`tile`).  The second takes a run of a
given span as a walk of at most its ticks, or 2**w, within which its
orbit closes, except a long run that is unregulated on an affine machine
(the affine rung) and a regulated run on a bijective affine one that is
long or whose machine holds a cut state (a cut); a walk's moves are
tiled in the same way.  A walk can go on from the windows that an
earlier one left, so no router walks a prefix twice.  Neither builds a
table for an orbit that closes within the scalar budget, about
2**w / (8w) ticks: the orbit search and every run walk that far first,
except an unregulated orbit or long run of an affine machine and a
regulated run on a machine whose cut state is built, which probe their
orbit with 4w ticks, about 50 us at w = 22.

An affine machine decides each window x as c ^ parity(a & x)
(:func:`affine_form` tells in O(w)), so its unregulated moves obey the
linear recurrence m[t] = c ^ XOR over the bits i of a of m[t - 1 - i]: a
linear feedback shift register (Golomb, *Shift Register Sequences*,
1967).  Past the probe it takes the affine rung and builds no table:
Berlekamp-Massey on the first moves gives the minimal polynomial
t^k q(t) of the window sequence, whose transient is k and whose cycle is
the order of t modulo q (Lidl & Niederreiter, *Finite Fields*, ch. 8),
and :func:`affine_moves` writes the moves by lag doubling.  Rule 54 is
such a machine, with characteristic polynomial x^w + x + 1; where that
is primitive (w = 22 among them) one cycle holds every nonzero window.

A regulated walk is the unregulated one, cut where the policy fires (at
the windows that :func:`firing` finds, the one place that does) and
rejoined where the forced move lands.  An affine machine whose a has bit
w - 1 set is bijective: its unregulated step permutes the 2**w windows,
so every window lies on an unregulated cycle, and the algebra gives each
cycle.  Once the cycles' cut state is built, a regulated orbit or long
run on such a machine is a cut: between two firing windows it follows
the cycle it is on.  The cycle positions where the policy fires are
marked one byte each, so the next one is one ``bytearray.find``, and
the cycle's moves up to it are copied into the run as the walk goes.
These are the only machines whose orbits outlast the scalar budget in
practice: at w = 22 every other machine's orbits from the standard
starts close within a few hundred ticks, and one that does not is
walked to 2**w, where it closes.

A :class:`Machine` holds one rule's tables at one w: the decision table,
the moves of the held unregulated orbit and, on a bijective affine
machine, the cut state of every cycle: the cycle position of every
window, the windows at the positions and their moves, one contiguous 0/1
byte per tick, so that a cut copies each arc of a cycle as one slice,
and one byte per position for the firing marks.  All but the decision
table and the marks, which each cut clears as it ends, are read-only
once built.  A cycle's windows are rebuilt from its moves with shifts.
All state arrays are uint32, which holds every w <= 30.

The passes over a whole table (the rows of a cycle's windows and the cut
index) run on every core: :func:`_in_pieces` deals their pieces to one
thread per core of the process's affinity mask, and numpy releases the
GIL in those calls.  Each pass joins its threads before it returns.  A
worker process of :func:`ordered_map` runs its passes on one thread,
since the pool's processes already share the cores.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from bisect import bisect_right
from functools import cache, cached_property
from threading import Thread
from typing import Callable, Optional, Sequence

import numpy as np

from .ifa import IfaRule
from .regulation import RegulationPolicy, regulator

# The scalar budget, 2**w / (8w) ticks, is as far as the scalar walk keeps
# its windows in a dict, which needs no 2**w-bit seen bitmap, and as far
# as a long regulated run on a machine with no cut state walks before it
# builds one.  At w = 22 on a 2-core x86 host (Python 3.11, numpy 2.4)
# its 23,832 ticks take 12.8-15.0 ms, 0.54-0.63 us a tick (rule 54 from
# alternating, none and prick:12, min and median of 7 walks in each of 2
# processes); past it a tick costs 0.60-0.68 us with the bitmap.  A
# change of it needs its own before/after benchmark.
_TABLE_PATH_MIN_TICKS_FACTOR = 8

# No router builds a table before the scalar walk has taken this many
# ticks per window bit: 4w ticks, 88 at w = 22, cost about 50 us, and
# below w = 13 they are more than 2**w / (8w).  A long run on a machine
# with a cut state probes only this far before it cuts.  An O(w) probe
# stays cheap against the cut at every w; a 4w**2 one (1,936 ticks) cost
# ``table1 --w 22`` 0.17 s over its 38 regulated rows.
_PROBE_TICKS_PER_BIT = 4

# A run of 2**w >> 3 ticks or more is long: regulated on a bijective
# affine machine it cuts the cycles rather than walk a tick at a time,
# and unregulated on an affine machine it takes the affine rung.  The
# rows of a table count together: Machine.share builds their cut state
# once rows x ticks is long.  The cut pays for the cut state up front,
# the walk by the tick.  At w = 22 on a 2-core x86 host (numpy 2.4) a
# walked tick costs 0.54-0.68 us and building the cut state from the held
# cycle 85-100 ms (in a fresh process), so the break-even lies between
# 2**w / 34 and 2**w / 22 ticks; a change of the shift needs its own
# before/after benchmark.
_LONG_RUN_SHIFT = 3

# A regulated orbit search on a bijective affine machine walks for up to
# 2**w >> 6 ticks, or the scalar budget if that is more, before it cuts:
# the walk may close the orbit for a fraction of the cut state's cost,
# and wastes that fraction if it does not.  At w = 22 on a 2-core x86
# host (numpy 2.4) its 65,536 ticks take 57-77 ms (min and median of 7),
# the last 41,704 with the seen bitmap, against 85-100 ms to build the
# cut state from the held cycle and 0.14-0.18 s from none.
_CUT_AFTER_SHIFT = 6

# entries per piece of a table pass; see _in_pieces
_GATHER_CHUNK = 1 << 18

# bytes per window that the table path may hold at once: the decision
# table (1); on a bijective affine machine the windows of every cycle (4),
# their cut index (4), their moves (1) and their firing marks (1); the held
# orbit's moves (1); and a cut's firing windows and their positions (4
# each), from which it marks.  The positions stay while the cut runs,
# beside its visits and, for an orbit, its moves (2 a window at most).  The
# placed flags (1) and a cycle's rebuilt windows (4) that build the cut
# state fit in the same count.  A scalar walk past its budget, which
# builds no table, holds its windows (4 a tick) and a seen bitmap (1 bit
# a window) unchecked.
_TABLE_BYTES_PER_WINDOW = 1 + 4 + 4 + 1 + 1 + 1 + 2 * 4

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
    """Ticks a table-free walk may take: about the cost of the tables, and
    never fewer than the probe's 4w (so from w = 13 on, the cost alone)."""
    tables = -(-(1 << w) // (_TABLE_PATH_MIN_TICKS_FACTOR * w))
    return max(tables, _PROBE_TICKS_PER_BIT * w)


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


def affine_form(rule: IfaRule, w: int) -> Optional[tuple[int, int]]:
    """``(c, a)`` if the rule decides every w-bit window x as
    c ^ parity(a & x), else None, in O(w) and with no table.

    c is the decision of the zero window, and bit i of a that of the unit
    window 1 << i, xor c.  The form then holds exactly when every pair of
    an automaton state and the parity of a's bits read so far, reached
    from (0, 0) by the newest w - 1 bits of a window, read newest-first
    as :func:`scalar_decision` does, outputs c ^ that parity ^ a's
    oldest bit for the oldest bit 1, and c ^ that parity for 0.
    """
    decide = scalar_decision(rule, w)
    c = decide(0)
    a = sum((decide(1 << i) ^ c) << i for i in range(w))
    pairs = {(0, 0)}
    for i in range(w - 1):
        pairs = {
            (rule.next_state(s, b), p ^ (b & a >> i)) for s, p in pairs for b in (0, 1)
        }
    oldest = a >> (w - 1)
    for s, p in pairs:
        if any(rule.output(s, b) != c ^ p ^ (b & oldest) for b in (0, 1)):
            return None
    return c, a


# Polynomials over GF(2) are ints: bit i is the coefficient of t^i.


def _gf2_divmod(x: int, y: int) -> tuple[int, int]:
    quotient, size = 0, y.bit_length()
    while x.bit_length() >= size:
        shift = x.bit_length() - size
        quotient ^= 1 << shift
        x ^= y << shift
    return quotient, x


def _gf2_gcd(x: int, y: int) -> int:
    while y:
        x, y = y, _gf2_divmod(x, y)[1]
    return x


def _gf2_mulmod(x: int, y: int, modulus: int) -> int:
    product = 0
    for i in range(y.bit_length()):
        if y >> i & 1:
            product ^= x << i
    return _gf2_divmod(product, modulus)[1]


def _gf2_powmod(x: int, exponent: int, modulus: int) -> int:
    result = 1
    while exponent:
        if exponent & 1:
            result = _gf2_mulmod(result, x, modulus)
        x = _gf2_mulmod(x, x, modulus)
        exponent >>= 1
    return result


def _prime_factors(n: int) -> set[int]:
    found, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            found.add(p)
            n //= p
        p += 1 + (p > 2)
    return found | ({n} if n > 1 else set())


def _minimal_polynomial(bits: Sequence[int]) -> tuple[int, int]:
    """``(k, q)`` with q(0) = 1: the minimal polynomial t^k q(t) of a
    sequence over GF(2) whose linear complexity is at most len(``bits``) / 2.

    Berlekamp-Massey (Massey, 1969) gives the shortest recurrence of
    length L, with connection polynomial C(x) = 1 + c_1 x + ... + c_L x^L;
    the minimal polynomial is its reciprocal t^L C(1/t).
    """
    conn, prev, length, gap, recent = 1, 1, 0, 1, 0
    for n, bit in enumerate(bits):
        recent = recent << 1 | bit  # bit i: bits[n - i]
        if not (conn & recent).bit_count() & 1:  # no discrepancy
            gap += 1
        elif 2 * length <= n:
            conn, prev, length, gap = conn ^ prev << gap, conn, n + 1 - length, 1
        else:
            conn ^= prev << gap
            gap += 1
    degree = conn.bit_length() - 1
    return length - degree, int(format(conn, "b")[::-1], 2)


@cache
def _order_of_t(q: int) -> int:
    """The multiplicative order of t modulo ``q`` over GF(2), where q(0) = 1.

    Distinct-degree factorization gives the degrees d of q's irreducible
    factors; the order modulo each divides 2^d - 1, and each multiplicity
    e adds a factor 2^ceil(log2 e) (Lidl & Niederreiter, Theorem 3.8).
    So t^(2^s), with 2^s >= deg q, has the odd part of the order, which is
    the lcm of those 2^d - 1 less every prime it can spare, and the order
    is that times the powers of 2 that t^(odd part) needs to reach 1.
    """
    degree = q.bit_length() - 1
    if degree == 0:
        return 1
    degrees, rest, frobenius, d = [], q, 0b10, 0  # frobenius: t^(2^d) mod q
    while rest.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        frobenius = _gf2_mulmod(frobenius, frobenius, q)
        # the product of rest's irreducible factors of degree d
        common = _gf2_gcd(rest, _gf2_divmod(frobenius, rest)[1] ^ 0b10)
        if common != 1:
            degrees.append(d)
            while common != 1:
                rest = _gf2_divmod(rest, common)[0]
                common = _gf2_gcd(rest, common)
    if rest != 1:  # one irreducible factor is left
        degrees.append(rest.bit_length() - 1)
    odd = _gf2_powmod(0b10, 1 << (degree - 1).bit_length(), q)
    order = math.lcm(*((1 << d) - 1 for d in degrees))
    for p in set().union(*(_prime_factors((1 << d) - 1) for d in degrees)):
        while order % p == 0 and _gf2_powmod(odd, order // p, q) == 1:
            order //= p
    power = _gf2_powmod(0b10, order, q)
    while power != 1:
        power = _gf2_mulmod(power, power, q)
        order *= 2
    return order


def _start_moves(start: int, w: int) -> list[int]:
    """The moves of the window ``start``, oldest first."""
    return [start >> age & 1 for age in range(w - 1, -1, -1)]


def affine_orbit(c: int, a: int, w: int, start: int) -> tuple[int, int]:
    """``(transient, cycle)`` of the unregulated orbit of ``start`` on the
    affine machine ``(c, a)`` of width w, from the algebra alone.

    The start window's moves, oldest first, and the 2(w + 1) moves after
    them follow a linear recurrence of order at most w + 1 (the constant
    c adds the factor t + 1), so Berlekamp-Massey finds their minimal
    polynomial t^k q(t).  A window repeats the one T ticks before it
    exactly when every move from its oldest on does, so the transient is
    k and the cycle the order of t modulo q.
    """
    bits = _start_moves(start, w)
    x, mask = start, (1 << w) - 1
    for _ in range(2 * (w + 1)):
        move = c ^ (a & x).bit_count() & 1
        bits.append(move)
        x = (x << 1 & mask) | move
    transient, q = _minimal_polynomial(bits)
    return transient, _order_of_t(q)


def affine_moves(c: int, a: int, w: int, start: int, num_ticks: int) -> np.ndarray:
    """The unregulated moves of ``num_ticks`` ticks from ``start`` on the
    affine machine ``(c, a)`` of width w, by lag doubling.

    The history h, the start window's moves oldest first then the moves,
    obeys h[n] = c ^ XOR over the lags l of h[n - l], the lags l = i + 1
    for the bits i of a, from n = w on.  Squaring the recurrence over
    GF(2) doubles every lag, and keeps the constant c when a has an even
    number of bits (0 when odd); the doubled recurrence holds from
    n = w + (largest lag) on.  So with lags scaled by 2^r it holds from
    w + (2^r - 1) * (largest lag) on, and each block of (smallest lag) *
    2^r ticks is one XOR of slices per lag.  ``a`` is not 0: a constant
    machine's orbit closes within w + 1 ticks, in the scalar probe.  The
    memory check counts the moves, one byte a tick, before they are
    allocated.
    """
    _check_memory(num_ticks, f"the moves of {num_ticks:,} ticks need {_mib(num_ticks)}")
    lags = [i + 1 for i in range(w) if a >> i & 1]
    history = np.empty(w + num_ticks, dtype=np.uint8)
    history[:w] = _start_moves(start, w)
    n, r, constant = w, 0, c
    while n < history.size:
        while w + ((2 << r) - 1) * lags[-1] <= n:
            r += 1
            constant = c if len(lags) % 2 == 0 else 0
        block = history[n : n + min(lags[0] << r, history.size - n)]
        for k, lag in enumerate(lags):
            past = history[n - (lag << r) :][: block.size]
            np.bitwise_xor(block if k else constant, past, out=block)
        n += block.size
    return history[w:]


def walk_scalar(
    rule: IfaRule,
    w: int,
    policy: RegulationPolicy,
    start: int,
    limit: int,
    walked: Optional[Sequence[int]] = None,
) -> tuple[Optional[int], Sequence[int]]:
    """``(first, windows)`` of the orbit of ``start``, at most ``limit`` ticks.

    The scalar rung: see the module docstring for the contract.  Each
    tick decides with :func:`scalar_decision` and regulates with
    :func:`~ifamarket.regulation.regulator`, each bound once.  The first
    ``_scalar_budget(w)`` windows are kept in a dict of their ticks, and
    returned as a list; a walk past them goes on in an ``array('I')``,
    which it returns, with a 2**w-bit seen bitmap, about 4 bytes a tick.
    ``walked``, the windows of an earlier walk of this orbit that found
    no repeat, are the walk's first windows: it goes on from the last of
    them rather than walk them again.
    """
    decide = scalar_decision(rule, w)
    regulate = regulator(policy, w)
    mask, budget = (1 << w) - 1, _scalar_budget(w)
    windows = [int(start)] if walked is None else walked
    x = windows[-1]
    if len(windows) <= budget:
        seen = {y: t for t, y in enumerate(windows)}  # window -> tick, in order
        for t in range(len(seen), min(limit, budget) + 1):
            x = ((x << 1) & mask) | regulate(x, decide(x))
            if x in seen:
                return seen[x], [*seen, x]
            seen[x] = t
        windows = list(seen)
    if len(windows) > limit:
        return None, windows
    windows, bits = array("I", windows), bytearray((mask >> 3) + 1)
    for y in windows:
        bits[y >> 3] |= 1 << (y & 7)
    for _ in range(len(windows), limit + 1):
        x = ((x << 1) & mask) | regulate(x, decide(x))
        byte, bit = x >> 3, 1 << (x & 7)
        windows.append(x)
        if bits[byte] & bit:
            return windows.index(x), windows
        bits[byte] |= bit
    return None, windows


def _low_bytes(windows: np.ndarray) -> np.ndarray:
    """A view of the low byte of each uint32 window: bit 0 is its newest move."""
    return windows.view(np.uint8)[0 if sys.byteorder == "little" else 3 :: 4]


def _repeat_cycle(out: np.ndarray, first: int, done: int) -> np.ndarray:
    """Fill ``out`` past ``done`` by repeating its cycle, which starts at ``first``.

    ``out[first:done]`` holds whole cycles, so each copy may double it.
    """
    while done < out.size:
        count = min(done - first, out.size - done)
        out[done : done + count] = out[first : first + count]
        done += count
    return out


def walk_moves(windows: Sequence[int]) -> np.ndarray:
    """A new array of the moves of a walk: the newest bit of each window
    after the first."""
    return np.bitwise_and(_low_bytes(np.asarray(windows, dtype=np.uint32))[1:], 1)


def tile(first: Optional[int], moves: np.ndarray, num_ticks: int) -> np.ndarray:
    """A new array of the realized moves of ``num_ticks`` ticks.

    ``(first, moves)`` is an orbit or a walk's moves: at most
    ``num_ticks`` if it did not close (``first`` None), else its
    transient and one cycle, which repeats over the ticks left.
    """
    out = np.empty(num_ticks, dtype=np.uint8)
    done = min(len(moves), num_ticks)
    out[:done] = moves[:done]
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


def _check_memory(need: int, what: str) -> None:
    """Raise :class:`MemoryError` if ``need`` bytes, which ``what`` names
    with its sizes, do not fit in the memory available; less than
    ``_MEMORY_CHECK_MIN_BYTES`` is not checked."""
    available = None if need < _MEMORY_CHECK_MIN_BYTES else available_memory()
    if available is not None and need > available:
        raise MemoryError(f"{what}, but only {_mib(available)} is available")


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
    need, table, byte = _TABLE_BYTES_PER_WINDOW << w, _mib(4 << w), _mib(1 << w)
    _check_memory(
        need,
        f"the tables for w = {w} need up to {_mib(need)} "
        f"(decision {byte}, the windows of every cycle {table}, "
        f"their cut index {table}, their moves {byte}, their firing marks {byte}, "
        f"the held orbit's moves {byte}, a cut's firing windows {table} "
        f"and their positions {table})",
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


def _cycle_windows(moves: np.ndarray, w: int) -> np.ndarray:
    """The windows along a cycle from its moves: the window at position p
    has ``moves[p]`` newest, then the moves before it round the cycle.

    The moves, led by the w - 1 at the cycle's end and padded with those
    at its start, are packed w to a word, oldest in the top bit.  Position
    kw + j then sees the j newest bits of word k + 1 behind the w - j
    newest of word k.  The rows of w windows are built in pieces of about
    ``_GATHER_CHUNK`` windows, spread over the cores.
    """
    size = moves.size
    rows = -(-size // w) + 1
    ext = np.empty(rows * w, dtype=np.uint8)
    tail = ext.size - (w - 1) - size
    ext[: w - 1] = moves[np.arange(1 - w, 0) % size]
    ext[w - 1 : w - 1 + size] = moves
    ext[ext.size - tail :] = moves[np.arange(tail) % size]
    words = np.zeros(rows, dtype=np.uint32)
    for column in ext.reshape(rows, w).T:
        words <<= np.uint32(1)
        words |= column
    older, newer = words[:-1], words[1:]
    windows = np.empty((older.size, w), dtype=np.uint32)
    mask = np.uint32((1 << w) - 1)

    def fill(lo: int, hi: int) -> None:
        part, old, new = windows[lo:hi], older[lo:hi], newer[lo:hi]
        for j in range(w):
            np.bitwise_or(old << j, new >> (w - j), out=part[:, j])
        part &= mask

    _in_pieces(older.size, fill, w)
    return windows.reshape(-1)[:size]


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

    It holds the decision table, the moves of the last unregulated orbit
    its affine rung found and, on a bijective affine machine, the cut
    state of every unregulated cycle, and nothing else of size 2**w, so
    that every policy walked on it shares them: see :meth:`_cut_run`.  A
    machine that only serves scalar walks or the affine rung builds no
    table.
    """

    def __init__(self, rule: IfaRule, w: int) -> None:
        self.rule = rule
        self.w = w
        self._decisions: Optional[np.ndarray] = None
        # the unregulated orbit last found by the affine rung, as
        # (first, moves), and the cut state, built by share or a cut
        self._held: Optional[tuple[int, np.ndarray]] = None
        self._cut: Optional[tuple] = None

    @property
    def decisions(self) -> np.ndarray:
        if self._decisions is None:
            self._decisions = decision_table(self.rule, self.w)
        return self._decisions

    @cached_property
    def affine(self) -> Optional[tuple[int, int]]:
        """``(c, a)`` of an affine machine (see :func:`affine_form`), else None."""
        return affine_form(self.rule, self.w)

    @property
    def cuts(self) -> bool:
        """Whether this is a bijective affine machine, the one kind that
        cuts: an affine one whose a has bit w - 1 set, so that the oldest
        bit of every window flips its decision."""
        return self.affine is not None and self.affine[1] >> (self.w - 1) == 1

    def _cut_state(self) -> tuple:
        """The cycles of a bijective affine machine's unregulated map, built once.

        Every window lies on one cycle, and the cycles lie end to end in
        one range of positions: the held cycle first, if the machine
        holds one, its windows rebuilt from its moves, then each cycle
        through the smallest window not yet placed.  A cycle of at most
        4w ticks, as every cycle of the machines with thousands of them
        is, is walked a window at a time; a longer one comes from the
        algebra: its length from :func:`affine_orbit`, its moves from
        :func:`affine_moves` and its windows from :func:`_cycle_windows`.
        Position p + 1 holds the unregulated successor of the window at
        p, and a cycle's first position that of its last.  The state is
        the int32 position of every window; the move into each position,
        one contiguous byte per tick; the window at each position; the
        first position of every cycle, then 2**w; and the firing marks,
        one byte per position, all 0 between cuts.
        """
        if self._cut is None:
            # the decision table's memory check counts the cut state, so
            # it is built first; the cuts read it
            self.decisions
            c, a = self.affine
            size = 1 << self.w
            mask, short = size - 1, _PROBE_TICKS_PER_BIT * self.w
            windows = np.empty(size, dtype=np.uint32)
            done = 0  # windows placed
            if self._held is not None:
                # rebuilt before the index is allocated, so that the
                # rebuild's temporaries and the index are never held at once
                first, orbit = self._held
                done = orbit.size - first
                windows[:done] = _cycle_windows(orbit[first:], self.w)
            pos = np.full(size, -1, dtype=np.int32)

            def place(lo: int, hi: int) -> None:
                def index(i: int, j: int) -> None:
                    # the windows are distinct, so the pieces write
                    # disjoint entries; ``clip`` skips the bounds check,
                    # which no window can fail
                    where = np.arange(lo + i, lo + j, dtype=np.int32)
                    np.put(pos, windows[lo + i : lo + j], where, mode="clip")

                _in_pieces(hi - lo, index)

            place(0, done)
            # one byte per window, 1 while it is not placed, for find
            free = bytearray(size)
            unplaced = np.frombuffer(free, dtype=np.bool_)
            np.less(pos, 0, out=unplaced)
            starts = [0, done] if done else [0]
            held, x = done, 0
            while done < size:
                x = y = free.find(1, x)
                cycle = [x]
                for _ in range(short):
                    y = (y << 1 & mask) | (c ^ (a & y).bit_count() & 1)
                    if y == x:
                        break
                    cycle.append(y)
                else:
                    length = affine_orbit(c, a, self.w, x)[1]
                    cycle = affine_moves(c, a, self.w, x, length)
                    cycle = _cycle_windows(cycle, self.w)
                unplaced[cycle] = False
                windows[done : done + len(cycle)] = cycle
                done += len(cycle)
                starts.append(done)
            del unplaced, free, cycle
            place(held, size)
            moves = np.bitwise_and(_low_bytes(windows), 1)
            for table in (pos, moves, windows):
                table.setflags(write=False)
            self._cut = pos, moves, windows, starts, bytearray(size)
        return self._cut

    def share(
        self, policies: Sequence[RegulationPolicy], start: int, num_ticks: int
    ) -> None:
        """Build now what the runs of ``policies`` from ``start``, of
        ``num_ticks`` ticks each, share.

        On a bijective affine machine a regulated run cuts its cycles once
        their cut state is built: this builds it, which processes forked
        after this inherit instead of each building its own, when the
        runs together are long, ``len(policies) * num_ticks`` ticks of
        2**w >> ``_LONG_RUN_SHIFT`` or more, though each may be short.  It
        is built once the scalar walk of some policy's orbit outlasts the
        4w probe, if the machine holds an unregulated cycle that the affine
        rung found, from which the cut state starts, or else outlasts the
        whole scalar budget, as a long run's would before it cut.  Nothing
        is built for runs that are short together, nor on other machines,
        whose runs walk.
        """
        together = len(policies) * num_ticks
        if together < (1 << self.w) >> _LONG_RUN_SHIFT or not self.cuts:
            return
        if self._held is not None:
            limit = _PROBE_TICKS_PER_BIT * self.w
        else:
            limit = _scalar_budget(self.w)
        if any(
            walk_scalar(self.rule, self.w, policy, start, min(limit, num_ticks))[0]
            is None
            for policy in policies
        ):
            self._cut_state()

    def _cut_run(
        self, policy: RegulationPolicy, start: int, num_ticks: Optional[int] = None
    ) -> np.ndarray | tuple[int, np.ndarray]:
        """The realized moves of a run of ``num_ticks`` ticks from
        ``start``, cut from the cycles of the cut state, or if None,
        ``(first, moves)`` of its orbit as :meth:`orbit` gives it.

        Between firing windows the run follows the cycle it is on; at
        one, it steps to the window the policy forces and goes on from
        that window's position, on whichever cycle it lies.  The firing
        positions are marked in the cut state's marks, one byte per
        position, so the next one is a ``find`` from the current position
        to the end of its cycle, then from the cycle's start, and the arc
        of moves up to it is copied into the result as one slice, two
        where it wraps round the cycle's end.  The marks are cleared again
        as the cut ends.  On a cycle with no mark the run follows the
        cycle for ever.  The override at a firing position repeats
        whatever led there, so the first repeated one closes the orbit:
        each visit records its tick, and a run tiles the moves since the
        first visit to that position over the ticks left.  An orbit's
        transient is then 1 + the last index at which its history, the
        start window's moves and then the moves, differs from itself one
        cycle later, or 0 if it nowhere does.  An orbit's transient and
        cycle take at most 2**w ticks, and the walk sees the cycle close
        within one more cycle, so an orbit's moves are written into
        2**(w + 1) bytes.
        """
        pos, moves, windows, starts, marks = self._cut_state()
        size = 2 << self.w if num_ticks is None else num_ticks
        fire = pos[firing(self.decisions, self.w, policy)]
        flags = np.frombuffer(marks, dtype=np.uint8)
        flags[fire] = 1
        try:
            out = np.empty(size, dtype=np.uint8)
            dst, src = memoryview(out), memoryview(moves)
            index, at = memoryview(pos), memoryview(windows)
            mask = (1 << self.w) - 1
            # the firing positions the walk has visited, a bit each, and
            # each visit's position (below 2**30, as w <= 30) and tick in turn
            seen = bytearray((pos.size >> 3) + 1)
            visits, ticks = array("i"), array("q")
            lo, t = int(pos[start]), 0
            c0 = c1 = 0  # the bounds of lo's cycle
            while True:
                if not c0 <= lo < c1:
                    c = bisect_right(starts, lo)
                    c0, c1 = starts[c - 1], starts[c]
                    cycle = src[c0:c1]
                # the arc: the moves into positions lo + 1 .. q, taken
                # round the cycle
                q = marks.find(1, lo, c1)
                back = q - lo
                if q < 0:  # it wraps, once per pass of the cycle
                    q = marks.find(1, c0, lo)
                    back = q + c1 - c0 - lo
                end = t + back
                if q < 0 or end >= size:
                    # no firing position before the run ends, as on a
                    # cycle where the policy never fires, which repeats
                    count, period = min(c1 - c0, size - t), c1 - c0
                    _copy_around(dst, t, cycle, lo + 1 - c0, count)
                    t += count
                    break
                if q >= lo:  # most arcs: copied inline, saving a call a visit
                    dst[t:end] = src[lo + 1 : q + 1]
                else:
                    _copy_around(dst, t, cycle, lo + 1 - c0, back)
                t = end
                if seen[q >> 3] & (1 << (q & 7)):
                    period = t - ticks[visits.index(q)]
                    break
                seen[q >> 3] |= 1 << (q & 7)
                visits.append(q)
                ticks.append(t)
                # a firing window's move reverses the run it ends
                x = at[q]
                move = ~x & 1
                dst[t] = move
                lo = index[((x << 1) & mask) | move]
                t += 1
        finally:
            flags[fire] = 0
        if num_ticks is not None:
            return _repeat_cycle(out, t - period, t)
        history = np.concatenate((_start_moves(start, self.w), out[:t]))
        differs = np.flatnonzero(history[:-period] != history[period:])
        first = int(differs[-1]) + 1 if differs.size else 0
        return first, out[: first + period]

    def orbit(
        self, policy: RegulationPolicy, start: int
    ) -> tuple[int, np.ndarray]:
        """``(first, moves)`` of the orbit of ``start``, which always closes:
        the moves of its transient, ``first`` ticks, and of one cycle.

        Climbs the ladder.  An unregulated orbit takes the scalar walk for
        4w ticks first, a regulated one for ``_scalar_budget(w)`` ticks.
        Past them, an unregulated orbit on an affine machine takes the
        affine rung: the transient and cycle from the algebra
        (:func:`affine_orbit`) and their moves by lag doubling
        (:func:`affine_moves`), with no table; the machine holds that
        orbit, read-only, for the cut state to start from.  Any other orbit
        goes on with the same walk: on a bijective affine machine up to
        2**w >> ``_CUT_AFTER_SHIFT`` ticks, and then a cut (see
        :meth:`_cut_run`), and on any other machine up to 2**w ticks,
        within which every orbit closes.
        """
        none = policy.regime == "none"
        budget = _scalar_budget(self.w)
        probe = _PROBE_TICKS_PER_BIT * self.w if none else budget
        first, windows = walk_scalar(self.rule, self.w, policy, start, probe)
        if first is None and none and self.affine is not None:
            transient, cycle = affine_orbit(*self.affine, self.w, start)
            moves = affine_moves(*self.affine, self.w, start, transient + cycle)
            moves.setflags(write=False)
            self._held = transient, moves
            return self._held
        if first is None:
            size = 1 << self.w
            limit = max(budget, size >> _CUT_AFTER_SHIFT) if self.cuts else size
            first, windows = walk_scalar(self.rule, self.w, policy, start, limit, windows)
            if first is None:
                return self._cut_run(policy, start)
        return first, walk_moves(windows)

    def run(
        self, policy: RegulationPolicy, start: int, num_ticks: int
    ) -> np.ndarray:
        """Realized moves of ``num_ticks`` ticks from ``start``.

        A span the caller gives: a default one, transient + one cycle, is
        the orbit of :meth:`orbit`, tiled.  Every run takes the scalar
        walk first, for as many of its ticks as ``_scalar_budget(w)``
        allows, except a run of 2**w >> ``_LONG_RUN_SHIFT`` ticks or more
        that is unregulated on an affine machine, and a regulated run of
        any length on a machine whose cut state is built, which probe 4w
        ticks.  If the walk closes the orbit or runs out of ticks first,
        its cycle is tiled over the ticks left and no table is built.
        Otherwise a long unregulated run on an affine machine is written by
        lag doubling (:func:`affine_moves`); a regulated run on a machine
        whose cut state is built, or a long one on any other bijective
        affine machine, is a cut of its cycles (see :meth:`_cut_run`),
        which builds their cut state if no run has yet; and any other run
        goes on with the walk for at most its ticks, or 2**w, within which
        its orbit closes, and its moves are tiled over the run's ticks.
        """
        long = num_ticks >= (1 << self.w) >> _LONG_RUN_SHIFT
        none = policy.regime == "none"
        affine = long and none and self.affine is not None
        # a machine that holds a cut state cuts; whether one without it
        # would is asked only of a run that outlasts the scalar walk
        if affine or (not none and self._cut is not None):
            budget = _PROBE_TICKS_PER_BIT * self.w
        else:
            budget = _scalar_budget(self.w)
        budget = min(budget, num_ticks)
        first, windows = walk_scalar(self.rule, self.w, policy, start, budget)
        if first is not None or budget == num_ticks:
            return tile(first, walk_moves(windows), num_ticks)
        if affine:
            return affine_moves(*self.affine, self.w, start, num_ticks)
        if not none and (self._cut is not None or (long and self.cuts)):
            return self._cut_run(policy, start, num_ticks)
        limit = min(num_ticks, 1 << self.w)
        first, windows = walk_scalar(self.rule, self.w, policy, start, limit, windows)
        return tile(first, walk_moves(windows), num_ticks)


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
