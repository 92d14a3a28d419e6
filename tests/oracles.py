"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: plain Python loops, windows as
tuples, per-window recomputation from the raw definitions, and where
every window of a width is needed, one numpy pass of the same automaton
over all of them.  These paths share no code with the vectorized
production implementations they check.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ifamarket.ifa import IfaRule
from ifamarket.regulation import RegulationPolicy

# The 10 non-constant affine machines, by their smallest rule numbers
AFFINE_MACHINES = (16, 39, 45, 54, 60, 64, 99, 105, 114, 120)


def decide(rule: IfaRule, window: Sequence[int], initial_state: int = 0) -> int:
    """Reference decision: read the window newest-first, return the output
    emitted at the oldest cell."""
    state = initial_state
    out = None
    for symbol in reversed([int(m) for m in window]):
        state, out = rule.table[state][symbol]
    return out


def window_moves(window) -> list[int]:
    """A window's moves, oldest first: the oldest is its top bit."""
    return [(window.bits >> age) & 1 for age in range(window.width - 1, -1, -1)]


def last_run(history: Sequence[int]) -> tuple[int, int]:
    """(direction, length) of the maximal constant suffix of a history."""
    last = history[-1]
    run = 0
    for move in reversed(history):
        if move != last:
            break
        run += 1
    return last, run


def apply_regulation(
    policy: RegulationPolicy, history: Sequence[int], intended: int
) -> int:
    """Reference override from the full realized history (oldest first)."""
    if policy.regime == "none" or not history:
        return intended
    last, run = last_run(history)
    if policy.pricks and last == 1 and run >= policy.trend_length:
        return 0
    if policy.props and last == 0 and run >= policy.trend_length:
        return 1
    return intended


def simulate(
    rule: IfaRule,
    init_moves: Sequence[int],
    policy: RegulationPolicy,
    num_ticks: int,
) -> list[int]:
    """Reference closed loop keeping the entire realized history."""
    history = [int(m) for m in init_moves]
    w = len(init_moves)
    out = []
    for _ in range(num_ticks):
        intended = decide(rule, history[-w:])
        realized = apply_regulation(policy, history, intended)
        history.append(realized)
        out.append(realized)
    return out


def orbit(
    rule: IfaRule, init_moves: Sequence[int], policy: RegulationPolicy
) -> tuple[int, int]:
    """Reference (transient, cycle) over the minimal closed-loop state.

    The state is the window plus the trailing run capped at n when the
    policy regulates its direction; nothing else of the history affects
    a later move.  For n <= w the window alone determines that run, so
    the orbit is the orbit of window tuples.
    """
    transient, cycle, _ = orbit_moves(rule, init_moves, policy)
    return transient, cycle


def orbit_moves(
    rule: IfaRule, init_moves: Sequence[int], policy: RegulationPolicy
) -> tuple[int, int, list[int]]:
    """:func:`orbit`, and the realized moves of its transient and one cycle."""
    w = len(init_moves)
    history = [int(m) for m in init_moves]

    def state() -> tuple:
        direction, run = last_run(history)
        regulated = (policy.pricks and direction == 1) or (
            policy.props and direction == 0
        )
        capped = min(run, policy.trend_length) if regulated else None
        return tuple(history[-w:]), capped

    seen: dict[tuple, int] = {}
    t = 0
    key = state()
    while key not in seen:
        seen[key] = t
        intended = decide(rule, history[-w:])
        history.append(apply_regulation(policy, history, intended))
        key = state()
        t += 1
    first = seen[key]
    return first, t - first, history[w:]


def window_moments(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(mean, sample std, skew, kurt) from the raw definitions."""
    n = len(values)
    mean = math.fsum(values) / n
    dev = [x - mean for x in values]
    m2 = math.fsum(d * d for d in dev) / n
    m3 = math.fsum(d * d * d for d in dev) / n
    m4 = math.fsum(d * d * d * d for d in dev) / n
    vol = math.sqrt(math.fsum(d * d for d in dev) / (n - 1))
    if m2 == 0.0:
        return mean, vol, float("nan"), float("nan")
    return mean, vol, m3 / m2**1.5, m4 / m2**2


def day_returns(moves: Sequence[int], ticks_per_day: int, scale: float) -> list[float]:
    out = []
    for start in range(0, len(moves) - ticks_per_day + 1, ticks_per_day):
        day = moves[start : start + ticks_per_day]
        out.append(scale * (sum(1 for m in day if m == 1) - sum(1 for m in day if m == 0)))
    return out


def pack_bits(moves: Sequence[int]) -> bytes:
    """Moves 8 to a byte, the oldest in the most significant bit, the last
    byte padded with zeros."""
    out = bytearray()
    for start in range(0, len(moves), 8):
        byte = 0
        for i, move in enumerate(moves[start : start + 8]):
            byte |= int(move) << (7 - i)
        out.append(byte)
    return bytes(out)


def gf2_mul(a: int, b: int, modulus: int) -> int:
    """Product of two GF(2) polynomials (bit i = coefficient of x^i) mod ``modulus``."""
    degree = modulus.bit_length() - 1
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> degree & 1:
            a ^= modulus
    return product


def gf2_pow(base: int, exponent: int, modulus: int) -> int:
    """``base`` to the ``exponent`` mod ``modulus``, by square and multiply."""
    result = 1
    for bit in bin(exponent)[2:]:
        result = gf2_mul(result, result, modulus)
        if bit == "1":
            result = gf2_mul(result, base, modulus)
    return result


def order_of_x(w: int) -> int:
    """Multiplicative order of x modulo x^w + x + 1 over GF(2).

    x is a unit because the constant term is 1, so the powers of x
    return to 1; they are stepped one multiplication at a time, which
    assumes nothing about how the trinomial factors.
    """
    modulus = (1 << w) | 0b11
    power, order = 2, 1
    while power != 1:
        power = gf2_mul(power, 2, modulus)
        order += 1
    return order


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of ``n``, ascending, by trial division."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def order_of_t(q: int) -> int:
    """Multiplicative order of t modulo ``q`` over GF(2), where q(0) = 1
    and q has degree D >= 1.

    For f irreducible of degree d, t^(2^d - 1) = 1 + f*g modulo f^e, and
    squaring j times gives 1 + f^(2^j)*g^(2^j), which is 1 once 2^j >= e.
    So the order divides N = 2^ceil(log2 D) * lcm(2^d - 1 for d <= D),
    and it is N less every prime factor whose quotient still takes t to
    1.  The primes come from each 2^d - 1 by trial division.
    """
    degree = q.bit_length() - 1
    n, primes = 1 << (degree - 1).bit_length(), {2}
    for d in range(1, degree + 1):
        n = math.lcm(n, (1 << d) - 1)
        primes.update(prime_factors((1 << d) - 1))
    for p in primes:
        while n % p == 0 and gf2_pow(0b10, n // p, q) == 1:
            n //= p
    return n


def decisions(rule: IfaRule, w: int) -> np.ndarray:
    """The reference decision of every w-bit window x (bit 0 the newest
    move), as :func:`decide` reads it: one pass of the automaton over all
    2**w windows at once, newest bit first, from state 0."""
    windows = np.arange(1 << w, dtype=np.uint32)
    # the automaton's next states and outputs, indexed by 2 * state + symbol
    nexts, outputs = (
        np.array([rule.table[s][b][k] for s in (0, 1) for b in (0, 1)], dtype=np.uint8)
        for k in (0, 1)
    )
    state = np.zeros(1 << w, dtype=np.uint8)
    for age in range(w):
        pair = 2 * state + (windows >> age & 1).astype(np.uint8)
        state, out = nexts[pair], outputs[pair]
    return out


def affine_form(rule: IfaRule, w: int) -> Optional[tuple[int, int]]:
    """``(c, a)`` such that ``rule`` decides every w-bit window x (bit 0 the
    newest move) as c ^ parity(a & x), or None if it does not.

    An affine map is fixed by its values on the zero window, which give c,
    and on the w unit windows, which give the bits of a.  Up to w = 20 the
    form is then checked on every window, by :func:`decisions`.  Above
    w = 20 it is not checked: (c, a) is only read, and only for the rule
    numbers of :data:`AFFINE_MACHINES`, which this asserts.
    """

    def decision(x: int) -> int:
        return decide(rule, [(x >> age) & 1 for age in range(w - 1, -1, -1)])

    c = decision(0)
    a = sum((decision(1 << i) ^ c) << i for i in range(w))
    if w > 20:
        assert rule.rule_number in AFFINE_MACHINES, (rule, w)
        return c, a
    parity = np.bitwise_count(np.arange(1 << w, dtype=np.uint32) & a) & 1
    if np.array_equal(decisions(rule, w), c ^ parity):
        return c, a
    return None


def affine_orbit(c: int, a: int, w: int, start: int) -> tuple[int, int]:
    """(transient, cycle) of the windows of an affine machine ``(c, a)``
    from the window ``start``, from the algebra alone.

    The state (x, 1), the 1 in bit w, steps by a linear map M on
    GF(2)^(w+1).  The first image M^m s that depends linearly on the
    earlier ones s, ..., M^(m-1) s (Gaussian elimination on bitmasks)
    gives the minimal polynomial p of M at s; write p = t^k * q with
    q(0) = 1.  M^(n+T) s = M^n s exactly when p divides t^n * (t^T - 1),
    so the transient is k and the cycle is the order of t modulo q; q
    has t + 1 as a factor, since the 1 in bit w stays put.
    """
    mask = (1 << w) - 1
    basis: dict[int, tuple[int, int]] = {}  # top bit -> (vector, images summed)
    state = (1 << w) | start
    for m in range(w + 2):
        vector, images = state, 1 << m
        for top in sorted(basis, reverse=True):
            if vector >> top & 1:
                vector ^= basis[top][0]
                images ^= basis[top][1]
        if not vector:
            break
        basis[vector.bit_length() - 1] = vector, images
        x = state & mask
        state = (1 << w) | (x << 1 & mask) | (c ^ (a & x).bit_count() & 1)
    k = (images & -images).bit_length() - 1  # images: bit i = coefficient of t^i
    return k, order_of_t(images >> k)
