"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: plain Python loops, windows as
tuples, per-window recomputation from the raw definitions.  These paths
share no code with the vectorized production implementations they check.
"""

from __future__ import annotations

import math
from typing import Sequence

from ifamarket.ifa import IfaRule
from ifamarket.regulation import RegulationPolicy


def decide(rule: IfaRule, window: Sequence[int], initial_state: int = 0) -> int:
    """Reference decision: read the window newest-first, return the output
    emitted at the oldest cell."""
    state = initial_state
    out = None
    for symbol in reversed([int(m) for m in window]):
        state, out = rule.table[state][symbol]
    return out


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
