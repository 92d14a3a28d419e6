"""Independent oracles for every output the benchmark checks.

Nothing here imports ``ifamarket`` or copies its code.  The rule is
decoded from its base-4 digits, the decision is a plain automaton pass
over the window newest move first, regulation acts on the trailing run
of the whole realized history, rolling moments are exact integer power
sums, and rule 54's orbit is the m-sequence of x^w + x + 1 over GF(2)
(Golomb, *Shift Register Sequences*, 1967).
"""

from __future__ import annotations

import math
import zlib

import numpy as np

UP, DOWN = 1, 0


# ---------------------------------------------------------------- automaton


def rule_table(rule: int) -> tuple:
    """table[state][symbol] == (next state, output) for a rule number.

    Base-4 digits, most significant first, give the images of (0,0),
    (0,1), (1,0), (1,1); each digit is 2 * next_state + output.
    """
    digits = [(rule >> shift) & 3 for shift in (6, 4, 2, 0)]
    image = [(d >> 1, d & 1) for d in digits]
    return ((image[0], image[1]), (image[2], image[3]))


def decide(table: tuple, history: list, w: int) -> int:
    """Decision on the last w moves of ``history`` (oldest first).

    The automaton starts in state 0, reads the newest move first, and
    the symbol written at the oldest move is the decision.
    """
    state = output = 0
    for move in history[: -w - 1 : -1]:
        state, output = table[state][move]
    return output


def init_moves(kind: str, w: int) -> list:
    """Oldest-first initial window: UDUD... or all UP."""
    if kind in ("alternating", "alternating_up_first"):
        return [UP if i % 2 == 0 else DOWN for i in range(w)]
    if kind == "all_up":
        return [UP] * w
    raise ValueError(f"unknown init {kind!r}")


def closed_loop(rule: int, init: list, policy: str):
    """Realized moves of the regulated loop, tick by tick, without end.

    Prick forces DOWN once the trailing realized UP run, counted over
    the whole history including the initial window, reaches n; prop
    mirrors it.  A forced move feeds back like any other.
    """
    table = rule_table(rule)
    w = len(init)
    regime, _, n = policy.partition(":")
    n = int(n) if n else 0
    pricks = regime in ("prick", "both")
    props = regime in ("prop", "both")
    history = list(init)
    run_dir, run_len = history[-1], 0
    for move in reversed(history):
        if move != run_dir:
            break
        run_len += 1
    while True:
        move = decide(table, history, w)
        if pricks and run_dir == UP and run_len >= n:
            move = DOWN
        elif props and run_dir == DOWN and run_len >= n:
            move = UP
        history.append(move)
        if move == run_dir:
            run_len += 1
        else:
            run_dir, run_len = move, 1
        yield move


def run_loop(rule: int, init: list, policy: str, ticks: int) -> np.ndarray:
    """The first ``ticks`` realized moves of :func:`closed_loop`."""
    moves = closed_loop(rule, init, policy)
    return np.fromiter((next(moves) for _ in range(ticks)), np.uint8, ticks)


def orbit(rule: int, init: list, policy: str, limit: int):
    """(transient, cycle, moves) of the closed loop, or None past ``limit``.

    The window is the whole state only when the policy's n <= w (or
    there is no policy), which is all this is used for: a repeated
    window then repeats everything after it.  ``moves`` holds the
    transient and one cycle.
    """
    w = len(init)
    _, _, n = policy.partition(":")
    if n and int(n) > w:
        raise ValueError("the window is not the whole state when n > w")
    window = 0
    for move in init:
        window = (window << 1) | move
    mask = (1 << w) - 1
    seen = {window: 0}
    moves = []
    for t, move in enumerate(closed_loop(rule, init, policy), start=1):
        moves.append(move)
        window = ((window << 1) | move) & mask
        if window in seen:
            first = seen[window]
            return first, t - first, moves
        if t == limit:
            return None
        seen[window] = t


def tile(transient: int, cycle: int, moves: list, count: int) -> np.ndarray:
    """The first ``count`` moves of an orbit given by transient + cycle."""
    head = np.array(moves[:transient], dtype=np.uint8)
    loop = np.array(moves[transient : transient + cycle], dtype=np.uint8)
    if count <= head.size:
        return head[:count]
    reps = -(-(count - head.size) // cycle)
    return np.concatenate((head, np.tile(loop, reps)))[:count]


# ----------------------------------------------------------- GF(2) algebra


def _gf2_mulmod(a: int, b: int, modulus: int) -> int:
    degree = modulus.bit_length() - 1
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if (a >> degree) & 1:
            a ^= modulus
    return product


def _gf2_powmod(base: int, exponent: int, modulus: int) -> int:
    result = 1
    while exponent:
        if exponent & 1:
            result = _gf2_mulmod(result, base, modulus)
        base = _gf2_mulmod(base, base, modulus)
        exponent >>= 1
    return result


def _prime_factors(n: int) -> list:
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def order_of_x(w: int) -> int:
    """Multiplicative order of x modulo x^w + x + 1 over GF(2).

    Computed for a trinomial whose order divides 2^w - 1, which is the
    case for the primitive x^22 + x + 1; anything else raises.
    """
    modulus = (1 << w) | 0b11
    order = (1 << w) - 1
    if _gf2_powmod(0b10, order, modulus) != 1:
        raise ValueError(f"x^{w} + x + 1 is not irreducible")
    for p in _prime_factors(order):
        while order % p == 0 and _gf2_powmod(0b10, order // p, modulus) == 1:
            order //= p
    return order


def recurrence(init: list, count: int) -> np.ndarray:
    """m_t = m_(t-w) xor m_(t-w+1), continued ``count`` ticks past ``init``.

    Rule 54's decision is the XOR of the two oldest window moves, so its
    unregulated stream is this linear recurrence.  Blocks of w - 1
    moves depend only on earlier blocks.
    """
    w = len(init)
    m = np.empty(w + count, dtype=np.uint8)
    m[:w] = init
    step = w - 1
    for t in range(w, w + count, step):
        end = min(t + step, w + count)
        np.bitwise_xor(m[t - w : end - w], m[t - w + 1 : end - w + 1], out=m[t:end])
    return m[w:]


def is_xor_of_oldest(rule: int, w: int, windows) -> bool:
    """Whether the rule decides m_oldest xor m_second_oldest on ``windows``."""
    table = rule_table(rule)
    for bits in windows:
        window = [(bits >> (w - 1 - i)) & 1 for i in range(w)]  # oldest first
        if decide(table, window, w) != window[0] ^ window[1]:
            return False
    return True


def zlib9_ratio(moves: np.ndarray) -> float:
    """zlib level 9 size over raw size of the moves packed 8 per byte,
    oldest first, most significant bit first."""
    packed = np.packbits(moves.astype(np.uint8)).tobytes()
    return len(zlib.compress(packed, 9)) / len(packed)


# -------------------------------------------------------- rolling moments


def day_nets(moves: np.ndarray, ticks_per_day: int) -> np.ndarray:
    """#UP - #DOWN of each whole day, as exact integers."""
    days = moves.size // ticks_per_day
    ups = moves[: days * ticks_per_day].reshape(days, ticks_per_day).sum(
        axis=1, dtype=np.int64
    )
    return 2 * ups - ticks_per_day


def rolling_exact(nets: np.ndarray, window: int) -> list:
    """Per window: (mean, sample variance, skew, kurt) of the day nets.

    Integer power sums make every central moment exact; only the last
    division rounds.  Skew and kurt are None where the variance is 0.
    """
    vals = [int(x) for x in nets]
    out = []
    n = window
    s1 = sum(vals[:window])
    s2 = sum(v * v for v in vals[:window])
    s3 = sum(v**3 for v in vals[:window])
    s4 = sum(v**4 for v in vals[:window])
    for lo in range(len(vals) - window + 1):
        if lo:
            old, new = vals[lo - 1], vals[lo + window - 1]
            s1 += new - old
            s2 += new * new - old * old
            s3 += new**3 - old**3
            s4 += new**4 - old**4
        c2 = n * s2 - s1 * s1  # n^2 * m2
        c3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3  # n^3 * m3
        c4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
        mean = s1 / n
        var = c2 / (n * (n - 1))
        if c2:
            skew = c3 / c2**1.5
            kurt = c4 / (c2 * c2)
        else:
            skew = kurt = None
        out.append((mean, var, skew, kurt))
    return out


def moments_rows(moves, ticks_per_day, scale, window, days_per_year):
    """Annualized (mean, vol, skew, kurt) per rolling window."""
    rows = []
    for mean, var, skew, kurt in rolling_exact(day_nets(moves, ticks_per_day), window):
        rows.append(
            (
                scale * mean * days_per_year,
                scale * math.sqrt(var) * math.sqrt(days_per_year),
                skew,
                kurt,
            )
        )
    return rows


def regime_row(moves, ticks_per_day, scale, window, days_per_year) -> dict:
    """One table1 row: window averages of mean and vol, and the largest
    |skew| and |kurt - 3| over windows whose variance is not 0."""
    rows = moments_rows(moves, ticks_per_day, scale, window, days_per_year)
    shaped = [r for r in rows if r[2] is not None]
    return {
        "avg_ann_mean": sum(r[0] for r in rows) / len(rows),
        "avg_ann_vol": sum(r[1] for r in rows) / len(rows),
        "skew_max_dev": max(abs(r[2]) for r in shaped),
        "kurt_max_dev": max(abs(r[3] - 3.0) for r in shaped),
    }


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)
