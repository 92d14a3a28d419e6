"""Two-state, two-symbol iterated finite automata over binary market moves.

An automaton rule is a total map from (state, input symbol) to
(next state, output symbol).  With two states and two symbols there are
(2*2)^(2*2) = 256 such rules.  Each rule gets a canonical number in
[0, 255] by writing one base-4 digit per (state, symbol) pair:

    digit = 2 * next_state + output_symbol

with the pairs ordered (0,0), (0,1), (1,0), (1,1) from the most
significant digit to the least.

The trading decision for a lookback window is produced by a single pass
of the automaton over the window.  The pass reads the *most recent* move
first and walks back in time; the automaton starts in state 0 and the
symbol it emits at the final cell -- the oldest move in the window -- is
the decision; ``_engine.decision_table`` and ``scalar_decision`` compute
it.  Buy maps to UP (1), sell to DOWN (0).  This read order is the one
validated by the cycle-length oracle: under it, and only it, rule 54
drives the maximal 4,194,303-tick orbit at w = 22 that the whole toolkit
is anchored on.
"""

from __future__ import annotations

from dataclasses import dataclass

# (state, symbol) pairs in canonical digit order, most significant first.
_PAIR_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class IfaRule:
    """A rule: ``table[state][symbol] == (next_state, output_symbol)``."""

    rule_number: int
    table: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def next_state(self, state: int, symbol: int) -> int:
        return self.table[state][symbol][0]

    def output(self, state: int, symbol: int) -> int:
        return self.table[state][symbol][1]

    def __repr__(self) -> str:
        return f"IfaRule({self.rule_number})"


def decode_rule(rule_number: int) -> IfaRule:
    """Build the transition table for a canonical rule number.

    The number's base-4 digits, read most significant first, give the
    images of (0,0), (0,1), (1,0), (1,1); each digit encodes
    2 * next_state + output_symbol.
    """
    if not isinstance(rule_number, int) or isinstance(rule_number, bool):
        raise ValueError(f"rule number must be an integer, got {rule_number!r}")
    if not 0 <= rule_number <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {rule_number}")
    images = {}
    k = rule_number
    for pair in reversed(_PAIR_ORDER):
        digit = k & 3
        k >>= 2
        images[pair] = (digit >> 1, digit & 1)
    table = tuple(
        tuple(images[(state, symbol)] for symbol in (0, 1)) for state in (0, 1)
    )
    return IfaRule(rule_number=rule_number, table=table)


def encode_rule(rule: IfaRule) -> int:
    """Inverse of :func:`decode_rule`."""
    k = 0
    for state, symbol in _PAIR_ORDER:
        next_state, output = rule.table[state][symbol]
        if next_state not in (0, 1) or output not in (0, 1):
            raise ValueError(f"malformed table entry {(next_state, output)!r}")
        k = (k << 2) | (next_state << 1) | output
    return k
