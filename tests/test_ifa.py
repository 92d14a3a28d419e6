import ast
from pathlib import Path

import pytest

import ifamarket
from ifamarket import _engine, empirical, ifa, market, regulation, tickio
from ifamarket.ifa import Move, decode_rule, encode_rule
from ifamarket.market import WindowState, window_from_literal


def test_decode_54_base4_digits():
    # 54 = 0*64 + 3*16 + 1*4 + 2, digits (0, 3, 1, 2) over the pairs
    # (0,0), (0,1), (1,0), (1,1); digit = 2*next_state + output
    rule = decode_rule(54)
    assert rule.table[0][0] == (0, 0)
    assert rule.table[0][1] == (1, 1)
    assert rule.table[1][0] == (0, 1)
    assert rule.table[1][1] == (1, 0)


def test_decode_zero_all_transitions_to_zero():
    rule = decode_rule(0)
    for state in (0, 1):
        for symbol in (0, 1):
            assert rule.table[state][symbol] == (0, 0)


@pytest.mark.parametrize("k", [0, 54, 201, 255])
def test_encode_decode_round_trip(k):
    assert encode_rule(decode_rule(k)) == k


def test_bijection_over_all_rules():
    assert [encode_rule(decode_rule(k)) for k in range(256)] == list(range(256))


def test_enumerate_rules_count_and_order():
    rules = [decode_rule(k) for k in range(256)]
    assert [r.rule_number for r in rules] == list(range(256))
    assert len({r.table for r in rules}) == 256


@pytest.mark.parametrize("bad", [-1, 256, 1000])
def test_decode_out_of_range(bad):
    with pytest.raises(ValueError):
        decode_rule(bad)


def _decide(rule, window):
    # the engine's pass over an oldest-first window, read by both
    # scalar_decision and decision_table, which must agree
    w = len(window)
    bits = window_from_literal("".join(map(str, window)), w).bits
    decision = _engine.scalar_decision(rule, w)(bits)
    assert decision == _engine.decision_table(rule, w)[bits]
    return Move(decision)


def test_decision_of_a_constant_rule():
    # rule 85: every digit 1, i.e. always (next 0, output UP)
    rule = decode_rule(85)
    assert all(rule.output(s, b) == 1 for s in (0, 1) for b in (0, 1))
    assert _decide(rule, [Move.DOWN] * 7) is Move.UP
    assert _decide(rule, [Move.UP, Move.DOWN]) is Move.UP


def test_decision_of_a_passthrough_rule():
    # rule 27: output = input, state unchanged.  The pass reads the window
    # newest-first, so the decision is the rewritten *oldest* move.
    rule = decode_rule(27)
    assert all(
        rule.table[s][b] == (s, b) for s in (0, 1) for b in (0, 1)
    )
    assert _decide(rule, [Move.DOWN]) is Move.DOWN
    assert _decide(rule, [Move.DOWN, Move.UP, Move.UP]) is Move.DOWN
    assert _decide(rule, [Move.UP, Move.DOWN, Move.DOWN]) is Move.UP


def test_decision_of_rule54_at_the_alternating_window():
    # frozen from the resolved convention; the cycle-length anchor in the
    # acceptance suite is what validates the convention itself
    rule = decode_rule(54)
    window = [Move.UP if i % 2 == 0 else Move.DOWN for i in range(22)]
    assert _decide(rule, window) is Move.UP


def test_move_values_and_mirror():
    assert int(Move.UP) == 1 and int(Move.DOWN) == 0
    assert Move(1 - Move.UP) is Move.DOWN and Move(1 - Move.DOWN) is Move.UP
    assert str(Move.UP) == "U" and str(Move.DOWN) == "D"


def test_public_surface():
    # every export resolves, none twice, and the names that no command
    # ran stay out of the package
    names = ifamarket.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(ifamarket, name)
    removed = {
        ifa: ("process_window", "enumerate_rules"),
        tickio: ("read_rle", "read_bits"),
        empirical: ("dump_price_csv",),
        market: ("initial_window",),
        regulation: ("apply_policy",),
        Move: ("mirror",),
        WindowState: ("slide", "from_moves"),
    }
    for owner, gone in removed.items():
        for name in gone:
            assert name not in names, name
            assert not hasattr(owner, name) and not hasattr(ifamarket, name), name
    # one way to build a start window, one way to apply a policy
    assert {"window_from_literal", "regulator"} <= set(names)


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the code reads, string annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(note) if note else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= _names_read(ast.parse(part.value, mode="eval"))
    return read


@pytest.mark.parametrize(
    "path",
    # __init__ imports to export, so it is left out
    [
        path
        for path in sorted(Path(ifamarket.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    ],
    ids=lambda path: path.name,
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    assert sorted(imported - _names_read(tree)) == []
