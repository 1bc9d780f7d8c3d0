import pytest

from lctrs import theory
from lctrs.parser import ParseError, parse, print_system
from lctrs.terms import App, INT, Var, int_val, term_key

from tests.conftest import CORPUS


def test_parse_guarded_rule():
    system = parse(
        """
        (theory Ints)
        (fun f (Int Int) Int)
        (fun c (Int Int) Int)
        (rule (f x y) (c 4 x) :guard (<= y x))
        """
    )
    (rule,) = system.rules
    x, y = Var("x", INT), Var("y", INT)
    assert rule.lhs == App(system.signature.term_syms["f"], (x, y))
    assert rule.rhs == App(system.signature.term_syms["c"], (int_val(4), x))
    assert rule.guard == theory.le(y, x)


def test_parse_value_choice_rule():
    system = parse("(theory Ints)\n(fun a () Int)\n(rule a x :guard (= x 0))\n")
    (rule,) = system.rules
    assert rule.lhs == App(system.signature.term_syms["a"])
    assert rule.rhs == Var("x", INT)
    assert rule.guard == theory.eq(Var("x", INT), 0)


def test_parse_rejects_value_lhs():
    with pytest.raises(ParseError):
        parse("(theory Ints)\n(rule 0 1)\n")


def test_parse_errors_carry_positions():
    try:
        parse("(theory Ints)\n(fun f (Int) Int)\n(rule (f x y z) x)\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


def test_unknown_symbol_is_error():
    with pytest.raises(ParseError, match="unknown sort"):
        parse("(theory Ints)\n(fun f (Intt) Int)\n")


def test_ambiguous_equality_is_error():
    with pytest.raises(ParseError, match="ambiguous|infer"):
        parse(
            """
            (theory Ints)
            (sort U)
            (fun a () U)
            (rule a a :guard (= x y))
            """
        )


@pytest.mark.parametrize("op", ["=", "!="])
def test_no_equality_at_a_declared_sort(op):
    with pytest.raises(ParseError) as exc:
        parse(f"(theory Ints)\n(sort U)\n(fun a () U)\n(fun g (U) U)\n(rule (g x) a :guard ({op} x a))\n")
    assert str(exc.value) == f"5:22: no {op} at sort U"


def test_guard_must_be_boolean():
    with pytest.raises(ParseError):
        parse("(theory Ints)\n(fun a () Int)\n(rule a a :guard (+ 1 2))\n")


def test_variable_sort_from_constraint_propagation():
    system = parse(
        """
        (theory Ints)
        (sort U)
        (fun k (U Int) U)
        (rule (k u n) (k u (+ n 1)) :guard (> n 0))
        """
    )
    (rule,) = system.rules
    u, n = rule.lhs.args
    assert u.sort.name == "U"
    assert n.sort == INT


def test_reserved_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse("(theory Ints)\n(fun true () Int)\n")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.lctrs")), ids=lambda p: p.stem)
def test_corpus_roundtrip(path):
    system = parse(path.read_text())
    printed = print_system(system)
    again = parse(printed)
    assert print_system(again) == printed
    assert len(again.rules) == len(system.rules)
    for a, b in zip(again.rules, system.rules):
        assert term_key(a.lhs) == term_key(b.lhs)
        assert term_key(a.rhs) == term_key(b.rhs)
        assert term_key(a.guard) == term_key(b.guard)


def test_corpus_matches_programmatic_builders(single_value, swap, parity, calc_chain, var_tracking, projection):
    from lctrs.terms import alpha_key

    built = {
        "single_value_choice": single_value,
        "guarded_swap": swap,
        "parity_split": parity,
        "calc_chain": calc_chain,
        "var_tracking": var_tracking,
        "projection": projection,
    }
    for name, system in built.items():
        parsed = parse((CORPUS / f"{name}.lctrs").read_text())
        assert len(parsed.rules) == len(system.rules)
        want = {alpha_key([r.lhs, r.rhs, r.guard]) for r in system.rules}
        got = {alpha_key([r.lhs, r.rhs, r.guard]) for r in parsed.rules}
        assert got == want, name
