import pytest

from lctrs import theory
from lctrs.parser import ParseError, parse, print_system
from lctrs.rules import ConstrainedRule, Lctrs, Signature
from lctrs.terms import App, INT, Sort, Var, int_val, term_key

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


def _build(sort, funs, rules):
    """The system of rules(f, x, y, z), built without the parser: funs gives
    each symbol's argument and result sorts, f(name, *args) builds a term and
    x, y, z are variables of `sort`.  A rule without a guard is unguarded."""
    sig = Signature()
    for name, (args, res) in funs.items():
        for s in (*args, res):
            sig.sorts.setdefault(s.name, s)
        sig.add_fun(name, list(args), res)

    def f(name, *args):
        return App(sig.term_syms[name], args)

    x, y, z = (Var(n, sort) for n in "xyz")
    return Lctrs(sig, tuple(ConstrainedRule(*rule) for rule in rules(f, x, y, z)))


U = Sort("U")
I1, I2 = (INT,), (INT, INT)
BUILT = {  # corpus file -> _build's arguments for the same system
    "single_value_choice": (INT, {"a": ((), INT)}, lambda f, x, y, z: [(f("a"), x, theory.eq(x, 0))]),
    "guarded_swap": (INT, {"f": (I2, INT), "g": (I2, INT), "h": (I1, INT), "c": (I2, INT)}, lambda f, x, y, z: [
        (f("f", x, y), f("h", f("g", y, theory.mul(2, 2))), theory.conj(theory.le(x, y), theory.eq(y, 2))),
        (f("f", x, y), f("c", int_val(4), x), theory.le(y, x)),
        (f("g", x, y), f("g", y, x)),
        (f("h", x), x),
        (f("c", x, y), f("g", int_val(4), int_val(2)), theory.ne(x, y)),
    ]),
    "parity_split": (INT, {"f": (I1, INT), "g": (I1, INT), "h": (I1, INT)}, lambda f, x, y, z: [
        (f("f", x), f("g", x)),
        (f("f", x), f("h", x), theory.conj(theory.le(1, x), theory.le(x, 2))),
        (f("g", x), f("h", int_val(2)), theory.eq(x, theory.mul(2, z))),
        (f("g", x), f("h", int_val(1)), theory.eq(x, theory.add(theory.mul(2, z), 1))),
    ]),
    "calc_chain": (INT, {"f": (I1, INT), "a": ((), INT), "g": (I2, INT)}, lambda f, x, y, z: [
        (f("f", f("a")), f("g", int_val(4), int_val(4))),
        (f("a"), f("g", theory.add(1, 1), theory.add(3, 1))),
        (f("g", x, y), f("f", f("g", z, y)), theory.eq(z, theory.sub(x, 2))),
    ]),
    "var_tracking": (U, {"f": ((U, U), U), "g": ((U,), U), "a": ((), U), "b": ((), U)}, lambda f, x, y, z: [
        (f("f", f("g", x), y), f("f", f("b"), y)),
        (f("g", x), f("a")),
        (f("f", f("a"), x), x),
        (f("f", f("b"), x), x),
    ]),
    "projection": (U, {"f": ((U, U), U)}, lambda f, x, y, z: [(f("f", x, y), x)]),
}


def test_corpus_matches_programmatic_builders():
    from lctrs.terms import alpha_key

    for name, args in BUILT.items():
        system = _build(*args)
        parsed = parse((CORPUS / f"{name}.lctrs").read_text())
        assert len(parsed.rules) == len(system.rules)
        want = {alpha_key([r.lhs, r.rhs, r.guard]) for r in system.rules}
        got = {alpha_key([r.lhs, r.rhs, r.guard]) for r in parsed.rules}
        assert got == want, name
