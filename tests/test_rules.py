import pytest

from lctrs import theory
from lctrs.rules import ConstrainedRule, Lctrs, RuleError, Signature, calc_rules, is_variant, options, rename_apart
from lctrs.terms import App, FunSym, INT, Sort, Var, value_of

U = Sort("U")
fU = FunSym("f", (U,), U, "term")
x, y = Var("x", U), Var("y", U)
xi, yi = Var("x", INT), Var("y", INT)


def test_variants():
    r1 = ConstrainedRule(App(fU, (x,)), x)
    r2 = ConstrainedRule(App(fU, (y,)), y)
    assert is_variant(r1, r2)
    with pytest.raises(RuleError):
        # y would be an extra variable of a non-theory sort
        ConstrainedRule(App(fU, (x,)), y)
    assert not is_variant(r1, ConstrainedRule(App(fU, (App(fU, (x,)),)), x))
    g2 = FunSym("g", (U, U), U, "term")
    apart, merged = ConstrainedRule(App(g2, (x, y)), x), ConstrainedRule(App(g2, (y, y)), y)
    assert not is_variant(apart, merged) and not is_variant(merged, apart)  # the renaming must be injective


def test_variant_requires_matching_guard():
    sig = Signature()
    g = sig.add_fun("g", [INT], INT)
    r1 = ConstrainedRule(App(g, (xi,)), xi, theory.gt(xi, 0))
    r2 = ConstrainedRule(App(g, (yi,)), yi, theory.gt(yi, 0))
    r3 = ConstrainedRule(App(g, (yi,)), yi, theory.ge(yi, 0))
    assert is_variant(r1, r2)
    assert not is_variant(r1, r3)


def test_rename_apart_primes_collisions():
    sig = Signature()
    a = sig.add_fun("a", [], INT)
    rule = ConstrainedRule(App(a), xi, theory.eq(xi, 0))
    one, two = rename_apart([rule, rule])
    assert one.rhs == xi
    assert two.rhs == Var("x'", INT)
    assert two.guard == theory.eq(Var("x'", INT), 0)
    assert is_variant(one, two)


def test_rename_apart_no_collision_keeps_names():
    r = ConstrainedRule(App(fU, (x,)), x)
    (only,) = rename_apart([r])
    assert only == r


def test_lhs_must_not_be_variable():
    with pytest.raises(RuleError):
        ConstrainedRule(x, x)


def test_lhs_root_must_be_plain():
    with pytest.raises(RuleError):
        ConstrainedRule(theory.add(xi, yi), xi, theory.eq(yi, 0))


def test_guard_must_be_logical():
    sig = Signature()
    h = sig.add_fun("h", [INT], INT)
    k = sig.add_fun("k", [INT], Sort("Bool"))
    with pytest.raises(RuleError):
        ConstrainedRule(App(h, (xi,)), xi, App(k, (xi,)))


def test_sides_same_sort():
    sig = Signature()
    p = sig.add_fun("p", [], U)
    with pytest.raises(RuleError):
        ConstrainedRule(App(p), xi)


def test_literals_are_the_int_values_of_every_rule_side():
    sig = Signature()
    h = sig.add_fun("h", [INT, INT], INT)
    k = sig.add_fun("k", [INT], Sort("Bool"))
    rules = (
        ConstrainedRule(App(h, (xi, theory.int_val(3))), theory.add(xi, -2), theory.gt(xi, -5)),
        ConstrainedRule(App(k, (xi,)), theory.bool_val(True), theory.eq(xi, 7)),
    )
    assert Lctrs(sig, rules).literals == {3, -2, -5, 7}  # true is a value of sort Bool, not counted


def test_guard_definitions_are_linear_equations_in_one_chosen_variable():
    """f(n) -> g(m) [...] under n's value: the rule's assignment procedure
    computes m from a top-level equation that is linear in m, the first
    such conjunct; any other m is enumerated and checked (free counts it)."""
    fI, gI = FunSym("f", (INT,), INT, "term"), FunSym("g", (INT, INT), INT, "term")
    n, m, k = (Var(name, INT) for name in "nmk")
    lhs = App(fI, (n,))
    domain = options([(theory.int_val(v), v) for v in range(-4, 5)])

    def solve(guard, n_value, rhs=App(gI, (m, m))):
        found = ConstrainedRule(lhs, rhs, guard).assignments
        sigmas = found(dict.fromkeys(found.order, domain), [n_value])
        values = [[value_of(sigma[v]) for v in sorted(sigma, key=lambda v: v.name)] for sigma in sigmas]
        return found.free, values

    guard = theory.conj(theory.gt(n, 0), theory.eq(theory.add(theory.mul(3, m), 1), n))
    assert solve(guard, 7) == (0, [[2]]) and solve(guard, 8) == (0, [])  # 3*m = 7 has no integer m
    assert solve(theory.eq(n, theory.sub(4, theory.mul(m, 2))), 2) == (0, [[1]])
    assert solve(theory.eq(theory.mul(m, m), n), 4) == (1, [[-2], [2]])  # not linear in m
    assert solve(theory.eq(theory.sub(m, m), n), 0) == (1, [[v] for v in range(-4, 5)])  # m's coefficient is 0
    # k comes first in name order and takes m + k = n, which also names m: m is free, then k computed
    assert solve(theory.conj(theory.eq(theory.add(m, k), n), theory.eq(k, 2)), 5, App(gI, (m, k))) == (1, [[2, 3]])
    assert solve(theory.neg(theory.ne(m, n)), 3) == (1, [[3]])  # only a top-level equation defines
    first = ConstrainedRule(lhs, App(gI, (m, m)), theory.conj(theory.eq(m, 1), theory.eq(theory.mul(2, m), n)))
    assert [c for _, c, _ in first.assignments.solved] == [1]  # m - 1, not 2*m - n
    (times,) = [r for r in calc_rules() if r.lhs.sym == theory.MUL]
    found = times.assignments
    assert ([v.name for v in found.inputs], found.free) == (["x1", "x2"], 0)
    (y,) = found.order
    assert found({y: domain}, [-1, 3]) == [{y: theory.int_val(-3)}] and found({y: domain}, [3, 4]) == []  # 12 lies outside
