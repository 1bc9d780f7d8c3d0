"""Value semantics of the immutable records (terms.Record) and the copy that
ConstrainedRule.rename builds without re-checking the rule."""

import pytest

from lctrs import theory
from lctrs.analysis import CCPRecord, CPCPRecord
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse
from lctrs.pcp import PCPInstance
from lctrs.rewriting import ConstrainedTerm, RewriteConfig, constrained_oracle
from lctrs.rules import ConstrainedRule, Signature, calc_rules, options
from lctrs.terms import App, BOOL, INT, Var, bool_val, int_val, rename_away

SIG = Signature()
F = SIG.add_fun("f", [INT], INT)
G = SIG.add_fun("g", [INT, INT], INT)
x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)
RULE = ConstrainedRule(App(F, (x,)), App(G, (x, z)), theory.gt(x, 0))

# (class, field names, fields, the fields with one changed)
RECORDS = [
    (
        ConstrainedRule,
        "lhs rhs guard calc",
        (App(F, (x,)), x, theory.gt(x, 0), False),
        (App(F, (x,)), x, theory.ge(x, 0), False),
    ),
    (ConstrainedTerm, "term constraint", (App(F, (x,)), theory.gt(x, 0)), (App(F, (y,)), theory.gt(x, 0))),
    (RewriteConfig, "lo hi", (-2, 2), (-2, 3)),
    (
        CCPRecord,
        "left right constraint position peak_source",
        (x, y, theory.eq(x, y), (), App(F, (x,))),
        (x, y, theory.eq(x, y), (0,), App(F, (x,))),
    ),
    (
        CPCPRecord,
        "left right constraint pset peak_source",
        (x, y, theory.eq(x, y), ((),), App(F, (x,))),
        (y, x, theory.eq(x, y), ((),), App(F, (x,))),
    ),
    (PCPInstance, "pairs", ((("1", "101"), ("10", "00")),), ((("1", "101"), ("10", "01")),)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, fields, other", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, names, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, n) for n in names.split()] == list(fields)
    assert a != cls(*other)
    assert len({a, b, cls(*other)}) == 2


@pytest.mark.parametrize("cls, names, fields, other", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, fields, other):
    record = cls(*fields)
    for name, value in zip(names.split(), other, strict=True):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*fields)


def test_reprs():
    assert repr(ConstrainedTerm(App(F, (x,)), theory.gt(x, 0))) == "f(x) [>(x, 0)]"
    assert repr(ConstrainedTerm(x)) == "x [true]"
    assert repr(RULE) == "f(x) -> g(x, z) [>(x, 0)]"
    assert repr(ConstrainedRule(App(F, (x,)), x)) == "f(x) -> x"
    assert repr(RewriteConfig()) == "RewriteConfig(lo=-4, hi=4)"


def test_equal_rewrite_configs_share_one_plain_oracle():
    """Plain rewriting's oracle is the constrained one under true."""
    system = parse("(theory Ints)\n(fun h (Int) Int)\n(rule (h x) x)\n")
    true, solver = theory.bool_val(True), ConstraintSolver()
    first = constrained_oracle(true, system, solver, RewriteConfig(-2, 2))
    assert constrained_oracle(true, system, solver, RewriteConfig(-2, 2)) is first
    assert constrained_oracle(true, system, solver, RewriteConfig(-2, 3)) is not first
    assert len(system.oracles) == 2


def test_one_constraint_shares_one_constrained_oracle():
    """One constrained oracle per (config, solver, constraint) on the system."""
    system = parse("(theory Ints)\n(fun h (Int) Int)\n(rule (h x) x :guard (> x 0))\n")
    phi = theory.gt(y, 1)
    solver, config = ConstraintSolver(), RewriteConfig(-2, 2)
    first = constrained_oracle(phi, system, solver, config)
    assert constrained_oracle(phi, system, solver, config) is first
    assert constrained_oracle(phi, system, ConstraintSolver(), config) is not first
    assert constrained_oracle(phi, system, solver, RewriteConfig(-2, 2)) is first
    assert constrained_oracle(phi, system, solver, RewriteConfig(-2, 3)) is not first
    assert constrained_oracle(theory.gt(y, 2), system, solver, config) is not first
    assert len(system.oracles) == 4


CALC = {r.lhs.sym.name: r for r in calc_rules() if r.lhs.sym.arg_sorts == (INT, INT)}


@pytest.mark.parametrize("rule", [RULE, CALC["+"], CALC["<"]], ids=["extra-variable", "calc-+", "calc-<"])
def test_renamed_copy_equals_the_checked_rule(rule):
    """rename builds its copy without the constructor's checks and maps the
    side variables through the renaming; the result must be the rule the
    constructor builds from the renamed sides, with the same derived facts."""
    ren = rename_away(rule.variables(), rule.variables())
    copy = rule.rename(ren)
    built = ConstrainedRule(copy.lhs, copy.rhs, copy.guard, calc=rule.calc)
    assert copy == built and hash(copy) == hash(built)
    assert copy.variables() == built.variables()
    assert copy.lvar() == built.lvar()
    assert copy.lvar_split == built.lvar_split
    assert copy.evar() == built.evar()
    assert copy.ec() == built.ec()
    original = rule.assignments  # the compiled solve-then-enumerate procedure
    domains = {
        INT: options([(int_val(v), v) for v in range(-2, 3)]),
        BOOL: options([(bool_val(b), b) for b in (True, False)]),
    }
    k = len(original.inputs)
    for solve in (copy.assignments, built.assignments):
        assert list(solve.inputs) == [ren[v] for v in original.inputs]
        assert solve.order == [ren[v] for v in original.order]
        assert solve.free == original.free
        for values in [(1,) * k, (-1,) * k, tuple(range(k))]:
            found = original({v: domains[v.sort] for v in original.order}, values)
            assert solve({v: domains[v.sort] for v in solve.order}, values) == [
                {ren[v]: t for v, t in sigma.items()} for sigma in found
            ]
    assert copy.calc == rule.calc and not copy.variables() & rule.variables()


def test_extra_variable_survives_the_renaming():
    copy = RULE.rename({x: Var("x'", INT), z: Var("z'", INT)})
    assert copy.evar() == {Var("z'", INT)}
    assert copy.ec() == theory.eq(Var("z'", INT), Var("z'", INT))
