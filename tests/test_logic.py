import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctrs import cooper, logic, rewriting, theory
from lctrs.analysis import analyze
from lctrs.logic import ConstraintSolver, search_model
from lctrs.terms import App, BOOL, INT, FunSym, TermError, Var, apply_subst, bool_val, int_val, value_of, variables

from tests.conftest import LINEAR_ATOM, corpus_system, disj, linear_atom, run_every_closing_check

x, y, z, n, m = (Var(s, INT) for s in "xyznm")


@pytest.fixture(scope="module")
def solver():
    return ConstraintSolver()


# --- interpretation ---------------------------------------------------------

def test_interpret_two_times_two():
    assert theory.interpret(theory.mul(2, 2)) == 4


def test_interpret_one_plus_one():
    assert theory.interpret(theory.add(1, 1)) == 2
    assert theory.interpret(theory.add(3, 1)) == 4


def test_interpret_bool():
    assert theory.interpret(theory.conj(theory.bool_val(True), theory.bool_val(False))) is False


def test_interpret_rejects_nonground():
    with pytest.raises(Exception):
        theory.interpret(theory.add(x, 1))


def test_interpret_homomorphism_random():
    rng = random.Random(7)
    ops = [
        (theory.add, lambda a, b: a + b),
        (theory.sub, lambda a, b: a - b),
        (theory.mul, lambda a, b: a * b),
    ]

    def gen(depth):
        if depth == 0:
            return rng.randint(-20, 20)
        op, py = rng.choice(ops)
        return (op, py, gen(depth - 1), gen(depth - 1))

    def build(node):
        if isinstance(node, int):
            return int_val(node), node
        op, py, l, r = node
        tl, vl = build(l)
        tr, vr = build(r)
        return op(tl, tr), py(vl, vr)

    for _ in range(500):
        t, expected = build(rng.randint(1, 3))
        assert theory.interpret(t) == expected


b1, b2 = Var("b1", BOOL), Var("b2", BOOL)
_CONNECTIVES = (theory.conj, disj, theory.imp, theory.eq, theory.ne)  # eq, ne: = and != on Bool
_CONSTRAINT = st.recursive(
    st.one_of(
        st.builds(lambda atom: linear_atom(atom[0], [x, y, z], atom[1], atom[2]), LINEAR_ATOM),
        st.sampled_from([b1, b2, bool_val(True), bool_val(False)]),
    ),
    lambda sub: st.one_of(
        st.builds(theory.neg, sub),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(_CONNECTIVES), sub, sub),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    _CONSTRAINT,
    st.permutations([x, y, z, b1, b2]),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=2, max_size=2),
)
def test_evaluator_agrees_with_holds(phi, vs, ints, bools):
    """The compiled constraint, given the values in any variable order,
    agrees with interpreting the instantiated constraint."""
    sigma = {**{v: int_val(i) for v, i in zip([x, y, z], ints)}, **{v: bool_val(b) for v, b in zip([b1, b2], bools)}}
    values = tuple(value_of(sigma[v]) for v in vs)
    assert theory.evaluator(phi, vs)(values) == theory.holds(apply_subst(sigma, phi))


def test_evaluator_rejects_what_interpret_rejects():
    f = FunSym("f", (INT,), INT, "term")
    phi = theory.eq(App(f, (x,)), 0)
    with pytest.raises(TermError):
        theory.interpret(apply_subst({x: int_val(0)}, phi))
    with pytest.raises(TermError):
        theory.evaluator(phi, [x])
    with pytest.raises(TermError):
        theory.evaluator(theory.gt(x, y), [x])


# --- satisfiability ---------------------------------------------------------

def test_unsat_strict_window(solver):
    phi = theory.conj(theory.gt(x, 0), theory.lt(x, 0))
    assert solver.is_satisfiable(phi).status == "unsat"


def test_sat_pcp_guard(solver):
    phi = theory.conj(theory.eq(theory.add(theory.mul(3, m), 1), n), theory.gt(n, 0))
    res = solver.is_satisfiable(phi)
    assert res.status == "sat"
    assert theory.holds(apply_subst(res.assignment, phi))


def test_unsat_parity(solver):
    phi = theory.conj(theory.eq(x, theory.mul(2, z)), theory.eq(x, theory.add(theory.mul(2, z), 1)))
    # bounded enumeration agrees there is no model in a window
    found = any(
        xv == 2 * zv and xv == 2 * zv + 1
        for xv in range(-8, 9)
        for zv in range(-8, 9)
    )
    assert not found
    assert solver.is_satisfiable(phi).status == "unsat"


def test_parity_disequal_slopes(solver):
    phi = theory.conj(theory.eq(x, theory.mul(2, z)), theory.eq(x, theory.add(theory.mul(2, y), 1)))
    assert solver.is_satisfiable(phi).status == "unsat"


# --- validity ---------------------------------------------------------------

def test_valid_reflexivity(solver):
    assert solver.is_valid(theory.eq(x, x)).status == "valid"


def test_valid_implication(solver):
    assert solver.is_valid(theory.imp(theory.gt(x, 3), theory.gt(x, 0))).status == "valid"


def test_invalid_with_counter_valuation(solver):
    res = solver.is_valid(theory.gt(x, 0))
    assert res.status == "invalid"
    assert not theory.holds(apply_subst(res.assignment, theory.gt(x, 0)))


# --- quantified sentences ----------------------------------------------------

def test_forall_exists_witness(solver):
    phi = theory.imp(theory.gt(x, 3), theory.conj(theory.eq(z, theory.add(x, 1)), theory.gt(x, 3)))
    res = solver.is_valid_quantified([("forall", [x]), ("exists", [z])], phi)
    assert res.status == "valid"


def test_forall_monotone(solver):
    phi = theory.imp(theory.gt(x, 3), theory.gt(x, 1))
    assert solver.is_valid_quantified([("forall", [x])], phi).status == "valid"


def test_forall_exists_empty_interval(solver):
    phi = theory.conj(theory.gt(y, x), theory.lt(y, x))
    res = solver.is_valid_quantified([("forall", [x]), ("exists", [y])], phi)
    assert res.status == "invalid"


def test_nonlinear_reports_unknown(solver):
    phi = theory.eq(theory.mul(x, y), 7)
    assert solver.is_satisfiable(phi).status == "unknown"


# --- differential tests ------------------------------------------------------

def random_linear_constraint(rng, nvars=3, natoms=3):
    vs = [x, y, z][:nvars]

    def atom():
        coeffs = [rng.randint(-3, 3) for _ in vs]
        lhs = int_val(rng.randint(-4, 4))
        for v, c in zip(vs, coeffs):
            lhs = theory.add(lhs, theory.mul(c, v))
        rel = rng.choice([theory.lt, theory.le, theory.gt, theory.ge, theory.eq, theory.ne])
        return rel(lhs, rng.randint(-8, 8))

    phi = atom()
    for _ in range(natoms - 1):
        join = rng.choice([theory.conj, disj, theory.imp])
        phi = join(phi, atom())
    return phi


def enumerate_box(phi, bound):
    vs = sorted(variables(phi), key=lambda v: v.name)
    for vals in itertools.product(range(-bound, bound + 1), repeat=len(vs)):
        yield {v: int_val(c) for v, c in zip(vs, vals)}


def test_validity_agrees_with_bounded_enumeration():
    rng = random.Random(42)
    solver = ConstraintSolver()
    for _ in range(150):
        phi = random_linear_constraint(rng)
        res = solver.is_valid(phi)
        if res.status == "valid":
            for sigma in enumerate_box(phi, 12):
                assert theory.holds(apply_subst(sigma, phi)), (phi, sigma)
        else:
            assert res.status == "invalid"
            assert not theory.holds(apply_subst(res.assignment, phi))


def test_sat_agrees_with_bounded_enumeration():
    rng = random.Random(43)
    solver = ConstraintSolver()
    for _ in range(150):
        phi = random_linear_constraint(rng)
        res = solver.is_satisfiable(phi)
        if res.status == "sat":
            assert theory.holds(apply_subst(res.assignment, phi))
        else:
            assert res.status == "unsat"
            for sigma in enumerate_box(phi, 12):
                assert not theory.holds(apply_subst(sigma, phi)), (phi, sigma)


def test_elimination_matches_witness_window_oracle():
    """exists-x elimination vs direct search over the certified window.

    For fixed values of the other variables, any satisfying x can be taken
    among the boundary points shifted by 1..period, or below every boundary
    point within one period (the minus-infinity disjunct), so checking that
    window is an exact oracle.
    """
    rng = random.Random(44)
    for _ in range(120):
        phi = random_linear_constraint(rng, nvars=3, natoms=3)
        f = cooper.formula_of(phi)
        eliminated = cooper.eliminate_int("x", f)
        for _ in range(8):
            env = {"y": rng.randint(-6, 6), "z": rng.randint(-6, 6)}
            got = cooper.eval_formula(eliminated, env) if cooper.formula_vars(eliminated) <= {"y", "z"} else None
            if got is None:
                continue
            want = _exists_x_by_window(f, env)
            assert got == want, (phi, env)


def _defined_conjunction(rng):
    """A conjunction of an equality c*x + a*y + b*z + k = 0 with |c| in
    1..4, a disjunction of two atoms and one atom, where every atom may be a
    (non-)divisibility; coefficients lie in -3..3 and constants in -6..6."""

    def linear(cx):
        return cooper.lin({"x": cx, "y": rng.randint(-3, 3), "z": rng.randint(-3, 3), "": rng.randint(-6, 6)})

    def atom():
        tag = rng.choice(["lt", "eq", "ne", "dvd", "ndvd"])
        l = linear(rng.randint(-3, 3))
        return cooper.simplify((tag, rng.randint(2, 4), l) if tag in ("dvd", "ndvd") else (tag, l))

    parts = [cooper.simplify(("eq", linear(rng.choice([1, 2, 3, 4]) * rng.choice([1, -1])))), cooper.mk_or((atom(), atom())), atom()]
    rng.shuffle(parts)
    return cooper.mk_and(tuple(parts))


def test_equality_elimination_matches_brute_force():
    """exists-x of a conjunction with an equality on x, against a search
    over x in -36..36: for y, z in -5..5 the equality admits only x with
    |c*x| <= 3*5 + 3*5 + 6, so the search window is certified."""
    rng = random.Random(45)
    checked = 0
    for _ in range(600):
        f = _defined_conjunction(rng)
        eliminated = cooper.eliminate_int("x", f)
        assert "x" not in cooper.formula_vars(eliminated), f
        for _ in range(6):
            env = {"y": rng.randint(-5, 5), "z": rng.randint(-5, 5)}
            want = any(cooper.eval_formula(f, {**env, "x": v}) for v in range(-36, 37))
            assert cooper.eval_formula(eliminated, env) == want, (f, env)
            checked += 1
    assert checked == 3600


def test_an_equality_defined_variable_is_eliminated_first(monkeypatch):
    """In a block, the variable that an equality defines with coefficient 1
    goes before one defined with coefficient 3 and before the others, so
    no boundary-point expansion runs: the eliminations see at most the
    input's four atoms."""
    f = cooper.mk_and((
        ("eq", cooper.lin({"": -1, "x": -1, "y": -3, "z": 1})),
        cooper.mk_or((("dvd", 3, cooper.lin({"z": 1})), ("ne", cooper.lin({"": -5, "x": 3, "y": 3, "z": -2})))),
        ("ndvd", 4, cooper.lin({"": 1, "x": 2, "y": 1, "z": 2})),
    ))
    order, sizes = [], []
    real = cooper.eliminate_int

    def recording(name, g):
        if name not in order:
            order.append(name)
        sizes.append(len(cooper.atoms(g)))
        return real(name, g)

    monkeypatch.setattr(cooper, "eliminate_int", recording)
    assert cooper.eliminate_exists([("y", "int"), ("z", "int"), ("x", "int")], f) == cooper.TRUE
    assert order[0] == "x"
    assert max(sizes) <= 4


def _as_term(f, fresh):
    """The formula as a constraint term, each (non-)divisibility d | l
    spelled as l = d*w (l = d*w + k with 0 < k < d) over fresh variables,
    so that the term is satisfiable exactly when f is."""
    tag = f[0]
    if tag in ("true", "false"):
        return bool_val(tag == "true")
    if tag == "and":
        return theory.conj(*(_as_term(g, fresh) for g in f[1]))
    if tag == "or":
        return disj(*(_as_term(g, fresh) for g in f[1]))
    total = int_val(0)
    for name, c in f[-1]:
        total = theory.add(total, int_val(c) if name == "" else theory.mul(c, Var(name, INT)))
    if tag in ("lt", "eq", "ne"):
        return {"lt": theory.lt, "eq": theory.eq, "ne": theory.ne}[tag](total, 0)
    w = Var(f"w{next(fresh)}", INT)
    if tag == "dvd":
        return theory.eq(total, theory.mul(f[1], w))
    k = Var(f"w{next(fresh)}", INT)
    return theory.conj(theory.eq(total, theory.add(theory.mul(f[1], w), k)), theory.lt(0, k), theory.lt(k, f[1]))


def test_sat_and_models_of_defined_conjunctions_agree_with_enumeration():
    """decide_sat and find_model on the same kind of formulas: a model is
    one, no model means none in the box y, z in -3..3 (where the equality
    bounds x to -24..24), and decide_sat on the formula spelled as a term
    answers whether find_model found one."""
    rng = random.Random(46)
    kinds = {True: 0, False: 0}
    for _ in range(200):
        f = _defined_conjunction(rng)
        model = cooper.find_model(f, [x, y, z])
        sat = cooper.decide_sat(_as_term(f, itertools.count()))
        assert sat == (model is not None), f
        if model is not None:
            assert cooper.eval_formula(f, {v.name: value_of(t) for v, t in model.items()}), (f, model)
        else:
            box = itertools.product(range(-24, 25), range(-3, 4), range(-3, 4))
            assert not any(cooper.eval_formula(f, {"x": a, "y": b, "z": c}) for a, b, c in box), f
        kinds[sat] += 1
    assert min(kinds.values()) > 20, kinds


def _exists_x_by_window(f, env):
    coeffs = [
        cooper.lcoeff(a[-1], "x")
        for a in cooper.atoms(f)
        if a[0] not in ("bvar", "nbvar") and cooper.lcoeff(a[-1], "x")
    ]
    if not coeffs:
        return cooper.eval_formula(f, env)
    import math

    unit = math.lcm(*(abs(c) for c in coeffs))
    bounds = []
    for a in cooper.atoms(f):
        if a[0] in ("bvar", "nbvar"):
            continue
        l = a[-1]
        if cooper.lcoeff(l, "x") == 0:
            continue
        rest = sum(c if v == "" else c * env[v] for v, c in l if v != "x")
        bounds.append(rest)
    # candidate x's: around every scaled boundary point, plus one period below
    window = set()
    for r in bounds:
        for j in range(-2 * unit - 2, 2 * unit + 3):
            for c in coeffs:
                window.add((-r + j) // abs(c))
                window.add((r + j) // abs(c))
    low = min(window, default=0) - unit - 1
    window |= {low - j for j in range(0, unit + 1)}
    return any(cooper.eval_formula(f, {**env, "x": xv}) for xv in window)


def test_search_model_prefers_small():
    sigma = search_model(theory.gt(x, 5))
    assert sigma[x] == int_val(6)


def test_find_model_gives_value_terms_and_defaults():
    b = Var("b", BOOL)
    f = cooper.formula_of(theory.gt(x, 5))
    assert cooper.find_model(f, [x, y, b]) == {x: int_val(6), y: int_val(0), b: bool_val(False)}
    assert cooper.find_model(cooper.formula_of(theory.lt(x, x)), [x]) is None


@settings(max_examples=150)
@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
)
def test_formula_translation_matches_direct_evaluation(a, b, c, vx, vy, vz):
    phi = disj(
        theory.le(theory.add(theory.mul(a, x), theory.mul(b, y)), c),
        theory.conj(theory.ne(x, z), theory.ge(theory.mul(c, z), theory.sub(y, a))),
    )
    env = {"x": vx, "y": vy, "z": vz}
    sigma = {x: int_val(vx), y: int_val(vy), z: int_val(vz)}
    assert cooper.eval_formula(cooper.formula_of(phi), env) == theory.holds(apply_subst(sigma, phi))


# --- models on demand ----------------------------------------------------------

def _counting_search_model(monkeypatch):
    calls = []
    real = logic.search_model

    def counted(phi, *args, **kwargs):
        calls.append(phi)
        return real(phi, *args, **kwargs)

    monkeypatch.setattr(logic, "search_model", counted)
    return calls


def test_model_built_once_on_first_read(monkeypatch):
    calls = _counting_search_model(monkeypatch)
    solver = ConstraintSolver()
    phi = theory.conj(theory.gt(x, 2), theory.lt(y, x))
    res = solver.is_satisfiable(phi)
    assert res.status == "sat" and calls == []
    first = res.assignment
    assert first is res.assignment
    assert solver.is_satisfiable(phi).assignment is first
    assert len(calls) == 1
    assert theory.holds(apply_subst(first, phi))


def test_counter_model_shares_the_sat_model(monkeypatch):
    calls = _counting_search_model(monkeypatch)
    solver = ConstraintSolver()
    phi = theory.gt(x, 0)
    res = solver.is_valid(phi)
    assert res.status == "invalid" and calls == []
    assert res.assignment is solver.is_satisfiable(theory.neg(phi)).assignment
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["calc_chain.lctrs", "guarded_swap.lctrs"])
def test_analysis_builds_one_model_per_oracle_constraint(monkeypatch, name):
    """The constrained oracle reads one model of each constraint it runs
    under; no counter-model of a validity query is ever built.  The closing
    checks of every pair, trivial ones included, run after analyze."""
    want = analyze(corpus_system(name), ConstraintSolver())
    calls = _counting_search_model(monkeypatch)
    under = set()
    real_oracle = rewriting.constrained_oracle

    def recording_oracle(phi, *args):
        under.add(phi)
        return real_oracle(phi, *args)

    monkeypatch.setattr(rewriting, "constrained_oracle", recording_oracle)
    solver = _RecordingSolver()
    system = corpus_system(name)
    got = analyze(system, solver)
    run_every_closing_check(system, got, solver)
    assert (got.result, got.criterion, got.reasons) == (want.result, want.criterion, want.reasons)
    assert calls and len(calls) == len(set(calls))
    assert set(calls) <= under
    invalid = {phi for res, phi in solver.asked.values() if res.status == "invalid"}
    assert invalid and not {theory.neg(phi) for phi in invalid} & set(calls)


@pytest.mark.parametrize("name", ["calc_chain.lctrs", "guarded_swap.lctrs"])
def test_one_analysis_asks_each_oracle_question_once(monkeypatch, name):
    """Each (constraint, subterm) question reaches the constrained oracle's
    rule index once per analysis: one oracle per constraint, which keeps
    the redexes it found for each subterm."""
    from collections import Counter

    want = analyze(corpus_system(name), ConstraintSolver())
    asked = Counter()
    building = []  # the constraint whose oracle is being built
    real_oracle, real_constrained = rewriting._oracle, rewriting.constrained_oracle

    class CountingIndex:
        def __init__(self, index, phi):
            self.index, self.phi = index, phi

        def generalizations(self, sub):
            asked[self.phi, sub] += 1
            return self.index.generalizations(sub)

    def constrained(phi, *args):
        building.append(phi)
        try:
            return real_constrained(phi, *args)
        finally:
            building.pop()

    def counting_oracle(rules, index, instances):
        if building:
            index = CountingIndex(index, building[-1])
        return real_oracle(rules, index, instances)

    monkeypatch.setattr(rewriting, "constrained_oracle", constrained)
    monkeypatch.setattr(rewriting, "_oracle", counting_oracle)
    got = analyze(corpus_system(name), ConstraintSolver())
    assert (got.result, got.criterion, got.reasons) == (want.result, want.criterion, want.reasons)
    assert len(asked) > 10
    assert max(asked.values()) == 1


class _RecordingSolver(ConstraintSolver):
    """Keeps the formula of every query next to its verdict.  An unknown
    verdict that is_valid passes on keeps its is_satisfiable record."""

    def __init__(self):
        super().__init__()
        self.asked = {}

    def is_satisfiable(self, phi):
        res = super().is_satisfiable(phi)
        self.asked[id(res)] = (res, phi)
        return res

    def is_valid(self, phi):
        res = super().is_valid(phi)
        self.asked.setdefault(id(res), (res, phi))
        return res


@pytest.mark.parametrize("name", ["calc_chain.lctrs", "guarded_swap.lctrs"])
def test_memoised_models_check_out(name):
    """The analyzer's own sat/invalid answers, cross-checked by their models
    (the corpus asks no quantified queries), for analyze and the closing
    checks of every pair, trivial ones included."""
    solver = _RecordingSolver()
    system = corpus_system(name)
    run_every_closing_check(system, analyze(system, solver), solver)
    assert {id(res) for res in solver._memo.values()} == solver.asked.keys()
    statuses = set()
    for res, phi in solver.asked.values():
        statuses.add(res.status)
        if res.status == "sat":
            assert theory.holds(apply_subst(res.assignment, phi)), phi
        elif res.status == "invalid":
            assert not theory.holds(apply_subst(res.assignment, phi)), phi
    assert {"sat", "invalid"} <= statuses


@pytest.mark.parametrize(
    "phi",
    [theory.eq(theory.mul(x, y), 7), theory.conj(theory.gt(x, 0), theory.lt(x, 0))],
    ids=["nonlinear", "linear-unsat"],
)
def test_external_sat_without_model(tmp_path, phi):
    bare = tmp_path / "bare_sat.py"
    bare.write_text("import sys; sys.stdin.read(); print('sat')\n")
    res = ConstraintSolver(smt_command=f"{sys.executable} {bare}").smt_backend(phi)
    assert res.status == "unknown"
    assert "model failed re-validation" in res.reason


def test_external_partial_model_completed_with_defaults(tmp_path):
    """A variable the reply leaves out takes 0, as under z3's model completion."""
    partial = tmp_path / "partial_sat.py"
    partial.write_text("import sys; sys.stdin.read(); print('sat'); print('(model (define-fun x () Int 1))')\n")
    phi = disj(theory.eq(x, 1), theory.gt(theory.mul(y, y), 3))
    res = ConstraintSolver(smt_command=f"{sys.executable} {partial}").smt_backend(phi)
    assert res.status == "sat"
    assert res.assignment == {x: int_val(1), y: int_val(0)}
