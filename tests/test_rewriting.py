import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lctrs import analysis, logic, rewriting, rules, theory
from lctrs.analysis import analyze, ccps
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse
from lctrs.rules import ConstrainedRule, Lctrs, Signature, calc_rules
from lctrs.rewriting import (
    MULTI_NESTING,
    ConstrainedTerm,
    RewriteConfig,
    breadth_first,
    constrained_oracle,
    constrained_redexes,
    cstep,
    cstep_tilde,
    domain_terms,
    equiv_extensions,
    constrained_steps,
    multi_steps,
    parallel_steps,
    parallel_tilde,
    redexes,
    single_steps,
)
from lctrs.terms import (
    App,
    BOOL,
    INT,
    Var,
    apply_subst,
    int_val,
    positions,
    replace_at,
    sort_of,
    subterm_at,
    term_key,
    variables,
)

from tests.conftest import (
    CORPUS,
    LINEAR_ATOM,
    equiv,
    linear_atom,
    plain_multi_successors,
    plain_parallel_successors,
    plain_successors,
    run_every_closing_check,
)

CFG = RewriteConfig()
x, y, z, m, n = (Var(name, INT) for name in "xyzmn")


def sym(lctrs, name):
    return lctrs.signature.term_syms[name]


def app(lctrs, name, *args):
    return App(sym(lctrs, name), tuple(args))


# --- calculation rules ---------------------------------------------------------

def test_calc_rule_for_addition():
    rules = {r.lhs.sym.name: r for r in calc_rules() if r.lhs.sym.arg_sorts == (INT, INT)}
    plus = rules["+"]
    x1, x2 = plus.lhs.args
    assert plus.rhs == Var("y", INT)
    assert plus.guard == theory.eq(Var("y", INT), theory.add(x1, x2))
    assert plus.calc


def test_calc_rule_for_conjunction():
    ands = [r for r in calc_rules() if r.lhs.sym == theory.AND]
    assert len(ands) == 1
    assert ands[0].guard == theory.eq(ands[0].rhs, ands[0].lhs)


# --- plain steps -------------------------------------------------------------

def test_plain_step_calc_chain_root(calc_chain):
    t = app(calc_chain, "f", app(calc_chain, "a"))
    results = {r for r, _ in plain_successors(t, calc_chain)}
    assert app(calc_chain, "g", int_val(4), int_val(4)) in results


def test_plain_step_single_value(single_value):
    results = {r for r, _ in plain_successors(app(single_value, "a"), single_value)}
    assert results == {int_val(0)}


def test_plain_step_calculation_exact(single_value):
    results = {r for r, _ in plain_successors(theory.add(1, 1), single_value)}
    assert results == {int_val(2)}


def test_plain_step_replay(calc_chain):
    t = app(calc_chain, "f", app(calc_chain, "g", theory.add(1, 1), int_val(4)))
    for result, (position, rule, sigma) in plain_successors(t, calc_chain):
        from lctrs.terms import replace_at

        again = replace_at(t, {position: apply_subst(sigma, rule.rhs)})
        assert again == result


# --- constrained steps -------------------------------------------------------

def test_cstep_parity_normal_form(parity, solver):
    ct = ConstrainedTerm(
        app(parity, "g", x), theory.conj(theory.le(1, x), theory.le(x, 2))
    )
    assert cstep(ct, parity, solver) == []
    assert cstep_tilde(ct, parity, solver) == []


def test_cstep_rule_variable_named_like_constraint_variable(solver):
    """f(x) -> g(x) [x > 0] on f(x) [x > 5]: the rule's x is bound by the
    match, so it is not a logical variable left to instantiate."""
    sig = Signature()
    f, g = sig.add_fun("f", [INT], INT), sig.add_fun("g", [INT], INT)
    system = Lctrs(sig, (ConstrainedRule(App(f, (x,)), App(g, (x,)), theory.gt(x, 0)),))
    phi = theory.gt(x, 5)
    results = [res for res, _ in cstep(ConstrainedTerm(App(f, (x,)), phi), system, solver)]
    assert results == [ConstrainedTerm(App(g, (x,)), phi)]


def test_guard_blowup_falls_back_to_the_domain_product():
    """f(x) -> g(y, z) [guard] on f(0): the guard is evaluated on each of the
    81 domain pairs for y and z, which gives every successor; no model
    search runs, however large the product."""
    sig = Signature()
    f, g = sig.add_fun("f", [INT], INT), sig.add_fun("g", [INT, INT], INT)
    vals = range(-4, 5)
    for guard, wanted in (
        (theory.le(y, z), {(b, c) for b in vals for c in vals if b <= c}),
        (theory.conj(theory.lt(x, y), theory.lt(y, z)), {(b, c) for b in vals for c in vals if 0 < b < c}),
    ):
        system = Lctrs(sig, (ConstrainedRule(App(f, (x,)), App(g, (y, z)), guard),))
        results = [r for r, _ in plain_successors(App(f, (int_val(0),)), system, CFG)]
        assert len(results) == len(wanted)
        assert set(results) == {App(g, (int_val(b), int_val(c))) for b, c in wanted}


def _one_rule(lhs_args, rhs_args, guard):
    """The system f(lhs_args) -> g(rhs_args) [guard] over the integers."""
    sig = Signature()
    f = sig.add_fun("f", [INT] * len(lhs_args), INT)
    g = sig.add_fun("g", [INT] * len(rhs_args), INT)
    return Lctrs(sig, (ConstrainedRule(App(f, tuple(lhs_args)), App(g, tuple(rhs_args)), guard),)), f, g


@pytest.mark.parametrize(
    "names, bounded",
    [
        pytest.param("abc", False, id="abc"),
        pytest.param("abcd", False, id="abcd"),
        pytest.param("abcd", True, id="abcd-bounded"),
    ],
)
def test_more_unbound_variables_than_the_cap_give_no_redex(names, bounded, solver):
    """f(x) -> g(a, b, ..) on f(1): with each variable defined by an equation
    v = x, none is free, and both plain and constrained steps find g(1, ..),
    with three variables or four.  Bounded by x - 1 < v < x + 1 alone, four
    variables stay free, more than rewriting.MAX_UNBOUND, and neither step
    finds a redex."""
    assert rewriting.MAX_UNBOUND == 3
    unbound = [Var(name, INT) for name in names]
    if bounded:
        bounds = [(theory.gt(v, theory.sub(x, 1)), theory.lt(v, theory.add(x, 1))) for v in unbound]
        guard = theory.conj(*(part for pair in bounds for part in pair))
    else:
        guard = theory.conj(*(theory.eq(v, x) for v in unbound))
    system, f, g = _one_rule([x], unbound, guard)
    t = App(f, (int_val(1),))
    wanted = [] if bounded else [App(g, (int_val(1),) * len(names))]
    assert [r for r, _ in plain_successors(t, system)] == wanted
    assert [res.term for res, _ in cstep(ConstrainedTerm(t), system, solver)] == wanted


def test_unbound_variable_named_like_a_constraint_variable(solver):
    """f(n) -> g(m) [m + 1 = n] on f(m) [m = 3]: the rule's m is chosen, the
    constraint's m is 3, so the only step is to g(2)."""
    system, f, g = _one_rule([n], [m], theory.eq(theory.add(m, 1), n))
    phi = theory.eq(m, 3)
    results = [res for res, _ in cstep(ConstrainedTerm(App(f, (m,)), phi), system, solver)]
    assert results == [ConstrainedTerm(App(g, (int_val(2),)), phi)]


def test_nonlinear_guard_is_decided_per_value(solver):
    """f(n) -> g(m) [m * m = n]: the guard is linear only once m is a value."""
    system, f, g = _one_rule([n], [m], theory.eq(theory.mul(m, m), n))
    ground = [res.term for res, _ in cstep(ConstrainedTerm(App(f, (int_val(4),))), system, solver)]
    assert ground == [App(g, (int_val(-2),)), App(g, (int_val(2),))]
    phi = theory.eq(m, 9)
    guarded = [res.term for res, _ in cstep(ConstrainedTerm(App(f, (m,)), phi), system, solver)]
    assert guarded == [App(g, (int_val(-3),)), App(g, (int_val(3),))]


def test_matches_with_one_guard_share_one_model(monkeypatch):
    """k(f(x), f(x)) [x > 0] under f(n) -> g(m) [0 <= m < n]: both matches
    are decided under the same model of x > 0, which is built once."""
    sig = Signature()
    f, g = sig.add_fun("f", [INT], INT), sig.add_fun("g", [INT], INT)
    k = sig.add_fun("k", [INT, INT], INT)
    guard = theory.conj(theory.le(0, m), theory.lt(m, n))
    system = Lctrs(sig, (ConstrainedRule(App(f, (n,)), App(g, (m,)), guard),))
    calls = []
    real = logic.search_model
    monkeypatch.setattr(logic, "search_model", lambda *args: calls.append(args) or real(*args))
    fx = App(f, (x,))
    ct = ConstrainedTerm(App(k, (fx, fx)), theory.gt(x, 0))
    results = [res.term for res, _ in cstep(ct, system, ConstraintSolver())]
    g0 = App(g, (int_val(0),))
    assert results == [App(k, (g0, fx)), App(k, (fx, g0))]
    assert calls == [(ct.constraint,)]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.sampled_from(["p", "u", "w"]), min_size=1, max_size=2, unique=True),
    st.lists(LINEAR_ATOM, min_size=1, max_size=2),
    st.lists(LINEAR_ATOM, min_size=1, max_size=2),
)
@example(  # a - p = 1 with a bound to the constraint's p = 1: the rule's p is 0
    1, ["p", "u"], [([1, 0, 0, 0, 0], theory.eq, 1)], [([1, -1, 0, 0, 0], theory.eq, 1), ([0, 1, 1, 0, 0], theory.ge, 0)]
)
@example(  # p <= -1 and p >= 1 has no model: no redex, and no oracle is built
    1, ["u"], [([1, 0, 0, 0, 0], theory.le, -1), ([1, 0, 0, 0, 0], theory.ge, 1)], [([1, 1, 0, 0, 0], theory.eq, 3)]
)
def test_oracle_accepts_exactly_the_valid_instances(arity, unbound_names, phi_atoms, guard_atoms):
    """f(a, b, ..) -> g(unbound) [guard] on f(p, q, ..) [phi]: under a
    satisfiable phi the redexes are the candidate choices for which
    phi => guard*sigma is valid, and under any other phi there are none.
    An unbound variable named p shares its name with a constraint variable.
    Every validity query the oracle asks holds in phi's model: a choice that
    the model refutes costs none."""
    cvars = [Var(name, INT) for name in "pqr"[:arity]]
    lhs_vars = [Var(name, INT) for name in "abc"[:arity]]
    unbound = [Var(name, INT) for name in sorted(unbound_names)]
    phi = theory.conj(*(linear_atom(cs, cvars, op, k) for cs, op, k in phi_atoms))
    assume(variables(phi) == set(cvars))  # the match binds a, b, .. to constraint variables
    guard = theory.conj(*(linear_atom(cs, lhs_vars + unbound, op, k) for cs, op, k in guard_atoms))
    system, f, _g = _one_rule(lhs_vars, unbound, guard)
    config = RewriteConfig(lo=-1, hi=1)
    solver = ConstraintSolver()
    (rule,) = system.rules
    sigma0 = dict(zip(lhs_vars, cvars))
    phi_vars = sorted(variables(phi), key=lambda v: v.name)
    options = [list(dict.fromkeys([*phi_vars, *domain_terms(system, config)[INT]]))] * len(unbound)  # the candidates
    sigmas = [{**sigma0, **dict(zip(unbound, choice))} for choice in itertools.product(*options)]
    wanted = [sigma for sigma in sigmas if solver.is_valid(theory.imp(phi, apply_subst(sigma, guard))).is_valid]
    oracle_solver = _QueryLog()
    found = constrained_redexes(ConstrainedTerm(App(f, tuple(cvars)), phi), system, oracle_solver, config)
    sat = oracle_solver.is_satisfiable(phi)
    def bindings(sigma):
        return sorted((v.name, term_key(t)) for v, t in sigma.items())

    assert sorted(bindings(sigma) for _p, _rule, sigma in found) == sorted(map(bindings, wanted if sat.is_sat else []))
    for query in oracle_solver.valid_queries:
        premise, conclusion = query.args
        assert premise == phi
        assert theory.holds(apply_subst(sat.assignment, conclusion)), query


class _QueryLog(ConstraintSolver):
    """Keeps every validity query it is asked."""

    def __init__(self):
        super().__init__()
        self.valid_queries = []

    def is_valid(self, phi):
        self.valid_queries.append(phi)
        return super().is_valid(phi)


def _oracle_systems():
    """Fresh copies of the corpus systems and of the generated PCP systems
    of tests/golden, which were recorded at the default value domain."""
    from lctrs.pcp import PCPInstance, build_rp
    from tests.test_golden import GEN_PCP

    out = [(path.stem, parse(path.read_text())) for path in sorted(CORPUS.glob("*.lctrs"))]
    return out + [(name, build_rp(PCPInstance.parse(pairs))) for name, pairs in sorted(GEN_PCP.items())]


def test_computed_candidates_give_the_redexes_of_the_full_list(monkeypatch):
    """Under every critical pair of the corpus and of the generated PCP
    systems, and every equivalent reformulation of one, the constrained
    oracle finds the same redexes in the same order as it does when no guard
    equation defines a variable (rules._definitions switched off), trying
    every candidate."""
    systems = _oracle_systems()
    assert len(systems) == 13
    assert any(rule.assignments.free < len(rule.lvar_split[1]) for _, system in systems for rule in system.rules)
    pairs = {
        name: [e for ccp in ccps(system, ConstraintSolver()) for e in equiv_extensions(ccp.pair())]
        for name, system in systems
    }

    def all_redexes():
        out = {}
        for name, system in _oracle_systems():  # fresh systems: each keeps its oracles
            solver = ConstraintSolver()
            out[name] = [constrained_redexes(ct, system, solver, CFG) for ct in pairs[name]]
        return out

    with_definitions = all_redexes()
    monkeypatch.setattr(rules, "_definitions", lambda parts, vs: {})
    assert all_redexes() == with_definitions
    assert sum(len(found) for per_pair in with_definitions.values() for found in per_pair) > 20


def test_pcp_oracle_tries_at_most_one_candidate_per_match(monkeypatch):
    """On pcp_101 each instances call of the constrained oracle evaluates
    the guard for at most one candidate choice: the guard's equation
    3*m + k = n gives the one value of m that the constraint's model admits.
    The guard is evaluated in the rule's assignment procedure, one compiled
    check per level of its walk; each check runs at most once per call.
    The closing checks of every pair, trivial ones included, run after
    analyze."""
    tried = []  # per instances call: how often each compiled guard check ran
    real_evaluator, real_oracle = theory.evaluator, rewriting._oracle

    def counting_evaluator(phi, vs):
        run = real_evaluator(phi, vs)

        def counted(env):
            if tried and tried[-1] is not None and sort_of(phi) == BOOL:
                tried[-1][counted] = tried[-1].get(counted, 0) + 1
            return run(env)

        return counted

    def counting_oracle(rules, index, instances):
        def counted(*args):
            tried.append({})
            try:
                return instances(*args)
            finally:
                tried.append(None)  # evaluations outside instances calls are not counted

        return real_oracle(rules, index, counted)

    monkeypatch.setattr(theory, "evaluator", counting_evaluator)
    monkeypatch.setattr(rewriting, "_oracle", counting_oracle)
    system, solver = parse((CORPUS / "pcp_101.lctrs").read_text()), ConstraintSolver()
    verdict = analyze(system, solver)
    assert verdict.result == "MAYBE"
    run_every_closing_check(system, verdict, solver)
    constrained = [max(counts.values()) for counts in tried if counts]
    assert len(constrained) >= 40
    assert max(constrained) == 1


def test_pcp_analysis_builds_each_value_domain_once(monkeypatch):
    """One analyze on pcp_101 builds the value domain once per config: the
    constrained oracles, the ground fragment and the NO search's pair
    instances share the one kept on the system."""
    built = []
    real_int_domain = RewriteConfig.int_domain
    def counted(config, lctrs):
        built.append(config)
        return real_int_domain(config, lctrs)

    monkeypatch.setattr(RewriteConfig, "int_domain", counted)
    system = parse((CORPUS / "pcp_101.lctrs").read_text())
    assert analyze(system, ConstraintSolver()).result == "MAYBE"
    assert built and len(built) == len(set(built))


def test_cstep_calculation_with_defined_variable(single_value, solver):
    phi = theory.conj(theory.eq(z, theory.add(x, 1)), theory.gt(x, 3))
    ct = ConstrainedTerm(theory.add(x, 1), phi)
    results = {res.term for res, _ in cstep(ct, single_value, solver)}
    assert z in results
    for res, _ in cstep(ct, single_value, solver):
        assert res.constraint == phi  # the constraint is never modified


def test_cstep_swap_guard_entailment(swap, solver):
    ct = ConstrainedTerm(app(swap, "c", int_val(4), x), theory.eq(x, 2))
    results = {res.term for res, _ in cstep(ct, swap, solver)}
    assert app(swap, "g", int_val(4), int_val(2)) in results


def test_cstep_tilde_introduces_definition(single_value, solver):
    ct = ConstrainedTerm(theory.add(x, 1), theory.gt(x, 3))
    results = cstep_tilde(ct, single_value, solver)
    wanted = [
        res
        for res, _ in results
        if isinstance(res.term, Var) and res.term.sort == INT and res.term not in (x,)
    ]
    assert wanted, "calculation via a fresh defined variable"
    got = wanted[0]
    w = got.term
    assert got.constraint == theory.conj(theory.eq(w, theory.add(x, 1)), theory.gt(x, 3))


def test_cstep_tilde_projection_keeps_variables(projection, solver):
    lhs = projection.rules[0].lhs
    fxy = app(projection, "f", Var("x", next(iter(variables(lhs))).sort), Var("y", lhs.args[1].sort))
    ct = ConstrainedTerm(fxy)
    results = {res.term for res, _ in cstep_tilde(ct, projection, solver)}
    assert fxy.args[0] in results
    assert fxy.args[1] not in results


# --- equivalence -------------------------------------------------------------

def test_equiv_distinct_plain_variables(solver, single_value):
    assert equiv(ConstrainedTerm(x), ConstrainedTerm(y), solver) == "no"


def test_equiv_definitional_extension(solver):
    a = ConstrainedTerm(theory.add(x, 1), theory.gt(x, 3))
    b = ConstrainedTerm(
        theory.add(x, 1), theory.conj(theory.eq(z, theory.add(x, 1)), theory.gt(x, 3))
    )
    assert equiv(a, b, solver) == "yes"


def test_equiv_pair_of_variables(solver, projection):
    u = Var("u", projection.rules[0].lhs.args[0].sort)
    v = Var("v", u.sort)
    pair_y = app(projection, "f", v, v)
    pair_x = app(projection, "f", u, u)
    assert equiv(ConstrainedTerm(pair_y), ConstrainedTerm(pair_x), solver) == "no"


def test_equiv_extensions_cover_paper_shapes(solver, swap):
    exts = equiv_extensions(ConstrainedTerm(theory.add(x, 1), theory.gt(x, 3)))
    assert any(
        res.constraint != theory.gt(x, 3) for res in exts
    ), "definitional extension exists"
    only = equiv_extensions(ConstrainedTerm(app(swap, "c", x, y), theory.bool_val(True)))
    assert len(only) == 1  # no theory subterms: identity only

    gy = app(swap, "g", y, theory.mul(2, 2))
    exts = equiv_extensions(ConstrainedTerm(gy, theory.eq(y, 2)))
    assert any(
        theory.eq(Var("w", INT), theory.mul(2, 2)) in theory.conjuncts(res.constraint)
        for res in exts
    )
    for res in exts:
        assert equiv(ConstrainedTerm(gy, theory.eq(y, 2)), res, solver) == "yes"


# --- which steps an extension keeps --------------------------------------------

def test_an_extension_keeps_a_step_whose_sigma_binds_its_variable(solver):
    """Condition (b) of _base_takes: the step a -> b needs y = 2000, which
    only w (defined as 1000 + 1000) witnesses; 2000 lies outside the domain
    -4..4 and the literal 1000.  The result keeps f(u) and lacks w, but the
    base cannot take the step, so cstep_tilde keeps it."""
    system = parse(
        "(theory Ints)\n(sort U)\n(fun h (Int U) U)\n(fun a () U)\n(fun b () U)\n"
        "(rule a b :guard (= y (+ 1000 1000)))\n"
    )
    big = theory.add(1000, 1000)
    results = {res.term for res, _ in cstep_tilde(ConstrainedTerm(app(system, "h", big, app(system, "a"))), system, solver)}
    assert app(system, "h", big, app(system, "b")) in results


def test_an_extension_keeps_a_step_that_removes_its_definition(solver):
    """Condition (c) of _base_takes: p(1000 + 1000) -> g removes the defined
    subterm, so the base's g cannot be extended by w = 1000 + 1000 again,
    and g -> h needs y = 2000, which only w witnesses.  The extension's g is
    kept, and h lies two steps away."""
    system = parse(
        "(theory Ints)\n(sort U)\n(fun p (Int) U)\n(fun g () U)\n(fun h () U)\n"
        "(rule (p x) g)\n(rule g h :guard (= y (+ 1000 1000)))\n"
    )
    start = ConstrainedTerm(app(system, "p", theory.add(1000, 1000)))
    found = {node.term for node, _ in breadth_first(start, lambda ct: cstep_tilde(ct, system, solver), 2)}
    assert app(system, "h") in found


def test_the_steps_an_extension_drops_are_base_steps_extended_again(monkeypatch):
    """On every node that the corpus closing searches visit, each step that
    cstep_tilde drops from an extension (t, w = f(u) and phi) is a step of
    the base (t, phi) with the same redex, and the dropped node is an
    extension of the base's result by the same f(u), up to the name of w."""
    visited = {}
    real = analysis.cstep_tilde

    def recording(ct, lctrs, solver, config, below):
        visited.setdefault((ct, below, id(lctrs)), (ct, lctrs, solver, config, below))
        return real(ct, lctrs, solver, config, below)

    monkeypatch.setattr(analysis, "cstep_tilde", recording)
    for path in sorted(CORPUS.glob("*.lctrs")):
        system, solver = parse(path.read_text()), ConstraintSolver()
        run_every_closing_check(system, analyze(system, solver), solver)
    dropped = 0
    for ct, lctrs, solver, config, below in visited.values():
        base = constrained_steps(ct, single_steps, lctrs, solver, config, below)
        for e in equiv_extensions(ct)[1:]:
            w, fu = theory.conjuncts(e.constraint)[0].args
            for res, redex in constrained_steps(e, single_steps, lctrs, solver, config, below):
                if not rewriting._base_takes((res, redex), w, fu):
                    continue
                dropped += 1
                assert any(b.term == res.term and b_redex == redex for b, b_redex in base)
                again = []
                for ext in equiv_extensions(ConstrainedTerm(res.term, ct.constraint))[1:]:
                    w2, fu2 = theory.conjuncts(ext.constraint)[0].args
                    if fu2 is fu:
                        again.append(ext.constraint == apply_subst({w: w2}, res.constraint))
                assert again == [True]
    assert dropped > 50


def test_calc_chain_takes_53_tail_steps(monkeypatch):
    """analyze on calc_chain expands 53 tail nodes: an extension's steps
    that its base takes are not expanded a second time (110 before)."""
    calls = []
    real = analysis.cstep_tilde
    monkeypatch.setattr(analysis, "cstep_tilde", lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    system = parse((CORPUS / "calc_chain.lctrs").read_text())
    assert analyze(system, ConstraintSolver()).result == "YES"
    assert len(calls) == 53


# --- parallel steps ----------------------------------------------------------

def test_parallel_empty_step(calc_chain, solver):
    t = app(calc_chain, "f", app(calc_chain, "a"))
    results = plain_parallel_successors(t, calc_chain)
    assert (t, ()) in results


def test_parallel_two_calculations(calc_chain, solver):
    inner = app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1))
    ct = ConstrainedTerm(App(sym(calc_chain, "f"), (inner,)))
    results = parallel_tilde(ct, calc_chain, solver, below=(1,))
    target = app(calc_chain, "f", app(calc_chain, "g", int_val(2), int_val(4)))
    assert any(res.term == target and set(ps) == {(1, 1), (1, 2)} for res, ps in results)


def test_parallel_step_at_root(var_tracking, solver):
    yv = Var("y", var_tracking.rules[0].lhs.args[1].sort)
    ct = ConstrainedTerm(app(var_tracking, "f", app(var_tracking, "a"), yv))
    results = constrained_steps(ct, parallel_steps, var_tracking, solver)
    assert any(res.term == yv and ps == ((),) for res, ps in results)


def test_parallel_positions_replay_as_single_steps(calc_chain):
    t = app(calc_chain, "f", app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1)))
    singles = {(red[0], r) for r, red in plain_successors(t, calc_chain)}
    for result, pset in plain_parallel_successors(t, calc_chain):
        if len(pset) != 1:
            continue
        assert (pset[0], result) in singles


# --- multi-steps ---------------------------------------------------------------

def test_multi_reflexive(parity, solver):
    t = app(parity, "f", x)
    assert t in plain_multi_successors(t, parity)
    ct = ConstrainedTerm(t, theory.gt(x, 0))
    assert any(res.term == t for res, _ in constrained_steps(ct, multi_steps, parity, solver))


def test_multi_nested_collapse(swap, solver):
    # h(g(y, 2*2)) reaches g(4, y) in one multi-step: collapse h, swap g's
    # arguments and calculate the product, nested three deep
    phi = theory.conj(theory.eq(x, y), theory.eq(y, 2))
    t = app(swap, "h", app(swap, "g", y, theory.mul(2, 2)))
    results = {res.term for res, _ in constrained_steps(ConstrainedTerm(t, phi), multi_steps, swap, solver)}
    assert app(swap, "g", int_val(4), y) in results


def _multi_asking_the_oracle(t, redexes_at, depth):
    """Multi-step results of t, asking the oracle at every subterm reached:
    nested redex contraction up to depth levels."""
    memo = {}

    def go(s, budget):
        key = (s, budget)
        if key in memo:
            return memo[key]
        memo[key] = {s}  # cycle guard; overwritten below
        out = set()
        if isinstance(s, Var):
            out.add(s)
        else:
            for combo in itertools.product(*(go(a, budget) for a in s.args)):
                out.add(App(s.sym, combo))
            if budget > 0:
                for rule, sigma in redexes_at(s):
                    rvars = sorted(variables(rule.rhs), key=lambda v: v.name)
                    opts = [go(sigma[v], budget - 1) if v in sigma else {v} for v in rvars]
                    for picks in itertools.product(*opts):
                        out.add(apply_subst(dict(zip(rvars, picks)), rule.rhs))
        memo[key] = out
        return out

    return go(t, depth)


def test_multi_steps_find_every_redex_they_contract_in_the_found_list(solver):
    """Every subterm a multi-step contracts is a subterm of t|below, a value
    or a variable, so the redexes found under `below` give the same
    multi-steps as asking the oracle at every subterm reached, on both
    sides of every corpus critical pair, under its constraint and under
    true."""
    contracted = {}
    for path in sorted(CORPUS.glob("*.lctrs")):
        system = parse(path.read_text())
        for rec in ccps(system, solver):
            t = rec.pair().term
            for phi in (theory.bool_val(True), rec.constraint):
                oracle = constrained_oracle(phi, system, solver, CFG)
                for below in ((1,), (2,)):
                    wanted = sorted(_multi_asking_the_oracle(subterm_at(t, below), oracle, MULTI_NESTING), key=term_key)
                    got = multi_steps(t, redexes(t, oracle, below), below)
                    assert got == [(replace_at(t, {below: r}), None) for r in wanted]
                    contracted[path.stem] = contracted.get(path.stem, 0) + len(got) - 1
    assert {name for name, count in contracted.items() if count} == {
        "calc_chain", "guarded_swap", "two_positions", "var_tracking"
    }


def test_parallel_subset_of_multi(calc_chain, solver):
    t = app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1))
    par = {r for r, _ in plain_parallel_successors(t, calc_chain)}
    multi = plain_multi_successors(t, calc_chain)
    assert par <= multi


# --- bounded breadth-first search ------------------------------------------------

def test_breadth_first_levels_paths_and_laziness():
    expanded = []

    def steps(n):
        expanded.append(n)
        return [(n + 1, "+1"), (n + 2, "+2")]

    got = list(breadth_first(0, steps, 2))
    assert got == [
        (0, [(0, None)]),
        (1, [(0, None), (1, "+1")]),
        (2, [(0, None), (2, "+2")]),
        (3, [(0, None), (1, "+1"), (3, "+2")]),
        (4, [(0, None), (2, "+2"), (4, "+2")]),
    ]
    assert expanded == [0, 1, 2]  # the last level is yielded, never expanded
    expanded.clear()
    search = breadth_first(0, steps, 2)
    assert [next(search), next(search)] == got[:2]
    assert expanded == [0]  # nothing past what the caller took
    assert next(search) == got[2]
    assert expanded == [0]  # every node of level 1 taken, none of them expanded
    assert next(search) == got[3]
    assert expanded == [0, 1]
    assert list(breadth_first(0, steps, 0)) == [(0, [(0, None)])]


# --- instance soundness --------------------------------------------------------

def constraint_models(phi, lctrs, limit=20):
    """Assignments of the constraint variables over the finite domain."""
    domain = domain_terms(lctrs, CFG)
    vs = sorted(variables(phi), key=lambda v: v.name)
    out = []
    for combo in itertools.product(*(domain[v.sort] for v in vs)):
        sigma = dict(zip(vs, combo))
        if theory.holds(apply_subst(sigma, phi)):
            out.append(sigma)
            if len(out) >= limit:
                break
    return out


def test_cstep_instances_replay_on_ground_terms(swap, solver):
    phi = theory.eq(x, 2)
    ct = ConstrainedTerm(app(swap, "c", int_val(4), x), phi)
    for res, (position, _, _) in cstep(ct, swap, solver):
        for sigma in constraint_models(phi, swap):
            ground_from = apply_subst(sigma, ct.term)
            ground_to = apply_subst(sigma, res.term)
            succs = {(r, red[0]) for r, red in plain_successors(ground_from, swap)}
            assert (ground_to, position) in succs


def test_parallel_instances_replay(calc_chain, solver):
    inner = app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1))
    ct = ConstrainedTerm(App(sym(calc_chain, "f"), (inner,)))
    for res, pset in constrained_steps(ct, parallel_steps, calc_chain, solver):
        singles = dict()
        for r, (position, _, _) in plain_successors(ct.term, calc_chain):
            singles.setdefault(position, set()).add(r)
        # every recorded position is a genuine single-step redex
        for p in pset:
            assert p in singles


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.lctrs")), ids=lambda p: p.stem)
def test_redexes_below_a_position_are_the_redexes_there(path, solver):
    """Walking from `below` finds what filtering every redex of the term by
    the prefix `below` finds, with the plain and the constrained oracle."""
    system = parse(path.read_text())
    for rec in ccps(system, solver):
        ct = rec.pair()
        for phi in (theory.bool_val(True), ct.constraint):
            oracle = constrained_oracle(phi, system, solver, CFG)
            everywhere = redexes(ct.term, oracle)
            for q, _ in positions(ct.term):
                assert redexes(ct.term, oracle, q) == [red for red in everywhere if red[0][: len(q)] == q]
