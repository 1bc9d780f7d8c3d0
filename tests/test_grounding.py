import itertools
import random

import pytest

from lctrs import theory
from lctrs.analysis import CCPRecord, ccps
from lctrs.grounding import (
    check_cp_correspondence,
    check_step_equivalence,
    constraint_assignments,
    find_nonjoinable_peak,
    frag_successors,
    ground_fragment,
    joinable,
    pair_instances,
    reachable,
    trs_cps,
    trs_pcps,
)
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse
from lctrs.pcp import PCPInstance, build_rp
from lctrs.rewriting import RewriteConfig, domain_terms
from lctrs.rules import ConstrainedRule
from lctrs.terms import App, INT, Var, alpha_key, apply_subst, int_val, term_key, value_of, variables

from tests.conftest import CORPUS, LINEAR_OPS, REPO, frag_multi, linear_atom, trs_closedness_check
from tests.test_golden import GEN_PCP, GROUND, GROUND_HALF_WIDTHS

x = Var("x", INT)


def app(lctrs, name, *args):
    return App(lctrs.signature.term_syms[name], tuple(args))


def rule_keys(fragment):
    return {r.key() for r in fragment.rules}


FRAGMENT_SOURCES = sorted(CORPUS.glob("*.lctrs")) + sorted((REPO / "perfbench" / "inputs" / "ground").glob("*.lctrs"))


@pytest.mark.parametrize("path", FRAGMENT_SOURCES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_fragment_rules_equal_their_checked_construction(path):
    """The fragment's instances are built without the constructor's checks;
    each passes them and has the variables the constructor's rule has.
    The ground inputs run at their benchmark half-widths."""
    half = GROUND_HALF_WIDTHS.get(path.stem, 4)
    fragment = ground_fragment(parse(path.read_text()), RewriteConfig(lo=-half, hi=half))
    assert fragment.rules
    for rule in fragment.rules:
        checked = ConstrainedRule(rule.lhs, rule.rhs, rule.guard, rule.calc)
        assert rule == checked
        assert rule.variables() == checked.variables()
        assert (rule.lvar(), rule.evar(), rule.key()) == (checked.lvar(), checked.evar(), checked.key())


def test_single_value_fragment_is_one_rule(single_value):
    frag = ground_fragment(single_value)
    assert len(frag.rules) == 1
    assert frag.rules[0] == ConstrainedRule(app(single_value, "a"), int_val(0))
    assert trs_cps(frag) == []


def test_parity_fragment_rules(parity):
    frag = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    keys = rule_keys(frag)

    def k(lhs, rhs):
        return ConstrainedRule(lhs, rhs).key()

    assert k(app(parity, "f", x), app(parity, "g", x)) in keys
    assert k(app(parity, "f", int_val(1)), app(parity, "h", int_val(1))) in keys
    assert k(app(parity, "f", int_val(2)), app(parity, "h", int_val(2))) in keys
    for n in range(-3, 4):
        target = app(parity, "h", int_val(2 if n % 2 == 0 else 1))
        assert k(app(parity, "g", int_val(n)), target) in keys
    # nothing else: 3 f-shapes + one g-instance per domain value
    assert len(frag.rules) == 3 + 7


def test_fragment_monotone_in_domain(parity):
    small = rule_keys(ground_fragment(parity, RewriteConfig(lo=-2, hi=2)))
    large = rule_keys(ground_fragment(parity, RewriteConfig(lo=-4, hi=4)))
    assert small <= large


def test_parity_fragment_critical_pairs(parity):
    frag = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    cps = trs_cps(frag)
    keys = {alpha_key([c.left, c.right]) for c in cps}
    g1h1 = alpha_key([app(parity, "g", int_val(1)), app(parity, "h", int_val(1))])
    g2h2 = alpha_key([app(parity, "g", int_val(2)), app(parity, "h", int_val(2))])
    assert g1h1 in keys and g2h2 in keys
    assert len(cps) == 4  # the two pairs, both orientations


def test_disjoint_linear_lhs_have_no_parallel_pairs(single_value):
    frag = ground_fragment(single_value)
    assert trs_pcps(frag) == []


def test_joinable_examples(parity):
    frag = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    status, common = joinable(frag, app(parity, "g", int_val(1)), app(parity, "h", int_val(1)))
    assert status == "joinable" and common == app(parity, "h", int_val(1))
    t = app(parity, "h", int_val(0))
    assert joinable(frag, t, t)[0] == "joinable"


def test_joinable_disjoint_normal_forms(solver):
    from lctrs.rules import ConstrainedRule, Lctrs, Signature

    sig = Signature()
    a = sig.add_fun("a", [], INT)
    b = sig.add_fun("b", [], INT)
    c = sig.add_fun("c", [], INT)
    bad = Lctrs(sig, (ConstrainedRule(App(a), App(b)), ConstrainedRule(App(a), App(c))))
    frag = ground_fragment(bad)
    assert joinable(frag, App(b), App(c))[0] == "disjoint_normal_forms"
    assert find_nonjoinable_peak(frag, trs_cps(frag)) is not None


def test_reachable_closure_flag_at_the_bound():
    from lctrs.parser import parse

    chain = parse(
        "(theory Ints)\n(sort U)\n(fun a () U)\n(fun b () U)\n(fun c () U)\n(fun s (U) U)\n"
        "(rule a b)\n(rule b c)\n(rule (s a) (s (s a)))\n"
    )
    frag = ground_fragment(chain)
    a, b, c = (app(chain, n) for n in "abc")
    assert reachable(a, frag, 2) == ({a, b, c}, True)  # c is a normal form
    assert reachable(a, frag, 1) == ({a, b}, False)  # b -> c lies past the bound
    assert reachable(a, frag, 0) == ({a}, False)
    sa = app(chain, "s", a)
    reach, closed = reachable(sa, frag, 3)
    assert len(reach) == 1 + 2 + 3 + 3 and not closed  # by level; s(a) keeps growing
    assert joinable(frag, sa, app(chain, "s", c), 3)[0] == "joinable"
    assert joinable(frag, app(chain, "s", sa), c, 2)[0] == "not_within_bound"


def test_the_no_search_steps_each_term_once(monkeypatch):
    from collections import Counter

    from lctrs import grounding
    from lctrs.parser import parse

    # g(a, ..., a) -> c and a -> b: ten pairs, none decided within the
    # bound, whose reachable sets share most of their terms
    wide = parse(
        "(sort U)\n(fun a () U)\n(fun b () U)\n(fun c () U)\n"
        f"(fun g ({' '.join(['U'] * 10)}) U)\n(rule (g {' '.join(['a'] * 10)}) c)\n(rule a b)\n"
    )
    frag = ground_fragment(wide)
    stepped = Counter()
    single_steps = grounding.single_steps

    def counted(t, found):
        stepped[t] += 1
        return single_steps(t, found)

    monkeypatch.setattr(grounding, "single_steps", counted)
    assert find_nonjoinable_peak(frag, trs_cps(frag)) is None
    assert len(trs_cps(frag)) == 10 and len(stepped) > 1000
    assert max(stepped.values()) == 1


def test_a_side_shared_by_several_peaks_is_searched_once(monkeypatch):
    """pcp_101's 12 peaks have 24 sides but only 4 distinct terms: the NO
    search keeps each side's reachable set on the fragment, so it searches
    from each of the 4 once, and a second search from the same peaks
    searches nothing."""
    from lctrs import grounding

    system, solver = parse((CORPUS / "pcp_101.lctrs").read_text()), ConstraintSolver()
    fragment = ground_fragment(system)
    peaks = pair_instances(ccps(system, solver), fragment.domain)
    sides = [side for cp in peaks for side in (cp.left, cp.right)]
    assert (len(peaks), len(sides), len(set(sides))) == (12, 24, 4)
    searched = []
    breadth_first = grounding.breadth_first
    monkeypatch.setattr(grounding, "breadth_first", lambda start, *rest: searched.append(start) or breadth_first(start, *rest))
    assert find_nonjoinable_peak(fragment, peaks) is None
    assert find_nonjoinable_peak(fragment, peaks) is None
    assert sorted(searched, key=term_key) == sorted(set(sides), key=term_key)


def test_step_equivalence_examples(single_value, parity):
    frag = ground_fragment(single_value)
    assert {r for r, _ in frag_successors(app(single_value, "a"), frag)} == {int_val(0)}

    frag_p = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    got = {r for r, _ in frag_successors(app(parity, "f", int_val(2)), frag_p)}
    assert got == {app(parity, "g", int_val(2)), app(parity, "h", int_val(2))}


def test_calc_instances_follow_rule_symbols(calc_chain):
    frag = ground_fragment(calc_chain, RewriteConfig(lo=-2, hi=2))
    plus_instances = [r for r in frag.rules if isinstance(r.lhs, App) and r.lhs.sym == theory.ADD]
    assert plus_instances, "addition occurs in the rules, instances required"
    mul_instances = [r for r in frag.rules if isinstance(r.lhs, App) and r.lhs.sym == theory.MUL]
    assert not mul_instances, "multiplication never occurs in term sides"
    one_one = ConstrainedRule(theory.add(1, 1), int_val(2), calc=True)
    assert one_one.key() in rule_keys(frag)


def test_fragment_closedness_parity(parity):
    frag = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    report = trs_closedness_check(frag)
    assert report["almost_development_closed"]
    assert report["cp_count"] == 4


def test_fragment_closedness_calc_chain(calc_chain):
    frag = ground_fragment(calc_chain)
    report = trs_closedness_check(frag)
    assert report["parallel_closed_1"]
    assert report["parallel_closed_2"]


def test_fragment_pcp_calc_chain(calc_chain):
    frag = ground_fragment(calc_chain)
    pcps = trs_pcps(frag)
    want_left = app(calc_chain, "f", app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1)))
    want_right = app(calc_chain, "g", int_val(4), int_val(4))
    hits = [p for p in pcps if p.left == want_left and p.right == want_right]
    assert hits and hits[0].pset == ((1,),)


def test_multi_on_fragment(parity):
    frag = ground_fragment(parity, RewriteConfig(lo=-3, hi=3))
    assert app(parity, "h", int_val(1)) in frag_multi(app(parity, "g", int_val(1)), frag)


def test_correspondence_single_value(single_value, solver):
    report = check_cp_correspondence(single_value, solver)
    assert report.ok, report


def test_correspondence_parity(parity, solver):
    report = check_cp_correspondence(parity, solver, RewriteConfig(lo=-3, hi=3))
    assert report.ok, report


def test_correspondence_calc_chain(calc_chain, solver):
    report = check_cp_correspondence(calc_chain, solver)
    assert report.ok, report


def test_correspondence_var_tracking(var_tracking, solver):
    report = check_cp_correspondence(var_tracking, solver)
    assert report.ok, report


def test_correspondence_names_the_side_a_pair_is_missing_from(monkeypatch, solver):
    """check compares the fragment's non-trivial critical pairs with the
    peaks the NO search takes, so a peak lost or one too many is reported."""
    system = parse((CORPUS / "pcp_101.lctrs").read_text())
    assert check_cp_correspondence(system, solver).ok
    peaks = pair_instances(ccps(system, solver), ground_fragment(system).domain)
    monkeypatch.setattr("lctrs.grounding.pair_instances", lambda pairs, domain: peaks[1:])
    report = check_cp_correspondence(system, solver)
    assert report.violations == [f"fragment pair {peaks[0].key()} is no peak"]
    bogus = CCPRecord(int_val(100), int_val(101), theory.bool_val(True), peaks[0].position, int_val(100))
    monkeypatch.setattr("lctrs.grounding.pair_instances", lambda pairs, domain: [*peaks, bogus])
    report = check_cp_correspondence(system, solver)
    assert report.violations == [f"peak {bogus.key()} is no fragment pair"]


def test_step_equivalence_systems(single_value, parity, calc_chain, var_tracking, solver):
    for system in (single_value, parity, calc_chain, var_tracking):
        report = check_step_equivalence(system, solver)
        assert report.ok, report


THREE_PARTS = """(theory Ints)
(sort U)
(fun f (Int) U)
(fun g (Int Int Int) U)
(rule (f x) (g a b c) :guard (and (= (+ a (+ b c)) x) (and (> a 0) (and (> b 0) (> c 0)))))
"""


def test_assignments_prune_a_prefix_that_fails_a_conjunct(monkeypatch):
    """The self-overlap of f(x) -> g(a, b, c) [a + b + c = x, a, b, c > 0]
    has a 7-variable constraint, 9^7 combinations over the default domain.
    Each conjunct is evaluated once its variables have values, and a prefix
    that fails one is not extended, so far fewer evaluations find the same
    10 assignments."""
    system = parse(THREE_PARTS)
    (ccp,) = ccps(system, ConstraintSolver())
    phi = ccp.constraint
    assert len(variables(phi)) == 7
    evaluations = 0
    compile_ = theory.evaluator

    def counting_evaluator(part, vs):
        run = compile_(part, vs)

        def counted(env):
            nonlocal evaluations
            evaluations += 1
            return run(env)

        return counted

    monkeypatch.setattr(theory, "evaluator", counting_evaluator)
    found = constraint_assignments(phi, variables(phi), domain_terms(system, RewriteConfig()))
    assert evaluations < 9**7 // 50
    assert len(found) == 10
    assert all(theory.holds(apply_subst(sigma, phi)) for sigma in found)


def _bindings(sigma):
    return sorted((v.name, value.sym.name) for v, value in sigma.items())


def test_unordered_assignments_are_the_same_ones():
    """Whatever order the variables are given in, the assignments are the
    same ones, and a limit keeps the first that many of the walk."""
    rng = random.Random(21)
    pool = [Var(name, INT) for name in "uvwxy"]
    domain = {INT: tuple(int_val(n) for n in range(-2, 3))}
    for _ in range(100):
        vs = rng.sample(pool, rng.randint(1, 4))
        parts = [
            linear_atom([rng.randint(-2, 2) for _ in vs], vs, rng.choice(LINEAR_OPS), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        ]
        phi = theory.conj(*parts)
        found = constraint_assignments(phi, vs, domain)
        shuffled = constraint_assignments(phi, rng.sample(vs, len(vs)), domain)
        assert sorted(map(_bindings, shuffled)) == sorted(map(_bindings, found)), phi
        limit = rng.randint(1, 3)
        assert constraint_assignments(phi, vs, domain, limit=limit) == found[:limit], phi


def test_pruned_assignments_are_the_filtered_product():
    """On random conjunctions of linear atoms (a disjunction among them now
    and then), the assignments are those of filtering the whole domain
    product by phi, and a limit, 0 included, keeps the first that many of
    them in the order the walk finds them."""
    rng = random.Random(20)
    pool = [Var(name, INT) for name in "uvwxy"]
    domain = {INT: tuple(int_val(n) for n in range(-2, 3))}
    nonempty = 0
    for _ in range(150):
        vs = rng.sample(pool, rng.randint(1, 4))

        def atom():
            coeffs = [rng.randint(-2, 2) for _ in vs]
            return linear_atom(coeffs, vs, rng.choice(LINEAR_OPS), rng.randint(-3, 3))

        parts = [atom() if rng.random() < 0.8 else App(theory.OR, (atom(), atom())) for _ in range(rng.randint(1, 4))]
        phi = theory.conj(*parts)
        by_name = sorted(vs, key=lambda v: v.name)
        phi_holds = theory.evaluator(phi, by_name)  # the whole of phi on each combination
        brute = [
            dict(zip(by_name, map(int_val, combo)))
            for combo in itertools.product(range(-2, 3), repeat=len(by_name))
            if phi_holds(combo)
        ]
        found = constraint_assignments(phi, vs, domain)
        assert sorted(map(_bindings, found)) == sorted(map(_bindings, brute)), phi
        for limit in (0, rng.randint(1, 5), len(found), len(found) + 1):
            assert constraint_assignments(phi, vs, domain, limit=limit) == found[:limit], phi
        nonempty += bool(brute)
    assert nonempty > 30


# --- the NO search's peaks: instances of the constrained critical pairs -------

CALC_RESULT = """(theory Ints)
(sort U)
(fun f (Int) U)
(fun a () U)
(fun b () U)
(rule (f (+ x 1)) a)
(rule (f y) b :guard (> y 2))
"""


def _theorem_cases():
    for path in sorted(CORPUS.glob("*.lctrs")) + sorted((REPO / "perfbench" / "inputs").glob("*/*.lctrs")):
        half = GROUND_HALF_WIDTHS.get(path.stem)
        for width in (half, 2 * half) if path.parent.name == "ground" else (4,):
            yield f"{path.parent.name}/{path.stem}@{width}", parse(path.read_text()), width
    for name, pairs in sorted(GEN_PCP.items()):
        yield name, build_rp(PCPInstance.parse(pairs)), 4
    yield "calc_result", parse(CALC_RESULT), 4


THEOREM_CASES = list(_theorem_cases())


@pytest.mark.parametrize("name, lctrs, width", THEOREM_CASES, ids=[name for name, *_ in THEOREM_CASES])
def test_peaks_are_the_fragment_critical_pairs(name, lctrs, width):
    """The paper's correspondence theorem over the finite domain: the
    non-trivial domain instances of the constrained critical pairs are the
    fragment's critical pairs less its trivial ones, in the same order."""
    config = RewriteConfig(lo=-width, hi=width)
    peaks = pair_instances(ccps(lctrs, ConstraintSolver()), domain_terms(lctrs, config))
    fragment_pairs = [cp for cp in trs_cps(ground_fragment(lctrs, config)) if cp.left != cp.right]
    assert [p.key() for p in peaks] == [cp.key() for cp in fragment_pairs]
    assert all(p.left != p.right and p.constraint == theory.bool_val(True) for p in peaks)


def test_a_calculation_result_outside_the_domain_is_a_peak():
    """f(x + 1) -> a overlapped by the calculation x1 + x2 -> y gives
    f(y) ~ a [y = x + 1].  At x = 4 the result 5 lies outside -4..4, yet
    the fragment's calculation instance 4 + 1 -> 5 makes f(5) ~ a one of
    its critical pairs, so the result variable takes its computed value."""
    system = parse(CALC_RESULT)
    (ccp,) = ccps(system, ConstraintSolver())
    (y,) = ccp.calc_results
    assert ccp.left == app(system, "f", y)
    frag = ground_fragment(system)
    assert ConstrainedRule(theory.add(4, 1), int_val(5), calc=True).key() in rule_keys(frag)
    five = (app(system, "f", int_val(5)), app(system, "a"))
    peaks = pair_instances([ccp], domain_terms(system, RewriteConfig()))
    assert five in [(p.left, p.right) for p in peaks]
    assert five in [(cp.left, cp.right) for cp in trs_cps(frag)]


FOUR_PARTS = (CORPUS / "four_parts.lctrs").read_text()


def test_check_finds_the_four_part_steps_on_both_sides(solver):
    """f(4) -> g(1, 1, 1, 1) is a fragment step; the oracle finds it too, since
    the equation defines a and only b, c and d count against MAX_UNBOUND."""
    report = check_step_equivalence(parse(FOUR_PARTS), solver)
    assert report.ok, report


def _count_evaluations(monkeypatch) -> list[int]:
    """Counts, in its one cell, every evaluation of a compiled constraint."""
    count = [0]
    compile_ = theory.evaluator

    def counting_evaluator(part, vs):
        run = compile_(part, vs)

        def counted(env):
            count[0] += 1
            return run(env)

        return counted

    monkeypatch.setattr(theory, "evaluator", counting_evaluator)
    return count


def test_peaks_solve_the_equations_of_a_wide_pair(monkeypatch):
    """The self-overlap of f(x) -> g(a, b, c, d) [a + b + c + d = x, a, b,
    c, d > 0] has 9 variables.  a and a' are computed from their equations
    right after the variables those name, so building the peaks takes fewer
    evaluations than the 4^6 positive choices of b, c, d, b', c', d' alone."""
    system = parse(FOUR_PARTS)
    (ccp,) = ccps(system, ConstraintSolver())
    assert len(variables(ccp.constraint)) == 9
    count = _count_evaluations(monkeypatch)
    assert pair_instances([ccp], domain_terms(system, RewriteConfig())) == []  # g(1, 1, 1, 1) on both sides
    assert 0 < count[0] < 4**6


def test_check_samples_a_wide_pair_in_few_steps(monkeypatch):
    """check's correspondence on the same pair, whose sampled models
    extended 792 570 prefixes when each variable was enumerated in name
    order, now evaluates at most a hundredth of that many constraints in
    all, every peak included."""
    system = parse(FOUR_PARTS)
    count = _count_evaluations(monkeypatch)
    check_cp_correspondence(system, ConstraintSolver())
    assert 0 < count[0] <= 792_570 // 100


# --- the on-demand fragment: the instantiated list's steps, stepped lazily ----


def _on_demand_cases():
    for path in sorted(CORPUS.glob("*.lctrs")):
        yield path.stem, parse(path.read_text()), 4
    for name, half in sorted(GROUND_HALF_WIDTHS.items()):
        yield f"ground/{name}", parse((GROUND / f"{name}.lctrs").read_text()), half
    for name, pairs in sorted(GEN_PCP.items()):
        yield name, build_rp(PCPInstance.parse(pairs)), 4


ON_DEMAND_CASES = list(_on_demand_cases())


@pytest.mark.parametrize("name, lctrs, width", ON_DEMAND_CASES, ids=[name for name, *_ in ON_DEMAND_CASES])
def test_on_demand_steps_are_the_listed_rules_steps(name, lctrs, width):
    """On every term a fragment rule steps at its root and every term the NO
    search steps, the fragment's on-demand steps are the steps of its
    instantiated rules and of the guarded rules."""
    config = RewriteConfig(lo=-width, hi=width)
    assert check_step_equivalence(lctrs, ConstraintSolver(), config).ok


@pytest.mark.parametrize(
    "name, flagged", [("pcp_101", "alpha(4)"), ("two_positions", "f(g(4), g(-4))")], ids=["pcp_101", "two_positions"]
)
def test_step_equivalence_flags_a_fragment_that_leaves_out_a_value(monkeypatch, solver, name, flagged):
    """A fragment whose oracle never binds a logical variable to the largest
    Int of the domain misses steps that the guarded and the listed rules
    take at left-hand side instances with that value, such as alpha(4) and
    f(g(4), g(-4))."""
    system = parse((CORPUS / f"{name}.lctrs").read_text())
    assert check_step_equivalence(system, solver).ok
    from lctrs import grounding

    ground = grounding.ground_fragment

    def short(lctrs, config=RewriteConfig()):
        fragment = ground(lctrs, config)
        fragment.values = {**fragment.values, INT: fragment.values[INT] - {max(fragment.domain[INT], key=value_of)}}
        return fragment

    monkeypatch.setattr(grounding, "ground_fragment", short)
    report = check_step_equivalence(system, solver)
    assert any(v.startswith(f"successors of {flagged} differ") for v in report.violations), report


def test_on_demand_steps_on_calc_chain(calc_chain):
    """At -4..4 a match with a logical variable outside the domain, a
    calculation with an argument outside it and one of a symbol no term
    side holds give no step; a computed value outside the domain is still
    a calculation's result."""
    frag = ground_fragment(calc_chain)

    def steps(t):
        return {r for r, _ in frag_successors(t, frag)}

    def g(x, y):
        return app(calc_chain, "g", int_val(x), int_val(y))

    assert steps(g(7, 4)) == set()
    assert steps(theory.add(-8, 1)) == set()
    assert steps(theory.mul(2, 3)) == set()
    assert steps(g(2, 4)) == {app(calc_chain, "f", g(0, 4))}
    assert steps(theory.add(-4, -4)) == {int_val(-8)}


@pytest.mark.parametrize("name", sorted(GROUND_HALF_WIDTHS))
def test_the_no_search_never_builds_the_rule_list(name):
    half = GROUND_HALF_WIDTHS[name]
    system = parse((GROUND / f"{name}.lctrs").read_text())
    config = RewriteConfig(lo=-half, hi=half)
    fragment = ground_fragment(system, config)
    peaks = pair_instances(ccps(system, ConstraintSolver()), domain_terms(system, config))
    assert find_nonjoinable_peak(fragment, peaks) is not None
    assert "rules" not in vars(fragment)
