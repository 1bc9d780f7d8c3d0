import pytest

from lctrs import terms, theory
from lctrs.analysis import (
    AnalysisConfig,
    analyze,
    ccps,
    cpcps,
    dev_closed_check,
    is_left_linear,
    is_trivial,
    mk_pair,
    parallel_closed_1,
    parallel_closed_2,
    tvar,
)
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse, print_system
from lctrs.pcp import PCPInstance, build_rp
from lctrs.rewriting import ConstrainedTerm, cstep_tilde, multi_tilde, parallel_tilde
from lctrs.rules import ConstrainedRule, Lctrs, Signature
from lctrs.terms import App, INT, LhsIndex, ParallelSetCap, Var, apply_subst, int_val, variables
from lctrs.grounding import constraint_assignments, pair_instances
from lctrs.rewriting import domain_terms, RewriteConfig

from tests.conftest import CORPUS, REPO, plain_successors
from tests.test_golden import GEN_PCP

x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)


def app(lctrs, name, *args):
    return App(lctrs.signature.term_syms[name], tuple(args))


# --- critical pair generation -------------------------------------------------

def test_single_value_ccp_exact(single_value, solver):
    pairs = ccps(single_value, solver)
    assert len(pairs) == 1
    (ccp,) = pairs
    xp = Var("x'", INT)
    assert ccp.left == x
    assert ccp.right == xp
    assert ccp.constraint == theory.conj(theory.eq(x, 0), theory.eq(xp, 0))
    assert ccp.overlay


def test_swap_has_two_ccps_modulo_symmetry(swap, solver):
    pairs = ccps(swap, solver)
    core = [p for p in pairs if not _is_trivial_record(p, solver)]
    assert len(core) == 2
    want = theory.conj(theory.eq(x, y), theory.eq(y, 2))
    for p in core:
        got = p.constraint
        ren = {v: Var(n, INT) for v, n in zip(sorted(variables(got), key=lambda v: v.name), "xy")}
        normalized = apply_subst(ren, got)
        fwd = solver.is_valid(theory.imp(normalized, want))
        bwd = solver.is_valid(theory.imp(want, normalized))
        assert fwd.is_valid and bwd.is_valid, f"constraint {got!r} not equivalent"


def _is_trivial_record(p, solver):
    return is_trivial(p.pair(), solver) == "yes"


def test_parity_ccp_shape(parity, solver):
    pairs = ccps(parity, solver)
    keys = {p.key() for p in pairs}
    g_h = [p for p in pairs if p.left.sym.name in ("g", "h")]
    assert len(g_h) == 2  # both orientations of g(x) ~ h(x)
    # the two guarded g-rules do not overlap: even vs odd is unsatisfiable
    assert not any(p.left.sym.name == p.right.sym.name == "h" for p in pairs)


def test_calc_chain_ccps(calc_chain, solver):
    pairs = ccps(calc_chain, solver)
    peak = app(calc_chain, "f", app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1)))
    main = [p for p in pairs if p.left == peak]
    assert main and main[0].right == app(calc_chain, "g", int_val(4), int_val(4))
    assert main[0].position == (1,)
    # the g-rule self-overlay is the only other pair and it is trivial
    others = [p for p in pairs if p.left != peak]
    assert all(_is_trivial_record(p, solver) for p in others)


def test_cpcp_singleton_matches_ccp_peak(calc_chain, solver):
    ps = cpcps(calc_chain, solver)
    main = [p for p in ps if p.pset == ((1,),)]
    assert main
    rec = main[0]
    assert rec.left == app(
        calc_chain, "f", app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1))
    )
    assert rec.right == app(calc_chain, "g", int_val(4), int_val(4))
    assert rec.peak_source == app(calc_chain, "f", app(calc_chain, "a"))


def test_varcond_cpcp(var_tracking, solver):
    ps = cpcps(var_tracking, solver)
    inner = [p for p in ps if p.pset == ((1,),)]
    assert inner
    rec = inner[0]
    assert rec.left.sym.name == "f" and rec.left.args[0].sym.name == "a"
    assert rec.right.sym.name == "f" and rec.right.args[0].sym.name == "b"


# --- triviality and tvar --------------------------------------------------------

def test_trivial_value_pinned(single_value, solver):
    (ccp,) = ccps(single_value, solver)
    assert is_trivial(ccp.pair(), solver) == "yes"
    # cross-check by enumerating the domain
    domain = domain_terms(single_value, RewriteConfig())
    for sigma in constraint_assignments(ccp.constraint, variables(ccp.constraint), domain):
        assert apply_subst(sigma, ccp.left) == apply_subst(sigma, ccp.right)


def test_trivial_syntactic_identity(swap, solver):
    t = app(swap, "g", int_val(4), int_val(2))
    assert is_trivial(ConstrainedTerm(mk_pair(t, t)), solver) == "yes"


def test_nontrivial_rigid_mismatch(parity, solver):
    phi = theory.conj(theory.le(1, x), theory.le(x, 2))
    pair = ConstrainedTerm(mk_pair(app(parity, "g", x), app(parity, "h", x)), phi)
    assert is_trivial(pair, solver) == "no"


def test_tvar_examples(var_tracking, solver):
    u = var_tracking.rules[0].lhs  # f(g(x), y)
    xs = sorted(variables(u.args[0]), key=lambda v: v.name)
    assert tvar(u, theory.bool_val(True), [(1,)]) == set(xs)
    assert tvar(u, theory.bool_val(True), []) == set()
    gy = app(
        var_tracking, "g", Var("q", var_tracking.rules[0].lhs.args[1].sort)
    )


def test_tvar_logical_excluded(swap, solver):
    phi = theory.conj(theory.eq(x, y), theory.eq(y, 2))
    t = app(swap, "g", y, theory.mul(2, 2))
    assert tvar(t, phi, [()]) == set()


# --- closedness -----------------------------------------------------------------

def test_swap_ccps_almost_development_closed(swap, solver):
    for ccp in ccps(swap, solver):
        got = dev_closed_check(ccp, swap, solver, depth=3)
        assert got.status == "closed", f"{ccp!r}: {got.status}"
        assert len(got.steps) - 1 <= 1 + 3


def test_parity_ccp_not_closed(parity, solver):
    pairs = [p for p in ccps(parity, solver) if not _is_trivial_record(p, solver)]
    assert pairs
    for ccp in pairs:
        assert dev_closed_check(ccp, parity, solver).status == "not_closed"
        assert parallel_closed_1(ccp, parity, solver).status == "not_closed"


def test_trivial_ccp_closed_immediately(single_value, solver):
    (ccp,) = ccps(single_value, solver)
    got = dev_closed_check(ccp, single_value, solver)
    assert got.status == "closed"
    assert got.steps == [(ccp.pair(), None), (ccp.pair(), None)]  # the empty multi-step, no tail


def test_calc_chain_ccp_parallel_closed_1(calc_chain, solver):
    for ccp in ccps(calc_chain, solver):
        got = parallel_closed_1(ccp, calc_chain, solver)
        assert got.status == "closed", f"{ccp!r}"


def test_calc_chain_cpcp_parallel_closed_2(calc_chain, solver):
    ps = [p for p in cpcps(calc_chain, solver) if p.pset == ((1,),)]
    got = parallel_closed_2(ps[0], calc_chain, solver)
    assert got.status == "closed"
    assert got.steps[1][1] == ((2,),)


def test_varcond_cpcp_fails_variable_condition(var_tracking, solver):
    ps = [p for p in cpcps(var_tracking, solver) if p.pset == ((1,),)]
    got = parallel_closed_2(ps[0], var_tracking, solver)
    assert got.status == "not_closed"


def test_varcond_ccp_is_1_parallel_closed(var_tracking, solver):
    pairs = [p for p in ccps(var_tracking, solver) if not _is_trivial_record(p, solver)]
    for ccp in pairs:
        assert parallel_closed_1(ccp, var_tracking, solver).status == "closed"


# --- left-linearity and weak orthogonality ----------------------------------------

def test_left_linear_examples(swap, solver):
    sig = Signature()
    f = sig.add_fun("f", [INT, INT], INT)
    nonlinear = Lctrs(sig, (ConstrainedRule(App(f, (x, x)), x),))
    assert not is_left_linear(nonlinear)

    sig2 = Signature()
    f2 = sig2.add_fun("f", [INT, INT], INT)
    guarded = Lctrs(
        sig2, (ConstrainedRule(App(f2, (x, x)), x, theory.gt(x, 0)),)
    )
    assert is_left_linear(guarded)  # x is logical, repeats allowed

    # a repeat at different depths counts too
    sig3 = Signature()
    f3 = sig3.add_fun("f", [INT, INT], INT)
    g3 = sig3.add_fun("g", [INT], INT)
    assert not is_left_linear(Lctrs(sig3, (ConstrainedRule(App(f3, (App(g3, (x,)), x)), x),)))
    assert is_left_linear(Lctrs(sig3, (ConstrainedRule(App(f3, (App(g3, (x,)), y)), x),)))

    assert is_left_linear(swap)


def test_weak_orthogonality(single_value, swap, solver):
    wo = AnalysisConfig(criteria=("wo",))
    assert analyze(single_value, solver, wo).criterion == "weak-orthogonality"
    not_wo = analyze(swap, solver, wo)
    assert not_wo.result != "YES" and "nontrivial" in not_wo.reasons["weak-orthogonality"]
    sig = Signature()
    empty = Lctrs(sig, ())
    assert analyze(empty, solver, wo).criterion == "weak-orthogonality"


# --- verdicts ----------------------------------------------------------------------

def test_analyze_single_value(single_value, solver):
    v = analyze(single_value, solver)
    assert v.result == "YES"
    assert v.criterion == "weak-orthogonality"


def test_analyze_swap(swap, solver):
    v = analyze(swap, solver, AnalysisConfig(depth=3))
    assert v.result == "YES"
    assert v.criterion == "almost-development-closed"


def test_analyze_calc_chain(calc_chain, solver):
    v = analyze(calc_chain, solver)
    assert v.result == "YES"
    assert v.criterion == "parallel-closed"


def test_analyze_parity_maybe(parity, solver):
    v = analyze(parity, solver)
    assert v.result == "MAYBE"
    assert "almost-development-closed" in v.reasons


def test_analyze_detects_nonconfluence(solver):
    sig = Signature()
    a = sig.add_fun("a", [], INT)
    b = sig.add_fun("b", [], INT)
    c = sig.add_fun("c", [], INT)
    bad = Lctrs(
        sig,
        (
            ConstrainedRule(App(a), App(b)),
            ConstrainedRule(App(a), App(c)),
        ),
    )
    v = analyze(bad, solver)
    assert v.result == "NO"
    assert v.witness is not None


def test_unconstrained_extra_variable_is_nonconfluent(solver):
    # f(x) -> g(x, y) with y fresh: the pair g(x,y) ~ g(x,y') is kept because
    # the extra-variable conjuncts y=y, y'=y' put both in the constraint, and
    # it is not trivial since the values are independent
    sig = Signature()
    f = sig.add_fun("f", [INT], INT)
    g = sig.add_fun("g", [INT, INT], INT)
    system = Lctrs(sig, (ConstrainedRule(App(f, (x,)), App(g, (x, y))),))
    pairs = ccps(system, solver)
    assert len(pairs) == 1
    rec = pairs[0]
    left_extra, right_extra = rec.left.args[1], rec.right.args[1]
    assert left_extra != right_extra
    assert {left_extra, right_extra} <= variables(rec.constraint)
    assert rec.left.args[0] == rec.right.args[0]
    assert rec.left.args[0] not in variables(rec.constraint)
    assert is_trivial(rec.pair(), solver) == "no"
    v = analyze(system, solver)
    assert v.result == "NO"


def test_theory_symbol_inside_lhs_overlaps_with_calculation(solver):
    # k(x + y) -> x overlaps the addition calculation below the root; the
    # resulting peak separates, so the system is not confluent
    sig = Signature()
    k = sig.add_fun("k", [INT], INT)
    system = Lctrs(sig, (ConstrainedRule(App(k, (theory.add(x, y),)), x),))
    pairs = ccps(system, solver)
    inner = [p for p in pairs if p.position == (1,)]
    assert inner, "calculation overlap below the root"
    rec = inner[0]
    assert rec.left.sym == k
    assert isinstance(rec.left.args[0], Var)
    v = analyze(system, solver)
    assert v.result == "NO"
    assert v.witness is not None


def test_analyze_never_yes_and_no(parity, single_value, swap, calc_chain, solver):
    for system in (parity, single_value, swap, calc_chain):
        v = analyze(system, solver)
        assert v.result in ("YES", "NO", "MAYBE")


def test_ccp_instances_realize_peaks(swap, solver):
    domain = domain_terms(swap, RewriteConfig())
    for ccp in ccps(swap, solver):
        for sigma in constraint_assignments(ccp.constraint, variables(ccp.constraint), domain, limit=5):
            src = apply_subst(sigma, ccp.peak_source)
            left = apply_subst(sigma, ccp.left)
            right = apply_subst(sigma, ccp.right)
            succs = {(r, red[0]) for r, red in plain_successors(src, swap)}
            assert (left, ccp.position) in succs
            assert (right, ()) in succs


CAPPED = """
(theory Ints)
(sort U)
(fun a () U)
(fun b () U)
(fun c () U)
(fun f (U) U)
(fun g (U U U U) U)
(fun h (U) U)
(fun k (U) U)
(rule (f (h x)) c)
(rule (h x) (g a a a a))
(rule a b)
(rule (k a) (g a a a a))
"""


def test_parallel_subset_cap_gives_unknown(solver, monkeypatch):
    # g(a,a,a,a) has 16 parallel redex subsets, more than a cap of 8 allows
    system = parse(CAPPED)
    with monkeypatch.context() as capped_at_8:
        capped_at_8.setattr(terms, "PARALLEL_SET_CAP", 8)
        first = [parallel_closed_1(c, system, solver) for c in ccps(system, solver)]
        second = [parallel_closed_2(c, system, solver) for c in cpcps(system, solver)]
        verdict = analyze(system, solver, AnalysisConfig(criteria=("pc",)))
    for closings in (first, second):
        capped = [c for c in closings if c.reason]
        assert capped and all(c.status == "unknown" for c in capped)
        assert capped[0].reason == "parallel subset cap 8 exceeded"
    assert "unknown (parallel subset cap 8 exceeded)" in verdict.reasons["parallel-closed"]
    uncapped = analyze(system, solver, AnalysisConfig(criteria=("pc",)))
    assert "cap" not in uncapped.reasons["parallel-closed"]


def wide_g(arity: int) -> str:
    """g(a, ..., a) -> c and a -> b: 2^arity parallel position sets below g."""
    return (
        f"(sort U)\n(fun a () U)\n(fun b () U)\n(fun c () U)\n(fun g ({' '.join(['U'] * arity)}) U)\n"
        f"(rule (g {' '.join(['a'] * arity)}) c)\n(rule a b)\n"
    )


def test_parallel_pairs_over_the_cap_give_maybe_and_the_no_search_runs(solver, monkeypatch):
    system = parse(wide_g(4))
    with monkeypatch.context() as capped_at_8:
        capped_at_8.setattr(terms, "PARALLEL_SET_CAP", 8)
        with pytest.raises(ParallelSetCap, match="parallel subset cap 8 exceeded"):
            cpcps(system, solver)
        verdict = analyze(system, solver)
    assert len(cpcps(system, solver)) == 2**4 - 1
    assert verdict.reasons["parallel-closed"] == "unknown (parallel subset cap 8 exceeded)"
    assert verdict.cpcps is None
    assert verdict.result == "NO"  # c and g(b, a, a, a) reach distinct normal forms


def test_parallel_pairs_count_only_positions_a_rule_overlaps(solver):
    """f has 3^13 parallel position sets, far over the cap, but no rule
    overlaps below its root, so only the two root pairs are enumerated."""
    lhs = "(f " + " ".join(f"(c x{i})" for i in range(13)) + ")"
    system = parse(
        f"(sort S)\n(fun a () S)\n(fun b () S)\n(fun c (S) S)\n(fun f ({' '.join(['S'] * 13)}) S)\n"
        f"(rule {lhs} a)\n(rule {lhs} b)\n(rule a b)\n"
    )
    assert [repr(p) for p in cpcps(system, solver)] == ["a ~ b [true] P=((),)", "b ~ a [true] P=((),)"]


F_OF_G = (
    "(sort S)\n(fun a () S)\n(fun b () S)\n(fun g (S) S)\n(fun f (S S) S)\n"
    "(rule (f (g x) (g y)) b)\n(rule (g z) a)\n"
)


def test_parallel_overlaps_rename_each_rule_tuple_once(monkeypatch, solver):
    """g(z) -> a overlaps f(g(x), g(y)) -> b at 1, at 2 and at both.  The
    single-overlap pass renames each (inner, outer) tuple once, whatever
    its number of positions; the parallel pass takes the one-position sets
    from it and renames only the tuple of the two-position set."""
    from lctrs import analysis

    system = parse(F_OF_G)
    f_rule, g_rule = system.rules
    renamed = []
    real = analysis.rename_apart

    def counted(rules):
        renamed.append(tuple(rules))
        return real(rules)

    monkeypatch.setattr(analysis, "rename_apart", counted)
    want = [repr(p) for p in cpcps(system, solver)]
    assert len(want) == 3 and len(renamed) == len(set(renamed))
    assert renamed == [(f_rule, f_rule), (g_rule, f_rule), (g_rule, g_rule), (f_rule, g_rule, g_rule)]
    renamed.clear()
    assert [repr(p) for p in cpcps(system, solver)] == want
    assert renamed == [(f_rule, g_rule, g_rule)]


def _unify_calls(monkeypatch) -> list:
    """Records, in the list it returns, every unification analysis asks."""
    from lctrs import analysis

    calls = []
    real = analysis.unify

    def counted(equations):
        calls.append(equations)
        return real(equations)

    monkeypatch.setattr(analysis, "unify", counted)
    return calls


BUNDLED = {path.stem: path.read_text() for path in sorted(CORPUS.glob("*.lctrs"))}
BUNDLED.update({name: print_system(build_rp(PCPInstance.parse(pairs))) for name, pairs in GEN_PCP.items()})
BUNDLED.update(f_of_g=F_OF_G, wide_g=wide_g(3))


@pytest.mark.parametrize("name", [*sorted(GEN_PCP), "f_of_g"])
def test_cpcps_after_ccps_unifies_only_sets_of_two_positions_or_more(monkeypatch, solver, name):
    """Every one-position parallel pair is the critical pair at that
    position, so after ccps, cpcps unifies nothing on the PCP systems and
    only the {1, 2} set of f(g(x), g(y)); it reads the overlap sites from
    the overlaps, retrieving none from the index again."""
    system = parse(BUNDLED[name])
    ccps(system, solver)
    calls = _unify_calls(monkeypatch)
    retrievals = []
    real_unifiable = LhsIndex.unifiable

    def counted(index, t):
        retrievals.append(t)
        return real_unifiable(index, t)

    monkeypatch.setattr(LhsIndex, "unifiable", counted)
    pairs = cpcps(system, solver)
    assert pairs and len(calls) == (1 if name == "f_of_g" else 0)
    assert retrievals == []
    assert sum(len(p.pset) > 1 for p in pairs) == len(calls)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_cpcps_do_not_depend_on_an_earlier_ccps(solver, name):
    """cpcps gives the same records on a fresh system as after ccps filled
    its overlaps, with the solver's memo warm or cold."""
    source = BUNDLED[name]
    cold = cpcps(parse(source), ConstraintSolver())
    warm = parse(source)
    ccps(warm, solver)
    assert cpcps(warm, solver) == cold  # equal records: sides, constraint, pset and peak


# --- pairs shown trivial ---------------------------------------------------------

PINNED = sorted(set(BUNDLED) - {"f_of_g", "wide_g"})  # the corpus and the golden gen-pcp systems


def test_analyze_starts_no_closing_check_from_a_trivial_pair(monkeypatch):
    """analyze decides triviality once per pair and starts the closing
    checks only from the pairs it did not show trivial."""
    from lctrs import analysis

    started = []
    for name in ("dev_closed_check", "parallel_closed_1", "parallel_closed_2"):

        def wrapped(pair, *args, real=getattr(analysis, name)):
            started.append(pair)
            return real(pair, *args)

        monkeypatch.setattr(analysis, name, wrapped)
    trivial = 0
    for name in PINNED:
        system, solver = parse(BUNDLED[name]), ConstraintSolver()
        started.clear()
        verdict = analyze(system, solver)
        trivial += sum(is_trivial(p.pair(), solver) == "yes" for p in [*verdict.ccps, *(verdict.cpcps or ())])
        assert [p for p in started if is_trivial(p.pair(), solver) == "yes"] == [], name
    assert trivial > 0


@pytest.mark.parametrize("name", PINNED)
def test_a_trivial_pair_closes_at_once_and_has_no_nontrivial_instance(solver, name):
    """What skipping a trivial pair rests on: each closing check closes it,
    and none of its domain instances has two different sides."""
    system = parse(BUNDLED[name])
    domain = domain_terms(system, RewriteConfig())
    for ccp in ccps(system, solver):
        if is_trivial(ccp.pair(), solver) == "yes":
            assert dev_closed_check(ccp, system, solver).status == "closed"
            assert parallel_closed_1(ccp, system, solver).status == "closed"
            assert pair_instances([ccp], domain) == []
    for cpcp in cpcps(system, solver):
        if is_trivial(cpcp.pair(), solver) == "yes":
            assert parallel_closed_2(cpcp, system, solver).status == "closed"


# --- closings replay as steps ----------------------------------------------------

def _replay(closing, first, side, pair, system, solver):
    """Re-check a closed check's steps without searching: the first step is
    a `first` step below side `side` of the pair, each tail step a
    constrained step below the other side, and the last pair is trivial.
    Gives the first step's evidence and the last pair."""
    (start, none), (mid, evidence), *tail = closing.steps
    assert start == pair and none is None
    assert (mid, evidence) in first(pair, system, solver, below=(side,))
    for (before, _), (after, redex) in zip(closing.steps[1:], tail):
        assert (after, redex) in cstep_tilde(before, system, solver, below=(3 - side,))
    last = closing.steps[-1][0]
    assert is_trivial(last, solver) == "yes"
    return evidence, last


def test_every_closing_replays_as_steps(solver):
    """Every closed check on every (parallel) critical pair of the corpus
    and the golden gen-pcp systems keeps steps that replay one by one, and
    a 2-parallel closing meets the variable condition on its last pair."""
    closed = 0
    for name in PINNED:
        system = parse(BUNDLED[name])
        for ccp in ccps(system, solver):
            for check, first in ((dev_closed_check, multi_tilde), (parallel_closed_1, parallel_tilde)):
                got = check(ccp, system, solver)
                if got.status == "closed":
                    closed += 1
                    _replay(got, first, 1, ccp.pair(), system, solver)
        for cpcp in cpcps(system, solver):
            got = parallel_closed_2(cpcp, system, solver)
            if got.status == "closed":
                closed += 1
                qset, last = _replay(got, parallel_tilde, 2, cpcp.pair(), system, solver)
                assert tvar(last.term, last.constraint, qset) <= tvar(cpcp.peak_source, cpcp.constraint, cpcp.pset)
    assert closed > 0


CAPPED_TRIVIAL = """(theory Ints)
(sort U)
(fun a () U)
(fun b () U)
(fun f (Int) U)
(fun h (U U U U Int) U)
(rule (f x) (h a a a a y) :guard (= y (+ x 1)))
(rule a b)
"""


def test_a_trivial_pair_over_the_parallel_subset_cap_is_closed(solver, monkeypatch):
    """The one pair, h(a,a,a,a,y) ~ h(a,a,a,a,y') under y = x + 1 and
    y' = x + 1, is trivial, and h(a,a,a,a,y) has 16 parallel redex subsets.
    A parallel first step from it overflows a cap of 8, but a trivial pair
    needs no step, so the parallel criterion proves the system."""
    system = parse(CAPPED_TRIVIAL)
    with monkeypatch.context() as capped_at_8:
        capped_at_8.setattr(terms, "PARALLEL_SET_CAP", 8)
        (ccp,) = ccps(system, solver)
        assert is_trivial(ccp.pair(), solver) == "yes"
        assert parallel_closed_1(ccp, system, solver).reason == "parallel subset cap 8 exceeded"
        verdict = analyze(system, solver, AnalysisConfig(criteria=("pc",)))
    assert (verdict.result, verdict.criterion, verdict.reasons) == ("YES", "parallel-closed", {})


# --- known wrong answers (ROADMAP items 1 and 3) --------------------------------

UNSOUND_NO = """(theory Ints)
(sort U)
(fun a () U)
(fun g (Int) U)
(fun h (Int) U)
(fun c () U)
(rule a (g 0))
(rule a (h 0))
(rule (g x) c :guard (= y (+ x (+ 2 3))))
(rule (h x) c)
"""
INEQ = UNSOUND_NO.replace(":guard (= y (+ x (+ 2 3)))", ":guard (and (> y (+ x 4)) (< y (+ x 6)))")
CYCLIC = UNSOUND_NO + "(rule (g x) (g x))\n"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: y = 5 lies outside the fragment's domain, so g(0) -> c is missing and the NO is wrong",
)
@pytest.mark.parametrize("source", [INEQ, CYCLIC], ids=["ineq", "cyclic"])
def test_confluent_systems_with_a_guard_value_outside_the_domain_never_answer_no(solver, source):
    """Both systems are confluent (a -> g(0) -> c with y = 5, a -> h(0) -> c);
    ineq bounds y by inequalities, cyclic adds the self-loop g(x) -> g(x)."""
    assert analyze(parse(source), solver).result != "NO"


# --- a solver unknown never turns into YES (ROADMAP item 17) -----------------

NONLIN_HEAD = "(theory Ints)\n(sort U)\n(fun f (Int) U)\n"
NONLIN = NONLIN_HEAD + """(fun a () U)
(fun b () U)
(rule (f x) a :guard (= (* x x) 4))
(rule (f x) b :guard (= (* x x) 4))
"""
NONLIN_ALIGN = NONLIN_HEAD + """(fun g (Int) U)
(rule (f x) (g y) :guard (and (>= x 0) (= y (* x x))))
(rule (f x) (g z) :guard (and (>= x 0) (= z (+ x 2))))
"""
NONLIN_STEP = NONLIN_HEAD + """(fun g (Int) U)
(fun h (Int) U)
(rule (f x) (g x) :guard (>= x 10))
(rule (f x) (h x) :guard (>= x 10))
(rule (g x) (h x) :guard (<= (* x x) 100))
"""


@pytest.mark.parametrize("source", [NONLIN, NONLIN_ALIGN, NONLIN_STEP], ids=["nonlin", "nonlin_align", "nonlin_step"])
def test_a_solver_unknown_never_turns_into_yes(solver, source):
    """None of the three systems is confluent (witnesses a ~ b, g(0) ~ g(2)
    and g(100) ~ h(100)), and on each a criterion's path meets a query the
    solver cannot decide, since it takes a product of variables."""
    assert analyze(parse(source), solver).result != "YES"


def test_the_nonlinear_systems_ask_queries_the_solver_cannot_decide(solver):
    """The premise of the test above: should the solver learn nonlinear
    arithmetic, this fails instead of that test passing with nothing to
    check."""
    (nonlin, _) = ccps(parse(NONLIN), solver)
    assert solver.is_satisfiable(nonlin.constraint).is_unknown
    aligned = {(c.left.args[0].name, c.right.args[0].name): c for c in ccps(parse(NONLIN_ALIGN), solver)}
    yz = aligned["y", "z"]  # g(y) ~ g(z), which aligns to y = z
    assert solver.is_valid(theory.imp(yz.constraint, theory.eq(yz.left.args[0], yz.right.args[0]))).is_unknown
    assert is_trivial(yz.pair(), solver) == "unknown"
    assert solver.is_valid(theory.imp(theory.ge(x, 10), theory.le(theory.mul(x, x), 100))).is_unknown


def test_an_overlay_not_development_closed_is_not_1_parallel_closed(monkeypatch, solver):
    """For an overlay, dev_closed_check and parallel_closed_1 differ only in
    the first step below side 1 (a multi-step, a parallel step; every
    parallel step is a multi-step) and run the same cstep_tilde tail below
    side 2.  So on every left-linear overlay of the corpus, the bench inputs
    and the bench's pcp draws of seeds 1-3 where the first gives not_closed,
    the second does not give closed."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up by name
    spec.loader.exec_module(workloads)
    paths = sorted(CORPUS.glob("*.lctrs")) + sorted((REPO / "perfbench" / "inputs").glob("*/*.lctrs"))
    systems = [parse(path.read_text()) for path in paths]
    systems += [build_rp(PCPInstance(i.pairs)) for seed in (1, 2, 3) for i in workloads.make_inputs("pcp", seed)]
    assert len(systems) == 76
    not_closed = 0
    for system in filter(is_left_linear, systems):
        for ccp in ccps(system, solver):
            if ccp.overlay and dev_closed_check(ccp, system, solver).status == "not_closed":
                not_closed += 1
                assert parallel_closed_1(ccp, system, solver).status != "closed", ccp
    assert not_closed == 63


def test_verdict_carries_the_pairs_it_computed(calc_chain, parity, solver):
    yes = analyze(calc_chain, solver)
    assert yes.criterion == "parallel-closed"
    assert yes.ccps == ccps(calc_chain, solver) and yes.ccp_count == len(yes.ccps)
    assert yes.cpcps == cpcps(calc_chain, solver) and yes.cpcp_count == len(yes.cpcps)
    wo_only = analyze(parity, solver, AnalysisConfig(criteria=("wo",)))
    assert wo_only.ccps == ccps(parity, solver)
    assert wo_only.cpcps is None and wo_only.cpcp_count == 0


def test_a_400_deep_right_side_is_weakly_orthogonal(solver):
    sig = Signature()
    sig.add_sort("N")
    n = sig.sorts["N"]
    zero, succ, a = (sig.add_fun(name, args, n) for name, args in (("z", []), ("s", [n]), ("a", [])))
    deep = App(zero)
    for _ in range(400):
        deep = App(succ, (deep,))
    system = Lctrs(sig, (ConstrainedRule(App(a), deep),))
    verdict = analyze(system, solver)
    assert (verdict.result, verdict.criterion) == ("YES", "weak-orthogonality")
    assert ccps(system, solver) == [] and cpcps(system, solver) == []
