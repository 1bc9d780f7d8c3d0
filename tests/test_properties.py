"""Cross-cutting properties tying the constrained relations to ground runs."""

from lctrs import theory
from lctrs.analysis import ccps, cpcps, dev_closed_check
from lctrs.grounding import (
    constraint_assignments,
    ground_fragment,
    joinable,
    reachable,
)
from lctrs.pcp import PCPInstance, build_rp
from lctrs.rewriting import (
    ConstrainedTerm,
    RewriteConfig,
    cstep_tilde,
    domain_terms,
    multi_tilde,
    parallel_tilde,
)
from lctrs.terms import App, INT, Var, apply_subst, int_val, match, variables

from tests.conftest import (
    equiv,
    plain_multi_successors,
    plain_parallel_successors,
    plain_successors,
    trs_closedness_check,
)

CFG = RewriteConfig()


def restrict(sigma, dom):
    """sigma on the variables of dom only."""
    dom = set(dom)
    return {x: s for x, s in sigma.items() if x in dom}


def app(lctrs, name, *args):
    return App(lctrs.signature.term_syms[name], tuple(args))


def models_of(phi, lctrs, limit=20):
    return constraint_assignments(phi, variables(phi), domain_terms(lctrs, CFG), limit=limit)


def test_pair_steps_below_two_replay_on_the_right(swap, solver):
    x, y = Var("x'", INT), Var("y'", INT)
    pairs = ccps(swap, solver)
    for ccp in pairs:
        start = ccp.pair()
        for res, (position, _, _) in cstep_tilde(start, swap, solver, below=(2,)):
            assert position[:1] == (2,)
            for delta in models_of(res.constraint, swap, limit=8):
                gamma = restrict(delta, variables(start.constraint))
                s_before = apply_subst(gamma, start.term.args[0])
                s_after = apply_subst(delta, res.term.args[0])
                assert s_before == s_after, "left side unchanged"
                t_before = apply_subst(gamma, start.term.args[1])
                t_after = apply_subst(delta, res.term.args[1])
                ground_steps = {
                    (r, red[0]) for r, red in plain_successors(t_before, swap)
                }
                assert (apply_subst(delta, res.term)[1] if False else t_after, position[1:]) in ground_steps


def test_multi_below_one_replays_as_ground_multi(swap, solver):
    for ccp in ccps(swap, solver):
        start = ccp.pair()
        for res, _ in multi_tilde(start, swap, solver, below=(1,))[:6]:
            for delta in models_of(res.constraint, swap, limit=4):
                gamma = restrict(delta, variables(start.constraint))
                t_before = apply_subst(gamma, start.term.args[1])
                t_after = apply_subst(delta, res.term.args[1])
                assert t_before == t_after, "right side unchanged"
                s_before = apply_subst(gamma, start.term.args[0])
                s_after = apply_subst(delta, res.term.args[0])
                assert s_after in plain_multi_successors(s_before, swap)


def test_parallel_steps_replay_with_position_sets(calc_chain, solver):
    inner = app(calc_chain, "g", theory.add(1, 1), theory.add(3, 1))
    start = ConstrainedTerm(app(calc_chain, "f", inner))
    ground = {(r, ps) for r, ps in plain_parallel_successors(start.term, calc_chain)}
    for res, pset in parallel_tilde(start, calc_chain, solver):
        for delta in models_of(res.constraint, calc_chain, limit=3):
            assert (apply_subst(delta, res.term), pset) in ground


def test_equiv_yes_instances_match(swap, solver):
    x = Var("x", INT)
    a = ConstrainedTerm(theory.add(x, 1), theory.gt(x, 3))
    z = Var("z", INT)
    b = ConstrainedTerm(
        theory.add(x, 1), theory.conj(theory.eq(z, theory.add(x, 1)), theory.gt(x, 3))
    )
    assert equiv(a, b, solver) == "yes"
    from lctrs.logic import search_model

    domain = domain_terms(swap, RewriteConfig(lo=-8, hi=8))
    count = 0
    for gamma in constraint_assignments(a.constraint, variables(a.constraint), domain, limit=20):
        s_inst = apply_subst(gamma, a.term)
        # the matching partner instantiates the shared skeleton, the model
        # search completes the assignment of the remaining defined variables
        delta0 = match(b.term, s_inst)
        assert delta0 is not None
        rest = search_model(apply_subst(delta0, b.constraint))
        assert rest is not None, gamma
        delta = {**delta0, **rest}
        assert apply_subst(delta, b.term) == s_inst
        assert theory.holds(apply_subst(delta, b.constraint))
        count += 1
    assert count > 0


def test_cpcp_instances_realize_parallel_peaks(calc_chain, solver):
    for rec in cpcps(calc_chain, solver):
        if rec.pset == ((),):
            continue
        for sigma in models_of(rec.constraint, calc_chain, limit=4):
            peak = apply_subst(sigma, rec.peak_source)
            left = apply_subst(sigma, rec.left)
            right = apply_subst(sigma, rec.right)
            par = {(r, ps) for r, ps in plain_parallel_successors(peak, calc_chain)}
            assert (left, rec.pset) in par
            roots = {r for r, (p, _, _) in plain_successors(peak, calc_chain) if p == ()}
            assert right in roots


def test_dev_closed_implies_ground_joinability(swap, solver):
    frag = ground_fragment(swap)
    for ccp in ccps(swap, solver):
        closing = dev_closed_check(ccp, swap, solver, depth=3)
        assert closing.status == "closed"
        for sigma in models_of(ccp.constraint, swap, limit=6):
            s_inst = apply_subst(sigma, ccp.left)
            t_inst = apply_subst(sigma, ccp.right)
            multi = plain_multi_successors(s_inst, swap)
            reach_t, _ = reachable(t_inst, frag, 6)
            assert multi & reach_t, (s_inst, t_inst)


def test_constrained_adc_carries_to_fragment(swap, solver):
    # the analysis closes every pair, so the instantiated fragment must too
    frag = ground_fragment(swap)
    report = trs_closedness_check(frag)
    assert report["almost_development_closed"]


def test_rp_fragment_inventory():
    system = build_rp(PCPInstance.parse("1,101;10,00;011,11"))
    frag = ground_fragment(system, RewriteConfig(lo=0, hi=9))
    start_rules = [r for r in frag.rules if r.lhs.sym.name == "start"]
    spawned = {r.rhs.args[2] for r in start_rules}
    assert spawned == {int_val(n) for n in range(1, 10)}


def test_rp_top_bot_not_joinable():
    system = build_rp(PCPInstance.parse("1,101;10,00;011,11"))
    frag = ground_fragment(system, RewriteConfig(lo=0, hi=4))
    top = app(system, "top")
    bot = app(system, "bot")
    assert joinable(frag, top, bot)[0] == "disjoint_normal_forms"


def test_rp_analyze_maybe(solver):
    from lctrs.analysis import analyze

    system = build_rp(PCPInstance.parse("1,101;10,00;011,11"))
    verdict = analyze(system, solver)
    assert verdict.result == "MAYBE"
