"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random

import pytest

from lctrs import theory
from lctrs.analysis import (
    AnalysisConfig,
    analyze,
    ccps,
    cpcps,
    dev_closed_check,
    is_trivial,
    mk_pair,
    parallel_closed_2,
    tvar,
)
from lctrs.grounding import (
    check_cp_correspondence,
    check_step_equivalence,
    ground_fragment,
    joinable,
    trs_cps,
)
from lctrs.logic import ConstraintSolver
from lctrs.pcp import PCPInstance
from lctrs.rules import ConstrainedRule
from lctrs.rewriting import (
    ConstrainedTerm,
    RewriteConfig,
    cstep_tilde,
    multi_tilde,
)
from lctrs.terms import App, INT, Sort, Var, apply_subst, int_val, match, unify, variables

from tests.conftest import (
    REFSOLVER_CMD,
    check_candidate,
    corpus_system,
    decode,
    encode_string,
    equiv,
    trs_closedness_check,
)


def report(number: int, ok: bool, message: str):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {state}: {message}")
    assert ok, message


@pytest.fixture(scope="module")
def solver():
    return ConstraintSolver()


def test_criterion_1_value_choice_overlay(solver):
    system = corpus_system("single_value_choice")
    pairs = ccps(system, solver)
    x, xp = Var("x", INT), Var("x'", INT)
    ok = (
        len(pairs) == 1
        and pairs[0].left == x
        and pairs[0].right == xp
        and pairs[0].constraint == theory.conj(theory.eq(x, 0), theory.eq(xp, 0))
        and is_trivial(pairs[0].pair(), solver) == "yes"
    )
    for lo, hi in ((-4, 4), (0, 0), (-2, 7)):
        frag = ground_fragment(system, RewriteConfig(lo=lo, hi=hi))
        ok = ok and [r for r in frag.rules] == [ConstrainedRule(system.rules[0].lhs, int_val(0))]
        ok = ok and trs_cps(frag) == []
    verdict = analyze(system, solver)
    ok = ok and verdict.result == "YES" and verdict.criterion == "weak-orthogonality"
    report(1, ok, "single guarded value choice: exact pair, trivial, fragment {a->0}, YES via weak orthogonality")


def test_criterion_2_guarded_overlay_development_closed(solver):
    system = corpus_system("guarded_swap")
    pairs = ccps(system, solver)
    ok = len(pairs) == 2
    x, y = Var("x", INT), Var("y", INT)
    want = theory.conj(theory.eq(x, y), theory.eq(y, 2))
    for rec in pairs:
        vs = sorted(variables(rec.constraint), key=lambda v: v.name)
        ren = {v: n for v, n in zip(vs, (x, y))}
        phi = apply_subst(ren, rec.constraint)
        ok = ok and solver.is_valid(theory.imp(phi, want)).is_valid
        ok = ok and solver.is_valid(theory.imp(want, phi)).is_valid
        closing = dev_closed_check(rec, system, solver, depth=3)
        ok = ok and closing.status == "closed"
        seq = [node for node, _evidence in closing.steps]
        ok = ok and len(seq) >= 2 and len(seq) - 2 <= 3
        # the multi-step acts below position 1, the tail below position 2
        ok = ok and seq[1].term.args[1] == seq[0].term.args[1]
        for before, after in zip(seq[1:], seq[2:]):
            ok = ok and after.term.args[0] == before.term.args[0]
    verdict = analyze(system, solver, AnalysisConfig(depth=3))
    ok = ok and verdict.result == "YES" and verdict.criterion == "almost-development-closed"
    report(2, ok, "guarded overlay: two pairs with constraint x=y&y=2, closed below depth 3, YES via development closedness")


def test_criterion_3_parity_split_asymmetry(solver):
    system = corpus_system("parity_split")
    pairs = [p for p in ccps(system, solver) if is_trivial(p.pair(), solver) != "yes"]
    ok = len(pairs) == 2
    for rec in pairs:
        pair = rec.pair()
        ok = ok and cstep_tilde(pair, system, solver) == []
        ok = ok and all(res.term == pair.term for res, _ in multi_tilde(pair, system, solver, below=(1,)))
        ok = ok and dev_closed_check(rec, system, solver).status == "not_closed"
    frag = ground_fragment(system, RewriteConfig(lo=-3, hi=3))
    ground_report = trs_closedness_check(frag)
    ok = ok and ground_report["almost_development_closed"]
    ok = ok and analyze(system, solver).result == "MAYBE"
    report(3, ok, "parity split: constrained closedness fails while the instantiated fragment is almost development closed")


def test_criterion_4_calc_chain_parallel_closed(solver):
    system = corpus_system("calc_chain")
    g44 = App(system.signature.term_syms["g"], (int_val(4), int_val(4)))
    want_left = App(
        system.signature.term_syms["f"],
        (App(system.signature.term_syms["g"], (theory.add(1, 1), theory.add(3, 1))),),
    )
    hits = [
        p
        for p in cpcps(system, solver)
        if p.pset == ((1,),) and p.left == want_left and p.right == g44
        and p.constraint == theory.bool_val(True)
    ]
    ok = bool(hits)
    if ok:
        closing = parallel_closed_2(hits[0], system, solver)
        qset = closing.steps[1][1] if closing.steps else None
        ok = closing.status == "closed" and qset == ((2,),)
        final = closing.steps[-1][0] if closing.steps else None
        ok = ok and tvar(final.term, final.constraint, qset) == set()
        ok = ok and tvar(hits[0].peak_source, hits[0].constraint, hits[0].pset) == set()
    verdict = analyze(system, solver)
    ok = ok and verdict.result == "YES" and verdict.criterion == "parallel-closed"
    report(4, ok, "calculation chain: the parallel pair is 2-parallel closed with Q={2}, vacuous variable condition, YES via parallel closedness")


def test_criterion_5_variable_tracking(solver):
    system = corpus_system("var_tracking")
    U = system.signature.sorts["U"]
    xu, yu = Var("x", U), Var("y", U)
    ok = equiv(ConstrainedTerm(mk_pair(yu, yu)), ConstrainedTerm(mk_pair(xu, xu)), solver) == "no"
    hits = [p for p in cpcps(system, solver) if p.pset == ((1,),)]
    ok = ok and bool(hits)
    if hits:
        rec = hits[0]
        ok = ok and parallel_closed_2(rec, system, solver).status == "not_closed"
        allowed = tvar(rec.peak_source, rec.constraint, rec.pset)
        ok = ok and allowed == {Var("x", U)}
        ok = ok and tvar(yu, rec.constraint, [()]) == {yu}
    frag = ground_fragment(system)
    for cp in trs_cps(frag):
        status, _ = joinable(frag, cp.left, cp.right)
        ok = ok and status == "joinable"
    report(5, ok, "variable tracking: pair equivalence refused, 2-parallel closedness fails on TVar, yet every fragment pair joins")


def test_criterion_6_encoder():
    instance = PCPInstance.parse("1,101;10,00;011,11")
    ok = encode_string([], 3) == 0 and decode(0, 3) == ()
    ok = ok and encode_string("3313", 3) == 102 and decode(102, 3) == (3, 3, 1, 3)
    ok = ok and encode_string("112", 3) == 22 and decode(22, 3) == (1, 1, 2)

    solution = None
    for length in range(1, 7):
        for w in itertools.product((1, 2, 3), repeat=length):
            alpha = "".join(instance.pairs[i - 1][0] for i in w)
            beta = "".join(instance.pairs[i - 1][1] for i in w)
            if alpha == beta:
                solution = w
                break
        if solution:
            break
    ok = ok and solution is not None
    ok = ok and check_candidate(instance, encode_string(list(solution), 3)) == "solution"

    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 400)
        w = decode(n, 3)
        alpha = "".join(instance.pairs[i - 1][0] for i in w)
        beta = "".join(instance.pairs[i - 1][1] for i in w)
        if alpha == beta:
            continue
        ok = ok and check_candidate(instance, n) == "non_solution"
        checked += 1
    report(6, ok, "encoder: paper encodings exact, brute-forced solution accepted, 50 random non-solutions rejected")


CORPUS_NAMES = (
    "single_value_choice",
    "guarded_swap",
    "parity_split",
    "calc_chain",
    "var_tracking",
    "projection",
    "pcp_101",
    "four_parts",
    "two_positions",
)


def test_criterion_7_correspondence_suite(solver):
    ok = True
    details = []
    for name in CORPUS_NAMES:
        system = corpus_system(name)
        cfg = RewriteConfig(lo=-4, hi=4)
        corr = check_cp_correspondence(system, solver, cfg)
        steps = check_step_equivalence(system, solver, cfg)
        ok = ok and corr.ok and steps.ok
        details.append(f"{name}: correspondence {corr.checked}, steps {steps.checked}")
        if not corr.ok:
            print(f"  correspondence violations in {name}: {corr.violations[:3]}")
        if not steps.ok:
            print(f"  step violations in {name}: {steps.violations[:3]}")
    report(7, ok, "correspondence and step equivalence pass on the whole corpus (" + "; ".join(details) + ")")


def test_criterion_8_property_suites(solver):
    rng = random.Random(11)
    U = Sort("U")
    from lctrs.terms import FunSym

    f2 = FunSym("f", (U, U), U, "term")
    g1 = FunSym("g", (U,), U, "term")
    consts = [App(FunSym(c, (), U, "term")) for c in "abc"]
    vars_ = [Var(v, U) for v in "xyzw"]

    def random_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(consts + vars_)
        if rng.random() < 0.5:
            return App(f2, (random_term(depth - 1), random_term(depth - 1)))
        return App(g1, (random_term(depth - 1),))

    ok = True
    for _ in range(1000):
        s, t = random_term(2), random_term(2)
        sigma = unify([(s, t)])
        if sigma is None:
            continue
        ok = ok and apply_subst(sigma, s) == apply_subst(sigma, t)
        ok = ok and all(apply_subst(sigma, u) == u for u in sigma.values())
        ground = {v: rng.choice(consts) for v in variables(apply_subst(sigma, s))}
        other = {
            v: apply_subst(ground, apply_subst(sigma, v)) for v in variables(s) | variables(t)
        }
        ok = ok and match(apply_subst(sigma, s), apply_subst(other, s)) is not None

    for size in range(1, 6):
        for n in range(0, 2001):
            ok = ok and encode_string(decode(n, size), size) == n

    ops = [
        (theory.add, lambda a, b: a + b),
        (theory.sub, lambda a, b: a - b),
        (theory.mul, lambda a, b: a * b),
    ]

    def random_expr(depth):
        if depth == 0:
            n = rng.randint(-30, 30)
            return int_val(n), n
        op, py = rng.choice(ops)
        tl, vl = random_expr(depth - 1)
        tr, vr = random_expr(depth - 1)
        return op(tl, tr), py(vl, vr)

    for _ in range(500):
        t, expected = random_expr(rng.randint(1, 3))
        ok = ok and theory.interpret(t) == expected

    from tests.test_logic import random_linear_constraint

    external = ConstraintSolver(smt_command=REFSOLVER_CMD, timeout_ms=5000)
    internal = ConstraintSolver()
    agreement = 0
    for _ in range(200):
        phi = random_linear_constraint(rng)
        a = internal.is_satisfiable(phi)
        b = external.smt_backend(phi)
        same = a.status == b.status
        if same and a.status == "sat":
            same = theory.holds(apply_subst(a.assignment, phi)) and theory.holds(
                apply_subst(b.assignment, phi)
            )
        ok = ok and same
        agreement += same
    report(
        8,
        ok,
        f"property suites: unification x1000, bijection (N 1..5, n 0..2000), interpretation x500, solver agreement {agreement}/200",
    )
