import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lctrs import theory
from lctrs.analysis import _align, dev_closed_check, parallel_closed_1, parallel_closed_2, tvar
from lctrs.grounding import GroundFragment, reachable, trs_cps, trs_pcps
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse
from lctrs.pcp import PCPInstance, build_rp
from lctrs.rewriting import (
    ConstrainedTerm,
    Redex,
    RewriteConfig,
    constrained_steps,
    cstep,
    multi_steps,
    parallel_steps,
    redexes,
)
from lctrs.rules import Lctrs
from lctrs.terms import (
    App,
    INT,
    Position,
    Term,
    apply_subst,
    bool_val,
    int_val,
    is_value,
    rename_away,
    value_of,
    variables,
)

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
REFSOLVER_CMD = f"{sys.executable} {REPO / 'scripts' / 'refsolver.py'}"


# --- constraint builders that only tests use ----------------------------------

def disj(*phis: Term) -> Term:
    """Right-associated disjunction; false disjuncts are dropped."""
    parts = [p for p in phis if p != bool_val(False)]
    if not parts:
        return bool_val(False)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = App(theory.OR, (p, out))
    return out


# --- random linear constraints ------------------------------------------------

def linear_atom(coeffs, vs, op, const):
    """op(c1*v1 + c2*v2 + .., const), the zero terms left out."""
    total = int_val(0)
    for c, v in zip(coeffs, vs):
        if c:
            total = theory.add(total, theory.mul(c, v))
    return op(total, const)


LINEAR_OPS = (theory.le, theory.lt, theory.eq, theory.ne, theory.ge)
LINEAR_ATOM = st.tuples(st.lists(st.integers(-2, 2), min_size=5, max_size=5), st.sampled_from(LINEAR_OPS), st.integers(-3, 3))


# --- test-side oracles: plain rewriting, multi-steps and closedness ----------

PLAIN_SOLVER = ConstraintSolver()  # plain rewriting asks it only whether true is satisfiable


def plain_successors(s: Term, lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> list[tuple[Term, Redex]]:
    """Single plain steps, each with its redex (position, rule, full
    substitution): constrained steps under true."""
    return [(r.term, rec) for r, rec in cstep(ConstrainedTerm(s), lctrs, PLAIN_SOLVER, config)]


def plain_parallel_successors(
    s: Term, lctrs: Lctrs, config: RewriteConfig = RewriteConfig()
) -> list[tuple[Term, tuple[Position, ...]]]:
    """All parallel-step results with their exact redex position sets."""
    steps = constrained_steps(ConstrainedTerm(s), parallel_steps, lctrs, PLAIN_SOLVER, config)
    return [(r.term, ps) for r, ps in steps]


def plain_multi_successors(s: Term, lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> set[Term]:
    """Multi-step results up to the engine's nesting bound."""
    return {r.term for r, _ in constrained_steps(ConstrainedTerm(s), multi_steps, lctrs, PLAIN_SOLVER, config)}


def frag_multi(t: Term, fragment: GroundFragment) -> set[Term]:
    return {r for r, _ in multi_steps(t, redexes(t, fragment.oracle))}


def trs_closedness_check(fragment: GroundFragment, depth: int = 6) -> dict:
    """Development/parallel closedness measured directly on the fragment,
    multi-steps nested and parallel steps capped as the engine's constants
    say."""
    cps = trs_cps(fragment)
    pcps = trs_pcps(fragment)

    def parallel(t: Term):
        return parallel_steps(t, redexes(t, fragment.oracle))

    dev_all = adc_all = par1 = True
    for cp in cps:
        multi = frag_multi(cp.left, fragment)
        closed_dev = cp.right in multi
        dev_all = dev_all and closed_dev
        reach_t, _ = reachable(cp.right, fragment, depth)
        if not closed_dev:
            adc_all = adc_all and cp.overlay and bool(multi & reach_t)
        par = {r for r, _ in parallel(cp.left)}
        par1 = par1 and bool(par & reach_t)
    par2 = True
    for pcp in pcps:
        reach_s, _ = reachable(pcp.left, fragment, depth)
        allowed = tvar(pcp.peak_source, pcp.constraint, pcp.pset)
        par2 = par2 and any(
            v in reach_s and tvar(v, pcp.constraint, qset) <= allowed for v, qset in parallel(pcp.right)
        )
    return {
        "development_closed": dev_all,
        "almost_development_closed": adc_all,
        "parallel_closed_1": par1,
        "parallel_closed_2": par2,
        "cp_count": len(cps),
        "pcp_count": len(pcps),
    }


def run_every_closing_check(lctrs: Lctrs, verdict, solver: ConstraintSolver) -> None:
    """Run the closing checks on every pair of an analyze verdict with the
    solver it used, the pairs shown trivial included: each CCP through
    dev_closed_check and parallel_closed_1, each CPCP through
    parallel_closed_2.  A test of the search's solver and oracle traffic
    calls it after analyze, which starts no search from a trivial pair."""
    for ccp in verdict.ccps:
        dev_closed_check(ccp, lctrs, solver)
        parallel_closed_1(ccp, lctrs, solver)
    for cpcp in verdict.cpcps or ():
        parallel_closed_2(cpcp, lctrs, solver)


# --- test-side oracle: equivalence of constrained terms -----------------------

def equiv(a: ConstrainedTerm, b: ConstrainedTerm, solver: ConstraintSolver) -> str:
    """Yes / No / Unknown for the equivalence of two constrained terms.

    Structural alignment first: outside constraint-variable positions the
    terms must agree syntactically; the aligned positions reduce equivalence
    to a pair of forall/exists sentences over the theory.
    """
    sat_a = solver.is_satisfiable(a.constraint)
    sat_b = solver.is_satisfiable(b.constraint)
    if sat_a.is_unknown or sat_b.is_unknown:
        return "unknown"
    if sat_a.status == "unsat" and sat_b.status == "unsat":
        return "yes"
    if sat_a.status == "unsat" or sat_b.status == "unsat":
        return "no"

    eqs = _align(a.term, variables(a.constraint), b.term, variables(b.constraint))
    if eqs is None:
        return "no"

    verdict1 = _direction(a, b, eqs, solver)
    verdict2 = _direction(b, a, [(r, l) for l, r in eqs], solver)
    if verdict1 == "valid" and verdict2 == "valid":
        return "yes"
    if "invalid" in (verdict1, verdict2):
        return "no"
    return "unknown"


def _direction(a: ConstrainedTerm, b: ConstrainedTerm, eqs, solver: ConstraintSolver) -> str:
    """forall models of a.constraint, exists model of b.constraint matching."""
    avars = sorted(variables(a.constraint), key=lambda v: v.name)
    bvars = sorted(variables(b.constraint), key=lambda v: v.name)
    ren = rename_away(bvars, avars)
    psi = apply_subst(ren, b.constraint)
    conds = [theory.eq(l, apply_subst(ren, r)) for l, r in eqs]
    body = theory.imp(a.constraint, theory.conj(psi, *conds))
    prefix = [("forall", avars), ("exists", [ren.get(v, v) for v in bvars])]
    return solver.is_valid_quantified(prefix, body).status


# --- test-side oracle: PCP candidates, packed and rewritten -------------------

def encode_string(indices, size: int) -> int:
    """Candidate string to natural number; accepts digit strings for N <= 9."""
    if isinstance(indices, str):
        indices = [int(c) for c in indices]
    indices = list(indices)
    if any(not 1 <= i <= size for i in indices):
        raise ValueError(f"indices must lie in 1..{size}: {indices}")
    out = 0
    for i in reversed(indices):
        out = size * out + i
    return out


def decode(n: int, size: int) -> tuple[int, ...]:
    if n < 0 or size < 1:
        raise ValueError("need n >= 0 and size >= 1")
    out = []
    while n > 0:
        i = (n - 1) % size + 1
        out.append(i)
        n = (n - i) // size
    return tuple(out)


def _max_literal(t: Term) -> int:
    if isinstance(t, App):
        if is_value(t) and t.sym.result_sort == INT:
            return abs(value_of(t))
        return max((_max_literal(a) for a in t.args), default=0)
    return 0


def check_candidate(instance: PCPInstance, n: int, depth: int | None = None) -> str:
    """Rewrite the candidate test to a normal form within the fuel bound.

    The quotient in the recursive guards strictly decreases, so the default
    fuel of 10 steps per decoded index always suffices.
    """
    if n <= 0:
        raise ValueError("candidates are positive numbers")
    system = build_rp(instance)
    word_len = len(decode(n, instance.size))
    fuel = depth if depth is not None else 10 * max(word_len, 1)
    sig = system.signature.term_syms
    t: Term = App(sig["test"], (App(sig["alpha"], (int_val(n),)), App(sig["beta"], (int_val(n),)), int_val(n)))
    for _ in range(fuel):
        config = RewriteConfig(lo=0, hi=_max_literal(t))
        successors = plain_successors(t, system, config)
        if not successors:
            break
        t = sorted((r for r, _ in successors), key=repr)[0]
    if t == App(sig["top"]):
        return "solution"
    if t == App(sig["bot"]):
        return "non_solution"
    return "out_of_fuel"


@pytest.fixture(scope="session")
def solver():
    return ConstraintSolver()


def corpus_system(name: str) -> Lctrs:
    """The corpus system name, given with or without its .lctrs suffix."""
    return parse((CORPUS / name).with_suffix(".lctrs").read_text())


@pytest.fixture(scope="session")
def single_value():
    """One rule a -> x [x = 0] over the integers."""
    return corpus_system("single_value_choice")


@pytest.fixture(scope="session")
def swap():
    """Guarded overlay system with a commuting g and a calculation chain."""
    return corpus_system("guarded_swap")


@pytest.fixture(scope="session")
def parity():
    """f collapses to g or (on 1..2) h; g picks h(2) on evens, h(1) on odds."""
    return corpus_system("parity_split")


@pytest.fixture(scope="session")
def calc_chain():
    """f(a) closes against a step whose alignment needs two calculations."""
    return corpus_system("calc_chain")


@pytest.fixture(scope="session")
def var_tracking():
    """Unconstrained system whose closing step moves a tracked variable."""
    return corpus_system("var_tracking")


@pytest.fixture(scope="session")
def projection():
    return corpus_system("projection")
