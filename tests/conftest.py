import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lctrs import theory
from lctrs.analysis import tvar
from lctrs.grounding import GroundFragment, reachable, trs_cps, trs_pcps
from lctrs.logic import ConstraintSolver
from lctrs.rewriting import MULTI_NESTING, RewriteConfig, multi_steps, parallel_steps, plain_oracle, redexes
from lctrs.rules import ConstrainedRule, Lctrs, Signature
from lctrs.terms import App, INT, Sort, Term, Var, int_val

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
REFSOLVER_CMD = f"{sys.executable} {REPO / 'scripts' / 'refsolver.py'}"

U = Sort("U")


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


# --- test-side oracles: multi-steps and closedness of plain rewriting ---------

def plain_multi_successors(s: Term, lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> set[Term]:
    """Multi-step results up to the engine's nesting bound."""
    return multi_steps(s, plain_oracle(lctrs, config), MULTI_NESTING)


def frag_multi(t: Term, fragment: GroundFragment) -> set[Term]:
    return multi_steps(t, fragment.oracle, MULTI_NESTING)


def trs_closedness_check(fragment: GroundFragment, depth: int = 6) -> dict:
    """Development/parallel closedness measured directly on the fragment,
    multi-steps nested and parallel steps capped as its RewriteConfig says."""
    cps = trs_cps(fragment)
    pcps = trs_pcps(fragment)

    def parallel(t: Term):
        return parallel_steps(t, redexes(t, fragment.oracle), fragment.config.max_parallel_sets)

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


@pytest.fixture(scope="session")
def solver():
    return ConstraintSolver()


def _sig(funs):
    sig = Signature()
    by_name = {}
    for name, args, res in funs:
        for s in list(args) + [res]:
            if s.name not in sig.sorts:
                sig.sorts[s.name] = s
        by_name[name] = sig.add_fun(name, list(args), res)
    return sig, by_name


def build_single_value():
    """One rule a -> x [x = 0] over the integers."""
    sig, f = _sig([("a", [], INT)])
    x = Var("x", INT)
    return Lctrs(sig, (ConstrainedRule(App(f["a"]), x, theory.eq(x, 0)),))


def build_swap():
    """Guarded overlay system with a commuting g and a calculation chain."""
    sig, f = _sig(
        [
            ("f", [INT, INT], INT),
            ("g", [INT, INT], INT),
            ("h", [INT], INT),
            ("c", [INT, INT], INT),
        ]
    )
    x, y = Var("x", INT), Var("y", INT)
    rules = (
        ConstrainedRule(
            App(f["f"], (x, y)),
            App(f["h"], (App(f["g"], (y, theory.mul(2, 2))),)),
            theory.conj(theory.le(x, y), theory.eq(y, 2)),
        ),
        ConstrainedRule(
            App(f["f"], (x, y)), App(f["c"], (int_val(4), x)), theory.le(y, x)
        ),
        ConstrainedRule(App(f["g"], (x, y)), App(f["g"], (y, x))),
        ConstrainedRule(App(f["h"], (x,)), x),
        ConstrainedRule(
            App(f["c"], (x, y)), App(f["g"], (int_val(4), int_val(2))), theory.ne(x, y)
        ),
    )
    return Lctrs(sig, rules)


def build_parity():
    """f collapses to g or (on 1..2) h; g picks h(2) on evens, h(1) on odds."""
    sig, f = _sig([("f", [INT], INT), ("g", [INT], INT), ("h", [INT], INT)])
    x, z = Var("x", INT), Var("z", INT)
    rules = (
        ConstrainedRule(App(f["f"], (x,)), App(f["g"], (x,))),
        ConstrainedRule(
            App(f["f"], (x,)),
            App(f["h"], (x,)),
            theory.conj(theory.le(1, x), theory.le(x, 2)),
        ),
        ConstrainedRule(
            App(f["g"], (x,)), App(f["h"], (int_val(2),)), theory.eq(x, theory.mul(2, z))
        ),
        ConstrainedRule(
            App(f["g"], (x,)),
            App(f["h"], (int_val(1),)),
            theory.eq(x, theory.add(theory.mul(2, z), 1)),
        ),
    )
    return Lctrs(sig, rules)


def build_calc_chain():
    """f(a) closes against a step whose alignment needs two calculations."""
    sig, f = _sig([("f", [INT], INT), ("a", [], INT), ("g", [INT, INT], INT)])
    x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)
    rules = (
        ConstrainedRule(App(f["f"], (App(f["a"]),)), App(f["g"], (int_val(4), int_val(4)))),
        ConstrainedRule(App(f["a"]), App(f["g"], (theory.add(1, 1), theory.add(3, 1)))),
        ConstrainedRule(
            App(f["g"], (x, y)),
            App(f["f"], (App(f["g"], (z, y)),)),
            theory.eq(z, theory.sub(x, 2)),
        ),
    )
    return Lctrs(sig, rules)


def build_var_tracking():
    """Unconstrained system whose closing step moves a tracked variable."""
    sig, f = _sig([("f", [U, U], U), ("g", [U], U), ("a", [], U), ("b", [], U)])
    x, y = Var("x", U), Var("y", U)
    rules = (
        ConstrainedRule(App(f["f"], (App(f["g"], (x,)), y)), App(f["f"], (App(f["b"]), y))),
        ConstrainedRule(App(f["g"], (x,)), App(f["a"])),
        ConstrainedRule(App(f["f"], (App(f["a"]), x)), x),
        ConstrainedRule(App(f["f"], (App(f["b"]), x)), x),
    )
    return Lctrs(sig, rules)


def build_projection():
    sig, f = _sig([("f", [U, U], U)])
    x, y = Var("x", U), Var("y", U)
    return Lctrs(sig, (ConstrainedRule(App(f["f"], (x, y)), x),))


@pytest.fixture(scope="session")
def single_value():
    return build_single_value()


@pytest.fixture(scope="session")
def swap():
    return build_swap()


@pytest.fixture(scope="session")
def parity():
    return build_parity()


@pytest.fixture(scope="session")
def calc_chain():
    return build_calc_chain()


@pytest.fixture(scope="session")
def var_tracking():
    return build_var_tracking()


@pytest.fixture(scope="session")
def projection():
    return build_projection()
