"""Finite realization of the value-instantiated rule set, used as an oracle.

Every guarded rule is instantiated with all guard-satisfying value
assignments drawn from a finite domain, and every theory symbol occurring in
the rules' term sides contributes its calculation instances over that domain.
The result is a rule set without logical variables, run by the plain
rewrite engine and overlapped by the critical-pair enumerator of the
constrained analysis.  On it we compute ordinary (parallel) critical pairs,
joinability, closedness, and the correspondence reports that tie the
fragment back to the constrained analysis.
"""

from __future__ import annotations

import functools
import itertools

from . import theory
from .analysis import (
    CCPRecord,
    CPCPRecord,
    Overlaps,
    _critical_pairs,
    _parallel_critical_pairs,
    ccps,
    cpcps,
    mk_pair,
    single_overlaps,
)
from .logic import ConstraintSolver
from .rewriting import (
    ConstrainedTerm,
    Redex,
    RedexOracle,
    RewriteConfig,
    _oracle,
    breadth_first,
    cstep,
    domain_terms,
    redexes,
    single_steps,
)
from .rules import Assignments, ConstrainedRule, Lctrs, value_calc_instance, value_options
from .terms import (
    App,
    FunSym,
    LhsIndex,
    Sort,
    Subst,
    Term,
    Var,
    apply_subst,
    is_value,
    match,
    positions,
    term_key,
    variables,
)


class GroundFragment:
    def __init__(self, rules: tuple[ConstrainedRule, ...], lhs_index: LhsIndex, oracle: RedexOracle):
        self.rules = rules  # true guards, no logical variables
        self.lhs_index = lhs_index
        self.oracle = oracle  # matching the rules
        self.successors: dict[Term, tuple[tuple[Term, Redex], ...]] = {}  # see frag_successors

    @functools.cached_property
    def overlaps(self) -> Overlaps:
        """The unified overlaps of the rules, which trs_cps and trs_pcps read."""
        return single_overlaps(self.rules, self.lhs_index)


def _side_syms(lctrs: Lctrs, kind: str) -> list[FunSym]:
    """Symbols of the given kind in the rules' term sides, in order of first
    occurrence."""
    subterms = (sub for rule in lctrs.rules for side in (rule.lhs, rule.rhs) for _, sub in positions(side))
    return list(dict.fromkeys(s.sym for s in subterms if s.sym.kind == kind))


def constraint_assignments(phi: Term, vs, domain, limit: int | None = None, calc_results=frozenset()) -> list[Subst]:
    """The assignments of domain values to the variables vs, which must
    include every variable of phi, under which phi holds; the first `limit`
    that the solve-then-enumerate procedure (rules.Assignments) finds.  A
    defined variable's computed value must lie in the domain, unless it is
    in `calc_results`."""
    solve = Assignments(phi, vs, calc_results=calc_results)
    return solve({v: value_options(domain[v.sort]) for v in solve.order}, (), limit)


def ground_fragment(lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> GroundFragment:
    """Instantiate every rule over the finite domain; deterministic order."""
    domain = domain_terms(lctrs, config)
    out: dict[str, ConstrainedRule] = {}
    for rule in lctrs.rules:
        for tau in constraint_assignments(rule.guard, rule.lvar(), domain):
            inst = rule.instance(tau)
            out.setdefault(inst.key(), inst)
    for sym in _side_syms(lctrs, "theory"):
        for combo in itertools.product(*(domain[s] for s in sym.arg_sorts)):
            inst = value_calc_instance(App(sym, combo))
            out.setdefault(inst.key(), inst)
    rules = tuple(rule for _, rule in sorted(out.items()))
    index = LhsIndex(rule.lhs for rule in rules)
    return GroundFragment(rules, index, _oracle(rules, index, lambda rule, sigma0: (sigma0,)))


# --- fragment rewriting: the engine over the fragment's rules -----------------

def frag_successors(t: Term, fragment: GroundFragment) -> tuple[tuple[Term, Redex], ...]:
    """The (successor, redex) steps of t, each term stepped once per fragment."""
    if t not in fragment.successors:
        fragment.successors[t] = tuple(single_steps(t, redexes(t, fragment.oracle)))
    return fragment.successors[t]


def reachable(t: Term, fragment: GroundFragment, depth: int) -> tuple[set[Term], bool]:
    """Reachable set within depth steps and whether it is closed under ->:
    searching one level further, the first term beyond the bound ends it."""
    seen: set[Term] = set()
    for s, path in breadth_first(t, lambda u: frag_successors(u, fragment), depth + 1):
        if len(path) > depth + 1:
            return seen, False
        seen.add(s)
    return seen, True


def joinable(fragment: GroundFragment, s: Term, t: Term, depth: int = 8):
    """("joinable", common) / ("not_within_bound", None) /
    ("disjoint_normal_forms", None) with the disjoint claim only made when
    both reachable sets are closed under rewriting within the bound."""
    rs, closed_s = reachable(s, fragment, depth)
    rt, closed_t = reachable(t, fragment, depth)
    common = rs & rt
    if common:
        pick = sorted(common, key=term_key)[0]
        return "joinable", pick
    if closed_s and closed_t:
        return "disjoint_normal_forms", None
    return "not_within_bound", None


# --- plain critical pairs -------------------------------------------------------

def _always_sat(guards: Term) -> str:
    return "sat"  # fragment guards are all true


def trs_cps(fragment: GroundFragment) -> list[CCPRecord]:
    """Critical pairs of the fragment, with true constraints."""
    return _critical_pairs(fragment.overlaps, _always_sat)


def trs_pcps(fragment: GroundFragment) -> list[CPCPRecord]:
    """Parallel critical pairs of the fragment, with true constraints."""
    return _parallel_critical_pairs(fragment.rules, fragment.overlaps, _always_sat)


def pair_instances(pairs: list[CCPRecord], domain) -> list[CCPRecord]:
    """The non-trivial instances of constrained critical pairs under the
    domain assignments that satisfy their constraints, a calculation's
    result taking its computed value; with constraint true, one per key, in
    key order.  By the paper's correspondence theorem these are the critical
    pairs of the transformed system, and over the finite domain they are
    trs_cps of the ground fragment less its trivial pairs, in trs_cps's
    order."""
    true = theory.bool_val(True)
    out: dict[str, CCPRecord] = {}
    for c in pairs:
        for sigma in constraint_assignments(c.constraint, variables(c.constraint), domain, calc_results=c.calc_results):
            left, right = apply_subst(sigma, c.left), apply_subst(sigma, c.right)
            if left != right:
                rec = CCPRecord(left, right, true, c.position, apply_subst(sigma, c.peak_source))
                out.setdefault(rec.key(), rec)
    return [out[key] for key in sorted(out)]


def find_nonjoinable_peak(fragment: GroundFragment, peaks, depth: int = 8):
    """The first of the peaks (critical pairs of the fragment) whose two
    sides reach disjoint normal forms within depth steps, or None."""
    for cp in peaks:
        status, _ = joinable(fragment, cp.left, cp.right, depth)
        if status == "disjoint_normal_forms":
            return cp.left, cp.right
    return None


# --- correspondence reports -----------------------------------------------------

class Report:
    def __init__(self, checked: int = 0, violations: list[str] | None = None):
        self.checked = checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "pass" if self.ok else "FAIL"
        lines = "".join(f"\n  {v}" for v in self.violations[:10])
        return f"<{state}: {self.checked} checks{lines}>"


def _instance_matches(source, pair, domain) -> bool:
    """Is the fragment pair an instance of the constrained source pair, under
    a matcher that respects the source's constraint?"""
    gamma = match(source.pair().term, pair.pair().term)
    if gamma is None:
        return False
    if any(not is_value(gamma[x]) for x in variables(source.constraint) & set(gamma)):
        return False
    # extend over constraint variables not bound by the match
    phi = apply_subst(gamma, source.constraint)
    return bool(constraint_assignments(phi, variables(phi), domain, limit=1))


def check_cp_correspondence(
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    samples: int = 50,
    seed: int = 0,
) -> Report:
    """Two directions: every fragment (parallel) critical pair instantiates a
    constrained one, and every sampled instance of a constrained critical
    pair is trivial or matches a fragment critical pair."""
    report = Report()
    fragment = ground_fragment(lctrs, config)
    domain = domain_terms(lctrs, config)
    constrained = ccps(lctrs, solver)
    frag_cps = trs_cps(fragment)
    for kind, pairs, sources in (
        ("pair", frag_cps, constrained),
        ("parallel pair", trs_pcps(fragment), cpcps(lctrs, solver)),
    ):
        for cp in pairs:
            report.checked += 1
            if not any(_instance_matches(c, cp, domain) for c in sources):
                report.violations.append(f"fragment {kind} has no constrained source: {cp.left!r} ~ {cp.right!r}")

    import random  # only the check samples

    rng = random.Random(seed)
    for c in constrained:
        models = constraint_assignments(c.constraint, variables(c.constraint), domain, limit=4 * samples)
        rng.shuffle(models)
        for sigma in models[:samples]:
            report.checked += 1
            inst_l = apply_subst(sigma, c.left)
            inst_r = apply_subst(sigma, c.right)
            if inst_l == inst_r:
                continue
            if any(match(cp.pair().term, mk_pair(inst_l, inst_r)) is not None for cp in frag_cps):
                continue
            report.violations.append(
                f"instance {inst_l!r} ~ {inst_r!r} of {c!r} has no fragment counterpart"
            )
    return report


def _sample_terms(lctrs: Lctrs, config: RewriteConfig, count: int, seed: int) -> list[Term]:
    """Random terms over the rules' symbols, domain values and variables."""
    import random  # only the check samples

    rng = random.Random(seed)
    domain = domain_terms(lctrs, config)
    term_syms = sorted(_side_syms(lctrs, "term"), key=lambda f: f.name)
    theory_syms = _side_syms(lctrs, "theory")
    by_sort: dict[Sort, list] = {}
    for f in term_syms + theory_syms:
        by_sort.setdefault(f.result_sort, []).append(f)

    def gen(sort: Sort, depth: int) -> Term:
        leaves: list[Term] = list(domain.get(sort, ()))
        leaves.append(Var(rng.choice("uvw"), sort))
        funs = by_sort.get(sort, [])
        if depth <= 0 or not funs or rng.random() < 0.25:
            return rng.choice(leaves)
        f = rng.choice(funs)
        return App(f, tuple(gen(s, depth - 1) for s in f.arg_sorts))

    sorts = sorted({r.lhs.sym.result_sort for r in lctrs.rules}, key=lambda s: s.name)
    if not sorts:
        return []  # no rules, so no sort to sample a term of
    return [gen(rng.choice(sorts), rng.randint(1, 3)) for _ in range(count)]


def check_step_equivalence(
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    samples: int = 50,
    seed: int = 0,
) -> Report:
    """One-step successor sets agree between the guarded rules (with values
    from the domain, rewriting under the constraint true) and the
    instantiated fragment, on sampled terms."""
    report = Report()
    fragment = ground_fragment(lctrs, config)
    for t in _sample_terms(lctrs, config, samples, seed):
        report.checked += 1
        via_rules = {r.term for r, _ in cstep(ConstrainedTerm(t), lctrs, solver, config)}
        via_fragment = {r for r, _ in frag_successors(t, fragment)}
        if via_rules != via_fragment:
            only_r = {term_key(u) for u in via_rules - via_fragment}
            only_f = {term_key(u) for u in via_fragment - via_rules}
            report.violations.append(
                f"successors of {t!r} differ: rules-only {sorted(only_r)}, fragment-only {sorted(only_f)}"
            )
    return report


def check_instance_soundness(
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    samples: int = 20,
) -> Report:
    """Constrained steps from the critical pairs replay on ground instances:
    for every step out of a pair and every sampled model of its constraint,
    the instantiated step is an ordinary rewrite step at the same position."""
    report = Report()
    domain = domain_terms(lctrs, config)
    for ccp in ccps(lctrs, solver):
        ct = ccp.pair()
        for res, (position, _, _) in cstep(ct, lctrs, solver, config):
            for sigma in constraint_assignments(ct.constraint, variables(ct.constraint), domain, limit=samples):
                report.checked += 1
                before = apply_subst(sigma, ct.term)
                after = apply_subst(sigma, res.term)
                ground = {(r.term, red[0]) for r, red in cstep(ConstrainedTerm(before), lctrs, solver, config)}
                if (after, position) not in ground:
                    report.violations.append(f"step at {position} from {ct!r} does not replay under {sigma}")
    return report
