"""The ground fragment: the value-instantiated rule set over a finite
domain, used as an oracle.

The paper's transformation instantiates the logical variables of every rule
with every value, so the transformed system is infinite; the fragment is its
restriction to the values of a finite domain, and every theory symbol
occurring in the rules' term sides contributes its calculation instances
over that domain.  It is stepped on demand: its oracle matches the system's
own rules and instantiates a match only when every logical variable the
match binds is a domain value, completing it with the guard-satisfying
choices of domain values for the rest.  So the NO search (pair_instances,
find_nonjoinable_peak) instantiates only where it steps.  The instantiated
list (GroundFragment.rules) is built when `lctrs ground` prints it or the
checks overlap it: on it we compute ordinary (parallel) critical pairs.
check_cp_correspondence ties them back to the constrained analysis, the
non-trivial ones key for key to the peaks the NO search takes, and
check_step_equivalence compares the list's steps, the on-demand ones and
the constrained ones on every term a fragment rule steps at its root and
every term the NO search steps.
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
    single_overlaps,
)
from .logic import ConstraintSolver
from .rewriting import (
    ConstrainedTerm,
    Redex,
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
    LhsIndex,
    Subst,
    Term,
    apply_subst,
    is_value,
    match,
    positions,
    term_key,
    value_of,
    variables,
)


class GroundFragment:
    """The ground fragment over one config's domain.  Its oracle matches the
    system's own rules (rc_rules) and instantiates a match only where a term
    is stepped; each stepped term's steps (successors) and each searched
    side's reachable set (reached) are kept; the instantiated rule list, its
    index and its overlaps are built the first time they are read."""

    def __init__(self, lctrs: Lctrs, config: RewriteConfig):
        self.lctrs = lctrs
        self.domain = domain_terms(lctrs, config)
        self.values = {sort: frozenset(terms) for sort, terms in self.domain.items()}
        self.options = {sort: value_options(terms) for sort, terms in self.domain.items()}
        sides = (sub for rule in lctrs.rules for side in (rule.lhs, rule.rhs) for _, sub in positions(side))
        # theory symbols of the rules' term sides, in order of first occurrence
        self.calc_syms = dict.fromkeys(sub.sym for sub in sides if sub.sym.kind == "theory")
        self.oracle = _oracle(lctrs.rc_rules, lctrs.lhs_index, self._instances)  # the fragment's redexes
        self.successors: dict[Term, tuple[tuple[Term, Redex], ...]] = {}  # see frag_successors
        self.reached: dict[tuple[Term, int], tuple[frozenset[Term], bool]] = {}  # see reachable

    def _instances(self, rule: ConstrainedRule, sigma0: Subst):
        """The fragment instances a match sigma0 of the rule steps with: none
        unless every logical variable the match binds is a domain value; a
        calculation its one instance, when its symbol occurs in the rules'
        term sides; any other rule one per choice of domain values for the
        variables it has to choose under which the guard holds."""
        values = self.values
        if not all(sigma0.get(x, x) in values[x.sort] for x in rule.lvar_split[0]):
            return ()
        if rule.calc:
            if rule.lhs.sym not in self.calc_syms:
                return ()
            return ({**sigma0, rule.rhs: theory.interpret_term(apply_subst(sigma0, rule.lhs))},)
        solve = rule.assignments
        opts = {x: self.options[x.sort] for x in solve.order}
        return [{**sigma0, **choice} for choice in solve(opts, [value_of(sigma0[x]) for x in solve.inputs])]

    @functools.cached_property
    def rules(self) -> tuple[ConstrainedRule, ...]:
        """Every rule instantiated over the domain, and every calculation
        instance of a theory symbol in the rules' term sides: true guards,
        no logical variables, in key order.  Only `lctrs ground` and the
        checks read it."""
        out: dict[str, ConstrainedRule] = {}
        for rule in self.lctrs.rules:
            for tau in constraint_assignments(rule.guard, rule.lvar(), self.domain):
                inst = rule.instance(tau)
                out.setdefault(inst.key(), inst)
        for t in self.calculations():
            inst = value_calc_instance(t)
            out.setdefault(inst.key(), inst)
        return tuple(rule for _, rule in sorted(out.items()))

    def calculations(self) -> list[App]:
        """Each calculation symbol applied to each combination of domain values."""
        domain = self.domain
        return [App(f, args) for f in self.calc_syms for args in itertools.product(*(domain[s] for s in f.arg_sorts))]

    @functools.cached_property
    def lhs_index(self) -> LhsIndex:
        return LhsIndex(rule.lhs for rule in self.rules)

    @functools.cached_property
    def overlaps(self) -> Overlaps:
        """The unified overlaps of the rules, which trs_cps and trs_pcps read."""
        return single_overlaps(self.rules, self.lhs_index)


def constraint_assignments(phi: Term, vs, domain, limit: int | None = None, calc_results=frozenset()) -> list[Subst]:
    """The assignments of domain values to the variables vs, which must
    include every variable of phi, under which phi holds; the first `limit`
    that the solve-then-enumerate procedure (rules.Assignments) finds.  A
    defined variable's computed value must lie in the domain, unless it is
    in `calc_results`."""
    solve = Assignments(phi, vs, calc_results=calc_results)
    return solve({v: value_options(domain[v.sort]) for v in solve.order}, (), limit)


def ground_fragment(lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> GroundFragment:
    """The ground fragment of lctrs over the config's domain."""
    return GroundFragment(lctrs, config)


# --- fragment rewriting: the engine over the fragment's oracle ----------------

def frag_successors(t: Term, fragment: GroundFragment) -> tuple[tuple[Term, Redex], ...]:
    """The (successor, redex) steps of t, each term stepped once per fragment."""
    if t not in fragment.successors:
        fragment.successors[t] = tuple(single_steps(t, redexes(t, fragment.oracle)))
    return fragment.successors[t]


def reachable(t: Term, fragment: GroundFragment, depth: int) -> tuple[frozenset[Term], bool]:
    """Reachable set within depth steps and whether it is closed under ->:
    searching one level further, the first term beyond the bound ends it.
    Each (term, depth) is searched once per fragment and kept
    (fragment.reached), since the peaks of the NO search share their sides."""
    key = (t, depth)
    if key not in fragment.reached:
        seen: set[Term] = set()
        closed = True
        for s, path in breadth_first(t, lambda u: frag_successors(u, fragment), depth + 1):
            if len(path) > depth + 1:
                closed = False
                break
            seen.add(s)
        fragment.reached[key] = frozenset(seen), closed
    return fragment.reached[key]


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


def find_nonjoinable_peak(fragment: GroundFragment, peaks):
    """The first of the peaks (critical pairs of the fragment) whose two
    sides reach disjoint normal forms within joinable's depth, or None."""
    for cp in peaks:
        status, _ = joinable(fragment, cp.left, cp.right)
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
) -> Report:
    """The correspondence theorem on the fragment: the non-trivial fragment
    critical pairs are, key for key, the peaks the NO search takes
    (pair_instances of the constrained critical pairs), and every trivial
    fragment pair and every parallel one instantiates a constrained one.
    Both lists are in key order, so equal key sets also mean that the NO
    search meets the same first witness as the fragment's own pairs would."""
    report = Report()
    fragment = ground_fragment(lctrs, config)
    constrained = ccps(lctrs, solver)
    frag_cps = trs_cps(fragment)
    pairs = {cp.key() for cp in frag_cps if cp.left != cp.right}
    peaks = {cp.key() for cp in pair_instances(constrained, fragment.domain)}
    report.checked = len(pairs | peaks)
    report.violations += [f"fragment pair {key} is no peak" for key in sorted(pairs - peaks)]
    report.violations += [f"peak {key} is no fragment pair" for key in sorted(peaks - pairs)]
    for kind, cps, sources in (
        ("pair", [cp for cp in frag_cps if cp.left == cp.right], constrained),
        ("parallel pair", trs_pcps(fragment), cpcps(lctrs, solver)),
    ):
        for cp in cps:
            report.checked += 1
            if not any(_instance_matches(c, cp, fragment.domain) for c in sources):
                report.violations.append(f"fragment {kind} has no constrained source: {cp.left!r} ~ {cp.right!r}")
    return report


def check_step_equivalence(
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
) -> Report:
    """One-step successor sets agree between the guarded rules (with values
    from the domain, rewriting under the constraint true), the fragment's
    on-demand steps and the steps of its instantiated rules.  The subjects
    are every term some fragment rule steps at its root (each left-hand side
    with its matched logical variables at each combination of domain values,
    each calculation over domain values) and every term the NO search steps.
    All three relations are closed under contexts and decide a root step from
    the rule and the values of those variables alone, so agreement on these
    subjects is agreement on every term over the domain."""
    report = Report()
    fragment = ground_fragment(lctrs, config)
    domain = fragment.domain
    subjects: list[Term] = []
    for rule in lctrs.rules:
        xs = sorted(rule.lvar_split[0], key=lambda v: v.name)
        for combo in itertools.product(*(domain[x.sort] for x in xs)):
            subjects.append(apply_subst(dict(zip(xs, combo)), rule.lhs))
    subjects += fragment.calculations()
    find_nonjoinable_peak(fragment, pair_instances(ccps(lctrs, solver), domain))
    subjects += fragment.successors
    listed = _oracle(fragment.rules, fragment.lhs_index, lambda rule, sigma0: (sigma0,))
    for t in dict.fromkeys(subjects):
        report.checked += 1
        via_rules = {r.term for r, _ in cstep(ConstrainedTerm(t), lctrs, solver, config)}
        for name, steps in (
            ("fragment", frag_successors(t, fragment)),
            ("listed", single_steps(t, redexes(t, listed))),
        ):
            got = {r for r, _ in steps}
            if via_rules != got:
                only_r = {term_key(u) for u in via_rules - got}
                only_f = {term_key(u) for u in got - via_rules}
                report.violations.append(
                    f"successors of {t!r} differ: rules-only {sorted(only_r)}, {name}-only {sorted(only_f)}"
                )
    return report


def check_instance_soundness(
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
) -> Report:
    """Constrained steps from the critical pairs replay on ground instances:
    for every step out of a pair and each of the first 20 models of its
    constraint, the instantiated step is an ordinary rewrite step at the
    same position."""
    report = Report()
    domain = domain_terms(lctrs, config)
    for ccp in ccps(lctrs, solver):
        ct = ccp.pair()
        for res, (position, _, _) in cstep(ct, lctrs, solver, config):
            for sigma in constraint_assignments(ct.constraint, variables(ct.constraint), domain, limit=20):
                report.checked += 1
                before = apply_subst(sigma, ct.term)
                after = apply_subst(sigma, res.term)
                ground = {(r.term, red[0]) for r, red in cstep(ConstrainedTerm(before), lctrs, solver, config)}
                if (after, position) not in ground:
                    report.violations.append(f"step at {position} from {ct!r} does not replay under {sigma}")
    return report
