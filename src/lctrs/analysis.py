"""Overlaps, constrained (parallel) critical pairs, closedness, verdicts.

Critical pairs are generated from variable-disjoint copies of the combined
rule set (rules plus calculation rules); pairs of calculation rules are
skipped since their self-overlays pin both results to the same value.  The
overlap sites come from the rule set's LhsIndex, which keeps only the inner
rules that may unify at each function position of an outer left-hand side
and leaves the enumeration order as it is.  Each overlap of one inner rule
at one position is unified once per rule set (single_overlaps, kept as
Lctrs.overlaps): the critical pairs are the overlaps whose guards are
satisfiable, and a parallel critical pair at one position is the same overlap
renamed, so the parallel enumeration unifies only sets of two or more
positions.  The same enumerator overlaps the instantiated rules of a
ground fragment (GroundFragment.overlaps), which only check reads.  For
closedness searches the two sides are packed into a binary pair
constructor so the >=1 / >=2 position filters are ordinary subterm
filters.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import theory
from .logic import ConstraintSolver
from .rewriting import (
    ConstrainedTerm,
    RewriteConfig,
    breadth_first,
    cstep_tilde,
    domain_terms,
    multi_tilde,
    parallel_tilde,
)
from .rules import Lctrs, is_variant, rename_apart
from .terms import (
    App,
    EPSILON,
    FunSym,
    ParallelSetCap,
    Position,
    Record,
    Sort,
    Subst,
    Term,
    Var,
    alpha_key,
    apply_subst,
    is_value,
    parallel_subsets,
    positions,
    rename_away,
    replace_at,
    sort_of,
    subterm_at,
    unify,
    variables,
)

PAIR_SORT = Sort("<Pair>")


def pair_sym(sort: Sort) -> FunSym:
    return FunSym("<pair>", (sort, sort), PAIR_SORT, "term")


def mk_pair(s: Term, t: Term) -> App:
    return App(pair_sym(sort_of(s)), (s, t))


class CCPRecord(Record):
    __slots__ = ("left", "right", "constraint", "position", "peak_source", "calc_results")

    def __init__(self, left, right, constraint, position, peak_source, calc_results=frozenset()):
        """calc_results: the result variables of the pair's calculation-rule
        copy, which take the value the calculation gives, in the domain or
        not; the key ignores them."""
        Record.__init__(self, left, right, constraint, position, peak_source, calc_results)

    @property
    def overlay(self) -> bool:
        return self.position == EPSILON

    def pair(self) -> ConstrainedTerm:
        return ConstrainedTerm(mk_pair(self.left, self.right), self.constraint)

    def key(self) -> str:
        return alpha_key([self.left, self.right, self.constraint])

    def __repr__(self):
        return f"{self.left!r} ~ {self.right!r} [{self.constraint!r}]"


class CPCPRecord(Record):
    __slots__ = ("left", "right", "constraint", "pset", "peak_source")

    def pair(self) -> ConstrainedTerm:
        return ConstrainedTerm(mk_pair(self.left, self.right), self.constraint)

    def key(self) -> str:
        return alpha_key([self.left, self.right, self.constraint]) + f" P={self.pset}"

    def __repr__(self):
        return f"{self.left!r} ~ {self.right!r} [{self.constraint!r}] P={self.pset}"


class Overlap(Record):
    """Inner rule i overlapping the left-hand side of outer rule j at
    position p: the copies rename_apart([inner, outer]) gives, the unifier,
    and each copy's guard under it, inner copy first.  The peak and its two
    sides are computed on first read; most overlaps of a rule set never need
    them, their guards being unsatisfiable."""

    __slots__ = ("inner", "outer", "position", "copies", "sigma", "guards", "__dict__")

    @cached_property
    def sides(self) -> tuple[Term, Term, Term]:
        """The peak, its left (inner) and right (outer) side."""
        return _sides(self.sigma, self.copies[1], self.copies[:1], (self.position,))


def _unifier(rho, inners, pset):
    """The unifier of the inner copies with the subterms of the outer copy
    rho's left-hand side at the positions; None when there is none, when it
    binds a logical variable to a proper term, or for the root self-overlay
    of a rule whose right side has no variable of its own."""
    sigma = unify([(inner.lhs, subterm_at(rho.lhs, p)) for inner, p in zip(inners, pset)])
    if sigma is None:
        return None
    lvars = rho.lvar().union(*(r.lvar() for r in inners))
    if not all(is_value(sigma.get(x, x)) or isinstance(sigma.get(x, x), Var) for x in lvars):
        return None  # a logical variable bound to a proper term
    if pset == (EPSILON,) and rho.rhs.vars <= rho.lhs.vars and is_variant(inners[0], rho):
        return None
    return sigma


def _sides(sigma, rho, inners, pset) -> tuple[Term, Term, Term]:
    """The peak of an overlap under its unifier, its left (inner) and right
    (outer) side."""
    peak = apply_subst(sigma, rho.lhs)
    left = replace_at(peak, {p: apply_subst(sigma, inner.rhs) for inner, p in zip(inners, pset)})
    return peak, left, apply_subst(sigma, rho.rhs)


class Overlaps(Record):
    """A rule set's one-position overlaps, and per outer rule the inner rules
    retrieved as unifiable at each function position of its left-hand side."""

    __slots__ = ("single", "hits")


def single_overlaps(rules, index) -> Overlaps:
    """The overlaps of every inner rule that the index of the rules
    retrieves as unifiable at a function position of an outer left-hand
    side, inner-major like the product of the rules, with the retrievals.
    They do not depend on a solver, so each rule set keeps its own
    (Lctrs.overlaps, GroundFragment.overlaps) for both enumerations."""
    hits = [{p: index.unifiable(sub) for p, sub in positions(outer.lhs)} for outer in rules]
    sites: dict[int, dict[int, list[Position]]] = {}  # inner -> outer -> positions
    for j, at in enumerate(hits):
        for p, found in at.items():
            for i in found:
                sites.setdefault(i, {}).setdefault(j, []).append(p)
    out = []
    for i in sorted(sites):
        for j, ps in sites[i].items():
            if rules[i].calc and rules[j].calc:
                continue  # value-pinned self-overlays, trivial by construction
            copies = tuple(rename_apart([rules[i], rules[j]]))
            for p in ps:
                sigma = _unifier(copies[1], copies[:1], (p,))
                if sigma is not None:
                    out.append(Overlap(i, j, p, copies, sigma, tuple(apply_subst(sigma, r.guard) for r in copies)))
    return Overlaps(out, hits)


def _deduplicated(records) -> list:
    """The records up to variable renaming, the first of each key kept, in
    key order."""
    seen: dict[str, CCPRecord | CPCPRecord] = {}
    for rec in records:
        seen.setdefault(rec.key(), rec)
    return [seen[key] for key in sorted(seen)]


def _critical_pairs(overlaps: Overlaps, sat) -> list[CCPRecord]:
    """The critical pairs of the overlaps, deduplicated, with constraint
    (inner & outer guards) & EC.  sat answers "sat", "unsat" or "unknown"
    for the instantiated guards; unsat overlaps are dropped."""

    def records():
        for o in overlaps.single:
            if sat(theory.conj(*o.guards)) != "unsat":
                peak, left, right = o.sides
                # the unifier binds left-hand-side variables only, and ec() has none
                phi = theory.conj(theory.conj(*o.guards), theory.conj(*(r.ec() for r in o.copies)))
                yield CCPRecord(left, right, phi, o.position, peak, frozenset(r.rhs for r in o.copies if r.calc))

    return _deduplicated(records())


def _copy_renaming(inner, outer) -> Subst:
    """The renaming from the copies rename_apart([inner, outer]) gives, where
    the inner rule keeps its names, to those of rename_apart([outer, inner]),
    where the outer rule keeps them."""
    ren = rename_away(inner.variables(), outer.variables())
    ren.update({u: v for v, u in rename_away(outer.variables(), inner.variables()).items()})
    return ren


def _parallel_critical_pairs(rules, overlaps: Overlaps, sat) -> list[CPCPRecord]:
    """The parallel critical pairs of the rules, deduplicated, with
    constraint outer guard & EC & inner guards: for every set of parallel
    function positions of an outer left-hand side where the index retrieved
    some inner rule as unifiable (overlaps.hits), up to
    terms.PARALLEL_SET_CAP sets per rule, and every choice of those inner
    rules.

    A one-position set is the overlap at that position, renamed to copies
    where the outer rule keeps its names, and its guards are asked of sat
    as _critical_pairs asks them.  Only larger sets are unified here, on
    copies renamed once per rule tuple."""
    single = {(o.inner, o.outer, o.position): o for o in overlaps.single}

    def records():
        for j, (outer, hits) in enumerate(zip(rules, overlaps.hits)):
            copies: dict[tuple[int, ...], list] = {}
            for pset in parallel_subsets([p for p, hit in hits.items() if hit])[1:]:
                for inner_choice in itertools.product(*(hits[p] for p in pset)):
                    if outer.calc and all(rules[i].calc for i in inner_choice):
                        continue
                    if len(pset) == 1:
                        o = single.get((inner_choice[0], j, pset[0]))
                        if o is None or sat(theory.conj(*o.guards)) == "unsat":
                            continue
                        ren = _copy_renaming(rules[inner_choice[0]], outer)
                        (g_inner, g_outer), (ec_inner, ec_outer) = o.guards, (r.ec() for r in o.copies)
                        phi = theory.conj(g_outer, theory.conj(ec_outer, ec_inner), g_inner)
                        peak, left, right, phi = (apply_subst(ren, t) for t in (*o.sides, phi))
                        yield CPCPRecord(left, right, phi, (o.position,), peak)
                        continue
                    if inner_choice not in copies:
                        copies[inner_choice] = rename_apart([outer, *(rules[i] for i in inner_choice)])
                    rho, *inners = copies[inner_choice]
                    sigma = _unifier(rho, inners, pset)
                    if sigma is None:
                        continue
                    guards = [apply_subst(sigma, r.guard) for r in (rho, *inners)]
                    if sat(theory.conj(*guards)) == "unsat":
                        continue
                    peak, left, right = _sides(sigma, rho, inners, pset)
                    phi = theory.conj(guards[0], theory.conj(*(r.ec() for r in (rho, *inners))), *guards[1:])
                    yield CPCPRecord(left, right, phi, tuple(pset), peak)

    return _deduplicated(records())


def ccps(lctrs: Lctrs, solver: ConstraintSolver) -> list[CCPRecord]:
    """All constrained critical pairs, both orientations, deduplicated only
    up to variable renaming."""
    return _critical_pairs(lctrs.overlaps, lambda phi: solver.is_satisfiable(phi).status)


def cpcps(lctrs: Lctrs, solver: ConstraintSolver) -> list[CPCPRecord]:
    """All constrained parallel critical pairs; a rule with more parallel
    sets of overlapped positions than terms.PARALLEL_SET_CAP raises
    ParallelSetCap."""
    sat = lambda phi: solver.is_satisfiable(phi).status  # noqa: E731
    return _parallel_critical_pairs(lctrs.rc_rules, lctrs.overlaps, sat)


# --- triviality ---------------------------------------------------------------

def _align(s: Term, svars: set[Var], t: Term, tvars: set[Var]) -> list[tuple[Term, Term]] | None:
    """Pairs (left, right) of logical variables/values at aligned positions,
    or None on a rigid mismatch."""
    s_log = isinstance(s, Var) and s in svars
    t_log = isinstance(t, Var) and t in tvars
    if s_log or t_log:
        s_ok = s_log or is_value(s)
        t_ok = t_log or is_value(t)
        if not (s_ok and t_ok) or sort_of(s) != sort_of(t):
            return None
        return [(s, t)]
    if isinstance(s, Var) or isinstance(t, Var):
        return [] if s == t else None
    if is_value(s) or is_value(t):
        return [] if s == t else None
    if s.sym != t.sym:
        return None
    out: list[tuple[Term, Term]] = []
    for sa, ta in zip(s.args, t.args):
        sub = _align(sa, svars, ta, tvars)
        if sub is None:
            return None
        out.extend(sub)
    return out


def is_trivial(pair: ConstrainedTerm, solver: ConstraintSolver) -> str:
    """Yes / no / unknown: do both components coincide under every model?"""
    assert pair.term.sym.name == "<pair>", "triviality is asked of encoded pairs"
    (s, t), phi = pair.term.args, pair.constraint
    log = variables(phi)
    eqs = _align(s, log, t, log)
    if eqs is None:
        sat = solver.is_satisfiable(phi)
        if sat.is_unknown:
            return "unknown"
        return "yes" if sat.status == "unsat" else "no"
    if not eqs:
        return "yes"
    goal = theory.imp(phi, theory.conj(*(theory.eq(l, r) for l, r in eqs)))
    res = solver.is_valid(goal)
    if res.is_valid:
        return "yes"
    return "no" if res.status == "invalid" else "unknown"


def tvar(t: Term, phi: Term, pset) -> frozenset[Var]:
    """Non-logical variables of t below the given parallel positions."""
    return frozenset().union(*(subterm_at(t, p).vars for p in pset)) - phi.vars


# --- closedness ----------------------------------------------------------------

class Closing:
    def __init__(
        self,
        status: str,  # "closed" | "not_closed" | "unknown"
        steps: list[tuple[ConstrainedTerm, object]] | None = None,
        reason: str = "",  # why the search gave up, when it did
    ):
        """steps, of a closed check: (pair, None), (first step, its position
        set or None), then (tail step, its redex) for each tail step."""
        self.status = status
        self.steps = [] if steps is None else steps
        self.reason = reason

    def summary(self) -> str:
        return f"{self.status} ({self.reason})" if self.reason else self.status


def _closing(
    start: ConstrainedTerm,
    first,
    side: int,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig,
    depth: int,
    allowed: set[Var] | None = None,
) -> Closing:
    """The shape every closing criterion shares: one step of the relation
    `first` below side `side` of the pair, then a breadth-first tail of up
    to depth constrained steps below the other side, accepting the first
    trivial node; given allowed, only one whose TVar below the first step's
    position set lies in it.  A parallel first step with more redex subsets
    than terms.PARALLEL_SET_CAP gives unknown."""
    try:
        mids = first(start, lctrs, solver, config, below=(side,))
    except ParallelSetCap as exc:
        return Closing("unknown", reason=str(exc))
    unknown = False
    for mid, evidence in mids:
        tail = breadth_first(mid, lambda node: cstep_tilde(node, lctrs, solver, config, below=(3 - side,)), depth)
        for node, path in tail:
            trivial = is_trivial(node, solver)
            unknown = unknown or trivial == "unknown"
            if trivial == "yes" and (allowed is None or tvar(node.term, node.constraint, evidence) <= allowed):
                return Closing("closed", [(start, None), (mid, evidence), *path[1:]])
    return Closing("unknown" if unknown else "not_closed")


def dev_closed_check(
    ccp: CCPRecord,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    depth: int = 4,
) -> Closing:
    """(Almost) development closedness of one constrained critical pair:
    one multi-step below position 1, then (for overlays only) a rewrite tail
    below position 2, ending in a trivial pair."""
    return _closing(ccp.pair(), multi_tilde, 1, lctrs, solver, config, depth if ccp.overlay else 0)


def parallel_closed_1(
    ccp: CCPRecord,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    depth: int = 4,
) -> Closing:
    """One parallel step below position 1, then a rewrite tail below 2."""
    return _closing(ccp.pair(), parallel_tilde, 1, lctrs, solver, config, depth)


def parallel_closed_2(
    cpcp: CPCPRecord,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    depth: int = 4,
) -> Closing:
    """Parallel step below position 2 with recorded positions Q, then a
    rewrite tail below 1, ending trivial, with the variable-tracking
    inclusion TVar(final right side, Q) within TVar(peak source, P)."""
    allowed = tvar(cpcp.peak_source, cpcp.constraint, cpcp.pset)
    return _closing(cpcp.pair(), parallel_tilde, 2, lctrs, solver, config, depth, allowed)


# --- system-level criteria ------------------------------------------------------

def is_left_linear(lctrs: Lctrs) -> bool:
    """Linear in the non-logical variables of every left-hand side."""
    for rule in lctrs.rules:
        lvars = rule.lvar()
        # a left-hand side is no variable, so every variable occurrence is an argument
        xs = [a for _, sub in positions(rule.lhs) for a in sub.args if isinstance(a, Var) and a not in lvars]
        if len(xs) != len(set(xs)):
            return False
    return True


class AnalysisConfig:
    def __init__(
        self,
        criteria: tuple[str, ...] = ("wo", "adc", "pc"),
        depth: int = 4,
        rewrite: RewriteConfig | None = None,
    ):
        self.criteria = criteria
        self.depth = depth
        self.rewrite = RewriteConfig() if rewrite is None else rewrite


class Verdict:
    def __init__(
        self,
        result: str,  # "YES" | "NO" | "MAYBE"
        criterion: str | None = None,
        reasons: dict[str, str] | None = None,
        witness: tuple[Term, Term] | None = None,
        ccps: list[CCPRecord] | None = None,
        cpcps: list[CPCPRecord] | None = None,  # None when the parallel criterion did not run
    ):
        self.result = result
        self.criterion = criterion
        self.reasons = {} if reasons is None else reasons
        self.witness = witness
        self.ccps = [] if ccps is None else ccps
        self.cpcps = cpcps

    @property
    def ccp_count(self) -> int:
        return len(self.ccps)

    @property
    def cpcp_count(self) -> int:
        return len(self.cpcps or ())


def _first_failures(checks, count: int = 3) -> list[str]:
    """Reasons of the first `count` closing checks that did not close; the
    checks after them are not run, since a verdict reports no more."""
    return list(itertools.islice((reason for got, reason in checks if got.status != "closed"), count))


def analyze(lctrs: Lctrs, solver: ConstraintSolver, config: AnalysisConfig | None = None) -> Verdict:
    """Confluence verdict: YES via a closedness criterion, NO via a ground
    non-joinability witness, MAYBE with per-criterion failure reasons.

    For a left-linear system triviality is decided once per pair, and the
    closing checks and the NO search's peaks take only the pairs not shown
    trivial (a 2-parallel check likewise only a parallel pair not shown
    trivial).  A trivial pair needs no step: every closing check closes it
    with the empty first step, unless a parallel first step overflows the
    subset cap, and each of its domain instances has two equal sides.  A
    system that is not left-linear keeps every pair and asks no triviality
    query."""
    config = config or AnalysisConfig()
    reasons: dict[str, str] = {}
    ll = is_left_linear(lctrs)
    pairs = ccps(lctrs, solver)
    open_pairs = [c for c in pairs if is_trivial(c.pair(), solver) != "yes"] if ll else pairs
    if not ll:
        reasons["left-linearity"] = "a left-hand side repeats a non-logical variable"

    if ll and "wo" in config.criteria:
        if not open_pairs:
            return Verdict("YES", "weak-orthogonality", ccps=pairs)
        reasons["weak-orthogonality"] = f"{len(open_pairs)} nontrivial critical pair(s)"

    if ll and "adc" in config.criteria:

        def development_checks():
            for ccp in open_pairs:
                got = dev_closed_check(ccp, lctrs, solver, config.rewrite, config.depth)
                yield got, f"{ccp.left!r} ~ {ccp.right!r}: {got.status}"

        failed = _first_failures(development_checks())
        if not failed:
            return Verdict("YES", "almost-development-closed", ccps=pairs)
        reasons["almost-development-closed"] = "; ".join(failed)

    ppairs = None
    if ll and "pc" in config.criteria:
        try:
            ppairs = cpcps(lctrs, solver)
        except ParallelSetCap as exc:
            reasons["parallel-closed"] = f"unknown ({exc})"

    if ppairs is not None:

        def parallel_checks():
            for ccp in open_pairs:
                got = parallel_closed_1(ccp, lctrs, solver, config.rewrite, config.depth)
                yield got, f"{ccp.left!r} ~ {ccp.right!r}: not 1-parallel closed: {got.summary()}"
            for cpcp in ppairs:
                if is_trivial(cpcp.pair(), solver) == "yes":
                    continue
                got = parallel_closed_2(cpcp, lctrs, solver, config.rewrite, config.depth)
                yield got, f"{cpcp.left!r} ~ {cpcp.right!r} P={cpcp.pset}: not 2-parallel closed: {got.summary()}"

        failed = _first_failures(parallel_checks())
        if not failed:
            return Verdict("YES", "parallel-closed", ccps=pairs, cpcps=ppairs)
        reasons["parallel-closed"] = "; ".join(failed)

    from .grounding import find_nonjoinable_peak, ground_fragment, pair_instances

    fragment = ground_fragment(lctrs, config.rewrite)
    witness = find_nonjoinable_peak(fragment, pair_instances(open_pairs, domain_terms(lctrs, config.rewrite)))
    if witness is not None:
        return Verdict(
            "NO",
            "ground-peak-with-distinct-normal-forms",
            reasons=reasons,
            witness=witness,
            ccps=pairs,
            cpcps=ppairs,
        )
    return Verdict("MAYBE", reasons=reasons, ccps=pairs, cpcps=ppairs)
