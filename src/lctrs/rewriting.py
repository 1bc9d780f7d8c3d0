"""Rewrite relations on terms and constrained terms.

One engine serves every relation: a redex oracle finds the root redexes of a
subterm, redexes collects them under a position, and single_steps,
parallel_steps and multi_steps contract the redexes found, each result with
its evidence (the redex itself, the redex position set, none).
constrained_steps lifts a contraction to a constrained term: it asks once
whether the constraint is satisfiable, takes the redexes of the constrained
oracle under it and keeps the constraint.  That oracle decides each choice
for the rule's logical variables by evaluating the compiled guard under one
model of the constraint, asking for validity only what the model cannot
decide.  Plain rewriting is cstep under the constraint true: with no
constraint variable every logical variable takes a value and the guard
decides each choice.  The ground fragment's oracle (grounding) matches the
same rules and completes a match whose logical variables are domain values
with domain values alone.  The tilde variants are the lifting modulo the
equivalence moves of equiv_extensions, which only ever extend a constraint
by a definition z = f(u1..un) of a theory subterm.  A single step
(cstep_tilde) keeps from an extension only the steps its base cannot take:
those that use z and those that remove f(u1..un); every other one is the
base's step, extended by the same definition one call later.  Multi-step
nesting is depth-bounded.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable

from . import theory
from .logic import ConstraintSolver
from .rules import ConstrainedRule, Lctrs, options, value_options
from .terms import (
    App,
    BOOL,
    EPSILON,
    INT,
    Position,
    Record,
    Sort,
    Subst,
    Term,
    Var,
    apply_subst,
    bool_val,
    fresh_name,
    int_val,
    is_value,
    match,
    parallel_subsets,
    positions,
    replace_at,
    subterm_at,
    term_key,
    value_of,
    variables,
)


class ConstrainedTerm(Record):
    __slots__ = ("term", "constraint")

    def __init__(self, term: Term, constraint: Term = theory.bool_val(True)):
        Record.__init__(self, term, constraint)

    def __repr__(self):
        return f"{self.term!r} [{self.constraint!r}]"


MULTI_NESTING = 3  # levels of nested rule application in a multi-step
MAX_UNBOUND = 3  # a rule with more free logical variables to choose gives no instances


class RewriteConfig(Record):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = -4, hi: int = 4):
        Record.__init__(self, lo, hi)

    def int_domain(self, lctrs: Lctrs) -> tuple[int, ...]:
        return tuple(sorted(set(range(self.lo, self.hi + 1)) | lctrs.literals))


def domain_terms(lctrs: Lctrs, config: RewriteConfig) -> dict[Sort, tuple[Term, ...]]:
    """The value terms of each theory sort under the config, built once per
    config and kept on lctrs (lctrs.domains)."""
    if config not in lctrs.domains:
        ints = tuple(int_val(n) for n in config.int_domain(lctrs))
        lctrs.domains[config] = {INT: ints, BOOL: (bool_val(True), bool_val(False))}
    return lctrs.domains[config]


# --- the engine: redex oracles and the layers above them ---------------------

RedexOracle = Callable[[Term], tuple[tuple[ConstrainedRule, Subst], ...]]
Redex = tuple[Position, ConstrainedRule, Subst]


def _oracle(rules, index, instances) -> RedexOracle:
    """Root redexes by matching the rules as they are, those that `index`
    (an LhsIndex of their left-hand sides) retrieves, in rule order.
    Matching treats the subject as rigid and the substitutions cover every
    rule variable, so rule and subject variables never need to be apart.
    instances(rule, sigma0) lists the full substitutions that complete a
    match sigma0, none when the match cannot be used.  The redexes of each
    subterm are found once and kept (terms are hash-consed, so the table is
    keyed by identity); callers must not mutate the substitutions."""
    table: dict[Term, tuple[tuple[ConstrainedRule, Subst], ...]] = {}

    def redexes_at(sub: Term) -> tuple[tuple[ConstrainedRule, Subst], ...]:
        found = table.get(sub)
        if found is None:
            out = []
            for rule in [rules[i] for i in index.generalizations(sub)]:
                sigma0 = match(rule.lhs, sub)
                if sigma0 is not None:
                    out.extend((rule, sigma) for sigma in instances(rule, sigma0))
            found = table[sub] = tuple(out)
        return found

    return redexes_at


def redexes(t: Term, redexes_at: RedexOracle, below: Position = EPSILON) -> list[Redex]:
    """Every (position, rule, substitution) the oracle finds at a function
    position of t under `below`, which must address a subterm of t, in
    position order."""
    return [
        (below + p, rule, sigma)
        for p, sub in positions(subterm_at(t, below))
        for rule, sigma in redexes_at(sub)
    ]


def single_steps(t: Term, found: list[Redex], below: Position = EPSILON) -> list[tuple[Term, Redex]]:
    """Contract each redex on its own; the evidence is the redex."""
    return [(replace_at(t, {red[0]: apply_subst(red[2], red[1].rhs)}), red) for red in found]


def parallel_steps(t: Term, found: list[Redex], below: Position = EPSILON) -> list[tuple[Term, tuple[Position, ...]]]:
    """Contract every subset of redexes at parallel positions at once; the
    evidence is the exact redex position set."""
    out = []
    for subset in parallel_subsets(found, lambda red: red[0]):
        repl = {p: apply_subst(sigma, rule.rhs) for p, rule, sigma in subset}
        out.append((replace_at(t, repl), tuple(sorted(repl))))
    return out


def multi_steps(t: Term, found: list[Redex], below: Position = EPSILON) -> list[tuple[Term, None]]:
    """Multi-steps below `below`, nested up to MULTI_NESTING levels, in
    term_key order of the replaced subterm, with no evidence.  `found` must
    be every redex under `below`: a contracted subterm is a subterm of
    t|below, a value or a variable, and no left-hand side is a value."""
    by_position: dict[Position, list[tuple[ConstrainedRule, Subst]]] = {}
    for p, rule, sigma in found:
        by_position.setdefault(p, []).append((rule, sigma))
    at = {sub: by_position.get(below + p, ()) for p, sub in positions(subterm_at(t, below))}
    memo: dict[tuple[Term, int], set[Term]] = {}

    def go(s: Term, budget: int) -> set[Term]:
        key = (s, budget)
        if key in memo:
            return memo[key]
        out: set[Term] = set()
        if isinstance(s, Var):
            out.add(s)
        else:
            for combo in itertools.product(*(go(a, budget) for a in s.args)):
                out.add(App(s.sym, combo))
            if budget > 0:
                for rule, sigma in at.get(s, ()):
                    rvars = sorted(variables(rule.rhs), key=lambda v: v.name)
                    opts = [go(sigma[x], budget - 1) if x in sigma else {x} for x in rvars]
                    for picks in itertools.product(*opts):
                        out.add(apply_subst(dict(zip(rvars, picks)), rule.rhs))
        memo[key] = out
        return out

    results = go(subterm_at(t, below), MULTI_NESTING)
    return [(replace_at(t, {below: r}), None) for r in sorted(results, key=term_key)]


def breadth_first(start, steps, depth: int):
    """Yield (node, path) for every node within depth steps of start, level
    by level in the order found, each node once.  steps(node) gives the
    node's (successor, evidence) pairs, and the path is the (node, evidence)
    steps from start, which comes first with None.  A node is yielded as
    soon as it is found, and a level is expanded only when the caller asks
    for a node below it, so a caller that stops early pays for nothing
    beyond."""
    path = [(start, None)]
    yield start, path
    seen = {start}
    frontier = [path]
    for _ in range(depth):
        nxt = []
        for path in frontier:
            for succ, evidence in steps(path[-1][0]):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append([*path, (succ, evidence)])
                    yield succ, nxt[-1]
        frontier = nxt


# --- the constrained oracle -------------------------------------------------

def _constrained_oracle(phi: Term, lctrs: Lctrs, solver: ConstraintSolver, config: RewriteConfig) -> RedexOracle:
    """Root redexes of the constrained-step relation under a satisfiable
    constraint phi: sigma maps logical variables into values or constraint
    variables, and phi => guard*sigma is valid.  A match that binds a
    logical variable to any other term gives no instance, and the rule's
    procedure is compiled only for a match that can use it.  Unknown solver
    verdicts suppress the candidate.  The candidates for a variable the match leaves
    to choose are the constraint variables of its sort (in name order), the
    exact calculation result when the arguments are values, and the domain
    values; a rule with more than MAX_UNBOUND of them free after solving
    gives no instance.  Under one model of phi, the rule's own
    ConstrainedRule.assignments chooses them, every term counting as its
    model value: a defined variable takes the candidates with the computed
    value, and the choices the model refutes are dropped.  A choice with
    every guard variable at a value is accepted; any other is one validity
    query."""
    phi_vars_by_name = sorted(phi.vars, key=lambda v: v.name)
    domain = domain_terms(lctrs, config)

    @functools.cache
    def sat_model() -> Subst:
        """One model of phi, read once."""
        return solver.is_satisfiable(phi).assignment

    @functools.cache
    def candidates(sort: Sort, calc: Term | None) -> tuple:
        """The options of a variable of the sort: the constraint variables with
        their model values, the calculation result calc if any, and the
        domain values."""
        own = [(v, value_of(sat_model()[v])) for v in phi_vars_by_name if v.sort == sort]
        if calc is not None:
            own.append((calc, value_of(calc)))
        return options([*own, *(pair for pair in value_options(domain[sort])[0] if pair[0] != calc)])

    def instances(rule: ConstrainedRule, sigma0: Subst) -> list[Subst]:
        matched = (sigma0.get(x, x) for x in rule.lvar_split[0])  # match drops the bindings x -> x
        if not all(is_value(u) or (isinstance(u, Var) and u in phi.vars) for u in matched):
            return []
        solve = rule.assignments
        if solve.free > MAX_UNBOUND:
            return []
        model = sat_model()
        args = apply_subst(sigma0, rule.lhs) if rule.calc else None
        calc = None if args is None or variables(args) else theory.interpret_term(args)
        opts = {x: candidates(x.sort, calc) for x in solve.order}
        out = []
        for choice in solve(opts, [value_of(model.get(t, t)) for t in (sigma0.get(x, x) for x in solve.inputs)]):
            sigma = {**sigma0, **choice}
            decided = all(is_value(sigma.get(x, x)) for x in rule.guard.vars)  # phi => true
            if decided or solver.is_valid(theory.imp(phi, apply_subst(sigma, rule.guard))).is_valid:
                out.append(sigma)
        return out

    return _oracle(lctrs.rc_rules, lctrs.lhs_index, instances)


def constrained_oracle(phi: Term, lctrs: Lctrs, solver: ConstraintSolver, config: RewriteConfig) -> RedexOracle:
    """The constrained oracle under phi, built once per (config, solver, phi)
    and kept on lctrs: every step under one constraint shares its model and
    its redex table."""
    key = (config, solver, phi)
    if key not in lctrs.oracles:
        lctrs.oracles[key] = _constrained_oracle(phi, lctrs, solver, config)
    return lctrs.oracles[key]


# --- constrained steps: one lifting of the contractions -----------------------

def constrained_redexes(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[Redex]:
    """Redexes of the constrained-step relation at positions under `below`;
    none when the constraint is not satisfiable."""
    if not solver.is_satisfiable(ct.constraint).is_sat:
        return []
    return redexes(ct.term, constrained_oracle(ct.constraint, lctrs, solver, config), below)


def constrained_steps(
    ct: ConstrainedTerm,
    contract,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, object]]:
    """The contraction `contract` (single_steps, parallel_steps or
    multi_steps) of the redexes constrained_redexes finds under `below`,
    each result with its evidence; the constraint is never modified."""
    found = constrained_redexes(ct, lctrs, solver, config, below)
    return [(ConstrainedTerm(r, ct.constraint), evidence) for r, evidence in contract(ct.term, found, below)]


def cstep(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, Redex]]:
    """One constrained step; plain rewriting is cstep(ConstrainedTerm(t), ...)."""
    return constrained_steps(ct, single_steps, lctrs, solver, config, below)


def equiv_extensions(ct: ConstrainedTerm) -> list[ConstrainedTerm]:
    """Equivalent reformulations: the term itself plus one definitional
    extension z = f(u1..un) per theory subterm whose arguments are values or
    constraint variables.  Each output is equivalent by construction."""
    phi = ct.constraint
    taken = {v.name for v in phi.vars | ct.term.vars}
    out = [ct]
    seen: set[Term] = set()
    for _, sub in positions(ct.term):
        if sub.sym.kind != "theory" or sub in seen:
            continue
        if not all(is_value(a) or (isinstance(a, Var) and a in phi.vars) for a in sub.args):
            continue
        seen.add(sub)
        z = Var(fresh_name("w", taken), sub.sym.result_sort)
        out.append(ConstrainedTerm(ct.term, theory.conj(theory.eq(z, sub), phi)))
    return out


def _base_takes(step: tuple[ConstrainedTerm, Redex], w: Var, fu: Term) -> bool:
    """Does the base (t, phi) of an extension (t, w = f(u) and phi) take
    this single step of the extension, its result extending again by
    w = f(u)?  It does when no term the redex's sigma binds contains w, and
    f(u) is still a subterm of the result.  The result then does not contain
    w either: w is fresh for t, and sigma binds every rule variable."""
    res, (_, _, sigma) = step
    return not any(w in u.vars for u in sigma.values()) and any(sub is fu for _, sub in positions(res.term))


def _modulo_equivalence(ct: ConstrainedTerm, contract, lctrs, solver, config, below, key=lambda item: item) -> list:
    """The constrained steps of every equivalent reformulation of ct,
    keeping the first result of each key.  For single steps (keyed by their
    result), an extension (t, w = f(u) and phi) keeps only the steps its
    base (t, phi) cannot take (_base_takes).  A dropped step is exact to
    drop: the base takes the same redex, since sigma's terms are among the
    base oracle's candidates and, w being fresh and defined,
    phi and w = f(u) => G*sigma holds exactly when phi => G*sigma does
    (both decided, the extension being satisfiable).  The base's result
    (t', phi) is a node at the same depth, and its own cstep_tilde extends
    it by the same f(u) to the dropped node (up to the name of w) and takes
    that node's steps.  A trivial dropped node has a trivial base node,
    which a breadth-first search finds first, since the base's steps come
    first.  What is given up is a step that needs two definitions at once,
    the dropped node extended again.  Parallel and multi-steps carry no
    sigma and keep every step."""
    out: dict = {}
    for e in equiv_extensions(ct):
        found = constrained_steps(e, contract, lctrs, solver, config, below)
        if contract is single_steps and e is not ct:
            w, fu = theory.conjuncts(e.constraint)[0].args
            found = [step for step in found if not _base_takes(step, w, fu)]
        for item in found:
            out.setdefault(key(item), item)
    return list(out.values())


def cstep_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, Redex]]:
    """Constrained step modulo equivalence: extension moves, then a step.
    An extension by w = f(u) contributes only the steps its base cannot
    take: those whose sigma binds a term containing w (the guard needs the
    definition) and those that remove f(u) (the result cannot be extended
    by it again).  Any other step of the extension is the base's step,
    whose result the next cstep_tilde extends by w = f(u) again, so the
    search still takes every step from it at the same depth
    (see _modulo_equivalence)."""
    return _modulo_equivalence(ct, single_steps, lctrs, solver, config, below, lambda item: item[0])


def parallel_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, tuple[Position, ...]]]:
    """Constrained parallel step modulo equivalence, with exact redex
    position sets."""
    return _modulo_equivalence(ct, parallel_steps, lctrs, solver, config, below)


def multi_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, None]]:
    """Constrained multi-step modulo equivalence."""
    return _modulo_equivalence(ct, multi_steps, lctrs, solver, config, below)
