"""Rewrite relations on terms and constrained terms.

One engine serves every relation: a redex oracle finds the root redexes of a
subterm, and single, parallel and multi-steps are built on top of it.  The
constrained oracle keeps the constraint fixed and decides each choice for
the rule's logical variables by evaluating the compiled guard under one
model of the constraint, asking for validity only what the model cannot
decide.  Plain rewriting is its instance under the constraint true: with no
constraint variable every logical variable takes a value and the guard
decides each choice.  Over the rules of a ground fragment, which have no
logical variables, an oracle is plain matching.  The tilde variants compose
with the equivalence moves produced by equiv_extensions, which only ever
extend a constraint by a definition z = f(u1..un) of a theory subterm.
Parallel and multi-step relations follow their inductive definitions,
recording redex position sets; multi-step nesting is depth-bounded.
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


class StepRecord(Record):
    __slots__ = ("position", "rule", "bindings")  # bindings: ((Var, Term), ...) in name order

    @property
    def sigma(self) -> Subst:
        return dict(self.bindings)


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


def _freeze(sigma: Subst) -> tuple[tuple[Var, Term], ...]:
    return tuple(sorted(sigma.items(), key=lambda kv: kv[0].name))


# --- the engine: redex oracles and the layers above them ---------------------

RedexOracle = Callable[[Term], tuple[tuple[ConstrainedRule, Subst], ...]]
Redex = tuple[Position, ConstrainedRule, Subst]


def _oracle(rules, index, admissible, instances) -> RedexOracle:
    """Root redexes by matching the rules as they are, those that `index`
    (an LhsIndex of their left-hand sides) retrieves, in rule order.
    Matching treats the subject as rigid and the substitutions cover every
    rule variable, so rule and subject variables never need to be apart.
    Every logical variable of a left-hand side must match an admissible term
    (match drops the bindings x -> x), and instances(rule, sigma0) lists the
    full substitutions that complete a match.  The redexes of each subterm are
    found once and kept (terms are hash-consed, so the table is keyed by
    identity); callers must not mutate the substitutions."""
    table: dict[Term, tuple[tuple[ConstrainedRule, Subst], ...]] = {}

    def redexes_at(sub: Term) -> tuple[tuple[ConstrainedRule, Subst], ...]:
        found = table.get(sub)
        if found is None:
            out = []
            for rule in [rules[i] for i in index.generalizations(sub)]:
                sigma0 = match(rule.lhs, sub)
                if sigma0 is None:
                    continue
                if all(admissible(sigma0.get(x, x)) for x in rule.lvar_split[0]):
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


def single_steps(t: Term, found: list[Redex]) -> list[tuple[Term, StepRecord]]:
    """Contract each redex on its own."""
    return [
        (replace_at(t, {p: apply_subst(sigma, rule.rhs)}), StepRecord(p, rule, _freeze(sigma)))
        for p, rule, sigma in found
    ]


def parallel_steps(t: Term, found: list[Redex]) -> list[tuple[Term, tuple[Position, ...]]]:
    """Contract every subset of redexes at parallel positions at once; the
    result carries its exact redex position set."""
    out = []
    for subset in parallel_subsets(found, lambda red: red[0]):
        repl = {p: apply_subst(sigma, rule.rhs) for p, rule, sigma in subset}
        out.append((replace_at(t, repl), tuple(sorted(repl))))
    return out


def multi_steps(t: Term, redexes_at: RedexOracle, depth: int) -> set[Term]:
    """Multi-step results: nested redex contraction up to depth levels."""
    memo: dict[tuple[Term, int], set[Term]] = {}

    def go(s: Term, budget: int) -> set[Term]:
        key = (s, budget)
        if key in memo:
            return memo[key]
        memo[key] = {s}  # cycle guard; overwritten below
        out: set[Term] = set()
        if isinstance(s, Var):
            out.add(s)
        else:
            for combo in itertools.product(*(go(a, budget) for a in s.args)):
                out.add(App(s.sym, combo))
            if budget > 0:
                for rule, sigma in redexes_at(s):
                    rvars = sorted(variables(rule.rhs), key=lambda v: v.name)
                    opts = [go(sigma[x], budget - 1) if x in sigma else {x} for x in rvars]
                    for picks in itertools.product(*opts):
                        out.add(apply_subst(dict(zip(rvars, picks)), rule.rhs))
        memo[key] = out
        return out

    return go(t, depth)


def breadth_first(start, successors, depth: int):
    """Yield (node, path from start) for every node within depth steps of
    start, level by level, each node once.  Only nodes above the depth bound
    are expanded, each after the caller has seen it, so a caller that stops
    early pays for nothing beyond."""
    seen = {start}
    frontier = [(start, [start])]
    for level in range(depth + 1):
        nxt = []
        for node, path in frontier:
            yield node, path
            if level == depth:
                continue
            for succ in successors(node):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append((succ, path + [succ]))
        frontier = nxt


# --- the constrained oracle -------------------------------------------------

def _constrained_oracle(phi: Term, lctrs: Lctrs, solver: ConstraintSolver, config: RewriteConfig) -> RedexOracle:
    """Root redexes of the constrained-step relation under the constraint
    phi: sigma maps logical variables into values or constraint variables,
    and phi => guard*sigma is valid.  Unknown solver verdicts suppress the
    candidate.  The candidates for a variable the match leaves to choose are
    the constraint variables of its sort (in name order), the exact
    calculation result when the arguments are values, and the domain values;
    a rule with more than MAX_UNBOUND of them free after solving gives no
    instance.  Under one model of a satisfiable phi, the rule's own
    ConstrainedRule.assignments chooses them, every term counting as its
    model value: a defined variable takes the candidates with the computed
    value, and the choices the model refutes are dropped.  A choice with
    every guard variable at a value is accepted; any other, and every
    choice under a constraint without a model, is one validity query."""
    phi_vars_by_name = sorted(phi.vars, key=lambda v: v.name)
    domain = domain_terms(lctrs, config)

    def admissible(value: Term) -> bool:
        return is_value(value) or (isinstance(value, Var) and value in phi.vars)

    @functools.cache
    def sat_model() -> Subst | None:
        """One model of phi, read once; None when phi is unsat or undecided."""
        verdict = solver.is_satisfiable(phi)
        return verdict.assignment if verdict.is_sat else None

    @functools.cache
    def candidates(sort: Sort, calc: Term | None) -> tuple:
        """The options of a variable of the sort: the constraint variables with
        their model values (None without a model), the calculation result calc
        if any, and the domain values."""
        model = sat_model()
        own = [(v, None if model is None else value_of(model[v])) for v in phi_vars_by_name if v.sort == sort]
        if calc is not None:
            own.append((calc, value_of(calc)))
        return options([*own, *(pair for pair in value_options(domain[sort])[0] if pair[0] != calc)])

    def instances(rule: ConstrainedRule, sigma0: Subst) -> list[Subst]:
        solve = rule.assignments
        if solve.free > MAX_UNBOUND:
            return []
        model = sat_model()
        args = apply_subst(sigma0, rule.lhs) if rule.calc else None
        calc = None if args is None or variables(args) else theory.interpret_term(args)
        opts = [candidates(x.sort, calc) for x in solve.names]
        if model is None:
            found = itertools.product(*([t for t, _ in pairs] for pairs, _, _ in opts))
        else:
            found = solve(opts, [value_of(model.get(t, t)) for t in (sigma0.get(x, x) for x in solve.inputs)])
        out = []
        for choice in found:
            sigma = {**sigma0, **dict(zip(solve.names, choice))}
            decided = model is not None and all(is_value(sigma.get(x, x)) for x in rule.guard.vars)  # phi => true
            if decided or solver.is_valid(theory.imp(phi, apply_subst(sigma, rule.guard))).is_valid:
                out.append(sigma)
        return out

    return _oracle(lctrs.rc_rules, lctrs.lhs_index, admissible, instances)


def constrained_oracle(phi: Term, lctrs: Lctrs, solver: ConstraintSolver, config: RewriteConfig) -> RedexOracle:
    """The constrained oracle under phi, built once per (config, solver, phi)
    and kept on lctrs: every step under one constraint shares its model and
    its redex table."""
    key = (config, solver, phi)
    if key not in lctrs.oracles:
        lctrs.oracles[key] = _constrained_oracle(phi, lctrs, solver, config)
    return lctrs.oracles[key]


# --- plain rewriting --------------------------------------------------------

def plain_oracle(lctrs: Lctrs, config: RewriteConfig) -> RedexOracle:
    """Root redexes of plain rewriting with the rules and calculation rules
    of lctrs: the constrained oracle under the constraint true, whose own
    solver is asked only whether true is satisfiable.  Its model is empty,
    so a logical variable outside the left-hand side takes the calculation
    result or a domain value, and the compiled guard decides every choice.
    Built once per config and kept on lctrs (lctrs.oracles)."""
    if config not in lctrs.oracles:
        lctrs.oracles[config] = _constrained_oracle(theory.bool_val(True), lctrs, ConstraintSolver(), config)
    return lctrs.oracles[config]


def plain_successors(s: Term, lctrs: Lctrs, config: RewriteConfig = RewriteConfig()) -> list[tuple[Term, StepRecord]]:
    """Single plain steps, each with its position, rule and full substitution."""
    return single_steps(s, redexes(s, plain_oracle(lctrs, config)))


# --- constrained steps ------------------------------------------------------

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


def cstep(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, StepRecord]]:
    """One constrained step; the constraint is never modified."""
    found = constrained_redexes(ct, lctrs, solver, config, below)
    return [(ConstrainedTerm(r, ct.constraint), rec) for r, rec in single_steps(ct.term, found)]


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


def _modulo_equivalence(ct: ConstrainedTerm, successors, key=lambda item: item) -> list:
    """Successors of every equivalent reformulation of ct, keeping the first
    result of each key."""
    out: dict = {}
    for e in equiv_extensions(ct):
        for item in successors(e):
            out.setdefault(key(item), item)
    return list(out.values())


def cstep_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, StepRecord]]:
    """Constrained step modulo equivalence: extension moves, then a step."""
    return _modulo_equivalence(ct, lambda e: cstep(e, lctrs, solver, config, below), lambda item: item[0])


def parallel_successors(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, tuple[Position, ...]]]:
    """Constrained parallel steps with exact redex position sets."""
    found = constrained_redexes(ct, lctrs, solver, config, below)
    steps = parallel_steps(ct.term, found)
    return [(ConstrainedTerm(r, ct.constraint), pset) for r, pset in steps]


def parallel_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[tuple[ConstrainedTerm, tuple[Position, ...]]]:
    return _modulo_equivalence(ct, lambda e: parallel_successors(e, lctrs, solver, config, below))


def multi_successors(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[ConstrainedTerm]:
    """Constrained multi-step results (constraint unchanged)."""
    phi = ct.constraint
    if not solver.is_satisfiable(phi).is_sat:
        return []
    oracle = constrained_oracle(phi, lctrs, solver, config)
    results = multi_steps(subterm_at(ct.term, below), oracle, MULTI_NESTING)
    return [ConstrainedTerm(replace_at(ct.term, {below: r}), phi) for r in sorted(results, key=term_key)]


def multi_tilde(
    ct: ConstrainedTerm,
    lctrs: Lctrs,
    solver: ConstraintSolver,
    config: RewriteConfig = RewriteConfig(),
    below: Position = EPSILON,
) -> list[ConstrainedTerm]:
    return _modulo_equivalence(ct, lambda e: multi_successors(e, lctrs, solver, config, below))
