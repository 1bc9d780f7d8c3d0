"""Constrained rewrite rules and rewrite systems.

A rule is lhs -> rhs [guard].  Its logical variables (guard variables plus
right-hand-side variables not bound by the left) must be instantiated by
values; the extra variables (in the right-hand side only) are additionally
collected into the trivial guard EC used when building critical pairs.
Calculation rules f(x1..xn) -> y [y = f(x1..xn)] are derived from the theory
signature and marked with calc=True.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import theory
from .terms import (
    App,
    BOOL,
    FunSym,
    INT,
    LhsIndex,
    Record,
    Sort,
    Subst,
    Term,
    Var,
    alpha_key,
    apply_subst,
    int_val,
    is_value,
    positions,
    rename_away,
    sort_of,
    value_of,
    variables,
)


class RuleError(Exception):
    pass


class ConstrainedRule(Record):
    __slots__ = ("lhs", "rhs", "guard", "calc", "__dict__")  # __dict__ holds the cached properties

    def __init__(self, lhs: Term, rhs: Term, guard: Term = theory.bool_val(True), calc: bool = False):
        Record.__init__(self, lhs, rhs, guard, calc)
        if not isinstance(self.lhs, App):
            raise RuleError("left-hand side must not be a variable")
        if not self.calc and self.lhs.sym.kind != "term":
            raise RuleError(f"left-hand side root {self.lhs.sym.name} must be a plain term symbol")
        if sort_of(self.lhs) != sort_of(self.rhs):
            raise RuleError("rule sides have different sorts")
        if sort_of(self.guard) != BOOL or not theory.is_logical_term(self.guard):
            raise RuleError("guard must be a constraint of sort Bool")
        for x in self.evar():
            if x.sort not in (INT, BOOL):
                raise RuleError(f"extra variable {x.name} has non-theory sort {x.sort}")

    @cached_property
    def assignments(self) -> "Assignments":
        """The guard's solve-then-enumerate procedure for the logical
        variables an instance has to choose, given the values of those a
        left-hand-side match binds (lvar_split); compiled on first use."""
        matched, unbound = self.lvar_split
        return Assignments(self.guard, unbound, sorted(matched, key=lambda v: v.name))

    def variables(self) -> frozenset[Var]:
        return self.lhs.vars | self.rhs.vars | self.guard.vars

    def lvar(self) -> frozenset[Var]:
        return self.guard.vars | (self.rhs.vars - self.lhs.vars)

    @cached_property
    def lvar_split(self) -> tuple[frozenset[Var], tuple[Var, ...]]:
        """The logical variables a left-hand-side match binds, and the others
        in name order, which an instance of the rule has to choose."""
        lhs, rhs, guard = self.lhs.vars, self.rhs.vars, self.guard.vars
        return lhs & guard, tuple(sorted((guard | rhs) - lhs, key=lambda v: v.name))

    def evar(self) -> frozenset[Var]:
        return self.rhs.vars - (self.lhs.vars | self.guard.vars)

    def ec(self) -> Term:
        return theory.conj(*(theory.eq(x, x) for x in sorted(self.evar(), key=lambda v: v.name)))

    def rename(self, ren: Subst) -> "ConstrainedRule":
        """The copy under an injective, sort-preserving variable renaming
        (as rename_away gives).  Such a renaming keeps every fact the
        constructor checks, so the copy is built without re-checking them;
        a side with no renamed variable is kept as it is."""
        if not ren:
            return self
        return _unchecked(*(apply_subst(ren, side) for side in (self.lhs, self.rhs, self.guard)), self.calc)

    def instance(self, tau: Subst) -> "ConstrainedRule":
        """The unguarded rule tau(lhs) -> tau(rhs) for an assignment tau of
        values to every logical variable.  An instance of a checked rule
        passes every check of the constructor, so it is built without
        re-checking them."""
        return _unchecked(apply_subst(tau, self.lhs), apply_subst(tau, self.rhs), theory.bool_val(True), False)

    def key(self) -> str:
        return alpha_key([self.lhs, self.rhs, self.guard])

    def __repr__(self):
        guard = "" if self.guard == theory.bool_val(True) else f" [{self.guard!r}]"
        return f"{self.lhs!r} -> {self.rhs!r}{guard}"


def _unchecked(lhs: Term, rhs: Term, guard: Term, calc: bool) -> ConstrainedRule:
    """A rule whose checks hold by construction."""
    rule = object.__new__(ConstrainedRule)
    Record.__init__(rule, lhs, rhs, guard, calc)
    return rule


def value_calc_instance(lhs: App) -> ConstrainedRule:
    """The calculation instance lhs -> v of a theory symbol applied to
    values, v the value lhs denotes; it passes the constructor's checks by
    construction."""
    return _unchecked(lhs, theory.interpret_term(lhs), theory.bool_val(True), True)


def _coefficient(t: Term, y: Var) -> int | None:
    """c when the integer term t is c*y + r with an integer c and r free of
    y, else None."""
    if t == y:
        return 1
    if y not in variables(t):
        return 0
    if t.sym in (theory.ADD, theory.SUB):
        a, b = (_coefficient(u, y) for u in t.args)
        if a is None or b is None:
            return None
        return a + b if t.sym == theory.ADD else a - b
    if t.sym == theory.MUL:
        for k, u in (t.args, reversed(t.args)):
            if not variables(k):
                c = _coefficient(u, y)
                return None if c is None else theory.interpret(k) * c
    return None


def options(pairs) -> tuple:
    """A variable's options: distinct (term, value) pairs in the order they
    are tried, and the terms of each value."""
    by_value: dict[int | bool, tuple[Term, ...]] = {}
    for t, value in pairs:
        by_value[value] = (*by_value.get(value, ()), t)
    return tuple(pairs), by_value


@lru_cache(maxsize=64)
def value_options(terms: tuple[Term, ...]) -> tuple:
    """Values as options, each with its own value; converted once per tuple."""
    return options([(t, value_of(t)) for t in terms])


def _definitions(parts: list[Term], vs: list[Var]) -> dict[Var, tuple[int, Term, int]]:
    """For each Int variable of vs in order of first occurrence, the first
    top-level conjunct a = b (parts[k]) not already used in which it has a
    nonzero integer coefficient c, so that a - b is c*y + r with r free of
    y, as (k, a - b, c)."""
    used: set[int] = set()
    out: dict[Var, tuple[int, Term, int]] = {}
    for y in vs:
        if y.sort != INT or y in out:
            continue
        for k, part in enumerate(parts):
            if k in used or isinstance(part, Var) or part.sym != theory.EQ:
                continue
            diff = theory.sub(*part.args)
            c = _coefficient(diff, y)
            if c:
                used.add(k)
                out[y] = (k, diff, c)
                break
    return out


def _dependency_order(vs: list[Var], defs: dict) -> list[Var]:
    """vs with each defined variable right after the variables of vs its
    equation names, walked depth first in the order of vs.  A definition
    that leads back to a variable still being placed is dropped from defs,
    so every cycle leaves one of its variables free."""
    order: list[Var] = []
    placed: set[Var] = set()
    visiting: set[Var] = set()

    def visit(v: Var):
        if v in placed:
            return
        if v in defs:
            visiting.add(v)
            for u in sorted(variables(defs[v][1]).intersection(vs) - {v}, key=lambda u: u.name):
                if u in visiting:
                    del defs[v]  # v is enumerated instead
                    break
                visit(u)
            visiting.discard(v)
        placed.add(v)
        order.append(v)

    for v in vs:
        visit(v)
    return order


class Assignments:
    """Solve, then enumerate: the one procedure that gives logical variables
    values, those of vs in the constraint phi, given values for the
    variables `inputs` (vs and inputs cover phi's variables).  Each Int
    variable of vs, those in calc_results first and the rest in name order,
    is defined by the first unused top-level equation in which it has a
    nonzero integer coefficient, and placed right after the variables of vs
    that equation names; a cycle leaves one of them free, and `free` counts
    the variables no equation defines.  Every other conjunct is checked as
    soon as the variables it names have values.  A call walks depth first,
    the variables in `order`: a free variable takes each of its options, a
    defined one every option with its computed value (a calculation result
    one of its own outside them), and no prefix that fails a check is
    extended.  So, calculation results aside, the assignments are the
    product of the options filtered by phi, in the order the walk finds
    them.  grounding.constraint_assignments calls it over the domain; the
    constrained oracle calls each rule's own (ConstrainedRule.assignments)
    with the values of one model of its constraint, and the ground
    fragment's oracle with the matched domain values."""

    def __init__(self, phi: Term, vs, inputs=(), calc_results=frozenset()):
        names = sorted(vs, key=lambda v: v.name)
        self.inputs = tuple(inputs)
        parts = theory.conjuncts(phi)
        defs = _definitions(parts, [*sorted(calc_results.intersection(names), key=lambda v: v.name), *names])
        order = self.order = _dependency_order(names, defs)
        self.free = sum(v not in defs for v in order)
        level = {v: i for i, v in enumerate(order, start=1)}
        checked = [[] for _ in range(len(order) + 1)]  # [i]: the parts whose last variable is order[i - 1]
        defining = {k for k, _, _ in defs.values()}
        for k, part in enumerate(parts):
            if k not in defining:
                checked[max((level.get(v, 0) for v in variables(part)), default=0)].append(part)
        env, start = [*self.inputs, *order], len(self.inputs)  # the values a walk holds: inputs, then order
        self.checks = [theory.evaluator(theory.conj(*ps), env[: start + i]) for i, ps in enumerate(checked)]
        self.solved = [
            (theory.evaluator(defs[v][1], env[: start + i + 1]), defs[v][2], v in calc_results) if v in defs else None
            for i, v in enumerate(order)
        ]

    def __call__(self, options: dict, values=(), limit: int | None = None) -> list[Subst]:
        """The assignments of options to vs, under the values of the inputs
        in order, as substitutions in the order the walk finds them; the
        first `limit` of them.  options gives each variable of vs its
        options (rules.options)."""
        order, checks, solved = self.order, self.checks, self.solved
        n = len(order)
        opts = [options[v] for v in order]
        out: list[Subst] = []

        def extend(terms: tuple, env: tuple) -> bool:
            """Every assignment extending the prefix; False once the search may stop."""
            i = len(terms)
            if not checks[i](env):
                return True
            if i == n:
                out.append(dict(zip(order, terms)))
                return len(out) != limit
            if solved[i] is None:
                return all(extend((*terms, t), (*env, value)) for t, value in opts[i][0])
            solve, c, unchecked = solved[i]
            r = solve((*env, 0))
            if r % c:
                return True
            value = -r // c
            found = opts[i][1].get(value, (int_val(value),) if unchecked else ())
            return all(extend((*terms, t), (*env, value)) for t in found)

        if limit != 0:
            extend((), tuple(values))
        return out


def rename_apart(rules: list[ConstrainedRule]) -> list[ConstrainedRule]:
    """Pairwise variable-disjoint copies; the first keeps its names, later
    copies get primed where they collide."""
    out: list[ConstrainedRule] = []
    taken: set[Var] = set()
    for rule in rules:
        renamed = rule.rename(rename_away(rule.variables(), taken))
        out.append(renamed)
        taken |= renamed.variables()
    return out


def is_variant(r1: ConstrainedRule, r2: ConstrainedRule) -> bool:
    """Equal up to a variable renaming (lhs, rhs and guard simultaneously)?
    One walk with an explicit stack, building the renaming both ways."""
    ren: dict[Var, Var] = {}
    back: dict[Var, Var] = {}
    todo = [(r1.lhs, r2.lhs), (r1.rhs, r2.rhs), (r1.guard, r2.guard)]
    while todo:
        s, t = todo.pop()
        if isinstance(s, Var):
            if not isinstance(t, Var) or s.sort != t.sort or ren.setdefault(s, t) != t or back.setdefault(t, s) != s:
                return False
        elif isinstance(t, App) and s.sym == t.sym:
            todo.extend(zip(s.args, t.args))
        else:
            return False
    return True


class Signature:
    def __init__(self):
        self.sorts: dict[str, Sort] = {"Int": INT, "Bool": BOOL}
        self.term_syms: dict[str, FunSym] = {}

    def add_sort(self, name: str) -> Sort:
        if name in self.sorts:
            raise RuleError(f"sort {name} already declared")
        self.sorts[name] = Sort(name)
        return self.sorts[name]

    def add_fun(self, name: str, arg_sorts: list[Sort], result: Sort) -> FunSym:
        if name in self.term_syms:
            raise RuleError(f"function {name} already declared")
        sym = FunSym(name, tuple(arg_sorts), result, "term")
        self.term_syms[name] = sym
        return sym


def calc_rules() -> tuple[ConstrainedRule, ...]:
    """One rule f(x1..xn) -> y [y = f(x1..xn)] per non-value theory symbol."""
    out = []
    for f in theory.THEORY_SYMS:
        args = tuple(Var(f"x{i}", s) for i, s in enumerate(f.arg_sorts, start=1))
        y = Var("y", f.result_sort)
        out.append(ConstrainedRule(App(f, args), y, theory.eq(y, App(f, args)), calc=True))
    return tuple(out)


class Lctrs:
    def __init__(self, signature: Signature, rules: tuple[ConstrainedRule, ...]):
        self.signature = signature
        self.rules = rules
        # the constrained oracles over rc_rules (constrained_oracle), by
        # (config, solver, constraint); plain rewriting steps with the one under true
        self.oracles: dict = {}
        self.domains: dict = {}  # the value domains of rewriting.domain_terms, by config

    @cached_property
    def rc_rules(self) -> tuple[ConstrainedRule, ...]:
        return self.rules + calc_rules()

    @cached_property
    def lhs_index(self) -> LhsIndex:
        return LhsIndex(rule.lhs for rule in self.rc_rules)

    @cached_property
    def overlaps(self):
        """The unified overlaps of rc_rules and the index's retrievals
        (analysis.single_overlaps), which both critical-pair enumerations
        read."""
        from .analysis import single_overlaps

        return single_overlaps(self.rc_rules, self.lhs_index)

    @cached_property
    def literals(self) -> frozenset[int]:
        """Integer values appearing anywhere in the rules, walked once."""
        return frozenset(
            int(sub.sym.name)
            for rule in self.rules
            for side in (rule.lhs, rule.rhs, rule.guard)
            for _, sub in positions(side)
            if is_value(sub) and sub.sym.result_sort == INT
        )
