"""Constrained rewrite rules and rewrite systems.

A rule is lhs -> rhs [guard].  Its logical variables (guard variables plus
right-hand-side variables not bound by the left) must be instantiated by
values; the extra variables (in the right-hand side only) are additionally
collected into the trivial guard EC used when building critical pairs.
Calculation rules f(x1..xn) -> y [y = f(x1..xn)] are derived from the theory
signature and marked with calc=True.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

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
    is_value,
    positions,
    rename_away,
    sort_of,
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
    def _side_vars(self) -> tuple[frozenset[Var], frozenset[Var], frozenset[Var]]:
        """Variables of lhs, rhs and guard, walked once per rule."""
        return frozenset(variables(self.lhs)), frozenset(variables(self.rhs)), frozenset(variables(self.guard))

    @cached_property
    def guard_evaluator(self) -> tuple[tuple[Var, ...], Callable[[tuple], int | bool]]:
        """The guard's variables in name order and the guard compiled as a
        function of their values; compiled on first use."""
        vs = tuple(sorted(self._side_vars[2], key=lambda v: v.name))
        return vs, theory.evaluator(self.guard, vs)

    @cached_property
    def guard_definitions(self) -> dict[Var, tuple[int, tuple[Var, ...], Callable[[tuple], int]]]:
        """For each Int variable y of the guard that an instance has to
        choose (lvar_split), the first top-level guard conjunct a = b that is
        linear in y and mentions no other such variable, as (c, vs, diff):
        a - b is c*y + r with a nonzero integer c and r free of y, vs are the
        conjunct's other variables in name order, and diff computes a - b
        from the values of (y, *vs).  Given values for vs, the conjunct
        holds for y = -r/c alone, and for no y when that is not an integer."""
        unbound = frozenset(self.lvar_split[1])
        out = {}
        for part in theory.conjuncts(self.guard):
            if isinstance(part, Var) or part.sym != theory.EQ:
                continue
            vs = variables(part)
            free = vs & unbound
            if len(free) != 1 or free <= out.keys():
                continue
            (y,) = free
            diff = theory.sub(*part.args)
            c = _coefficient(diff, y)
            if c:
                others = tuple(sorted(vs - free, key=lambda v: v.name))
                out[y] = (c, others, theory.evaluator(diff, (y, *others)))
        return out

    def variables(self) -> frozenset[Var]:
        lhs, rhs, guard = self._side_vars
        return lhs | rhs | guard

    def lvar(self) -> frozenset[Var]:
        lhs, rhs, guard = self._side_vars
        return guard | (rhs - lhs)

    @cached_property
    def lvar_split(self) -> tuple[frozenset[Var], tuple[Var, ...]]:
        """The logical variables a left-hand-side match binds, and the others
        in name order, which an instance of the rule has to choose."""
        lhs, rhs, guard = self._side_vars
        return lhs & guard, tuple(sorted((guard | rhs) - lhs, key=lambda v: v.name))

    def evar(self) -> frozenset[Var]:
        lhs, rhs, guard = self._side_vars
        return rhs - (lhs | guard)

    def ec(self) -> Term:
        return theory.conj(*(theory.eq(x, x) for x in sorted(self.evar(), key=lambda v: v.name)))

    def rename(self, ren: Subst) -> "ConstrainedRule":
        """The copy under an injective, sort-preserving variable renaming
        (as rename_away gives).  Such a renaming keeps every fact the
        constructor checks, so the copy is built without re-checking them,
        and its side variables are the original's mapped through ren."""
        if not ren:
            return self
        sides = (apply_subst(ren, self.lhs), apply_subst(ren, self.rhs), apply_subst(ren, self.guard))
        return _unchecked(*sides, self.calc, tuple(frozenset([ren.get(v, v) for v in vs]) for vs in self._side_vars))

    def instance(self, tau: Subst) -> "ConstrainedRule":
        """The unguarded rule tau(lhs) -> tau(rhs) for an assignment tau of
        values to every logical variable.  An instance of a checked rule
        passes every check of the constructor, so it is built without
        re-checking them; its side variables are the original's less tau's."""
        lhs, rhs, _ = self._side_vars
        sides = (lhs.difference(tau), rhs.difference(tau), frozenset())
        return _unchecked(apply_subst(tau, self.lhs), apply_subst(tau, self.rhs), theory.bool_val(True), False, sides)

    def key(self) -> str:
        return alpha_key([self.lhs, self.rhs, self.guard])

    def __repr__(self):
        guard = "" if self.guard == theory.bool_val(True) else f" [{self.guard!r}]"
        return f"{self.lhs!r} -> {self.rhs!r}{guard}"


def _unchecked(lhs: Term, rhs: Term, guard: Term, calc: bool, side_vars) -> ConstrainedRule:
    """A rule whose checks hold by construction, with its side variables
    (those of lhs, rhs and guard) given."""
    rule = object.__new__(ConstrainedRule)
    Record.__init__(rule, lhs, rhs, guard, calc)
    rule.__dict__["_side_vars"] = side_vars
    return rule


def value_calc_instance(lhs: App) -> ConstrainedRule:
    """The calculation instance lhs -> v of a theory symbol applied to
    values, v the value lhs denotes; it passes the constructor's checks by
    construction."""
    return _unchecked(lhs, theory.interpret_term(lhs), theory.bool_val(True), True, (frozenset(),) * 3)


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

    @cached_property
    def rc_rules(self) -> tuple[ConstrainedRule, ...]:
        return self.rules + calc_rules()

    @cached_property
    def lhs_index(self) -> LhsIndex:
        return LhsIndex(rule.lhs for rule in self.rc_rules)

    @cached_property
    def overlaps(self) -> list:
        """The unified overlaps of rc_rules (analysis.single_overlaps), which
        both critical-pair enumerations read."""
        from .analysis import single_overlaps

        return single_overlaps(self.rc_rules, self.lhs_index)

    @cached_property
    def oracles(self) -> dict:
        """The redex oracles of rewriting over rc_rules: constrained_oracle's
        by (config, solver, constraint), and plain_oracle's, the constrained
        oracle under true with a solver of its own, by config alone."""
        return {}

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
