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
        copy = object.__new__(ConstrainedRule)
        sides = (apply_subst(ren, self.lhs), apply_subst(ren, self.rhs), apply_subst(ren, self.guard))
        Record.__init__(copy, *sides, self.calc)
        copy.__dict__["_side_vars"] = tuple(frozenset([ren.get(v, v) for v in vs]) for vs in self._side_vars)
        return copy

    def key(self) -> str:
        return alpha_key([self.lhs, self.rhs, self.guard])

    def __repr__(self):
        guard = "" if self.guard == theory.bool_val(True) else f" [{self.guard!r}]"
        return f"{self.lhs!r} -> {self.rhs!r}{guard}"


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
    def oracles(self) -> dict:
        """The redex oracles of rewriting over rc_rules: plain_oracle's by
        rewrite config, constrained_oracle's by (config, solver, constraint)."""
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
