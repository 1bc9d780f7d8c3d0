"""The fixed background theory: integers with booleans.

Declares the interpreted symbols, evaluates ground logical terms, and offers
convenience constructors for building constraints.
"""

from __future__ import annotations

from collections.abc import Callable

from .terms import (
    App,
    BOOL,
    FunSym,
    INT,
    Term,
    TermError,
    Var,
    bool_val,
    int_val,
    sort_of,
    value_of,
)

ADD = FunSym("+", (INT, INT), INT, "theory")
SUB = FunSym("-", (INT, INT), INT, "theory")
MUL = FunSym("*", (INT, INT), INT, "theory")
EQ = FunSym("=", (INT, INT), BOOL, "theory")
NE = FunSym("!=", (INT, INT), BOOL, "theory")
LT = FunSym("<", (INT, INT), BOOL, "theory")
LE = FunSym("<=", (INT, INT), BOOL, "theory")
GT = FunSym(">", (INT, INT), BOOL, "theory")
GE = FunSym(">=", (INT, INT), BOOL, "theory")
AND = FunSym("and", (BOOL, BOOL), BOOL, "theory")
OR = FunSym("or", (BOOL, BOOL), BOOL, "theory")
NOT = FunSym("not", (BOOL,), BOOL, "theory")
IMP = FunSym("=>", (BOOL, BOOL), BOOL, "theory")
EQB = FunSym("=", (BOOL, BOOL), BOOL, "theory")
NEB = FunSym("!=", (BOOL, BOOL), BOOL, "theory")

THEORY_SYMS: tuple[FunSym, ...] = (
    ADD, SUB, MUL, EQ, NE, LT, LE, GT, GE, AND, OR, NOT, IMP, EQB, NEB,
)

_INTERP: dict[FunSym, Callable] = {
    ADD: lambda a, b: a + b,
    SUB: lambda a, b: a - b,
    MUL: lambda a, b: a * b,
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
    LT: lambda a, b: a < b,
    LE: lambda a, b: a <= b,
    GT: lambda a, b: a > b,
    GE: lambda a, b: a >= b,
    AND: lambda a, b: a and b,
    OR: lambda a, b: a or b,
    NOT: lambda a: not a,
    IMP: lambda a, b: (not a) or b,
    EQB: lambda a, b: a == b,
    NEB: lambda a, b: a != b,
}


def is_theory_sym(f: FunSym) -> bool:
    return f.kind in ("theory", "value")


def is_logical_term(t: Term) -> bool:
    """Built from theory symbols, values and variables only?"""
    if isinstance(t, Var):
        return True
    return is_theory_sym(t.sym) and all(is_logical_term(a) for a in t.args)


def interpret(t: Term) -> int | bool:
    """Evaluate a ground logical term to the value it denotes."""
    if isinstance(t, Var):
        raise TermError(f"cannot interpret non-ground term: {t}")
    if t.sym.kind == "value":
        return value_of(t)
    if t.sym.kind != "theory":
        raise TermError(f"cannot interpret non-theory symbol {t.sym.name}")
    fn = _INTERP[t.sym]
    return fn(*(interpret(a) for a in t.args))


def interpret_term(t: Term) -> App:
    """Like interpret, but packages the result back up as a value constant."""
    v = interpret(t)
    return bool_val(v) if isinstance(v, bool) else int_val(v)


def holds(phi: Term) -> bool:
    """Truth of a ground constraint."""
    v = interpret(phi)
    if not isinstance(v, bool):
        raise TermError(f"constraint of non-boolean sort: {phi}")
    return v


def evaluator(phi: Term, vs) -> Callable[[tuple], int | bool]:
    """phi as a function of the values of its variables: given the Python
    values of vs in order, it returns what interpret gives on phi with vs
    replaced by those values.  Compiled once into closures over the
    interpretation; an evaluation builds no term."""
    slot = {v: i for i, v in enumerate(vs)}

    def compile_(t: Term) -> Callable[[tuple], int | bool]:
        if isinstance(t, Var):
            if t not in slot:
                raise TermError(f"cannot interpret non-ground term: {t}")
            i = slot[t]
            return lambda env: env[i]
        if t.sym.kind == "value":
            c = value_of(t)
            return lambda env: c
        if t.sym.kind != "theory":
            raise TermError(f"cannot interpret non-theory symbol {t.sym.name}")
        fn = _INTERP[t.sym]
        if len(t.args) == 1:
            (a,) = map(compile_, t.args)
            return lambda env: fn(a(env))
        a, b = map(compile_, t.args)
        return lambda env: fn(a(env), b(env))

    return compile_(phi)


# Constraint builders.  Integer arguments are lifted to value constants.

def _lift(t: Term | int | bool) -> Term:
    if isinstance(t, bool):
        return bool_val(t)
    if isinstance(t, int):
        return int_val(t)
    return t


def add(a, b) -> App:
    return App(ADD, (_lift(a), _lift(b)))


def sub(a, b) -> App:
    return App(SUB, (_lift(a), _lift(b)))


def mul(a, b) -> App:
    return App(MUL, (_lift(a), _lift(b)))


def eq(a, b) -> App:
    a, b = _lift(a), _lift(b)
    return App(EQB if sort_of(a) == BOOL else EQ, (a, b))


def ne(a, b) -> App:
    a, b = _lift(a), _lift(b)
    return App(NEB if sort_of(a) == BOOL else NE, (a, b))


def lt(a, b) -> App:
    return App(LT, (_lift(a), _lift(b)))


def le(a, b) -> App:
    return App(LE, (_lift(a), _lift(b)))


def gt(a, b) -> App:
    return App(GT, (_lift(a), _lift(b)))


def ge(a, b) -> App:
    return App(GE, (_lift(a), _lift(b)))


def neg(a) -> App:
    return App(NOT, (_lift(a),))


def imp(a, b) -> App:
    return App(IMP, (_lift(a), _lift(b)))


def conj(*phis: Term) -> Term:
    """Right-associated conjunction; true conjuncts are dropped."""
    parts = [p for p in phis if p != bool_val(True)]
    if not parts:
        return bool_val(True)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = App(AND, (p, out))
    return out


def conjuncts(phi: Term) -> list[Term]:
    """The top-level conjuncts of phi, left to right (conj's inverse)."""
    if isinstance(phi, App) and phi.sym == AND:
        return [*conjuncts(phi.args[0]), *conjuncts(phi.args[1])]
    return [phi]
