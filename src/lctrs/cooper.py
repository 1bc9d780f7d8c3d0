"""Quantifier elimination for linear integer arithmetic with booleans.

Internal formula language, built from constraint terms:

  atoms      ("lt", l)  l < 0        ("eq", l)  l = 0       ("ne", l)  l != 0
             ("dvd", d, l)  d | l    ("ndvd", d, l)
             ("bvar", x)             ("nbvar", x)
  structure  ("and", fs) / ("or", fs) with tuple fs, TRUE = ("true",), FALSE = ("false",)

Linear terms l are canonical tuples of (name, coeff) pairs sorted by name,
the empty name holding the constant.  An integer variable that a conjunct
c*x + r = 0 defines is substituted (for |c| > 1 under the divisibility
|c| | r); any other is eliminated by the classic divisibility-based
elimination (scale to unit coefficient, test the boundary points and the
minus-infinity disjunct over one period); boolean variables by expansion.
Multiplication of two non-constant operands is rejected with NonlinearError.
"""

from __future__ import annotations

import functools
from math import gcd, lcm

from . import theory
from .terms import BOOL, INT, Term, Var, bool_val, int_val, is_value, value_of, variables

Lin = tuple[tuple[str, int], ...]
Formula = tuple

TRUE: Formula = ("true",)
FALSE: Formula = ("false",)


class NonlinearError(Exception):
    """Constraint outside the linear fragment."""


# --- linear terms ---------------------------------------------------------

def lin(d: dict[str, int]) -> Lin:
    return tuple(sorted((x, c) for x, c in d.items() if c != 0))


def lin_const(n: int) -> Lin:
    return lin({"": n})


def lin_var(x: str) -> Lin:
    return lin({x: 1})


def ladd(a: Lin, b: Lin) -> Lin:
    d = dict(a)
    for x, c in b:
        d[x] = d.get(x, 0) + c
    return lin(d)


def lscale(a: Lin, k: int) -> Lin:
    return lin({x: c * k for x, c in a})


def lneg(a: Lin) -> Lin:
    return lscale(a, -1)


def lcoeff(a: Lin, x: str) -> int:
    return dict(a).get(x, 0)


def ldrop(a: Lin, x: str) -> Lin:
    return tuple((y, c) for y, c in a if y != x)


def lsubst(a: Lin, x: str, rep: Lin) -> Lin:
    """Replace variable x (any coefficient) by the linear term rep."""
    c = lcoeff(a, x)
    if c == 0:
        return a
    return ladd(ldrop(a, x), lscale(rep, c))


def lground(a: Lin) -> int | None:
    if all(x == "" for x, _ in a):
        return lcoeff(a, "")
    return None


# --- translation from constraint terms ------------------------------------

def term_to_lin(t: Term) -> Lin:
    if isinstance(t, Var):
        return lin_var(t.name)
    if is_value(t):
        return lin_const(value_of(t))
    if t.sym == theory.ADD:
        return ladd(term_to_lin(t.args[0]), term_to_lin(t.args[1]))
    if t.sym == theory.SUB:
        return ladd(term_to_lin(t.args[0]), lneg(term_to_lin(t.args[1])))
    if t.sym == theory.MUL:
        a, b = term_to_lin(t.args[0]), term_to_lin(t.args[1])
        ka, kb = lground(a), lground(b)
        if ka is not None:
            return lscale(b, ka)
        if kb is not None:
            return lscale(a, kb)
        raise NonlinearError(f"nonlinear product: {t}")
    raise NonlinearError(f"not an integer term: {t}")


_CMP = {
    theory.LT: lambda a, b: ("lt", ladd(a, lneg(b))),
    theory.LE: lambda a, b: ("lt", ladd(ladd(a, lneg(b)), lin_const(-1))),
    theory.GT: lambda a, b: ("lt", ladd(b, lneg(a))),
    theory.GE: lambda a, b: ("lt", ladd(ladd(b, lneg(a)), lin_const(-1))),
    theory.EQ: lambda a, b: ("eq", ladd(a, lneg(b))),
    theory.NE: lambda a, b: ("ne", ladd(a, lneg(b))),
}


@functools.lru_cache(maxsize=200_000)
def formula_of(phi: Term) -> Formula:
    """Translate a constraint term; raises NonlinearError off the fragment.
    Memoised like eliminate_int: terms are hash-consed, so a constraint
    asked about again is looked up by identity."""
    if isinstance(phi, Var):
        if phi.sort != BOOL:
            raise NonlinearError(f"non-boolean variable as constraint: {phi}")
        return ("bvar", phi.name)
    if is_value(phi):
        return TRUE if value_of(phi) else FALSE
    sym = phi.sym
    if sym in _CMP:
        return simplify(_CMP[sym](term_to_lin(phi.args[0]), term_to_lin(phi.args[1])))
    if sym == theory.AND:
        return mk_and(tuple(formula_of(a) for a in phi.args))
    if sym == theory.OR:
        return mk_or(tuple(formula_of(a) for a in phi.args))
    if sym == theory.NOT:
        return mk_not(formula_of(phi.args[0]))
    if sym == theory.IMP:
        return mk_or((mk_not(formula_of(phi.args[0])), formula_of(phi.args[1])))
    if sym in (theory.EQB, theory.NEB):
        a, b = formula_of(phi.args[0]), formula_of(phi.args[1])
        same = mk_or((mk_and((a, b)), mk_and((mk_not(a), mk_not(b)))))
        return same if sym == theory.EQB else mk_not(same)
    raise NonlinearError(f"not a constraint: {phi}")


# --- constructors with eager simplification --------------------------------

def simplify(f: Formula) -> Formula:
    tag = f[0]
    if tag in ("lt", "eq", "ne"):
        l = f[1]
        g = lground(l)
        if g is not None:
            val = g < 0 if tag == "lt" else (g == 0 if tag == "eq" else g != 0)
            return TRUE if val else FALSE
        div = gcd(*(abs(c) for x, c in l if x != ""))
        if div > 1:
            const = lcoeff(l, "")
            rest = lin({x: c // div for x, c in l if x != ""})
            if tag == "lt":
                return ("lt", ladd(rest, lin_const(const // div)))
            if const % div != 0:
                return FALSE if tag == "eq" else TRUE
            return (tag, ladd(rest, lin_const(const // div)))
        return f
    if tag in ("dvd", "ndvd"):
        d, l = f[1], f[2]
        l = lin({x: c % d for x, c in l})
        g = lground(l)
        if g is not None:
            val = g % d == 0
            if tag == "ndvd":
                val = not val
            return TRUE if val else FALSE
        div = gcd(d, *(abs(c) for _, c in l))
        if div > 1:
            d //= div
            l = lin({x: c // div for x, c in l})
        if d == 1:
            return TRUE if tag == "dvd" else FALSE
        return (tag, d, l)
    return f


def mk_and(fs: tuple[Formula, ...]) -> Formula:
    flat: list[Formula] = []
    for f in fs:
        if f == FALSE:
            return FALSE
        if f == TRUE:
            continue
        if f[0] == "and":
            flat.extend(f[1])
        else:
            flat.append(f)
    uniq = tuple(dict.fromkeys(flat))
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return ("and", uniq)


def mk_or(fs: tuple[Formula, ...]) -> Formula:
    flat: list[Formula] = []
    for f in fs:
        if f == TRUE:
            return TRUE
        if f == FALSE:
            continue
        if f[0] == "or":
            flat.extend(f[1])
        else:
            flat.append(f)
    uniq = tuple(dict.fromkeys(flat))
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return ("or", uniq)


def mk_not(f: Formula) -> Formula:
    """Negation pushed to the literals (keeps formulas in NNF)."""
    tag = f[0]
    if tag == "true":
        return FALSE
    if tag == "false":
        return TRUE
    if tag == "lt":
        # not(l < 0)  iff  -l - 1 < 0
        return simplify(("lt", ladd(lneg(f[1]), lin_const(-1))))
    if tag == "eq":
        return simplify(("ne", f[1]))
    if tag == "ne":
        return simplify(("eq", f[1]))
    if tag == "dvd":
        return simplify(("ndvd", f[1], f[2]))
    if tag == "ndvd":
        return simplify(("dvd", f[1], f[2]))
    if tag == "bvar":
        return ("nbvar", f[1])
    if tag == "nbvar":
        return ("bvar", f[1])
    if tag == "and":
        return mk_or(tuple(mk_not(g) for g in f[1]))
    if tag == "or":
        return mk_and(tuple(mk_not(g) for g in f[1]))
    raise AssertionError(f)


def map_atoms(f: Formula, fn) -> Formula:
    tag = f[0]
    if tag == "and":
        return mk_and(tuple(map_atoms(g, fn) for g in f[1]))
    if tag == "or":
        return mk_or(tuple(map_atoms(g, fn) for g in f[1]))
    return fn(f)


def atoms(f: Formula) -> list[Formula]:
    tag = f[0]
    if tag in ("and", "or"):
        out = []
        for g in f[1]:
            out.extend(atoms(g))
        return out
    if tag in ("true", "false"):
        return []
    return [f]


def subst_bool(f: Formula, name: str, val: bool) -> Formula:
    def fn(a: Formula) -> Formula:
        if a == ("bvar", name):
            return TRUE if val else FALSE
        if a == ("nbvar", name):
            return FALSE if val else TRUE
        return a

    return map_atoms(f, fn)


def subst_int(f: Formula, x: str, rep: Lin) -> Formula:
    def fn(a: Formula) -> Formula:
        if a[0] in ("lt", "eq", "ne"):
            return simplify((a[0], lsubst(a[1], x, rep)))
        if a[0] in ("dvd", "ndvd"):
            return simplify((a[0], a[1], lsubst(a[2], x, rep)))
        return a

    return map_atoms(f, fn)


# --- elimination -----------------------------------------------------------

class BlowupError(NonlinearError):
    """Eliminated formula grew past the safety cap."""


_DNF_CAP = 50_000


def _dnf(f: Formula) -> list[tuple[Formula, ...]]:
    """Cubes of literals; TRUE is the empty cube, FALSE the empty list."""
    if f == TRUE:
        return [()]
    if f == FALSE:
        return []
    if f[0] == "or":
        out: list[tuple[Formula, ...]] = []
        for g in f[1]:
            out.extend(_dnf(g))
            if len(out) > _DNF_CAP:
                raise BlowupError("disjunctive expansion too large")
        return out
    if f[0] == "and":
        cubes: list[tuple[Formula, ...]] = [()]
        for g in f[1]:
            parts = _dnf(g)
            cubes = [c + p for c in cubes for p in parts]
            if len(cubes) > _DNF_CAP:
                raise BlowupError("disjunctive expansion too large")
        return cubes
    return [(f,)]


@functools.lru_cache(maxsize=200_000)
def eliminate_int(x: str, f: Formula) -> Formula:
    """Quantifier-free equivalent of exists-x f (f in NNF).

    The quantifier is pushed through disjunctions and past conjuncts without
    x.  A conjunct c*x + r = 0 defines x, and the one with the least |c| is
    substituted; only conjunctions of literals without such a conjunct
    reach the core elimination, which keeps the boundary-point expansion
    local.
    """
    if x not in formula_vars(f):
        return f
    if f[0] == "or":
        return mk_or(tuple(eliminate_int(x, g) for g in f[1]))
    conjuncts = f[1] if f[0] == "and" else (f,)
    keep = tuple(g for g in conjuncts if x not in formula_vars(g))
    if keep:
        rest = tuple(g for g in conjuncts if x in formula_vars(g))
        return mk_and(keep + (eliminate_int(x, mk_and(rest)),))
    eqs = [g for g in conjuncts if g[0] == "eq"]
    if eqs:
        return _substitute_equality(x, f, min(eqs, key=lambda g: abs(lcoeff(g[1], x))))
    if f[0] == "and":
        cubes = _dnf(f)
        if len(cubes) > 1:
            return mk_or(tuple(eliminate_int(x, mk_and(c)) for c in cubes))
    return _eliminate_core(x, f)


def _substitute_equality(x: str, f: Formula, eq: Formula) -> Formula:
    """exists-x f for a conjunct eq of f, c*x + r = 0: f with x := -c*r
    when |c| = 1; otherwise every atom on x is scaled until its coefficient
    is a multiple of c, c*x is replaced by -r, and |c| | r is conjoined."""
    c = lcoeff(eq[1], x)
    r = ldrop(eq[1], x)
    if abs(c) == 1:
        return subst_int(f, x, lscale(r, -c))

    def solve(a: Formula) -> Formula:
        if a[0] not in ("lt", "eq", "ne", "dvd", "ndvd") or lcoeff(a[-1], x) == 0:
            return a
        k = lcoeff(a[-1], x)
        m = abs(c) // gcd(k, c)
        l = ladd(ldrop(lscale(a[-1], m), x), lscale(r, -(k * m // c)))
        return simplify((a[0], a[1] * m, l) if a[0] in ("dvd", "ndvd") else (a[0], l))

    return mk_and((map_atoms(f, solve), simplify(("dvd", abs(c), r))))


def _period(x: str, f: Formula) -> int:
    """The least common multiple of the moduli of f's divisibility atoms
    on x, 1 if there are none."""
    period = 1
    for a in atoms(f):
        if a[0] in ("dvd", "ndvd") and lcoeff(a[2], x) != 0:
            period = lcm(period, a[1])
    return period


def _eliminate_core(x: str, f: Formula) -> Formula:
    """exists-x f for a conjunction of literals f in which no equality
    mentions x (eliminate_int substitutes those)."""
    coeffs = [lcoeff(a[-1], x) for a in atoms(f) if a[0] not in ("bvar", "nbvar")]
    coeffs = [c for c in coeffs if c != 0]
    if not coeffs:
        return f
    unit = lcm(*(abs(c) for c in coeffs))

    def unitize(a: Formula) -> Formula:
        l = a[-1]
        c = lcoeff(l, x)
        if c == 0:
            return a
        m = unit // abs(c)
        l = lscale(l, m)
        # change of variable: the scaled +-unit*x becomes a +-1 occurrence
        l = ladd(ldrop(l, x), lin({x: 1 if c > 0 else -1}))
        if a[0] in ("dvd", "ndvd"):
            return (a[0], a[1] * m, l)
        return (a[0], l)

    f1 = map_atoms(f, lambda a: a if a[0] in ("bvar", "nbvar") else unitize(a))
    if unit > 1:
        f1 = mk_and((f1, ("dvd", unit, lin_var(x))))

    # pick the infinity direction with the smaller boundary set: going through
    # -x turns upper bounds into the lower bounds the -infinity recipe scans
    lows = ups = 0
    for a in atoms(f1):
        if a[0] == "lt":
            c = lcoeff(a[1], x)
            if c < 0:
                lows += 1
            elif c > 0:
                ups += 1
        elif a[0] == "ne" and lcoeff(a[1], x) != 0:
            lows += 1
            ups += 1
    if ups < lows:

        def mirror(a: Formula) -> Formula:
            if a[0] in ("bvar", "nbvar"):
                return a
            l = a[-1]
            c = lcoeff(l, x)
            if c == 0:
                return a
            l = ladd(ldrop(l, x), lin({x: -c}))
            return (a[0], a[1], l) if a[0] in ("dvd", "ndvd") else (a[0], l)

        f1 = map_atoms(f1, mirror)

    period = _period(x, f1)

    def minus_inf(a: Formula) -> Formula:
        if a[0] in ("bvar", "nbvar", "dvd", "ndvd"):
            return a
        c = lcoeff(a[1], x)
        if c == 0:
            return a
        if a[0] == "lt":
            return TRUE if c > 0 else FALSE
        return TRUE  # ne

    f_low = map_atoms(f1, minus_inf)

    bset: set[Lin] = set()
    for a in atoms(f1):
        if a[0] in ("bvar", "nbvar", "dvd", "ndvd"):
            continue
        l = a[1]
        c = lcoeff(l, x)
        if c == 0:
            continue
        rest = ldrop(l, x)
        if a[0] == "lt" and c < 0:
            bset.add(rest)  # rest < x
        elif a[0] == "ne":
            bset.add(lneg(rest) if c > 0 else rest)

    parts: list[Formula] = []
    for j in range(1, period + 1):
        parts.append(subst_int(f_low, x, lin_const(j)))
        for b in sorted(bset):
            parts.append(subst_int(f1, x, ladd(b, lin_const(j))))
    return mk_or(tuple(parts))


def _elimination_cost(name: str, f: Formula) -> tuple:
    """Sort key for the order of elimination.  A variable that a top-level
    equality defines comes first, least coefficient first, since
    substituting it adds no disjunction; the others by the smaller side of
    their bounds, the coefficients' lcm and their occurrences."""
    conjuncts = f[1] if f[0] == "and" else (f,)
    defining = [abs(lcoeff(g[1], name)) for g in conjuncts if g[0] == "eq" and lcoeff(g[1], name)]
    if defining:
        return (-1, min(defining), 0, name)
    lows = ups = occurrences = 0
    coeff_lcm = 1
    for a in atoms(f):
        if a[0] in ("bvar", "nbvar"):
            occurrences += a[1] == name
            continue
        c = lcoeff(a[-1], name)
        if c == 0:
            continue
        occurrences += 1
        coeff_lcm = lcm(coeff_lcm, abs(c))
        if a[0] == "lt":
            if c < 0:
                lows += 1
            else:
                ups += 1
        else:
            lows += 1
            ups += 1
    return (min(lows, ups), coeff_lcm, occurrences, name)


def eliminate_exists(names: list[tuple[str, str]], f: Formula) -> Formula:
    """One block of existential variables; the order inside a block is free,
    so equality-defined, one-sided and small-coefficient variables go first."""
    pending = dict(names)
    while pending:
        name = min(pending, key=lambda n: _elimination_cost(n, f))
        kind = pending.pop(name)
        if kind == "bool":
            f = mk_or((subst_bool(f, name, True), subst_bool(f, name, False)))
        else:
            f = eliminate_int(name, f)
    return f


def eliminate_prefix(prefix: list[tuple[str, list[tuple[str, str]]]], f: Formula) -> Formula:
    for quant, names in reversed(prefix):
        if quant == "exists":
            f = eliminate_exists(names, f)
        elif quant == "forall":
            f = mk_not(eliminate_exists(names, mk_not(f)))
        else:
            raise ValueError(f"bad quantifier {quant!r}")
    return f


def _kinds(vs) -> list[tuple[str, str]]:
    """(name, "int" | "bool") for each variable, in the given order."""
    out = []
    for v in vs:
        if v.sort not in (INT, BOOL):
            raise NonlinearError(f"variable {v} of non-theory sort in constraint")
        out.append((v.name, "bool" if v.sort == BOOL else "int"))
    return out


def _var_kinds(phi: Term) -> list[tuple[str, str]]:
    return _kinds(sorted(variables(phi), key=lambda v: v.name))


def decide_sat(phi: Term) -> bool:
    """Satisfiability of a constraint, free variables read existentially."""
    f = formula_of(phi)
    return eval_formula(eliminate_exists(_var_kinds(phi), f), {})


def decide_prefixed(prefix: list[tuple[str, list[Var]]], phi: Term) -> bool:
    """Truth of (prefix)(phi); leftover free variables read universally."""
    f = formula_of(phi)
    blocks = []
    bound: set[str] = set()
    for quant, vs in prefix:
        names = _kinds(vs)
        bound |= {n for n, _ in names}
        blocks.append((quant, names))
    free = [(n, k) for n, k in _var_kinds(phi) if n not in bound]
    if free:
        blocks.insert(0, ("forall", free))
    return eval_formula(eliminate_prefix(blocks, f), {})


def _single_var_witness(x: str, g: Formula) -> int | None:
    """Value of x satisfying a formula whose only free variable is x.

    Any satisfiable single-variable formula holds at a boundary point of one
    of its atoms shifted by at most one period, or anywhere one period below
    the least boundary; scanning that window is exact."""
    period = _period(x, g)
    cands: set[int] = set()
    for a in atoms(g):
        if a[0] in ("bvar", "nbvar"):
            continue
        l = a[-1]
        c = lcoeff(l, x)
        if c == 0:
            continue
        rest = lcoeff(l, "")
        base = -rest // c
        cands.update(range(base - period - 1, base + period + 2))
    if not cands:
        return 0 if eval_formula(g, {}) else None
    low = min(cands)
    cands.update(range(low - period - 1, low))
    for v in sorted(cands, key=lambda n: (abs(n), n)):
        if eval_formula(g, {x: v}):
            return v
    return None


def find_model(f: Formula, vs: list[Var]) -> dict[Var, Term] | None:
    """Satisfying value assignment of vs, which must include every variable
    of f, extracted by fixing one variable at a time; the variables f does
    not mention take false and 0."""
    kinds = dict(_kinds(vs))
    remaining = sorted(formula_vars(f))

    def still_sat(g: Formula, names: list[str]) -> bool:
        return eval_formula(eliminate_exists([(n, kinds[n]) for n in names], g), {})

    if not still_sat(f, remaining):
        return None
    env: dict[str, int | bool] = {}
    for name in [n for n in remaining if kinds[n] == "bool"]:
        remaining = [n for n in remaining if n != name]
        g = subst_bool(f, name, True)
        if still_sat(g, remaining):
            env[name], f = True, g
        else:
            env[name], f = False, subst_bool(f, name, False)
    for name in [n for n in remaining if kinds[n] == "int"]:
        remaining = [n for n in remaining if n != name]
        g = eliminate_exists([(n, kinds[n]) for n in remaining], f)
        val = _single_var_witness(name, g)
        assert val is not None, "witness window missed a satisfiable formula"
        env[name] = val
        f = subst_int(f, name, lin_const(val))
    return {v: bool_val(env.get(v.name, False)) if v.sort == BOOL else int_val(env.get(v.name, 0)) for v in vs}


def eval_formula(f: Formula, env: dict[str, int | bool]) -> bool:
    """Direct evaluation under an assignment of all free variables."""
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "and":
        return all(eval_formula(g, env) for g in f[1])
    if tag == "or":
        return any(eval_formula(g, env) for g in f[1])
    if tag == "bvar":
        return bool(env[f[1]])
    if tag == "nbvar":
        return not env[f[1]]
    l = f[-1]
    total = sum(c if x == "" else c * int(env[x]) for x, c in l)
    if tag == "lt":
        return total < 0
    if tag == "eq":
        return total == 0
    if tag == "ne":
        return total != 0
    if tag == "dvd":
        return total % f[1] == 0
    if tag == "ndvd":
        return total % f[1] != 0
    raise AssertionError(f)


@functools.lru_cache(maxsize=500_000)
def formula_vars(f: Formula) -> frozenset[str]:
    tag = f[0]
    if tag in ("and", "or"):
        return frozenset().union(*(formula_vars(g) for g in f[1]))
    if tag in ("bvar", "nbvar"):
        return frozenset((f[1],))
    if tag in ("lt", "eq", "ne", "dvd", "ndvd"):
        return frozenset(x for x, _ in f[-1] if x != "")
    return frozenset()


def is_linear(phi: Term) -> bool:
    try:
        formula_of(phi)
        return True
    except NonlinearError:
        return False
