#!/usr/bin/env python3
"""Minimal SMT-LIB 2 solver for integer/boolean problems, stdlib only.

Reads a script on stdin (or from a file argument), understands declare-const /
declare-fun (arity 0), assert, check-sat, get-model and exit.  Quantifier-free
linear problems are decided exactly by variable elimination, which also builds
the model one variable at a time; nonlinear goals are decided by exhaustive
search when the asserted conjuncts pin every variable into a finite box
(explicit bounds, or var*var = nonzero-constant which bounds both factors by
the constant), and answered unknown otherwise.

Deliberately self-contained: this is the external cross-check for the host
package, so it shares no code with it.
"""

import sys
from itertools import product as iproduct
from math import gcd

LCM = lambda a, b: a * b // gcd(a, b)


def tokenize(text):
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c in "()":
            toks.append(c)
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in "() \t\r\n;":
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def parse_all(toks):
    out, stack = [], []
    for t in toks:
        if t == "(":
            stack.append([])
        elif t == ")":
            e = stack.pop()
            (stack[-1] if stack else out).append(e)
        else:
            (stack[-1] if stack else out).append(t)
    return out


# Linear sums are plain dicts var->coeff with 1 for the constant slot.
CONST = 1


def s_add(a, b):
    r = dict(a)
    for k, v in b.items():
        r[k] = r.get(k, 0) + v
    return {k: v for k, v in r.items() if v}


def s_mul(a, k):
    return {x: v * k for x, v in a.items() if v * k}


class Nonlinear(Exception):
    pass


def linsum(e, env):
    if isinstance(e, str):
        if e in env:
            if env[e] != "Int":
                raise Nonlinear("boolean in arithmetic position")
            return {e: 1}
        return {CONST: int(e)}
    op = e[0]
    if op == "+":
        r = {}
        for a in e[1:]:
            r = s_add(r, linsum(a, env))
        return r
    if op == "-":
        if len(e) == 2:
            return s_mul(linsum(e[1], env), -1)
        r = linsum(e[1], env)
        for a in e[2:]:
            r = s_add(r, s_mul(linsum(a, env), -1))
        return r
    if op == "*":
        parts = [linsum(a, env) for a in e[1:]]
        is_const = lambda s: all(k is CONST for k in s)
        r = {CONST: 1}
        for p in parts:
            if is_const(r):
                r = s_mul(p, r.get(CONST, 0))
            elif is_const(p):
                r = s_mul(r, p.get(CONST, 0))
            else:
                raise Nonlinear(e)
        return r
    raise Nonlinear(e)


# Formulas: ('lt', sum) sum<0 | ('eq', sum) | ('ne', sum) | ('div', m, sum)
# | ('ndiv', m, sum) | ('pvar', name) | ('npvar', name) | ('all', fs) | ('any', fs)
T, F = ("any", ()), ("all", ())  # empty any is false... swap below

TRUEF = ("all", ())
FALSEF = ("any", ())


def conj(fs):
    flat = []
    for f in fs:
        if f == FALSEF:
            return FALSEF
        if f == TRUEF:
            continue
        flat.extend(f[1] if f[0] == "all" else [f])
    return TRUEF if not flat else (flat[0] if len(flat) == 1 else ("all", tuple(dict.fromkeys(flat))))


def disj(fs):
    flat = []
    for f in fs:
        if f == TRUEF:
            return TRUEF
        if f == FALSEF:
            continue
        flat.extend(f[1] if f[0] == "any" else [f])
    return FALSEF if not flat else (flat[0] if len(flat) == 1 else ("any", tuple(dict.fromkeys(flat))))


def freeze(s):
    return tuple(sorted(s.items(), key=lambda kv: (kv[0] is not CONST, str(kv[0]))))


def thaw(fs):
    return dict(fs)


def atom(kind, s, m=None):
    s = dict(s)
    if list(s) in ([], [CONST]):
        c = s.get(CONST, 0)
        if kind == "lt":
            return TRUEF if c < 0 else FALSEF
        if kind == "eq":
            return TRUEF if c == 0 else FALSEF
        if kind == "ne":
            return TRUEF if c != 0 else FALSEF
        if kind == "div":
            return TRUEF if c % m == 0 else FALSEF
        if kind == "ndiv":
            return TRUEF if c % m else FALSEF
    if kind in ("div", "ndiv"):
        s = {k: v % m for k, v in s.items()}
        if not any(k is not CONST for k in s):
            return atom(kind, s, m)
        g = gcd(m, *map(abs, s.values()))
        if g > 1:
            m //= g
            s = {k: v // g for k, v in s.items()}
        if m == 1:
            return TRUEF if kind == "div" else FALSEF
        return (kind, m, freeze(s))
    g = gcd(*(abs(v) for k, v in s.items() if k is not CONST))
    if g > 1:
        c = s.get(CONST, 0)
        vs = {k: v // g for k, v in s.items() if k is not CONST}
        if kind == "lt":
            vs[CONST] = c // g  # floor keeps the integer solutions
            return ("lt", freeze(vs))
        if c % g:
            return FALSEF if kind == "eq" else TRUEF
        vs[CONST] = c // g
        return (kind, freeze(vs))
    return (kind, freeze(s))


def negate(f):
    k = f[0]
    if k == "all":
        return disj([negate(g) for g in f[1]])
    if k == "any":
        return conj([negate(g) for g in f[1]])
    if k == "lt":
        return atom("lt", s_add(s_mul(thaw(f[1]), -1), {CONST: -1}))
    if k == "eq":
        return atom("ne", thaw(f[1]))
    if k == "ne":
        return atom("eq", thaw(f[1]))
    if k == "div":
        return atom("ndiv", thaw(f[2]), f[1])
    if k == "ndiv":
        return atom("div", thaw(f[2]), f[1])
    if k == "pvar":
        return ("npvar", f[1])
    return ("pvar", f[1])


def build(e, env):
    """SMT expression to internal formula."""
    if e == "true":
        return TRUEF
    if e == "false":
        return FALSEF
    if isinstance(e, str):
        if env.get(e) == "Bool":
            return ("pvar", e)
        raise Nonlinear(f"unknown proposition {e}")
    op = e[0]
    if op in ("and", "or"):
        parts = [build(a, env) for a in e[1:]]
        return conj(parts) if op == "and" else disj(parts)
    if op == "not":
        return negate(build(e[1], env))
    if op == "=>":
        return disj([negate(build(e[1], env)), build(e[2], env)])
    if op in ("=", "distinct") and is_bool_expr(e[1], env):
        a, b = build(e[1], env), build(e[2], env)
        same = disj([conj([a, b]), conj([negate(a), negate(b)])])
        return same if op == "=" else negate(same)
    if op in ("<", "<=", ">", ">=", "=", "distinct"):
        a, b = linsum(e[1], env), linsum(e[2], env)
        d = s_add(a, s_mul(b, -1))
        if op == "<":
            return atom("lt", d)
        if op == "<=":
            return atom("lt", s_add(d, {CONST: -1}))
        if op == ">":
            return atom("lt", s_mul(d, -1))
        if op == ">=":
            return atom("lt", s_add(s_mul(d, -1), {CONST: -1}))
        if op == "=":
            return atom("eq", d)
        return atom("ne", d)
    raise Nonlinear(e)


def is_bool_expr(e, env):
    if isinstance(e, str):
        return e in ("true", "false") or env.get(e) == "Bool"
    return e[0] in ("and", "or", "not", "=>", "<", "<=", ">", ">=") or (
        e[0] in ("=", "distinct") and is_bool_expr(e[1], env)
    )


def fvars(f):
    k = f[0]
    if k in ("all", "any"):
        s = set()
        for g in f[1]:
            s |= fvars(g)
        return s
    if k in ("pvar", "npvar"):
        return {f[1]}
    fs = f[2] if k in ("div", "ndiv") else f[1]
    return {x for x, _ in fs if x is not CONST}


def put_bool(f, name, val):
    k = f[0]
    if k in ("all", "any"):
        parts = [put_bool(g, name, val) for g in f[1]]
        return conj(parts) if k == "all" else disj(parts)
    if k == "pvar" and f[1] == name:
        return TRUEF if val else FALSEF
    if k == "npvar" and f[1] == name:
        return FALSEF if val else TRUEF
    return f


def put_int(f, name, rep):
    k = f[0]
    if k in ("all", "any"):
        parts = [put_int(g, name, rep) for g in f[1]]
        return conj(parts) if k == "all" else disj(parts)
    if k in ("pvar", "npvar"):
        return f
    m = f[1] if k in ("div", "ndiv") else None
    s = thaw(f[2] if m else f[1])
    c = s.pop(name, 0)
    if c:
        s = s_add(s, s_mul(rep, c))
    return atom(k, s, m)


_DROP_MEMO = {}


def drop_var(name, sort, f):
    """Quantifier-free equivalent of exists-name f."""
    key = (name, sort, f)
    got = _DROP_MEMO.get(key)
    if got is None:
        got = _DROP_MEMO[key] = _drop_var(name, sort, f)
    return got


def _drop_var(name, sort, f):
    if name not in fvars(f):
        return f
    if sort == "Bool":
        return disj([put_bool(f, name, True), put_bool(f, name, False)])
    if f[0] == "any":
        return disj([drop_var(name, sort, g) for g in f[1]])
    if f[0] == "all":
        inside = [g for g in f[1] if name in fvars(g)]
        outside = [g for g in f[1] if name not in fvars(g)]
        if outside:
            return conj(outside + [drop_var(name, sort, conj(inside))])
        cubes = cube_split(f)
        if len(cubes) > 1:
            return disj([drop_var(name, sort, conj(c)) for c in cubes])
    return drop_core(name, f)


def cube_split(f):
    if f == TRUEF:
        return [[]]
    if f == FALSEF:
        return []
    if f[0] == "any":
        out = []
        for g in f[1]:
            out.extend(cube_split(g))
        return out
    if f[0] == "all":
        cubes = [[]]
        for g in f[1]:
            cubes = [c + p for c in cubes for p in cube_split(g)]
            if len(cubes) > 30000:
                raise Nonlinear("expansion too large")
        return cubes
    return [[f]]


def lits(f):
    if f[0] in ("all", "any"):
        out = []
        for g in f[1]:
            out.extend(lits(g))
        return out
    return [f]


def drop_core(name, f):
    delta = 1
    for a in lits(f):
        if a[0] in ("pvar", "npvar"):
            continue
        c = thaw(a[2] if a[0] in ("div", "ndiv") else a[1]).get(name, 0)
        if c:
            delta = LCM(delta, abs(c))

    def unit(a):
        if a[0] in ("pvar", "npvar"):
            return a
        m = a[1] if a[0] in ("div", "ndiv") else None
        s = thaw(a[2] if m else a[1])
        c = s.get(name, 0)
        if not c:
            return a
        k = delta // abs(c)
        s = s_mul(s, k)
        s[name] = 1 if c > 0 else -1
        return (a[0], m * k, freeze(s)) if m else (a[0], freeze(s))

    def walk(g, fn):
        if g[0] in ("all", "any"):
            parts = [walk(h, fn) for h in g[1]]
            return conj(parts) if g[0] == "all" else disj(parts)
        return fn(g)

    f1 = walk(f, unit)
    if delta > 1:
        f1 = conj([f1, ("div", delta, freeze({name: 1}))])

    lows = ups = 0
    for a in lits(f1):
        if a[0] == "lt":
            c = thaw(a[1]).get(name, 0)
            lows += c < 0
            ups += c > 0
        elif a[0] in ("eq", "ne") and thaw(a[1]).get(name, 0):
            lows += 1
            ups += 1
    if ups < lows:
        # mirror the variable so the minus-infinity scan sees fewer bounds
        def flip(a):
            if a[0] in ("pvar", "npvar"):
                return a
            m = a[1] if a[0] in ("div", "ndiv") else None
            s = thaw(a[2] if m else a[1])
            if s.get(name, 0):
                s[name] = -s[name]
            return (a[0], m, freeze(s)) if m else (a[0], freeze(s))

        f1 = walk(f1, flip)

    period = 1
    for a in lits(f1):
        if a[0] in ("div", "ndiv") and thaw(a[2]).get(name, 0):
            period = LCM(period, a[1])

    def low(a):
        if a[0] in ("pvar", "npvar", "div", "ndiv"):
            return a
        c = thaw(a[1]).get(name, 0)
        if not c:
            return a
        if a[0] == "lt":
            return TRUEF if c > 0 else FALSEF
        return FALSEF if a[0] == "eq" else TRUEF

    flow = walk(f1, low)
    bpoints = set()
    for a in lits(f1):
        if a[0] in ("pvar", "npvar", "div", "ndiv"):
            continue
        s = thaw(a[1])
        c = s.pop(name, 0)
        if not c:
            continue
        if a[0] == "lt" and c < 0:
            bpoints.add(freeze(s))
        elif a[0] == "eq":
            base = s_mul(s, -1) if c > 0 else s
            bpoints.add(freeze(s_add(base, {CONST: -1})))
        elif a[0] == "ne":
            bpoints.add(freeze(s_mul(s, -1) if c > 0 else s))

    parts = []
    for j in range(1, period + 1):
        parts.append(put_int(flow, name, {CONST: j}))
        for b in sorted(bpoints, key=str):
            parts.append(put_int(f1, name, s_add(thaw(b), {CONST: j})))
    return disj(parts)


def _drop_cost(name, f):
    lows = ups = 0
    coeffs = 1
    for a in lits(f):
        if a[0] in ("pvar", "npvar"):
            continue
        c = thaw(a[2] if a[0] in ("div", "ndiv") else a[1]).get(name, 0)
        if not c:
            continue
        coeffs = LCM(coeffs, abs(c))
        if a[0] == "lt":
            lows += c < 0
            ups += c > 0
        else:
            lows += 1
            ups += 1
    return (min(lows, ups), coeffs, name)


def satisfiable(f, env):
    """Whether the quantifier-free f has a model over declared env."""
    g = f
    pending = set(fvars(f))
    while pending:
        name = min(pending, key=lambda n: _drop_cost(n, g))
        pending.discard(name)
        g = drop_var(name, env.get(name, "Int"), g)
    assert g in (TRUEF, FALSEF), g
    return g == TRUEF


def decide(f, env):
    """(status, model|None) for the conjunction f over declared env."""
    if not satisfiable(f, env):
        return "unsat", None
    return "sat", find_model(f, env)


def find_model(f, env):
    """Fix the variables of a satisfiable f one at a time, in name order: a
    Bool to true if the rest stays satisfiable, else false; an Int to the
    first of 0, 1, -1, 2, -2, ... under which the rest stays satisfiable."""
    model = {}
    for name in sorted(fvars(f)):
        if env.get(name) == "Bool":
            val = satisfiable(put_bool(f, name, True), env)
            f = put_bool(f, name, val)
        else:
            val = 0
            while not satisfiable(put_int(f, name, {CONST: val}), env):
                val = -val + (val <= 0)
            f = put_int(f, name, {CONST: val})
        model[name] = val
    return model


# --- nonlinear fallback ------------------------------------------------------

def eval_expr(e, asg, env):
    if isinstance(e, str):
        if e == "true":
            return True
        if e == "false":
            return False
        if e in asg:
            return asg[e]
        return int(e)
    op = e[0]
    args = lambda: [eval_expr(a, asg, env) for a in e[1:]]
    if op == "+":
        return sum(args())
    if op == "-":
        vs = args()
        return -vs[0] if len(vs) == 1 else vs[0] - sum(vs[1:])
    if op == "*":
        r = 1
        for v in args():
            r *= v
        return r
    if op == "and":
        return all(args())
    if op == "or":
        return any(args())
    if op == "not":
        return not eval_expr(e[1], asg, env)
    if op == "=>":
        return (not eval_expr(e[1], asg, env)) or eval_expr(e[2], asg, env)
    if op == "=":
        vs = args()
        return vs[0] == vs[1]
    if op == "distinct":
        vs = args()
        return vs[0] != vs[1]
    if op == "<":
        vs = args()
        return vs[0] < vs[1]
    if op == "<=":
        vs = args()
        return vs[0] <= vs[1]
    if op == ">":
        vs = args()
        return vs[0] > vs[1]
    if op == ">=":
        vs = args()
        return vs[0] >= vs[1]
    raise Nonlinear(e)


def box_bounds(asserts, env):
    """Per-variable [lo, hi] ranges implied by top-level conjuncts."""
    bounds = {v: [None, None] for v, s in env.items() if s == "Int"}

    def note(v, lo=None, hi=None):
        cur = bounds[v]
        if lo is not None:
            cur[0] = lo if cur[0] is None else max(cur[0], lo)
        if hi is not None:
            cur[1] = hi if cur[1] is None else min(cur[1], hi)

    def conjuncts(e):
        if isinstance(e, list) and e and e[0] == "and":
            out = []
            for a in e[1:]:
                out.extend(conjuncts(a))
            return out
        return [e]

    for top in asserts:
        for e in conjuncts(top):
            if not isinstance(e, list) or len(e) != 3:
                continue
            op, a, b = e
            if op == "=" and isinstance(a, list) and len(a) == 3 and a[0] == "*":
                a, b = b, a  # (= (* x y) k) ~ (= k (* x y))
            if (
                op == "="
                and isinstance(b, list)
                and len(b) == 3
                and b[0] == "*"
                and isinstance(a, str)
                and a.lstrip("-").isdigit()
                and int(a) != 0
            ):
                k = abs(int(a))
                for factor in b[1:]:
                    if isinstance(factor, str) and factor in bounds:
                        note(factor, -k, k)
            try:
                s = s_add(linsum(a, env), s_mul(linsum(b, env), -1))
            except (Nonlinear, ValueError):
                continue
            vs = [x for x in s if x is not CONST]
            if len(vs) != 1:
                continue
            v = vs[0]
            coef, c = s[v], s.get(CONST, 0)
            # coef*v + c  op  0
            uppers, lowers = [], []
            if op == "<":
                uppers.append(-c - 1)
            elif op == "<=":
                uppers.append(-c)
            elif op == ">":
                lowers.append(-c + 1)
            elif op == ">=":
                lowers.append(-c)
            elif op == "=":
                uppers.append(-c)
                lowers.append(-c)
            if coef < 0:
                uppers, lowers = [-l for l in lowers], [-u for u in uppers]
                coef = -coef
            for u in uppers:  # coef*v <= u, coef > 0
                note(v, hi=u // coef)
            for l in lowers:  # coef*v >= l
                note(v, lo=-((-l) // coef))
    return bounds


def decide_nonlinear(asserts, env):
    bounds = box_bounds(asserts, env)
    ints = sorted(v for v, s in env.items() if s == "Int")
    bools = sorted(v for v, s in env.items() if s == "Bool")
    ranges = []
    total = 1
    for v in ints:
        lo, hi = bounds[v]
        if lo is None or hi is None or hi < lo:
            if lo is not None and hi is not None:
                return "unsat", None
            return "unknown", None
        total *= hi - lo + 1
        if total > 2_000_000:
            return "unknown", None
        ranges.append(range(lo, hi + 1))
    for vals in iproduct(*ranges):
        for bvals in iproduct((True, False), repeat=len(bools)):
            asg = dict(zip(ints, vals)) | dict(zip(bools, bvals))
            if all(eval_expr(a, asg, env) for a in asserts):
                return "sat", asg
    return "unsat", None


def main():
    text = open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
    env = {}
    asserts = []
    status, model = None, None
    for cmd in parse_all(tokenize(text)):
        if not isinstance(cmd, list) or not cmd:
            continue
        head = cmd[0]
        if head == "declare-const":
            env[cmd[1]] = cmd[2]
        elif head == "declare-fun" and cmd[2] == []:
            env[cmd[1]] = cmd[3]
        elif head == "assert":
            asserts.append(cmd[1])
        elif head == "check-sat":
            try:
                f = conj([build(a, env) for a in asserts])
                status, model = decide(f, env)
            except Nonlinear:
                status, model = decide_nonlinear(asserts, env)
            except RecursionError:
                status, model = "unknown", None
            print(status)
        elif head == "get-model":
            if status == "sat" and model is not None:
                lines = []
                for name in sorted(model):
                    sort = env.get(name, "Int")
                    val = model[name]
                    if sort == "Bool":
                        out = "true" if val else "false"
                    else:
                        out = str(val) if val >= 0 else f"(- {-val})"
                    lines.append(f"  (define-fun {name} () {sort} {out})")
                print("(\n" + "\n".join(lines) + "\n)")
            else:
                print("(error \"no model\")")
        elif head == "exit":
            break
    if status is None:
        print("unknown")


if __name__ == "__main__":
    main()
