"""Many-sorted first-order terms: positions, substitutions, matching,
unification, and a discrimination-tree index of left-hand sides.

Terms live over a split signature: ordinary term symbols, interpreted theory
symbols, and value constants (integer literals, true, false).  Sorts, symbols
and terms are hash-consed: equal fields give the same object, so == and hash
are identity and terms are their own keys.  Each term carries its variable
set (vars), built with it: substitution returns a subterm outside its domain
as it is, and replacement rebuilds only the paths to the replaced positions.
term_key renders a term for printing and sorting; alpha_key renders it up to
variable renaming.  Substitutions are plain dicts from Var to Term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import attrgetter

Position = tuple[int, ...]
EPSILON: Position = ()


class TermError(Exception):
    """Ill-formed term: arity or sort mismatch."""


_TABLE: dict[tuple, "_Interned"] = {}
_NO_VARS: frozenset = frozenset()  # the variables of every ground term


class _Interned:
    """An immutable value, hash-consed (Filliâtre & Conchon 2006): a class
    called with the fields of an existing object returns that object, so
    == and hash are identity and never walk a term.  _derive sets a new
    object's derived fields, slots of a base class outside the key."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        obj = _TABLE.get(key)
        if obj is None:
            obj = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(obj, name, value)
            obj._derive()
            _TABLE[key] = obj
        return obj

    def _derive(self):
        pass

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return self.name


class Record:
    """An immutable record compared by value: its fields are the names in
    __slots__ (bar a "__dict__" that a subclass adds for cached properties),
    set once by __init__; == and hash go by the field tuple, and setting or
    deleting a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return type(other) is type(self) and self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    __setattr__ = __delattr__ = _Interned.__setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class Sort(_Interned):
    __slots__ = ("name",)


INT = Sort("Int")
BOOL = Sort("Bool")


class FunSym(_Interned):
    __slots__ = ("name", "arg_sorts", "result_sort", "kind")  # kind: "term" | "theory" | "value"

    def __new__(cls, name: str, arg_sorts: tuple[Sort, ...], result_sort: Sort, kind: str):
        if kind not in ("term", "theory", "value"):
            raise TermError(f"bad symbol kind {kind!r}")
        if kind == "value" and arg_sorts:
            raise TermError(f"value symbol {name} must be a constant")
        return _Interned.__new__(cls, name, arg_sorts, result_sort, kind)

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


class _Term(_Interned):
    __slots__ = ("vars",)  # the term's variables, set by _derive


class Var(_Term):
    __slots__ = ("name", "sort")

    def _derive(self):
        object.__setattr__(self, "vars", frozenset((self,)))


class App(_Term):
    __slots__ = ("sym", "args")

    def __new__(cls, sym: FunSym, args: tuple["Term", ...] = ()):
        return _Interned.__new__(cls, sym, args)

    def _derive(self):
        # a ground node shares the one empty set, a node with one non-ground argument that argument's set
        found = [a.vars for a in self.args if a.vars] or [_NO_VARS]
        object.__setattr__(self, "vars", found[0].union(*found[1:]) if found[1:] else found[0])

    def __repr__(self):
        if not self.args:
            return self.sym.name
        return f"{self.sym.name}({', '.join(map(repr, self.args))})"


Term = Var | App
Subst = dict[Var, Term]


def int_val(n: int) -> App:
    """Value constant for an arbitrary-precision integer."""
    return App(FunSym(str(n), (), INT, "value"))


TRUE = App(FunSym("true", (), BOOL, "value"))
FALSE = App(FunSym("false", (), BOOL, "value"))


def bool_val(b: bool) -> App:
    return TRUE if b else FALSE


def is_value(t: Term) -> bool:
    return isinstance(t, App) and t.sym.kind == "value"


def value_of(t: Term) -> int | bool:
    """Python value denoted by a value constant."""
    if not is_value(t):
        raise TermError(f"not a value: {t}")
    if t.sym.result_sort == BOOL:
        return t.sym.name == "true"
    return int(t.sym.name)


def sort_of(t: Term) -> Sort:
    """Sort of a term, validating arities and argument sorts along the way."""
    if isinstance(t, Var):
        return t.sort
    if len(t.args) != t.sym.arity:
        raise TermError(f"{t.sym.name} expects {t.sym.arity} arguments, got {len(t.args)}")
    for a, want in zip(t.args, t.sym.arg_sorts):
        if sort_of(a) != want:
            raise TermError(f"argument {a} of {t.sym.name} has sort {sort_of(a)}, expected {want}")
    return t.sym.result_sort


def root_sort(t: Term) -> Sort:
    """Sort of a term read off its root, for terms already known to be
    well-sorted; sort_of validates the whole term."""
    return t.sort if isinstance(t, Var) else t.sym.result_sort


def variables(t: Term) -> frozenset[Var]:
    return t.vars


def positions(t: Term) -> list[tuple[Position, App]]:
    """The function (non-variable) positions p of t, each with its subterm
    t|p, in preorder, which is the positions' sorted order.  An explicit
    stack holds the function subterms still to visit, the leftmost on top."""
    out: list[tuple[Position, App]] = []
    stack = [(EPSILON, t)] if isinstance(t, App) else []
    while stack:
        here, s = stack.pop()
        out.append((here, s))
        i = len(s.args)
        for a in reversed(s.args):
            if isinstance(a, App):
                stack.append((here + (i,), a))
            i -= 1
    return out


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise TermError(f"position {p} does not address a subterm")
        t = t.args[i - 1]
    return t


def parallel(p: Position, q: Position) -> bool:
    """Neither position is a prefix of the other?"""
    k = min(len(p), len(q))
    return p[:k] != q[:k]


PARALLEL_SET_CAP = 4096


class ParallelSetCap(Exception):
    """More parallel subsets than PARALLEL_SET_CAP allows."""


def parallel_subsets(items: Iterable, position=lambda p: p) -> list[list]:
    """Subsets of items at pairwise parallel, distinct positions, the empty
    one first, each item extending the subsets found before it; more than
    PARALLEL_SET_CAP subsets raises ParallelSetCap."""
    subsets: list[list] = [[]]
    for item in items:
        p = position(item)
        subsets += [chosen + [item] for chosen in subsets if all(parallel(p, position(c)) for c in chosen)]
        if len(subsets) > PARALLEL_SET_CAP:
            raise ParallelSetCap(f"parallel subset cap {PARALLEL_SET_CAP} exceeded")
    return subsets


def replace_at(t: Term, assignments: Mapping[Position, Term]) -> Term:
    """Simultaneous replacement at pairwise parallel positions.  Only the
    nodes on the paths to them are rebuilt, and nothing here recurses."""
    if not assignments:
        return t
    ps = sorted(assignments)
    # in sorted order a position comes right before the first of its extensions
    if any(q[: len(p)] == p for p, q in zip(ps, ps[1:])):
        raise TermError("replacement positions overlap")
    for p, s in assignments.items():
        expected = root_sort(subterm_at(t, p))
        if root_sort(s) != expected:
            raise TermError(f"replacement at {p} has sort {root_sort(s)}, expected {expected}")
    if EPSILON in assignments:
        return assignments[EPSILON]
    path, here = [(t, list(t.args))], []  # the nodes down to the parent of the position at hand, with new arguments

    def up():
        node, args = path.pop()
        path[-1][1][here.pop() - 1] = App(node.sym, tuple(args))

    for p in ps:
        while tuple(here) != p[: len(here)]:
            up()
        for i in p[len(here) : -1]:
            sub = path[-1][1][i - 1]
            path.append((sub, list(sub.args)))
            here.append(i)
        path[-1][1][p[-1] - 1] = assignments[p]
    while here:
        up()
    return App(t.sym, tuple(path[0][1]))


def apply_subst(sigma: Mapping[Var, Term], t: Term) -> Term:
    """sigma applied to t; a subterm with no variable in sigma is returned as it is."""
    if isinstance(t, Var):
        return sigma.get(t, t)
    if t.vars.isdisjoint(sigma):
        return t
    return App(t.sym, tuple([apply_subst(sigma, a) for a in t.args]))


def match(pattern: Term, subject: Term) -> Subst | None:
    """Minimal sigma with apply(sigma, pattern) == subject, or None."""
    sigma: Subst = {}

    def go(p: Term, s: Term) -> bool:
        if isinstance(p, Var):
            if p.sort != root_sort(s):
                return False
            if p in sigma:
                return sigma[p] == s
            sigma[p] = s
            return True
        return (
            isinstance(s, App)
            and p.sym == s.sym
            and all(go(pa, sa) for pa, sa in zip(p.args, s.args))
        )

    if not go(pattern, subject):
        return None
    return {x: s for x, s in sigma.items() if s != x}


def unify(equations: Iterable[tuple[Term, Term]]) -> Subst | None:
    """Idempotent mgu of the simultaneous system, or None.

    Syntactic first-order unification with occurs check; sorts must agree on
    every solved variable.
    """
    todo = list(equations)
    sigma: Subst = {}

    def bind(x: Var, t: Term) -> bool:
        if x == t:
            return True
        if x.sort != root_sort(t) or x in t.vars:
            return False
        step = {x: t}
        nonlocal sigma, todo
        sigma = {y: apply_subst(step, s) for y, s in sigma.items()}
        sigma[x] = t
        todo = [(apply_subst(step, l), apply_subst(step, r)) for l, r in todo]
        return True

    while todo:
        l, r = todo.pop()
        if l == r:
            continue
        if isinstance(l, App) and isinstance(r, App):
            if l.sym != r.sym:
                return None
            todo.extend(zip(l.args, r.args))
        elif isinstance(l, Var):
            if not bind(l, r):
                return None
        else:
            assert isinstance(r, Var)
            if not bind(r, l):
                return None
    return {x: s for x, s in sigma.items() if s != x}


def fresh_name(base: str, avoid: set[str]) -> str:
    """First of base, base', base'', ... not in avoid."""
    name = base
    while name in avoid:
        name += "'"
    return name


def rename_away(vars_to_rename: Iterable[Var], avoid: Iterable[Var]) -> Subst:
    """Injective renaming of the given variables off the avoid set."""
    taken = {v.name for v in avoid}
    out: Subst = {}
    for v in sorted(vars_to_rename, key=lambda v: v.name):
        name = fresh_name(v.name, taken)
        taken.add(name)
        if name != v.name:
            out[v] = Var(name, v.sort)
    return out


def term_key(t: Term, names: dict[Var, str] | None = None) -> str:
    """Canonical render for printing and deterministic ordering.  Given
    `names`, a variable is renamed by first occurrence, recorded there."""
    if isinstance(t, Var):
        if names is None:
            return t.name
        if t not in names:
            names[t] = f"_v{len(names)}"
        return names[t]
    if not t.args:
        return t.sym.name
    # a list, not a generator: one nested frame less per level, so deeper terms render
    return f"({t.sym.name} {' '.join([term_key(a, names) for a in t.args])})"


def alpha_key(terms: Iterable[Term]) -> str:
    """Render of a term tuple with variables canonicalized by first occurrence."""
    names: dict[Var, str] = {}
    return " | ".join([term_key(t, names) for t in terms])


# --- term index -----------------------------------------------------------------

_ANY = (None, 0)  # the key of every variable: a wildcard without arguments


class LhsIndex:
    """Discrimination tree over a sequence of left-hand sides (McCune 1992;
    Graf, Term Indexing, 1996): a trie of their preorder paths of (symbol
    name, arity) keys, every variable the wildcard _ANY.  A retrieval gives,
    in ascending order, a superset of the positions whose left-hand side
    unifies with, or matches, the query.  Nothing here recurses."""

    def __init__(self, lhss: Iterable[Term]):
        self._root: dict = {}
        for i, lhs in enumerate(lhss):
            node, todo = self._root, [lhs]
            while todo:
                t = todo.pop()
                if isinstance(t, App):
                    todo.extend(reversed(t.args))
                key = _ANY if isinstance(t, Var) else (t.sym.name, len(t.args))
                node = node.setdefault(key, {} if todo else [])  # a leaf lists positions
            node.append(i)

    def unifiable(self, t: Term) -> list[int]:
        """Left-hand sides that may unify with t; a variable of t stands for any subterm."""
        return self._retrieve(t, unifying=True)

    def generalizations(self, t: Term) -> list[int]:
        """Left-hand sides that may match the rigid subject t; its variables meet only variables."""
        return self._retrieve(t, unifying=False)

    def _retrieve(self, t: Term, unifying: bool) -> list[int]:
        # a state is a trie node and what is left to read: a linked list
        # (head, rest) of query subterms in preorder and of counts of whole
        # indexed subterms to skip; where the list ends, the node is a leaf
        found: list[int] = []
        states = [(self._root, (t, None))]
        while states:
            node, todo = states.pop()
            if todo is None:
                found.extend(node)
                continue
            q, rest = todo
            if isinstance(q, int):
                for key, child in node.items():
                    left = q - 1 + key[1]
                    states.append((child, (left, rest) if left else rest))
            elif isinstance(q, Var) and unifying:
                states.append((node, (1, rest)))
            else:
                if _ANY in node:
                    states.append((node[_ANY], rest))
                child = node.get((q.sym.name, len(q.args))) if isinstance(q, App) else None
                if child is not None:
                    for a in reversed(q.args):
                        rest = (a, rest)
                    states.append((child, rest))
        return sorted(found)
