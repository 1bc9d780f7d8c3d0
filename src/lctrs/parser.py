"""The s-expression input format and its printer.

    (theory Ints)
    (sort S) ...
    (fun f (S1 ... Sn) S) ...
    (rule LHS RHS)  |  (rule LHS RHS :guard C)

Undeclared identifiers are variables; their sorts are inferred by propagating
the declared argument sorts (equality and disequality are overloaded between
Int and Bool, everything else is fixed).  Remaining ambiguity is an error, as
is any arity or sort clash, each reported with line and column.

The theory symbols are written by their SMT-LIB names, and read_sexprs is the
one s-expression reader: smtlib, which is loaded only for --smt, reads the
external solver's replies with it.
"""

from __future__ import annotations

import re

from . import theory
from .rules import ConstrainedRule, Lctrs, RuleError, Signature
from .terms import App, BOOL, FunSym, INT, Sort, Term, Var, bool_val, int_val, term_key


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class Node:
    """Either an atom (text set) or a list (items set)."""

    def __init__(self, line: int, col: int, text: str | None = None, items: list[Node] | None = None):
        self.line = line
        self.col = col
        self.text = text
        self.items = items


def read_sexprs(text: str) -> list[Node]:
    """The s-expressions of text, `;` starting a comment to the end of the
    line; an unbalanced parenthesis raises ParseError at its line:col."""
    out: list[Node] = []
    stack: list[Node] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
        elif c in " \t\r":
            col, i = col + 1, i + 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c == "(":
            stack.append(Node(line, col, items=[]))
            col, i = col + 1, i + 1
        else:
            if c == ")":
                if not stack:
                    raise ParseError("unmatched ')'", line, col)
                node, j = stack.pop(), i + 1
            else:
                j = i
                while j < len(text) and text[j] not in "() \t\r\n;":
                    j += 1
                node = Node(line, col, text=text[i:j])
            (stack[-1].items if stack else out).append(node)
            col, i = col + j - i, j
    if stack:
        raise ParseError("unmatched '('", stack[-1].line, stack[-1].col)
    return out


_INT_RE = re.compile(r"-?\d+")

# name -> the theory symbols it denotes; = and != are overloaded at Int and Bool
_FIXED_THEORY: dict[str, list[FunSym]] = {}
for _sym in theory.THEORY_SYMS:
    _FIXED_THEORY.setdefault(_sym.name, []).append(_sym)


class _SortCell:
    """Union-find cell for the sort of one rule variable or one overload."""

    def __init__(self, sort: Sort | None = None):
        self.parent: _SortCell | None = None
        self.sort = sort

    def find(self) -> "_SortCell":
        cell = self
        while cell.parent is not None:
            cell = cell.parent
        return cell

    def unite(self, other: "_SortCell", where: Node):
        a, b = self.find(), other.find()
        if a is b:
            return
        if a.sort is not None and b.sort is not None and a.sort != b.sort:
            raise ParseError(f"sort clash: {a.sort} vs {b.sort}", where.line, where.col)
        if a.sort is None:
            a.parent = b
        else:
            b.parent = a


class _Pre:
    """Pre-term carrying unresolved sorts; resolved into a Term afterwards."""

    def __init__(
        self,
        node: Node,
        cell: _SortCell,
        head: FunSym | None = None,  # fixed symbol, if known
        var: str | None = None,
        value: Term | None = None,
        args: list[_Pre] | None = None,
        eq_overload: bool = False,  # choose Int/Bool equality by argument sort
    ):
        self.node = node
        self.cell = cell
        self.head = head
        self.var = var
        self.value = value
        self.args = [] if args is None else args
        self.eq_overload = eq_overload


def parse(text: str) -> Lctrs:
    """Parse a document into a rewrite system; errors carry line/column."""
    sig = Signature()
    rules: list[ConstrainedRule] = []
    for form in read_sexprs(text):
        if form.items is None:
            raise ParseError(f"expected a declaration, got {form.text!r}", form.line, form.col)
        if not form.items or form.items[0].text is None:
            raise ParseError("expected a declaration keyword", form.line, form.col)
        head = form.items[0]
        if head.text == "theory":
            _expect_len(form, 2)
            if form.items[1].text != "Ints":
                raise ParseError(f"unsupported theory {form.items[1].text!r}", head.line, head.col)
        elif head.text == "sort":
            _expect_len(form, 2)
            name = _atom(form.items[1])
            try:
                sig.add_sort(name)
            except RuleError as exc:
                raise ParseError(str(exc), head.line, head.col)
        elif head.text == "fun":
            _expect_len(form, 4)
            name = _atom(form.items[1])
            if form.items[2].items is None:
                raise ParseError("expected an argument sort list", form.items[2].line, form.items[2].col)
            args = [_lookup_sort(sig, n) for n in form.items[2].items]
            result = _lookup_sort(sig, form.items[3])
            if name in _FIXED_THEORY or _INT_RE.fullmatch(name) or name in ("true", "false"):
                raise ParseError(f"{name!r} is reserved", form.items[1].line, form.items[1].col)
            try:
                sig.add_fun(name, args, result)
            except RuleError as exc:
                raise ParseError(str(exc), head.line, head.col)
        elif head.text == "rule":
            if len(form.items) not in (3, 5):
                raise ParseError("expected (rule LHS RHS) or (rule LHS RHS :guard C)", head.line, head.col)
            guard_node = None
            if len(form.items) == 5:
                if form.items[3].text != ":guard":
                    raise ParseError("expected :guard", form.items[3].line, form.items[3].col)
                guard_node = form.items[4]
            rules.append(_parse_rule(sig, form.items[1], form.items[2], guard_node))
        else:
            raise ParseError(f"unknown declaration {head.text!r}", head.line, head.col)
    return Lctrs(sig, tuple(rules))


def _expect_len(form: Node, n: int):
    if len(form.items) != n:
        raise ParseError(f"expected {n - 1} argument(s)", form.line, form.col)


def _atom(node: Node) -> str:
    if node.text is None:
        raise ParseError("expected an identifier", node.line, node.col)
    return node.text


def _lookup_sort(sig: Signature, node: Node) -> Sort:
    name = _atom(node)
    if name not in sig.sorts:
        raise ParseError(f"unknown sort {name!r}", node.line, node.col)
    return sig.sorts[name]


def _parse_rule(sig: Signature, lhs_node: Node, rhs_node: Node, guard_node: Node | None) -> ConstrainedRule:
    vars_in_rule: dict[str, _SortCell] = {}

    def build(node: Node) -> _Pre:
        if node.text is not None:
            name = node.text
            if _INT_RE.fullmatch(name):
                return _Pre(node, _SortCell(INT), value=int_val(int(name)))
            if name in ("true", "false"):
                return _Pre(node, _SortCell(BOOL), value=bool_val(name == "true"))
            if name in sig.term_syms:
                sym = sig.term_syms[name]
                if sym.arity != 0:
                    raise ParseError(f"{name} expects {sym.arity} argument(s)", node.line, node.col)
                return _Pre(node, _SortCell(sym.result_sort), head=sym)
            if name in _FIXED_THEORY:
                raise ParseError(f"{name!r} needs arguments", node.line, node.col)
            cell = vars_in_rule.setdefault(name, _SortCell())
            return _Pre(node, cell, var=name)
        if not node.items or node.items[0].text is None:
            raise ParseError("expected a function application", node.line, node.col)
        head = node.items[0]
        name = head.text
        args = [build(a) for a in node.items[1:]]
        if name in sig.term_syms:
            sym = sig.term_syms[name]
            if sym.arity != len(args):
                raise ParseError(
                    f"{name} expects {sym.arity} argument(s), got {len(args)}", head.line, head.col
                )
            for a, want in zip(args, sym.arg_sorts):
                a.cell.unite(_SortCell(want), a.node)
            return _Pre(node, _SortCell(sym.result_sort), head=sym, args=args)
        if name in _FIXED_THEORY:
            overloads = _FIXED_THEORY[name]
            if all(len(o.arg_sorts) != len(args) for o in overloads):
                raise ParseError(f"{name} expects {len(overloads[0].arg_sorts)} argument(s)", head.line, head.col)
            if len(overloads) == 1:
                sym = overloads[0]
                for a, want in zip(args, sym.arg_sorts):
                    a.cell.unite(_SortCell(want), a.node)
                return _Pre(node, _SortCell(sym.result_sort), head=sym, args=args)
            # overloaded equality: both arguments share a sort, result Bool
            args[0].cell.unite(args[1].cell, node)
            return _Pre(node, _SortCell(BOOL), args=args, eq_overload=True)
        raise ParseError(f"unknown symbol {name!r}", head.line, head.col)

    lhs_pre = build(lhs_node)
    rhs_pre = build(rhs_node)
    lhs_pre.cell.unite(rhs_pre.cell, rhs_node)
    guard_pre = None
    if guard_node is not None:
        guard_pre = build(guard_node)
        guard_pre.cell.unite(_SortCell(BOOL), guard_node)

    def realize(pre: _Pre) -> Term:
        if pre.value is not None:
            return pre.value
        if pre.var is not None:
            sort = pre.cell.find().sort
            if sort is None:
                raise ParseError(
                    f"cannot infer the sort of variable {pre.var!r}", pre.node.line, pre.node.col
                )
            return Var(pre.var, sort)
        args = [realize(a) for a in pre.args]
        if pre.eq_overload:
            arg_sort = pre.args[0].cell.find().sort
            if arg_sort is None:
                raise ParseError("ambiguous equality: cannot infer the argument sort", pre.node.line, pre.node.col)
            name = pre.node.items[0].text
            sym = next((o for o in _FIXED_THEORY[name] if o.arg_sorts[0] == arg_sort), None)
            if sym is None:
                raise ParseError(f"no {name} at sort {arg_sort}", pre.node.line, pre.node.col)
            return App(sym, tuple(args))
        return App(pre.head, tuple(args))

    lhs, rhs = realize(lhs_pre), realize(rhs_pre)
    guard = realize(guard_pre) if guard_pre is not None else theory.bool_val(True)
    try:
        return ConstrainedRule(lhs, rhs, guard)
    except RuleError as exc:
        raise ParseError(str(exc), lhs_node.line, lhs_node.col)


# --- printing ------------------------------------------------------------------

def print_system(lctrs: Lctrs) -> str:
    lines = ["(theory Ints)"]
    for name in sorted(lctrs.signature.sorts):
        if name not in ("Int", "Bool"):
            lines.append(f"(sort {name})")
    for name in sorted(lctrs.signature.term_syms):
        sym = lctrs.signature.term_syms[name]
        args = " ".join(s.name for s in sym.arg_sorts)
        lines.append(f"(fun {name} ({args}) {sym.result_sort.name})")
    for rule in lctrs.rules:
        lhs, rhs = term_key(rule.lhs), term_key(rule.rhs)
        if rule.guard == theory.bool_val(True):
            lines.append(f"(rule {lhs} {rhs})")
        else:
            lines.append(f"(rule {lhs} {rhs} :guard {term_key(rule.guard)})")
    return "\n".join(lines) + "\n"
