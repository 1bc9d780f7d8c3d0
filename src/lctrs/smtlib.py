"""SMT-LIB 2 serialization and a subprocess client for external solvers.

The script sent over stdin is the usual set-logic / declare-const / assert /
check-sat / get-model sequence.  The reply is read with the input format's
s-expression reader and its model permissively: any define-fun of arity zero
(or a bare (name value) pair) counts.
"""

from __future__ import annotations

import shlex
import subprocess

from . import theory
from .cooper import is_linear
from .parser import Node, ParseError, read_sexprs
from .terms import BOOL, INT, Sort, Term, Var, bool_val, int_val, is_value, value_of, variables


def smt_term(t: Term) -> str:
    """A theory symbol's name is its SMT-LIB name, but != is distinct."""
    if isinstance(t, Var):
        return t.name
    if is_value(t):
        v = value_of(t)
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if v >= 0 else f"(- {-v})"
    if t.sym not in theory.THEORY_SYMS:
        raise ValueError(f"symbol {t.sym.name} has no SMT-LIB counterpart")
    name = "distinct" if t.sym.name == "!=" else t.sym.name
    return f"({name} {' '.join(smt_term(a) for a in t.args)})"


def _smt_sort(s: Sort) -> str:
    if s == INT:
        return "Int"
    if s == BOOL:
        return "Bool"
    raise ValueError(f"sort {s} is not an SMT-LIB sort")


def smt_script(phi: Term, logic: str = "LIA") -> str:
    """check-sat script for phi, its variables declared as constants."""
    lines = [f"(set-logic {logic})"]
    for v in sorted(variables(phi), key=lambda v: v.name):
        lines.append(f"(declare-const {v.name} {_smt_sort(v.sort)})")
    lines.append(f"(assert {smt_term(phi)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


def pick_logic(phi: Term) -> str:
    return "LIA" if is_linear(phi) else "NIA"


def _value_term(node: Node) -> Term | None:
    if node.text in ("true", "false"):
        return bool_val(node.text == "true")
    if node.text is not None:
        try:
            return int_val(int(node.text))
        except ValueError:
            return None
    if len(node.items) == 2 and node.items[0].text == "-":
        inner = _value_term(node.items[1])
        if inner is not None:
            return int_val(-value_of(inner))
    return None


def parse_result(output: str, wanted: dict[str, Var]) -> tuple[str, dict[Var, Term], str]:
    """Extract the sat/unsat/unknown status, any model bindings, and the
    reason when the output cannot be read (status unknown then)."""
    status = "unknown"
    for line in output.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            status = word
            break
    try:
        exprs = read_sexprs(output)
    except ParseError as exc:
        return "unknown", {}, str(exc)
    model: dict[Var, Term] = {}
    for expr in exprs:
        stackable = [expr]
        while stackable:
            e = stackable.pop().items
            if e is None:
                continue
            if len(e) >= 5 and e[0].text == "define-fun" and e[2].items == []:
                name, val = e[1].text, _value_term(e[4])
            elif len(e) == 2 and e[0].text in wanted:
                name, val = e[0].text, _value_term(e[1])
            else:
                stackable.extend(e)
                continue
            if name in wanted and val is not None:
                model[wanted[name]] = val
    return status, model, ""


def run_solver(
    command: str, script: str, timeout_ms: int
) -> tuple[str, str] | tuple[None, str]:
    """Run the solver command with the script on stdin.

    Returns (stdout, "") on completion, or (None, diagnostic) on crash or
    timeout.  A nonzero exit status is tolerated as long as the output
    contains a status word (several solvers exit nonzero after errors in
    later commands such as get-model on unsat).
    """
    try:
        proc = subprocess.run(
            shlex.split(command),
            input=script,
            capture_output=True,
            text=True,
            timeout=timeout_ms / 1000.0,
        )
    except subprocess.TimeoutExpired:
        return None, f"solver timeout after {timeout_ms} ms"
    except OSError as exc:
        return None, f"solver could not be started: {exc}"
    if any(w in proc.stdout for w in ("sat", "unsat", "unknown")):
        return proc.stdout, ""
    return None, f"solver produced no verdict (exit {proc.returncode}): {proc.stderr[:200]}"
