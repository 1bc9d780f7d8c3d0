"""SMT-LIB 2 serialization and a subprocess client for external solvers.

The script sent over stdin is the usual set-logic / declare-const / assert /
check-sat / get-model sequence.  Model output is parsed permissively: any
define-fun of arity zero (or a bare (name value) pair) counts.
"""

from __future__ import annotations

import shlex
import subprocess

from . import theory
from .terms import BOOL, INT, Sort, Term, Var, bool_val, int_val, is_value, value_of, variables

_SMT_NAMES = {
    theory.ADD: "+",
    theory.SUB: "-",
    theory.MUL: "*",
    theory.EQ: "=",
    theory.EQB: "=",
    theory.LT: "<",
    theory.LE: "<=",
    theory.GT: ">",
    theory.GE: ">=",
    theory.AND: "and",
    theory.OR: "or",
    theory.NOT: "not",
    theory.IMP: "=>",
}


def smt_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if is_value(t):
        v = value_of(t)
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if v >= 0 else f"(- {-v})"
    if t.sym in (theory.NE, theory.NEB):
        return f"(distinct {smt_term(t.args[0])} {smt_term(t.args[1])})"
    name = _SMT_NAMES.get(t.sym)
    if name is None:
        raise ValueError(f"symbol {t.sym.name} has no SMT-LIB counterpart")
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
    from .cooper import is_linear

    return "LIA" if is_linear(phi) else "NIA"


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "()":
            out.append(c)
            i += 1
        elif c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and text[j] not in "() \t\n;":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _read_sexprs(tokens: list[str]):
    exprs, stack = [], []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ValueError("unmatched ')' in solver output")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                exprs.append(done)
        elif stack:
            stack[-1].append(tok)
        else:
            exprs.append(tok)
    return exprs


def _value_term(expr) -> Term | None:
    if expr == "true":
        return bool_val(True)
    if expr == "false":
        return bool_val(False)
    if isinstance(expr, str):
        try:
            return int_val(int(expr))
        except ValueError:
            return None
    if isinstance(expr, list) and len(expr) == 2 and expr[0] == "-":
        inner = _value_term(expr[1])
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
        exprs = _read_sexprs(_tokenize(output))
    except ValueError as exc:
        return "unknown", {}, str(exc)
    model: dict[Var, Term] = {}
    for expr in exprs:
        stackable = [expr]
        while stackable:
            e = stackable.pop()
            if not isinstance(e, list):
                continue
            if len(e) >= 5 and e[0] == "define-fun" and e[2] == []:
                name, val = e[1], _value_term(e[4])
            elif len(e) == 2 and isinstance(e[0], str) and e[0] in wanted:
                name, val = e[0], _value_term(e[1])
            else:
                stackable.extend(e)
                continue
            if isinstance(name, str) and name in wanted and val is not None:
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
