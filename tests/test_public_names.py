"""Every public top-level function and class of lctrs is named by the
program: by the package itself, its scripts or its benchmark.  A definition
that only tests call belongs in the tests.  The reference solver
scripts/refsolver.py is not part of the program here: it shares no code with
the package, so a name it defines for itself says nothing about lctrs."""

import ast
import re

from tests.conftest import REPO

PACKAGE = REPO / "src" / "lctrs"
SCRIPTS = [p for p in (REPO / "scripts").rglob("*.py") if p.name != "refsolver.py"]
PROGRAM = [*PACKAGE.glob("*.py"), *SCRIPTS, *(REPO / "perfbench").rglob("*.py")]

# Comparison builders, kept so that lt, le, gt, ge, eq and ne stay a whole
# set for whoever builds constraints by hand; the parser builds its
# comparisons from the theory symbols instead.
UNCALLED = {("theory", "lt"), ("theory", "le"), ("theory", "ge"), ("theory", "ne")}


def _names(node: ast.AST):
    """Identifiers node refers to.  In a string only the y of a dotted x.y
    counts, the way the benchmark's tracer lists the functions it wraps."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from re.findall(r"\b\w+\.(\w+)", sub.value)


def test_every_public_definition_is_named_by_the_program():
    defined: set[tuple[str, str]] = set()
    named_by: dict[str, set] = {}  # name -> the top-level definitions (or None) naming it
    for path in PROGRAM:
        for top in ast.parse(path.read_text()).body:
            owner = None
            if path.parent == PACKAGE and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, top.name)
                if not top.name.startswith("_"):
                    defined.add(owner)
            for name in _names(top):
                named_by.setdefault(name, set()).add(owner)
    unnamed = {d for d in defined if not named_by.get(d[1], set()) - {d}}  # recursion does not count
    assert unnamed == UNCALLED
