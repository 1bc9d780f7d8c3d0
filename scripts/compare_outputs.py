#!/usr/bin/env python3
"""Check that two commits print the same thing on every bundled input.

    python3 scripts/compare_outputs.py BASE CHANGE

BASE and CHANGE are git revisions of this repository, each exported with
`git archive` (compare.py's `export`) into its own temporary directory.
Every form in FORMS runs on every `corpus/` and `perfbench/inputs/` file of
CHANGE's tree as `python -m lctrs FORM FILE` in each side's checkout, and
the exit code, standard output and standard error of the two sides are
compared.  Each run that differs is printed with the first line where it
differs; the exit status is 1 if any run differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

FORMS = (
    ("analyze",),
    ("analyze", "--json"),
    ("ccp",),
    ("ccp", "--json"),
    ("cpcp",),
    ("cpcp", "--json"),
    ("ground",),
    ("ground", "--json"),
    ("check",),
    ("check", "--json"),
    ("analyze", "--values=-6..6"),
    ("analyze", "--values=-12..12", "--json"),
)


def inputs(tree: Path) -> list[Path]:
    """The bundled input systems of tree, in path order."""
    return sorted([*tree.glob("corpus/*.lctrs"), *tree.glob("perfbench/inputs/*/*.lctrs")])


def run_form(tree: Path, form: tuple[str, ...], path: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one subcommand run from tree's source."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "lctrs", *form, str(path)], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def first_difference(base: tuple[int, str, str], change: tuple[int, str, str]) -> str:
    if base[0] != change[0]:
        return f"exit {base[0]} -> {change[0]}"
    for stream, b, c in (("stdout", base[1], change[1]), ("stderr", base[2], change[2])):
        b_lines, c_lines = b.splitlines(), c.splitlines()
        for i, (bl, cl) in enumerate(zip(b_lines, c_lines)):
            if bl != cl:
                return f"{stream} line {i + 1}: {bl!r} -> {cl!r}"
        if len(b_lines) != len(c_lines):
            return f"{stream}: {len(b_lines)} -> {len(c_lines)} lines"
    return "no difference"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    differ = runs = 0
    with tempfile.TemporaryDirectory(prefix="lctrs-outputs-") as tmp:
        trees = [compare.export(args.base, Path(tmp) / "base"), compare.export(args.change, Path(tmp) / "change")]
        for path in inputs(trees[1]):
            name = path.relative_to(trees[1])
            for form in FORMS:
                runs += 1
                base, change = (run_form(tree, form, path) for tree in trees)
                if base != change:
                    differ += 1
                    print(f"differs: {' '.join(form)} {name}: {first_difference(base, change)}", flush=True)
    print(f"{differ} of {runs} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
