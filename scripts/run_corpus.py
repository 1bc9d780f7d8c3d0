#!/usr/bin/env python3
"""Analyze every bundled system and print a result table.

Usage: python scripts/run_corpus.py [--depth N] [--values LO..HI]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lctrs.analysis import AnalysisConfig, analyze, cpcps
from lctrs.cli import _glue_values, _parse_values
from lctrs.logic import ConstraintSolver
from lctrs.parser import parse
from lctrs.rewriting import RewriteConfig

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def parse_args(argv: list[str]) -> tuple[int, int, int]:
    """(depth, lo, hi) from the command line; a bad --values range and a
    negative --depth exit 2."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--values", default="-4..4")
    args = ap.parse_args(_glue_values(argv))
    try:
        lo, hi = _parse_values(args.values)
    except ValueError as exc:
        ap.error(str(exc))
    if args.depth < 0:
        ap.error("--depth must not be negative")
    return args.depth, lo, hi


def main(argv: list[str] | None = None) -> int:
    depth, lo, hi = parse_args(sys.argv[1:] if argv is None else argv)

    rows = []
    for path in sorted(CORPUS.glob("*.lctrs")):
        system = parse(path.read_text())
        solver = ConstraintSolver()
        config = AnalysisConfig(depth=depth, rewrite=RewriteConfig(lo=lo, hi=hi))
        t0 = time.perf_counter()
        verdict = analyze(system, solver, config)
        elapsed = time.perf_counter() - t0
        parallel = verdict.cpcps if verdict.cpcps is not None else cpcps(system, solver)
        rows.append(
            (
                path.stem,
                verdict.result,
                verdict.criterion or "-",
                verdict.ccp_count,
                len(parallel),
                f"{elapsed * 1000:.1f} ms",
            )
        )

    widths = [max(len(str(r[i])) for r in rows + [_HEADER]) for i in range(len(_HEADER))]
    for row in [_HEADER] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


_HEADER = ("system", "verdict", "criterion", "ccps", "cpcps", "time")

if __name__ == "__main__":
    sys.exit(main())
