#!/usr/bin/env python3
"""Compare two commits on one benchmark workload in alternating pairs.

    python3 scripts/compare.py BASE CHANGE --workload criteria --pairs 10 --seconds 40

BASE and CHANGE are git revisions of this repository.  Each is exported with
`git archive` into its own temporary directory, so neither side carries a
bytecode cache or an uncommitted file.  Every run is `perfbench/run.py
--trace 0`, unchanged, started in its side's checkout with
PYTHONDONTWRITEBYTECODE=1; a side that has a `__pycache__` directory before a
run is refused.  Pair i runs BASE first when i is even and CHANGE first when
it is odd.

For each end-to-end metric of BASE's BENCHMARK.json the report gives each
side's median and quartiles, the number of pairs the change won (ties count
for neither side), and a verdict:
- "gain": the change won at least nine tenths of the pairs, and its median
  is better than BASE's by more than the distance between BASE's quartiles;
- "worse": the change's median is worse than BASE's by more than the
  metric's bound, read as a fraction of BASE's median;
- "within bound" otherwise.
The last line of standard output is a JSON object with the raw runs, the
full commit hashes of both sides, and the host: its CPU model (`model name`
in /proc/cpuinfo, else platform.processor()) and os.cpu_count().
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CPUINFO = Path("/proc/cpuinfo")


class Refused(Exception):
    """A side that would not be measured from a clean checkout."""


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> Path:
    """A `git archive` checkout of rev in dest."""
    data = git("archive", "--format=tar", rev)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def host() -> dict:
    """The CPU model and the number of CPUs of the machine that runs the comparison."""
    cpu = platform.processor()
    try:
        for line in CPUINFO.read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu = value.strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cpu_count": os.cpu_count()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree; refuses a tree with a bytecode cache."""
    cached = next(tree.rglob("__pycache__"), None)
    if cached is not None:
        raise Refused(f"{cached} exists: the run would not pay the cold start")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and verdict of one metric over paired runs."""
    sign = 1 if metric["better"] == "higher" else -1
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gap = sign * (c2 - b2)  # positive when the change is better
    if wins >= 0.9 * len(base) and gap > b3 - b1:
        verdict = "gain"
    elif -gap > metric["bound"] * abs(b2):
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"base": (b1, b2, b3), "change": (c1, c2, c3), "wins": wins, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    shas = {}
    for side in ("base", "change"):
        rev = getattr(args, side)
        try:
            shas[side] = git("rev-parse", f"{rev}^{{commit}}").decode().strip()
        except subprocess.CalledProcessError:
            ap.error(f"{side} {rev!r} is not a commit of this repository")
        setattr(args, side, git("rev-parse", "--short", shas[side]).decode().strip())
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="lctrs-compare-") as tmp:
        trees = {side: export(getattr(args, side), Path(tmp) / side) for side in runs}
        metrics = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                try:
                    result = run_once(trees[side], args.workload, args.seed, args.seconds)
                except Refused as exc:
                    print(f"error: {side}: {exc}", file=sys.stderr)
                    return 2
                runs[side].append(result)
                line = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"pair {i + 1} {side}: correct={result['correct']} failed={result['failed']} {line}",
                      flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}: "
          f"{args.base} -> {args.change}; median [q1, q3]")
    report = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        got = report[name] = summarize(metric, values["base"], values["change"])
        (b1, b2, b3), (c1, c2, c3) = got["base"], got["change"]
        print(f"  {name:16s} {b2:.4g} [{b1:.4g}, {b3:.4g}] -> {c2:.4g} [{c1:.4g}, {c3:.4g}] "
              f"{metric['unit']}, change better in {got['wins']}/{args.pairs}, "
              f"bound {metric['bound']}: {got['verdict']}")
    print(json.dumps({"base": args.base, "change": args.change, "base_sha": shas["base"],
                      "change_sha": shas["change"], "host": host(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "report": report, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
