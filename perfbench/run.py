#!/usr/bin/env python3
"""Benchmark of lctrs: time to a confluence verdict, one fresh process per request.

    python3 perfbench/run.py --workload criteria --seed 1 --seconds 40 --trace 0

A closed loop with one client sends the workload's inputs one after another,
each to a fresh child interpreter (perfbench/child.py) that imports lctrs from
src/, builds the system and calls analyze.  The loop runs whole passes over
the inputs, and starts another pass only while it is expected to end within
--seconds, so every input weighs the same in every run.

Every verdict is checked against the input's known truth (perfbench/truth.json,
or the string search for correspondence problems): an internal error, or YES
on a non-confluent system, or NO on a confluent one, is a failed request.
A verdict, ccp_count or cpcp_count that differs between passes of one input
makes the run incorrect.

--trace 0 prints the end-to-end metrics; --trace 1 runs every input once
untraced and once traced per pass, prints the per-layer metrics with the
tracing overhead, and writes the spans of the first traced request of each
input to perfbench/out/spans-<workload>-seed<seed>.jsonl: per request a
header object, then one array [request, span, parent, name, start, end] per
span.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

SPAN_CAP = 5_000  # spans kept per traced request; the aggregates count every call
REQUEST_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # no request starts later than this, so a run ends within 180 s

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "decided_share": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_COUNTS = (
    "cooper.blowups",
    "logic.memo_entries",
    "logic.unknown",
    "rewriting.steps",
    "analysis.ccp_count",
    "analysis.cpcp_count",
    "grounding.fragment_rules",
    "grounding.trs_cps_count",
)


def request(inp, req_id: int, trace: bool, keep_spans: bool, timeout: float) -> dict:
    """Run one input in a fresh child and return its reply, with setup_s
    (spawn to ready) and latency_s (analyze call to return) added."""
    payload = {"id": req_id, **inp.request(), "trace": trace, "span_cap": SPAN_CAP if keep_spans else 0}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        out, _ = proc.communicate(json.dumps(payload).encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": req_id, "error": f"Timeout: no reply within {timeout:.0f} s"}
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": req_id, "error": f"ChildExit: status {proc.returncode}"}
    reply = json.loads(lines[-1])
    if "ready" in reply:
        reply["setup_s"] = reply["ready"] - spawned
    if "done" in reply:
        reply["latency_s"] = reply["done"] - reply["ready"]
    return reply


def outcome(reply: dict) -> tuple:
    """What must repeat exactly between passes of one input."""
    if "error" in reply:
        return ("error", reply["error"].split(":")[0])
    return (reply["verdict"], reply.get("ccp_count"), reply.get("cpcp_count"))


def contradicts(verdict: str, truth: str) -> bool:
    return (verdict == "YES" and truth == "not confluent") or (verdict == "NO" and truth == "confluent")


def failed(reply: dict, inp) -> bool:
    return "error" in reply or contradicts(reply["verdict"], inp.truth)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """The closed loop over one workload's inputs, and what it observed."""

    def __init__(self, inputs, trace: bool):
        self.inputs = inputs
        self.trace = trace
        self.plain = {inp.name: [] for inp in inputs}  # untraced replies per input
        self.traced = {inp.name: [] for inp in inputs}
        self.pass_s: list[float] = []
        self.elapsed = 0.0
        self.problems: list[str] = []
        self._next_id = 0

    def loop(self, seconds: float) -> None:
        start = time.monotonic()
        try:
            self._passes(start, seconds)
        finally:
            self.elapsed = time.monotonic() - start

    def _passes(self, start: float, seconds: float) -> None:
        while True:
            began = time.monotonic()
            for inp in self.inputs:
                modes = (False, True) if self.trace else (False,)
                if len(self.pass_s) % 2:
                    modes = modes[::-1]
                for traced in modes:
                    remaining = start + RUN_BUDGET_S - time.monotonic()
                    if remaining <= 0:
                        self.problems.append("time budget exhausted before the pass ended")
                        return
                    keep_spans = traced and not self.traced[inp.name]
                    reply = request(
                        inp, self._next_id, traced, keep_spans, min(REQUEST_TIMEOUT_S, remaining)
                    )
                    self._next_id += 1
                    (self.traced if traced else self.plain)[inp.name].append(reply)
            now = time.monotonic()
            self.pass_s.append(now - began)
            projected = now - start + statistics.mean(self.pass_s)
            if projected > seconds or projected > RUN_BUDGET_S:
                return

    def check(self) -> tuple[int, int]:
        """(attempted, failed) requests; records non-repeating outcomes."""
        attempted = failures = 0
        for inp in self.inputs:
            replies = self.plain[inp.name] + self.traced[inp.name]
            attempted += len(replies)
            failures += sum(failed(r, inp) for r in replies)
            seen = {outcome(r) for r in replies}
            if len(seen) > 1:
                self.problems.append(f"{inp.name}: outcome differs between passes: {sorted(map(str, seen))}")
        return attempted, failures

    def end_to_end(self) -> dict[str, float]:
        first = {
            inp.name: self.plain[inp.name][0] if self.plain[inp.name] else {"error": "NotRun"}
            for inp in self.inputs
        }
        answered = [inp for inp in self.inputs if "error" not in first[inp.name]]
        latencies = [
            statistics.mean(r["latency_s"] for r in self.plain[inp.name] if "latency_s" in r)
            for inp in answered
        ]
        replies = [r for rs in self.plain.values() for r in rs]
        if not latencies:
            self.problems.append("no input returned a verdict")
            latencies = [0.0]
        decided = [
            i for i in answered
            if first[i.name]["verdict"] in ("YES", "NO") and not failed(first[i.name], i)
        ]
        return {
            "verdicts_per_s": sum("verdict" in r for r in replies) / self.elapsed,
            "verdict_p50_s": nearest_rank(latencies, 0.5),
            "verdict_p90_s": nearest_rank(latencies, 0.9),
            "decided_share": len(decided) / len(self.inputs),
            "ok_share": sum(not failed(first[i.name], i) for i in self.inputs) / len(self.inputs),
            "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in replies) / 1024,
            "setup_s": statistics.median(r["setup_s"] for r in replies if "setup_s" in r),
        }

    def per_layer(self) -> dict[str, float]:
        """Per pass: counts of one traced request per input, times as the
        mean over passes, both summed over the inputs."""
        stats: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        for inp in self.inputs:
            replies = [r["trace"] for r in self.traced[inp.name] if "trace" in r]
            if not replies:
                self.problems.append(f"{inp.name}: no traced reply")
                continue
            exact = {json.dumps([t["counts"], {k: v[0] for k, v in t["stats"].items()}]) for t in replies}
            if len(exact) > 1:
                self.problems.append(f"{inp.name}: traced counts differ between passes")
            for name in replies[0]["stats"]:
                calls = replies[0]["stats"][name][0]
                s = statistics.mean(t["stats"][name][1] for t in replies)
                self_s = statistics.mean(t["stats"][name][2] for t in replies)
                total = stats.setdefault(name, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += s
                total[2] += self_s
            for key, value in replies[0]["counts"].items():
                counts[key] = counts.get(key, 0) + value
        out: dict[str, float] = {}
        for name, (calls, s, self_s) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        for key in PER_LAYER_COUNTS:
            out[key] = counts.get(key, 0)
        queries = out.get("logic.queries.calls", 0)
        out["logic.memo_hit_ratio"] = counts.get("logic.memo_hits", 0) / queries if queries else 0.0
        checks = counts.get("analysis.closing_checks", 0)
        out["analysis.closed_ratio"] = counts.get("analysis.closed", 0) / checks if checks else 0.0
        out["trace.overhead_share"] = self._overhead()
        return out

    def _overhead(self) -> float:
        """Summed mean traced latency over summed mean untraced latency, less one."""
        plain = traced = 0.0
        for inp in self.inputs:
            a = [r["latency_s"] for r in self.plain[inp.name] if "latency_s" in r]
            b = [r["latency_s"] for r in self.traced[inp.name] if "latency_s" in r]
            if a and b:
                plain += statistics.mean(a)
                traced += statistics.mean(b)
        return traced / plain - 1 if plain else 0.0

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for inp in self.inputs:
                for reply in self.traced[inp.name]:
                    trace = reply.get("trace")
                    if not trace or not trace["spans"]:
                        continue
                    head = {"request": reply["id"], "input": inp.name, "spans_dropped": trace["spans_dropped"]}
                    handle.write(json.dumps(head) + "\n")
                    for span in trace["spans"]:
                        handle.write(json.dumps([reply["id"], *span]) + "\n")


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lctrs" / "__init__.py").is_file():
        print(f"error: lctrs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    run = Run(inputs, bool(args.trace))
    run.loop(args.seconds)
    attempted, failures = run.check()
    if args.trace:
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in run.per_layer().items()}
        run.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in run.end_to_end().items()}
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(inputs)} inputs, {len(run.pass_s)} passes, "
          f"{attempted} requests, {failures} failed")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
