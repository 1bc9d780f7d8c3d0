"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def named(workload: str, name: str):
    return next(i for i in workloads.make_inputs(workload, 1) if i.name == name)


def cheapest_pcp():
    """Two pairs, with a solution the NO search can reach."""
    return next(
        i for i in workloads.make_inputs("pcp", 1)
        if len(i.pairs) == 2 and workloads.pcp_truth(i.pairs)[2] == "solution_in_domain"
    )


SMALL = {
    "criteria": named("criteria", "projection"),
    "pcp": cheapest_pcp(),
    "ground": named("ground", "diag_sum"),
}
EXPECTED = {"criteria": "YES", "pcp": "NO", "ground": "NO"}


def one_pass(inputs, trace: bool) -> bench.Run:
    run = bench.Run(inputs, trace)
    run.loop(0)
    return run


def test_smoke_one_small_input_per_workload():
    for workload, inp in SMALL.items():
        run = one_pass([inp], trace=False)
        attempted, failures = run.check()
        metrics = run.end_to_end()
        assert (attempted, failures, run.problems) == (1, 0, []), workload
        assert run.plain[inp.name][0]["verdict"] == EXPECTED[workload]
        assert set(metrics) == set(bench.END_TO_END_UNITS)
        assert all(value > 0 for value in metrics.values()), (workload, metrics)


def test_contradicted_truth_counts_as_failed_request():
    wrong = workloads.Input("projection", "not confluent", "deliberately wrong", text=SMALL["criteria"].text)
    run = one_pass([wrong], trace=False)
    assert run.check() == (1, 1)
    assert run.problems == []
    assert run.end_to_end()["ok_share"] == 0


def test_two_traced_runs_give_identical_counts():
    inputs = [SMALL["criteria"], SMALL["pcp"]]

    def counts():
        run = one_pass(inputs, trace=True)
        run.check()
        layer = run.per_layer()
        assert run.problems == []
        return {k: v for k, v in layer.items() if bench.unit_of(k) == "count"}

    first = counts()
    assert first == counts()
    assert first["pcp.build_rp.calls"] == 1 and first["parser.parse.calls"] == 1
    assert first["analysis.ccps.calls"] == 2 and first["logic.queries.calls"] > 0


def _child_state(trace: bool) -> dict:
    request = {"id": 0, **SMALL["criteria"].request(), "trace": trace, "span_cap": 0}
    probe = (
        f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); import child;"
        f" reply = child.handle(json.loads({json.dumps(request)!r}));"
        " import lctrs.analysis, lctrs.terms, lctrs.logic;"
        " print(json.dumps({'verdict': reply.get('verdict'), 'tracer': 'tracer' in sys.modules,"
        " 'wrapped': [hasattr(f, '__wrapped__') for f in (lctrs.analysis.ccps, lctrs.terms.unify,"
        " lctrs.analysis.cstep_tilde, lctrs.logic.ConstraintSolver.is_valid)]}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_untraced_child_neither_imports_nor_installs_the_tracer():
    state = _child_state(trace=False)
    assert state == {"verdict": "YES", "tracer": False, "wrapped": [False] * 4}
    state = _child_state(trace=True)
    assert state == {"verdict": "YES", "tracer": True, "wrapped": [True] * 4}


def test_every_fixed_input_has_hand_written_truth():
    for workload in ("criteria", "ground"):
        for path in (workloads.INPUTS / workload).glob("*.lctrs"):
            known = workloads.TRUTH[f"{workload}/{path.stem}"]
            assert known["truth"] in ("confluent", "not confluent", "unknown")
            assert known["reason"]


def test_pcp_truth_by_string_search():
    assert workloads.shortest_solution((("1", "101"), ("10", "00"), ("011", "11")), 8) == (1, 3, 2, 3)
    assert workloads.shortest_solution((("0", "1"), ("1", "0")), 8) is None
    assert workloads.candidate(7, 2) == (1, 1, 1) and workloads.candidate(6, 4) == (2, 1)
    truth, _, kind = workloads.pcp_truth((("10", "1"), ("0", "0")))
    assert (truth, kind) == ("not confluent", "solution_in_domain")
    truth, _, kind = workloads.pcp_truth((("0", "01"), ("1", "0"), ("11", "1")))
    assert (truth, kind) == ("not confluent", "solution_outside_domain")


def test_pcp_draw_is_seeded_and_stratified():
    draw = workloads.make_inputs("pcp", 7)
    assert [i.name for i in draw] == [i.name for i in workloads.make_inputs("pcp", 7)]
    assert [i.name for i in draw] != [i.name for i in workloads.make_inputs("pcp", 8)]
    assert len({i.name for i in draw}) == len(workloads.PCP_SIZES) * len(workloads.PCP_CLASSES) == 18
    for size in workloads.PCP_SIZES:
        kinds = sorted(workloads.pcp_truth(i.pairs)[2] for i in draw if len(i.pairs) == size)
        assert kinds == sorted(workloads.PCP_CLASSES)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "criteria", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
