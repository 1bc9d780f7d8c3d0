"""scripts/compare.py: the cache hygiene, the per-metric verdicts and the
recorded commits and host, checked without running the benchmark."""

import importlib.util
import json
import os

import pytest

from tests.conftest import REPO


def _compare_module():
    spec = importlib.util.spec_from_file_location("compare", REPO / "scripts" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_side_with_a_bytecode_cache_is_refused(tmp_path, monkeypatch):
    compare = _compare_module()
    (tmp_path / "src" / "lctrs" / "__pycache__").mkdir(parents=True)

    def no_benchmark(*args, **kwargs):
        raise AssertionError("the benchmark ran on a side with a bytecode cache")

    monkeypatch.setattr(compare.subprocess, "run", no_benchmark)
    with pytest.raises(compare.Refused, match="__pycache__"):
        compare.run_once(tmp_path, "criteria", 1, 1.0)


def test_verdicts_follow_wins_spread_and_bound():
    compare = _compare_module()
    latency = {"name": "verdict_p90_s", "better": "lower", "bound": 0.25}
    base = [0.080, 0.082, 0.078, 0.081, 0.079, 0.083, 0.080, 0.082, 0.081, 0.079]
    faster = [b - 0.015 for b in base]
    got = compare.summarize(latency, base, faster)
    assert got["wins"] == 10 and got["verdict"] == "gain"
    assert got["base"][1] == pytest.approx(0.0805)
    # nine of ten wins is still a gain; eight is not
    assert compare.summarize(latency, base, [*base[:1], *faster[1:]])["verdict"] == "gain"
    assert compare.summarize(latency, base, [*base[:2], *faster[2:]])["verdict"] == "within bound"
    assert compare.summarize(latency, base, [b * 1.3 for b in base])["verdict"] == "worse"
    assert compare.summarize(latency, base, [b * 1.2 for b in base])["verdict"] == "within bound"
    share = {"name": "ok_share", "better": "higher", "bound": 0.05}
    assert compare.summarize(share, [0.889] * 3, [0.889] * 3) == {
        "base": (0.889, 0.889, 0.889),
        "change": (0.889, 0.889, 0.889),
        "wins": 0,
        "verdict": "within bound",
    }


def test_host_reads_the_cpu_model_and_count(tmp_path, monkeypatch):
    compare = _compare_module()
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\n\nprocessor\t: 1\nmodel name\t: Other\n")
    monkeypatch.setattr(compare, "CPUINFO", cpuinfo)
    assert compare.host() == {"cpu": "Example CPU @ 2.00GHz", "cpu_count": os.cpu_count()}
    # without a cpuinfo file, or without a model name in it, the platform names the processor
    monkeypatch.setattr(compare.platform, "processor", lambda: "fallback")
    for text in (None, "processor\t: 0\n"):
        if text is None:
            cpuinfo.unlink()
        else:
            cpuinfo.write_text(text)
        assert compare.host() == {"cpu": "fallback", "cpu_count": os.cpu_count()}


def test_report_records_full_shas_and_host(monkeypatch, capsys):
    compare = _compare_module()
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    full = {"base": "1" * 40, "change": "2" * 40}

    def fake_git(*args):
        rev = args[-1].removesuffix("^{commit}")
        sha = full.get(rev, rev)
        return (sha[:7] if "--short" in args else sha).encode() + b"\n"

    def fake_export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
        return dest

    def fake_run(tree, workload, seed, seconds):
        return {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in metrics}}

    monkeypatch.setattr(compare, "git", fake_git)
    monkeypatch.setattr(compare, "export", fake_export)
    monkeypatch.setattr(compare, "run_once", fake_run)
    monkeypatch.setattr(compare, "host", lambda: {"cpu": "Example CPU", "cpu_count": 3})
    assert compare.main(["base", "change", "--workload", "criteria", "--pairs", "1", "--seconds", "1"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line["base"], line["change"]) == ("1111111", "2222222")
    assert (line["base_sha"], line["change_sha"]) == (full["base"], full["change"])
    assert line["host"] == {"cpu": "Example CPU", "cpu_count": 3}
