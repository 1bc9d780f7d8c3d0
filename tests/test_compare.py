"""scripts/compare.py: the cache hygiene and the per-metric verdicts, checked
without running the benchmark."""

import importlib.util

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
