import json
import os
import subprocess
import sys

import pytest

from lctrs.cli import main

from tests.conftest import CORPUS, REFSOLVER_CMD, REPO


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_first_line_verdict(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(CORPUS / "guarded_swap.lctrs"), "--depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert lines[1] == "criterion: almost-development-closed"


def test_analyze_parity_maybe(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(CORPUS / "parity_split.lctrs"))
    assert code == 0
    assert out.splitlines()[0] == "MAYBE"


def test_ccp_json_schema(capsys):
    code, out, _ = run_cli(capsys, "ccp", str(CORPUS / "single_value_choice.lctrs"), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["constraint"] == "(and (= x 0) (= x' 0))"
    assert data[0]["left"] == "x" and data[0]["right"] == "x'"
    assert data[0]["overlay"] is True


def test_analyze_json_schema(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(CORPUS / "calc_chain.lctrs"), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"verdict", "criteria", "ccps", "cpcps", "witnesses"}
    assert data["verdict"] == "YES"
    assert any(c["name"] == "parallel-closed" and c["result"] == "pass" for c in data["criteria"])
    assert data["cpcps"], "parallel pairs listed"


def test_cpcp_output(capsys):
    code, out, _ = run_cli(capsys, "cpcp", str(CORPUS / "calc_chain.lctrs"))
    assert code == 0
    assert "(f (g (+ 1 1) (+ 3 1)))" in out


def test_ground_lists_fragment(capsys):
    code, out, _ = run_cli(capsys, "ground", str(CORPUS / "single_value_choice.lctrs"))
    assert code == 0
    assert out.strip() == "(rule a 0)"


def test_ground_respects_values_flag(capsys):
    code, out, _ = run_cli(
        capsys, "ground", str(CORPUS / "parity_split.lctrs"), "--values", "0..1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "(rule (g 0) (h 2))" in lines
    assert "(rule (g 1) (h 1))" in lines
    assert "(rule (g 3) (h 1))" not in lines


@pytest.mark.parametrize(
    "flags", [("--values", "-1..1"), ("--values=-1..1",)], ids=["separate", "joined"]
)
def test_values_flag_negative_range(capsys, flags):
    code, out, _ = run_cli(capsys, "ground", str(CORPUS / "parity_split.lctrs"), *flags)
    assert code == 0
    lines = out.strip().splitlines()
    assert "(rule (g -1) (h 1))" in lines
    assert "(rule (g -2) (h 2))" not in lines


def test_check_reports_pass(capsys):
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "single_value_choice.lctrs"))
    assert code == 0
    assert "correspondence: pass" in out
    assert "step-equivalence: pass" in out
    assert "instance-soundness: pass" in out


def test_check_json_schema(capsys):
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "guarded_swap.lctrs"), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"correspondence", "step_equivalence", "instance_soundness"}
    for entry in data.values():
        assert entry["violations"] == []


def test_check_survives_guard_blowup(tmp_path, capsys):
    """At the default values check enumerates the 81 domain pairs for y and
    z of y <= z instead of exiting 2; no model search runs."""
    path = tmp_path / "blowup.lctrs"
    path.write_text("(fun f (Int) Int)\n(fun g (Int Int) Int)\n(rule (f x) (g y z) :guard (<= y z))\n")
    code, out, err = run_cli(capsys, "check", str(path), "--json")
    assert code == 0, err
    for entry in json.loads(out).values():
        assert entry["violations"] == []


def test_check_without_rules_checks_nothing(tmp_path, capsys):
    """A system with no rules has no left-hand side, calculation or peak to
    step: every report passes with no checks instead of exiting 2."""
    path = tmp_path / "norules.lctrs"
    path.write_text("(theory Ints)\n")
    code, out, err = run_cli(capsys, "check", str(path), "--json")
    assert code == 0, err
    data = json.loads(out)
    assert set(data) == {"correspondence", "step_equivalence", "instance_soundness"}
    for entry in data.values():
        assert entry == {"checked": 0, "violations": []}


@pytest.mark.parametrize("command", ["cpcp", "check"])
def test_parallel_subset_cap_is_exit_1(tmp_path, capsys, command):
    from tests.test_analysis import wide_g

    path = tmp_path / "wide.lctrs"
    path.write_text(wide_g(14))
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert "parallel subset cap 4096 exceeded" in err and "internal error" not in err


INPUTS = sorted(CORPUS.glob("*.lctrs")) + sorted((REPO / "perfbench" / "inputs").glob("**/*.lctrs"))


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: str(p.relative_to(REPO)))
def test_no_subcommand_exits_2(capsys, path):
    failed = []
    for command in ("analyze", "ccp", "cpcp", "ground", "check"):
        for flags in ((), ("--json",)):
            code, _, err = run_cli(capsys, command, str(path), *flags)
            if code != 0:
                failed.append(f"{command} {' '.join(flags)}: exit {code}: {err.strip()}")
    assert not failed, f"{path.name}: " + "; ".join(failed)


def test_closed_output_pipe_ends_quietly():
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        # about 220 kB of rules, more than the pipe holds
        [sys.executable, "-m", "lctrs", "ground", str(CORPUS / "guarded_swap.lctrs"), "--values=-30..30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline().startswith(b"(rule ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""


def test_gen_pcp_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gen-pcp", "1,101;10,00;011,11")
    assert code == 0
    from lctrs.parser import parse

    system = parse(out)
    assert len(system.rules) == 12 + 6
    assert (CORPUS / "pcp_101.lctrs").read_text() == out


def test_analyze_no_verdict_exits_zero(tmp_path, capsys):
    racy = tmp_path / "racy.lctrs"
    racy.write_text(
        "(theory Ints)\n(fun a () Int)\n(fun b () Int)\n(fun c () Int)\n"
        "(rule a b)\n(rule a c)\n"
    )
    code, out, _ = run_cli(capsys, "analyze", str(racy))
    assert code == 0
    assert out.splitlines()[0] == "NO"
    assert "witness" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.lctrs")
    assert code == 1
    assert "input error" in err


SUBCOMMANDS = ("analyze", "ccp", "cpcp", "ground", "check")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_unreadable_file_is_input_error(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, command, str(tmp_path))  # a directory, not a file
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Is a directory" in err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: every subcommand exits 2 with RecursionError, the first overflow in parser.build",
)
def test_a_2000_deep_right_hand_side_exits_2_on_no_subcommand(tmp_path, capsys):
    path = tmp_path / "deep.lctrs"
    deep = "(s " * 2000 + "z" + ")" * 2000
    path.write_text(f"(sort N)\n(fun z () N)\n(fun s (N) N)\n(fun a () N)\n(rule a {deep})\n")
    codes = {command: run_cli(capsys, command, str(path))[0] for command in SUBCOMMANDS}
    assert codes == dict.fromkeys(SUBCOMMANDS, 0)


def test_bad_syntax_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lctrs"
    bad.write_text("(rule 0 1)\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "input error" in err


def test_bad_values_flag(capsys):
    code, _, err = run_cli(capsys, "analyze", str(CORPUS / "projection.lctrs"), "--values", "oops")
    assert code == 1


def test_negative_depth_flag(capsys):
    code, out, err = run_cli(capsys, "analyze", str(CORPUS / "calc_chain.lctrs"), "--depth", "-1")
    assert code == 1
    assert out == ""
    assert "input error" in err and "--depth" in err


def test_bad_criteria_flag(capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(CORPUS / "projection.lctrs"), "--criteria", "wo,bogus"
    )
    assert code == 1


def test_criteria_subset(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(CORPUS / "calc_chain.lctrs"), "--criteria", "wo"
    )
    assert code == 0
    assert out.splitlines()[0] == "MAYBE"  # parallel closedness not attempted


def test_smt_flag_passthrough(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        str(CORPUS / "single_value_choice.lctrs"),
        "--smt",
        REFSOLVER_CMD,
        "--timeout",
        "4000",
    )
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_internal_error_exit_code(monkeypatch, capsys):
    import lctrs.cli as cli_mod

    def boom(*_a, **_k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    code, _, err = run_cli(capsys, "analyze", str(CORPUS / "projection.lctrs"))
    assert code == 2
    assert "internal error" in err


def test_console_entry_point():
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lctrs", "analyze", str(CORPUS / "projection.lctrs")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "YES"


WATCHED_MODULES = ["dataclasses", "inspect", "typing", "random", "lctrs.pcp", "lctrs.smtlib", "subprocess"]


def _watched_after(argv: list[str]) -> str:
    """Exit code and the WATCHED_MODULES loaded after running the command in
    a fresh interpreter under -I -S, where no site hook preloads anything."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, 'src')\n"
        "from lctrs.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, [m for m in {WATCHED_MODULES!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_analyze_loads_no_external_solver_code():
    """Only --smt needs the SMT-LIB client and the subprocess module, only
    gen-pcp needs pcp, no subcommand needs random, and no record is a
    dataclass (dataclasses pulls in inspect)."""
    assert _watched_after(["analyze", "corpus/pcp_101.lctrs"]) == "0 []"


def test_gen_pcp_loads_pcp():
    assert _watched_after(["gen-pcp", "1,101;10,00;011,11"]) == "0 ['lctrs.pcp']"


def _run_corpus_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("run_corpus", REPO / "scripts" / "run_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_values_forms(capsys):
    run_corpus = _run_corpus_module()
    assert run_corpus.parse_args(["--values", "-2..2"]) == (4, -2, 2)
    assert run_corpus.parse_args(["--values=-2..2", "--depth", "3"]) == (3, -2, 2)
    for bad in ("3..1", "1-2"):
        with pytest.raises(SystemExit) as exc:
            run_corpus.parse_args(["--values", bad])
        assert exc.value.code == 2
    assert "--values" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_corpus.parse_args(["--depth", "-1"])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err
    assert run_corpus.parse_args(["--depth", "0"]) == (0, -4, 4)
