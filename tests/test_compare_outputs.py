"""scripts/compare_outputs.py: which runs it makes and how it reports a
difference, checked with a fake export and a fake runner."""

import importlib.util

from tests.conftest import REPO


def _module():
    spec = importlib.util.spec_from_file_location("compare_outputs", REPO / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_tree(dest):
    for rel in ("corpus/a.lctrs", "corpus/b.lctrs", "perfbench/inputs/ground/c.lctrs", "perfbench/inputs/notes.txt"):
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        (dest / rel).write_text("(theory Ints)\n")
    return dest


def test_every_form_runs_on_every_input_and_differences_fail(monkeypatch, capsys):
    tool = _module()
    ran = []

    def fake_run(tree, form, path):
        ran.append((tree.name, form, path.name))
        if tree.name == "change" and form == ("check", "--json") and path.name == "b.lctrs":
            return 0, '{"ok": false}\n', ""
        return 0, '{"ok": true}\n', ""

    monkeypatch.setattr(tool.compare, "export", lambda rev, dest: _fake_tree(dest))
    monkeypatch.setattr(tool, "run_form", fake_run)
    assert tool.main(["base", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs: check --json corpus/b.lctrs: stdout line 1: '{\"ok\": true}' -> '{\"ok\": false}'",
        f"1 of {3 * len(tool.FORMS)} runs differ",
    ]
    names = ["a.lctrs", "b.lctrs", "c.lctrs"]
    assert sorted(ran) == sorted((side, form, n) for side in ("base", "change") for form in tool.FORMS for n in names)

    monkeypatch.setattr(tool, "run_form", lambda tree, form, path: (0, "YES\n", ""))
    assert tool.main(["base", "change"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"0 of {3 * len(tool.FORMS)} runs differ"]


def test_first_difference_names_the_exit_code_or_the_line():
    tool = _module()
    assert tool.first_difference((0, "a\n", ""), (2, "a\n", "boom\n")) == "exit 0 -> 2"
    assert tool.first_difference((0, "a\nb\n", ""), (0, "a\nc\n", "")) == "stdout line 2: 'b' -> 'c'"
    assert tool.first_difference((0, "a\n", ""), (0, "a\nb\n", "")) == "stdout: 1 -> 2 lines"
    assert tool.first_difference((1, "", "x\n"), (1, "", "y\n")) == "stderr line 1: 'x' -> 'y'"
