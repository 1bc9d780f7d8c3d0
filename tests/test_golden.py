"""Byte-for-byte JSON output on the corpus, recorded in tests/golden.

The recorded files pin pair order, positions and variable names.  They were
written by `python -m lctrs CMD corpus/NAME.lctrs --json > tests/golden/NAME.CMD.json`
before the rewrite engine, the fragment and the critical-pair generators
were merged; regenerate them the same way only for an intended output change.
"""

import pytest

from lctrs.cli import main

from tests.conftest import CORPUS, REPO

GOLDEN = REPO / "tests" / "golden"
SYSTEMS = sorted(p.stem for p in CORPUS.glob("*.lctrs"))
COMMANDS = ("analyze", "ccp", "cpcp", "ground")


def test_every_corpus_system_is_recorded():
    assert len(SYSTEMS) == 7
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        f"{name}.{cmd}.json" for name in SYSTEMS for cmd in COMMANDS
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_json_output_matches_golden(capsys, name, command):
    code = main([command, str(CORPUS / f"{name}.lctrs"), "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.json").read_text()
