"""Byte-for-byte JSON output on the corpus, recorded in tests/golden.

The recorded files pin pair order, positions and variable names.  They were
written by `python -m lctrs CMD corpus/NAME.lctrs --json > tests/golden/NAME.CMD.json`
before the rewrite engine, the fragment and the critical-pair generators
were merged (the `check` files before terms were hash-consed); regenerate them
the same way only for an intended output change.  The `correspondence`
counts of the `check` files were re-recorded when that check came to
compare the fragment's critical pairs with the NO search's peaks, key for
key, instead of sampling instances of the constrained pairs; nothing else
in them changed.  Their `step_equivalence` counts were re-recorded when
that check came to step every term a fragment rule steps at its root and
every term the NO search steps, instead of 50 random terms; nothing else
in them changed.  The `four_parts` files
were recorded once the rewrite oracle and the ground fragment shared one
assignment procedure, so its `check` pins step equivalence on a rule whose
equation defines a variable the oracle computes.  The `two_positions` files
were recorded before the single, parallel and multi-steps were lifted to
constrained terms by one function; its `cpcp` pins a parallel pair of two
positions, the only one among the bundled inputs.

The four non-left-linear systems of the benchmark's ground workload pin the
NO path, witness pair included, at the value half-widths the benchmark runs
them with: `python -m lctrs analyze perfbench/inputs/ground/NAME.lctrs
--values=-H..H --json > tests/golden/NAME.analyze.json`, recorded before the
closing searches and the NO search were moved onto one breadth-first search.

Four generated PCP systems pin the path of the benchmark's pcp workload at
its value domain: `python -m lctrs gen-pcp PAIRS > FILE`, then
`python -m lctrs CMD FILE --values=-4..4 --json > tests/golden/gen_pcp_N.CMD.json`
for CMD analyze and cpcp, recorded before a matched guard was decided by
one validity residual per match.
"""

import os
import subprocess
import sys

import pytest

from lctrs.cli import main
from lctrs.parser import print_system
from lctrs.pcp import PCPInstance, build_rp

from tests.conftest import CORPUS, REPO

GOLDEN = REPO / "tests" / "golden"
SYSTEMS = sorted(p.stem for p in CORPUS.glob("*.lctrs"))
COMMANDS = ("analyze", "ccp", "cpcp", "ground", "check")
GROUND = REPO / "perfbench" / "inputs" / "ground"
GROUND_HALF_WIDTHS = {"diag_bool": 8, "diag_collapse": 9, "diag_guard": 9, "diag_sum": 5}
GEN_PCP = {
    "gen_pcp_1": "1,101;10,00;011,11",
    "gen_pcp_2": "1,101;10,00;011,11;0,1;110,1",
    "gen_pcp_3": "10,1;0,01",
    "gen_pcp_4": "01,0;1,10;0,1",
}
GEN_PCP_COMMANDS = ("analyze", "cpcp")


def test_every_corpus_system_is_recorded():
    assert len(SYSTEMS) == 9
    assert sorted(p.stem for p in GROUND.glob("*.lctrs")) == sorted(GROUND_HALF_WIDTHS)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        [f"{name}.{cmd}.json" for name in SYSTEMS for cmd in COMMANDS]
        + [f"{name}.analyze.json" for name in GROUND_HALF_WIDTHS]
        + [f"{name}.{cmd}.json" for name in GEN_PCP for cmd in GEN_PCP_COMMANDS]
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_json_output_matches_golden(capsys, name, command):
    code = main([command, str(CORPUS / f"{name}.lctrs"), "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.json").read_text()


@pytest.mark.parametrize("name", sorted(GROUND_HALF_WIDTHS))
def test_ground_no_verdict_matches_golden(capsys, name):
    half = GROUND_HALF_WIDTHS[name]
    code = main(["analyze", str(GROUND / f"{name}.lctrs"), f"--values=-{half}..{half}", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.analyze.json").read_text()


@pytest.mark.parametrize("command", GEN_PCP_COMMANDS)
@pytest.mark.parametrize("name", sorted(GEN_PCP))
def test_generated_pcp_output_matches_golden(capsys, tmp_path, name, command):
    source = tmp_path / f"{name}.lctrs"
    source.write_text(print_system(build_rp(PCPInstance.parse(GEN_PCP[name]))))
    code = main([command, str(source), "--values=-4..4", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.json").read_text()


@pytest.mark.parametrize("seed", ["0", "1"])
def test_output_does_not_depend_on_the_hash_seed(seed):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lctrs", "analyze", str(CORPUS / "pcp_101.lctrs"), "--json"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "pcp_101.analyze.json").read_text()
