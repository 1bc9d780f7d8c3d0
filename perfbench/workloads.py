"""The benchmark's inputs: three workloads, each made from a seed.

criteria  the seven corpus systems and two defect reproductions, frozen under
          inputs/criteria, at the default value domain; the seed shuffles them.
pcp       a stratified draw of correspondence problems, built in the child by
          lctrs.pcp.build_rp; the truth comes from a string search here.
ground    hand-written non-left-linear systems at wide value domains; the seed
          shuffles them.

Every input carries its known truth, "confluent", "not confluent" or
"unknown", with the reason.  No truth is ever obtained by running lctrs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
TRUTH = json.loads((HERE / "truth.json").read_text())

WORKLOADS = ("criteria", "pcp", "ground")
DEFAULT_VALUES = (-4, 4)

# Half-widths of the ground value domains, picked so that one request takes
# about half a second to a second; the fragment grows with the square.  The
# domains stay fixed: the NO search stops at the first witness in its sorted
# overlap list, so shifting a domain moves the cost of a request.
GROUND_HALF_WIDTH = {"diag_guard": 9, "diag_sum": 5, "diag_collapse": 9, "diag_bool": 8}

# Correspondence-problem draw: per size N, one instance per entry below.
# The system tries candidate numbers from the value domain only, so a solution
# whose number lies in DEFAULT_VALUES is the kind the NO search can reach.
# Eighteen instances keep the middle of a draw steady from seed to seed and
# still leave time for two passes.
PCP_SIZES = (2, 3, 4)
PCP_CLASSES = ("solution_in_domain", "solution_outside_domain", "no_solution") * 2
PCP_SEARCH_LEN = 8


@dataclass(frozen=True)
class Input:
    name: str
    truth: str
    reason: str
    values: tuple[int, int] = DEFAULT_VALUES
    text: str | None = None  # system source, parsed in the child
    pairs: tuple[tuple[str, str], ...] | None = None  # PCP instance, built in the child

    def request(self) -> dict:
        """The part of a child request that describes this input."""
        source = {"text": self.text} if self.text is not None else {"pairs": self.pairs}
        return {"values": list(self.values), **source}


def make_inputs(workload: str, seed: int) -> list[Input]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "criteria":
        inputs = [_fixed("criteria", path) for path in sorted((INPUTS / "criteria").glob("*.lctrs"))]
    elif workload == "ground":
        inputs = [
            _fixed("ground", path, (-GROUND_HALF_WIDTH[path.stem], GROUND_HALF_WIDTH[path.stem]))
            for path in sorted((INPUTS / "ground").glob("*.lctrs"))
        ]
    else:
        inputs = pcp_draw(rng)
    rng.shuffle(inputs)
    return inputs


def _fixed(workload: str, path: Path, values: tuple[int, int] = DEFAULT_VALUES) -> Input:
    known = TRUTH[f"{workload}/{path.stem}"]
    return Input(path.stem, known["truth"], known["reason"], values, text=path.read_text())


# --- correspondence problems --------------------------------------------------

def shortest_solution(pairs, max_len: int) -> tuple[int, ...] | None:
    """Shortest index string (1-based) of length <= max_len whose top and
    bottom concatenations are equal, by breadth-first search over the index
    strings whose two concatenations are still prefix-compatible."""
    frontier: list[tuple[tuple[int, ...], str, str]] = [((), "", "")]
    for _ in range(max_len):
        nxt = []
        for indices, top, bottom in frontier:
            for i, (a, b) in enumerate(pairs, start=1):
                t, u = top + a, bottom + b
                if t == u:
                    return indices + (i,)
                if t.startswith(u) or u.startswith(t):
                    nxt.append((indices + (i,), t, u))
        frontier = nxt
    return None


def candidate(n: int, size: int) -> tuple[int, ...]:
    """The index string that candidate number n > 0 stands for in the
    rewrite system: bijective base `size`, first index least significant."""
    out = []
    while n > 0:
        i = (n - 1) % size + 1
        out.append(i)
        n = (n - i) // size
    return tuple(out)


def is_solution(pairs, indices) -> bool:
    return "".join(pairs[i - 1][0] for i in indices) == "".join(pairs[i - 1][1] for i in indices)


def pcp_truth(pairs) -> tuple[str, str, str]:
    """(truth, reason, class) of the instance's rewrite system."""
    solution = shortest_solution(pairs, PCP_SEARCH_LEN)
    if solution is None:
        return (
            "unknown",
            f"no index string up to length {PCP_SEARCH_LEN} is a solution",
            "no_solution",
        )
    word = "".join(pairs[i - 1][0] for i in solution)
    mismatch = next(i for i, (a, b) in enumerate(pairs, start=1) if a != b)
    reason = (
        f"index string {' '.join(map(str, solution))} gives {word} on both sides, so start"
        f" reaches top; index {mismatch} alone gives two different words, so start also"
        " reaches bot; top and bot are distinct normal forms"
    )
    in_domain = any(
        is_solution(pairs, candidate(n, len(pairs))) for n in range(1, DEFAULT_VALUES[1] + 1)
    )
    return "not confluent", reason, "solution_in_domain" if in_domain else "solution_outside_domain"


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))


def pcp_draw(rng: random.Random) -> list[Input]:
    """One instance per (size, class) slot, by rejection sampling: 2 to 4
    pairs of 0/1 words of 1 to 3 letters, some pair with different words."""
    out: list[Input] = []
    seen: set[tuple[tuple[str, str], ...]] = set()
    for size in PCP_SIZES:
        wanted = list(PCP_CLASSES)
        while wanted:
            pairs = tuple((_random_word(rng), _random_word(rng)) for _ in range(size))
            if pairs in seen or all(a == b for a, b in pairs):
                continue
            truth, reason, kind = pcp_truth(pairs)
            if kind not in wanted:
                continue
            wanted.remove(kind)
            seen.add(pairs)
            name = "pcp_" + ";".join(f"{a},{b}" for a, b in pairs)
            out.append(Input(name, truth, reason, pairs=pairs))
    return out
