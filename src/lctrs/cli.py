"""Command-line interface.

Subcommands: analyze, ccp, cpcp, ground, check, gen-pcp.  The first output
line of analyze is YES, NO or MAYBE; --json switches every subcommand to a
machine-readable report.  Exit status: 0 for any verdict, 1 for input
errors (more parallel position sets than the cap allows included) and when
a reader closes the output early, 2 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .analysis import AnalysisConfig, Verdict, analyze, ccps, cpcps
from .grounding import (
    check_cp_correspondence,
    check_instance_soundness,
    check_step_equivalence,
    ground_fragment,
)
from .logic import ConstraintSolver
from .parser import ParseError, parse, print_system
from .rewriting import RewriteConfig
from .terms import ParallelSetCap, term_key


def _add_common(sub):
    sub.add_argument("file", help="input system")
    sub.add_argument("--criteria", default="wo,adc,pc", help="comma list from wo,adc,pc")
    sub.add_argument("--depth", type=int, default=4, help="rewrite tail bound for closing searches")
    sub.add_argument("--values", default="-4..4", help="value domain LO..HI for grounding")
    sub.add_argument("--smt", default=None, help="external SMT-LIB solver command (default: internal)")
    sub.add_argument("--timeout", type=int, default=2000, help="external solver budget in ms")
    sub.add_argument("--json", action="store_true")


def _parse_values(spec: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", spec)
    if not m:
        raise ValueError(f"bad --values {spec!r}, expected LO..HI")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError("--values range is empty")
    return lo, hi


def _glue_values(argv: list[str]) -> list[str]:
    """Turn `--values -10..10` into `--values=-10..10`: argparse takes an
    argument starting with a dash for an option, not for the flag's value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--values" and re.match(r"-\d", arg):
            out[-1] = f"--values={arg}"
        else:
            out.append(arg)
    return out


def _setup(args):
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:  # a missing file, a directory, a file it may not read
        raise ValueError(exc) from exc
    system = parse(text)
    lo, hi = _parse_values(args.values)
    if args.depth < 0:
        raise ValueError("--depth must not be negative")
    criteria = tuple(c.strip() for c in args.criteria.split(",") if c.strip())
    bad = set(criteria) - {"wo", "adc", "pc"}
    if bad:
        raise ValueError(f"unknown criteria {sorted(bad)}")
    config = AnalysisConfig(criteria=criteria, depth=args.depth, rewrite=RewriteConfig(lo=lo, hi=hi))
    solver = ConstraintSolver(smt_command=args.smt, timeout_ms=args.timeout)
    return system, solver, config


def _ccp_json(rec) -> dict:
    return {
        "left": term_key(rec.left),
        "right": term_key(rec.right),
        "constraint": term_key(rec.constraint),
        "overlay": rec.overlay,
        "position": list(rec.position),
    }


def _cpcp_json(rec) -> dict:
    return {
        "left": term_key(rec.left),
        "right": term_key(rec.right),
        "constraint": term_key(rec.constraint),
        "positions": [list(p) for p in rec.pset],
        "peak": term_key(rec.peak_source),
    }


def _verdict_json(v: Verdict, system, solver) -> dict:
    criteria = []
    if v.criterion and v.result == "YES":
        criteria.append({"name": v.criterion, "result": "pass", "detail": ""})
    for name, detail in v.reasons.items():
        criteria.append({"name": name, "result": "fail", "detail": detail})
    try:
        parallel = [_cpcp_json(r) for r in (cpcps(system, solver) if v.cpcps is None else v.cpcps)]
    except ParallelSetCap:
        parallel = None  # more parallel position sets than the cap allows
    witnesses = []
    if v.witness is not None:
        witnesses.append({"left": term_key(v.witness[0]), "right": term_key(v.witness[1])})
    return {
        "verdict": v.result,
        "criteria": criteria,
        "ccps": [_ccp_json(r) for r in v.ccps],
        "cpcps": parallel,
        "witnesses": witnesses,
    }


def cmd_analyze(args) -> int:
    system, solver, config = _setup(args)
    verdict = analyze(system, solver, config)
    if args.json:
        print(json.dumps(_verdict_json(verdict, system, solver), indent=2))
        return 0
    print(verdict.result)
    if verdict.criterion:
        print(f"criterion: {verdict.criterion}")
    for name, detail in verdict.reasons.items():
        print(f"{name}: {detail}")
    if verdict.witness is not None:
        print(
            f"witness: {term_key(verdict.witness[0])} and {term_key(verdict.witness[1])}"
            " reach distinct normal forms"
        )
    return 0


def cmd_ccp(args) -> int:
    system, solver, config = _setup(args)
    records = ccps(system, solver)
    if args.json:
        print(json.dumps([_ccp_json(r) for r in records], indent=2))
        return 0
    for rec in records:
        print(f"{term_key(rec.left)} ~ {term_key(rec.right)} [{term_key(rec.constraint)}]")
    return 0


def cmd_cpcp(args) -> int:
    system, solver, config = _setup(args)
    records = cpcps(system, solver)
    if args.json:
        print(json.dumps([_cpcp_json(r) for r in records], indent=2))
        return 0
    for rec in records:
        ps = ",".join("e" if not p else ".".join(map(str, p)) for p in rec.pset)
        print(
            f"{term_key(rec.left)} ~ {term_key(rec.right)}"
            f" [{term_key(rec.constraint)}] P={{{ps}}}"
        )
    return 0


def cmd_ground(args) -> int:
    system, solver, config = _setup(args)
    fragment = ground_fragment(system, config.rewrite)
    if args.json:
        print(
            json.dumps(
                [{"lhs": term_key(r.lhs), "rhs": term_key(r.rhs)} for r in fragment.rules],
                indent=2,
            )
        )
        return 0
    for rule in fragment.rules:
        print(f"(rule {term_key(rule.lhs)} {term_key(rule.rhs)})")
    return 0


def cmd_check(args) -> int:
    system, solver, config = _setup(args)
    reports = {
        "correspondence": check_cp_correspondence(system, solver, config.rewrite),
        "step-equivalence": check_step_equivalence(system, solver, config.rewrite),
        "instance-soundness": check_instance_soundness(system, solver, config.rewrite),
    }
    if args.json:
        print(
            json.dumps(
                {
                    name.replace("-", "_"): {
                        "checked": report.checked,
                        "violations": report.violations,
                    }
                    for name, report in reports.items()
                },
                indent=2,
            )
        )
        return 0
    for name, report in reports.items():
        state = "pass" if report.ok else "FAIL"
        print(f"{name}: {state} ({report.checked} checks)")
        for v in report.violations:
            print(f"  {v}")
    return 0


def cmd_gen_pcp(args) -> int:
    from .pcp import PCPInstance, build_rp  # only gen-pcp builds PCP systems

    instance = PCPInstance.parse(args.pairs)
    sys.stdout.write(print_system(build_rp(instance)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lctrs", description="confluence analysis for constrained rewrite systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("analyze", cmd_analyze),
        ("ccp", cmd_ccp),
        ("cpcp", cmd_cpcp),
        ("ground", cmd_ground),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    gen = sub.add_parser("gen-pcp")
    gen.add_argument("pairs", help='instance like "1,101;10,00;011,11"')
    gen.set_defaults(fn=cmd_gen_pcp)

    args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit writes nowhere
        os.close(devnull)
        return 1
    except (ParseError, ValueError, ParallelSetCap) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract maps these to exit 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
