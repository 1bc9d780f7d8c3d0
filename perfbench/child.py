"""One benchmark request: a fresh interpreter that analyzes one system.

Reads a JSON request on stdin and prints one JSON reply on stdout.  A fresh
process per request pays the same cold process-wide state (imports, the
solver's module-level caches) that every `lctrs analyze FILE` pays.  The
tracer is imported and installed only when the request asks for it.

Timestamps are time.monotonic(), which the parent reads on the same clock:
`ready` is taken after imports and parsing (or pcp.build_rp), `done` when
analyze returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def handle(request: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    reply: dict = {"id": request["id"]}
    tracer = solver = None
    try:
        import lctrs.grounding  # noqa: F401 - loaded at start-up by the CLI, lazily by analyze
        from lctrs.analysis import AnalysisConfig, analyze
        from lctrs.logic import ConstraintSolver
        from lctrs.rewriting import RewriteConfig

        if request["trace"]:
            import tracer as tracing

            tracer = tracing.install(request["span_cap"])
        if "pairs" in request:
            from lctrs.pcp import PCPInstance, build_rp

            system = build_rp(PCPInstance(tuple(tuple(p) for p in request["pairs"])))
        else:
            from lctrs.parser import parse

            system = parse(request["text"])
        lo, hi = request["values"]
        config = AnalysisConfig(rewrite=RewriteConfig(lo=lo, hi=hi))
        solver = ConstraintSolver()
        reply["ready"] = time.monotonic()
        verdict = analyze(system, solver, config)
        reply["done"] = time.monotonic()
        reply["verdict"] = verdict.result
        reply["ccp_count"] = getattr(verdict, "ccp_count", None)
        reply["cpcp_count"] = getattr(verdict, "cpcp_count", None)
    except Exception as exc:  # noqa: BLE001 - an internal error is a failed request, reported
        reply["error"] = f"{type(exc).__name__}: {exc}"[:300]
    if tracer is not None:
        reply["trace"] = tracer.summary(solver)
    reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return reply


def main() -> int:
    request = json.loads(sys.stdin.read())
    reply = handle(request)
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
