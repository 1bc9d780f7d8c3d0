"""Outside-in tracing of the lctrs layers, for traced benchmark runs only.

install() wraps the functions named in FUNCTIONS.  Each wrapper is bound in
place of the original wherever an lctrs module holds it, so functions that
other modules took in with `from .x import f` are seen too; the solver's
query methods are replaced on the ConstraintSolver class.  A function that a
later version of lctrs no longer has is skipped and reads as zero.

Every wrapped call adds to its name's calls and self time, and to its
inclusive time when no other call of the same name is open (so recursion and
nesting are not counted twice).  A call a function makes directly to itself
is not recorded at all.  Each recorded call also leaves a span (id, parent,
name, start, end), kept in memory up to span_cap spans per request.
Observers turn results into counts such as pairs found or steps returned.
"""

from __future__ import annotations

import functools
import sys
import time

# <module>.<function> of lctrs; "logic.queries" gathers the three QUERY_METHODS
FUNCTIONS = (
    "cooper.formula_of",
    "cooper.decide_sat",
    "cooper.find_model",
    "cooper.decide_prefixed",
    "cooper.eliminate_int",
    "logic.search_model",
    "terms.unify",
    "terms.match",
    "terms.apply_subst",
    "terms.term_key",
    "rewriting.cstep_tilde",
    "rewriting.multi_tilde",
    "rewriting.parallel_tilde",
    "rewriting.constrained_redexes",
    "analysis.ccps",
    "analysis.cpcps",
    "analysis.is_trivial",
    "analysis.dev_closed_check",
    "analysis.parallel_closed_1",
    "analysis.parallel_closed_2",
    "grounding.ground_fragment",
    "grounding.trs_cps",
    "grounding.find_nonjoinable_peak",
    "grounding.joinable",
    "parser.parse",
    "pcp.build_rp",
)
QUERY_METHODS = ("is_satisfiable", "is_valid", "is_valid_quantified")
SPANNED = FUNCTIONS + ("logic.queries",)

COUNTS = (
    "cooper.blowups",
    "logic.memo_hits",
    "logic.memo_entries",
    "logic.unknown",
    "rewriting.steps",
    "analysis.ccp_count",
    "analysis.cpcp_count",
    "analysis.closing_checks",
    "analysis.closed",
    "grounding.fragment_rules",
    "grounding.trs_cps_count",
)


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.stats = {name: [0, 0.0, 0.0] for name in SPANNED}  # calls, s, self_s
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.t0 = time.perf_counter()
        self._stack: list[list] = []  # [wrapper, name, start, child_s, span_id]
        self._open: dict[str, int] = dict.fromkeys(SPANNED, 0)
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        stack, stats, opened, clock = self._stack, self.stats[name], self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][4] if stack else -1
            stats[0] += 1
            opened[name] += 1
            frame = [wrapper, name, clock(), 0.0, span_id]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                duration = end - frame[2]
                stats[2] += duration - frame[3]
                if not opened[name]:
                    stats[1] += duration
                if stack:
                    stack[-1][3] += duration
                if span_id < self.span_cap:
                    self.spans.append((span_id, parent, name, frame[2] - self.t0, end - self.t0))
                if observe is not None:
                    observe(self.counts, result, error)
            return result

        return wrapper

    def summary(self, solver) -> dict:
        memo = getattr(solver, "_memo", None)
        if memo is not None:
            self.counts["logic.memo_entries"] = len(memo)
        return {
            "stats": self.stats,
            "counts": self.counts,
            "spans": self.spans,
            "spans_dropped": max(0, self._next_id - self.span_cap),
        }


# --- observers: (counts, result, error) ---------------------------------------

def _blowups(counts, result, error):
    if type(error).__name__ == "BlowupError":
        counts["cooper.blowups"] += 1


def _adder(key, size):
    def observe(counts, result, error):
        if error is None:
            counts[key] += size(result)

    return observe


def _closing(counts, result, error):
    if error is None:
        counts["analysis.closing_checks"] += 1
        counts["analysis.closed"] += result.status == "closed"


OBSERVERS = {
    "cooper.decide_sat": _blowups,
    "cooper.find_model": _blowups,
    "cooper.decide_prefixed": _blowups,
    "rewriting.cstep_tilde": _adder("rewriting.steps", len),
    "rewriting.multi_tilde": _adder("rewriting.steps", len),
    "rewriting.parallel_tilde": _adder("rewriting.steps", len),
    "analysis.ccps": _adder("analysis.ccp_count", len),
    "analysis.cpcps": _adder("analysis.cpcp_count", len),
    "analysis.dev_closed_check": _closing,
    "analysis.parallel_closed_1": _closing,
    "analysis.parallel_closed_2": _closing,
    "grounding.ground_fragment": _adder("grounding.fragment_rules", lambda f: len(f.rules)),
    "grounding.trs_cps": _adder("grounding.trs_cps_count", len),
}


def _memo_counted(tracer: Tracer, method):
    """A query method that also counts memo hits (the memo did not grow)
    and unknown answers."""

    @functools.wraps(method)
    def query(self, *args, **kwargs):
        memo = getattr(self, "_memo", None)
        before = None if memo is None else len(memo)
        verdict = method(self, *args, **kwargs)
        if before is not None and len(memo) == before:
            tracer.counts["logic.memo_hits"] += 1
        if getattr(verdict, "status", None) == "unknown":
            tracer.counts["logic.unknown"] += 1
        return verdict

    return query


def install(span_cap: int) -> Tracer:
    """Import the lctrs modules, then wrap every traced function in place."""
    import lctrs.analysis  # noqa: F401 - loads the layers below it too
    import lctrs.grounding  # noqa: F401
    import lctrs.parser  # noqa: F401
    import lctrs.pcp  # noqa: F401
    from lctrs.logic import ConstraintSolver

    tracer = Tracer(span_cap)
    modules = [m for n, m in sys.modules.items() if n == "lctrs" or n.startswith("lctrs.")]
    for name in FUNCTIONS:
        module_name, attr = name.split(".")
        original = getattr(sys.modules.get(f"lctrs.{module_name}"), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
    for method_name in QUERY_METHODS:
        method = getattr(ConstraintSolver, method_name, None)
        if method is not None:
            counted = _memo_counted(tracer, method)
            setattr(ConstraintSolver, method_name, tracer.wrap("logic.queries", counted))
    return tracer
