"""Satisfiability and validity of constraints.

The internal route is complete for linear integer arithmetic with booleans;
anything nonlinear goes to the configured external SMT solver, or comes back
Unknown when none is configured.  A quantified query is decided on the
internal route alone and returns only its status.  Every model produced on
any route is re-checked by direct evaluation before it is accepted; the
internal route builds a model only when a caller first reads it.  A memoised
verdict keeps its model, so a caller can refute many instances of one
constraint by evaluating them under that one model before it asks for their
validity.
"""

from __future__ import annotations

from collections.abc import Callable

from . import cooper, theory
from .terms import BOOL, Term, Var, apply_subst, bool_val, int_val, variables

Prefix = list[tuple[str, list[Var]]]


class SolverVerdict:
    """Outcome of one query.

    A sat verdict's model and an invalid verdict's counter-model are either
    given as `assignment` or built by `build_model` on the first read of
    .assignment; the result is kept, so a memoised verdict builds at most once.
    """

    def __init__(
        self,
        status: str,  # "valid" | "invalid" | "sat" | "unsat" | "unknown"
        assignment: dict[Var, Term] | None = None,
        reason: str | None = None,
        build_model: Callable[[], dict[Var, Term] | None] | None = None,
    ):
        self.status = status
        self.reason = reason
        self._assignment = assignment
        self._build_model = build_model

    @property
    def assignment(self) -> dict[Var, Term] | None:
        if self._build_model is not None:
            self._assignment, self._build_model = self._build_model(), None
        return self._assignment

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def __repr__(self):
        # a model not yet built stays unbuilt
        extra = f" {self._assignment}" if self._assignment else ""
        if self.reason:
            extra += f" ({self.reason})"
        return f"<{self.status}{extra}>"


def search_model(phi: Term) -> dict[Var, Term]:
    """The model of a satisfiable linear phi that the decision procedure
    extracts, re-checked by direct evaluation."""
    vs = sorted(variables(phi), key=lambda v: v.name)
    sigma = cooper.find_model(cooper.formula_of(phi), vs)
    assert sigma is not None and theory.holds(apply_subst(sigma, phi)), f"decision procedure claims sat: {phi}"
    return sigma


class ConstraintSolver:
    """Decision procedures with per-query memoization, keyed by the
    hash-consed constraint itself; a verdict's model, once built, is kept
    with it.

    smt_command, when set, is a shell command reading SMT-LIB 2 on stdin
    (e.g. "z3 -in"); it serves the nonlinear fragment and cross-checks.
    """

    def __init__(self, smt_command: str | None = None, timeout_ms: int = 2000):
        self.smt_command = smt_command
        self.timeout_ms = timeout_ms
        self._memo: dict[tuple, SolverVerdict] = {}

    # -- internal helpers --

    def _checked_model(self, phi: Term, model: dict[Var, Term], origin: str) -> SolverVerdict:
        """sat once the model re-validates; a variable it leaves out takes
        false or 0, as under z3's model completion."""
        for v in sorted(variables(phi) - model.keys(), key=lambda v: v.name):
            model[v] = bool_val(False) if v.sort == BOOL else int_val(0)
        if not theory.holds(apply_subst(model, phi)):
            return SolverVerdict("unknown", reason=f"{origin}: model failed re-validation")
        return SolverVerdict("sat", assignment=model)

    # -- public API --

    def is_satisfiable(self, phi: Term) -> SolverVerdict:
        key = ("sat", phi)
        if key not in self._memo:
            self._memo[key] = self._is_satisfiable(phi)
        return self._memo[key]

    def _is_satisfiable(self, phi: Term) -> SolverVerdict:
        try:
            if cooper.decide_sat(phi):
                return SolverVerdict("sat", build_model=lambda: search_model(phi))
            return SolverVerdict("unsat")
        except cooper.NonlinearError as exc:
            if self.smt_command is None:
                return SolverVerdict("unknown", reason=str(exc))
            return self.smt_backend(phi)

    def is_valid(self, phi: Term) -> SolverVerdict:
        key = ("valid", phi)
        if key not in self._memo:
            self._memo[key] = self._is_valid(phi)
        return self._memo[key]

    def _is_valid(self, phi: Term) -> SolverVerdict:
        res = self.is_satisfiable(theory.neg(phi))
        if res.status == "unsat":
            return SolverVerdict("valid")
        if res.status == "sat":
            return SolverVerdict("invalid", build_model=lambda: res.assignment)
        return res

    def is_valid_quantified(self, prefix: Prefix, phi: Term) -> SolverVerdict:
        key = ("q", tuple((q, tuple(vs)) for q, vs in prefix), phi)
        if key not in self._memo:
            self._memo[key] = self._is_valid_quantified(prefix, phi)
        return self._memo[key]

    def _is_valid_quantified(self, prefix: Prefix, phi: Term) -> SolverVerdict:
        """Status only: no counter-model, and never the external solver."""
        try:
            return SolverVerdict("valid" if cooper.decide_prefixed(prefix, phi) else "invalid")
        except cooper.NonlinearError as exc:
            return SolverVerdict("unknown", reason=str(exc))

    def smt_backend(self, phi: Term) -> SolverVerdict:
        """Serialize, spawn the external solver, parse and re-validate."""
        if self.smt_command is None:
            return SolverVerdict("unknown", reason="no external solver configured")
        from . import smtlib  # with subprocess, loaded only when a solver is configured

        script = smtlib.smt_script(phi, logic=smtlib.pick_logic(phi))
        output, diag = smtlib.run_solver(self.smt_command, script, self.timeout_ms)
        if output is None:
            return SolverVerdict("unknown", reason=diag)
        status, model, why = smtlib.parse_result(output, {v.name: v for v in variables(phi)})
        if status == "unsat":
            return SolverVerdict("unsat")
        if status == "sat":
            return self._checked_model(phi, model, "external solver")
        return SolverVerdict("unknown", reason=why or "solver answered unknown")
