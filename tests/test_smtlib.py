import sys
from pathlib import Path

from lctrs import smtlib, theory
from lctrs.logic import ConstraintSolver
from lctrs.terms import App, BOOL, INT, Var, apply_subst, int_val

REPO = Path(__file__).resolve().parent.parent
REFSOLVER = f"{sys.executable} {REPO / 'scripts' / 'refsolver.py'}"

x, y, z = (Var(s, INT) for s in "xyz")


def test_script_shape():
    phi = theory.conj(theory.gt(x, 0), theory.eq(y, theory.add(x, 1)))
    script = smtlib.smt_script(phi)
    assert "(set-logic LIA)" in script
    assert "(declare-const x Int)" in script
    assert "(declare-const y Int)" in script
    assert "(check-sat)" in script
    assert "(get-model)" in script


def test_negative_literals_serialized():
    assert smtlib.smt_term(int_val(-3)) == "(- 3)"


def test_nonlinear_picks_nia():
    assert smtlib.pick_logic(theory.eq(theory.mul(x, y), 7)) == "NIA"
    assert smtlib.pick_logic(theory.eq(theory.mul(2, y), 4)) == "LIA"


def test_parse_model_define_fun():
    out = "sat\n(model\n  (define-fun x () Int (- 2))\n  (define-fun b () Bool true)\n)"
    from lctrs.terms import BOOL

    b = Var("b", BOOL)
    status, model, why = smtlib.parse_result(out, {"x": x, "b": b})
    assert status == "sat" and why == ""
    assert model[x] == int_val(-2)
    assert model[b] == theory.bool_val(True)


def test_unmatched_paren_gives_unknown_with_reason():
    status, model, why = smtlib.parse_result("sat\n(model (define-fun x () Int 3)))", {"x": x})
    assert (status, model) == ("unknown", {})
    assert "unmatched ')'" in why
    stray = f"{sys.executable} -c \"print('sat'); print('(model (define-fun x () Int 3)))')\""
    res = ConstraintSolver(smt_command=stray).smt_backend(theory.gt(x, 2))
    assert res.status == "unknown" and "unmatched ')'" in res.reason


def test_backend_sat_model_revalidated():
    solver = ConstraintSolver(smt_command=REFSOLVER)
    phi = theory.eq(x, theory.add(theory.mul(2, z), 1))
    res = solver.smt_backend(phi)
    assert res.status == "sat"
    assert theory.holds(apply_subst(res.assignment, phi))


def test_backend_model_beyond_the_first_radii():
    """The reference solver fixes one variable at a time by elimination, so a
    value far from 0 comes out without a search over every box around 0."""
    res = ConstraintSolver(smt_command=REFSOLVER).smt_backend(theory.eq(x, 10))
    assert res.status == "sat"
    assert res.assignment == {x: int_val(10)}
    phi = theory.conj(theory.eq(x, 40), theory.eq(theory.add(y, z), 0))
    res = ConstraintSolver(smt_command=REFSOLVER, timeout_ms=2000).smt_backend(phi)
    assert res.status == "sat"
    assert theory.holds(apply_subst(res.assignment, phi))


def test_backend_false_unsat():
    solver = ConstraintSolver(smt_command=REFSOLVER)
    assert solver.smt_backend(theory.bool_val(False)).status == "unsat"


def test_backend_nonlinear_product_unsat():
    # any integer solution of x*y = 7 has |x|,|y| <= 7, so the reference
    # solver's box enumeration is conclusive
    solver = ConstraintSolver(smt_command=REFSOLVER)
    phi = theory.conj(theory.eq(theory.mul(x, y), 7), theory.gt(x, 1), theory.gt(y, 1))
    assert solver.smt_backend(phi).status == "unsat"
    # and the top-level route dispatches the nonlinear query to the backend
    assert solver.is_satisfiable(phi).status == "unsat"


def test_backend_crash_gives_unknown(tmp_path):
    bad = tmp_path / "crash.py"
    bad.write_text("import sys; sys.exit(3)\n")
    solver = ConstraintSolver(smt_command=f"{sys.executable} {bad}")
    res = solver.smt_backend(theory.gt(x, 0))
    assert res.status == "unknown"
    assert "verdict" in res.reason or "solver" in res.reason


def test_backend_timeout_gives_unknown(tmp_path):
    slow = tmp_path / "slow.py"
    slow.write_text("import time; time.sleep(5); print('sat')\n")
    solver = ConstraintSolver(smt_command=f"{sys.executable} {slow}", timeout_ms=300)
    res = solver.smt_backend(theory.gt(x, 0))
    assert res.status == "unknown"
    assert "timeout" in res.reason


def test_backend_missing_binary_gives_unknown():
    solver = ConstraintSolver(smt_command="/nonexistent/solver-binary")
    assert solver.smt_backend(theory.gt(x, 0)).status == "unknown"


def test_internal_external_agreement_sample():
    import random

    from tests.test_logic import random_linear_constraint

    rng = random.Random(99)
    internal = ConstraintSolver()
    external = ConstraintSolver(smt_command=REFSOLVER)
    for _ in range(25):
        phi = random_linear_constraint(rng)
        a = internal.is_satisfiable(phi)
        b = external.smt_backend(phi)
        assert a.status == b.status, (phi, a, b)


def test_validity_never_contradicts_external():
    import random

    from tests.test_logic import random_linear_constraint

    rng = random.Random(123)
    internal = ConstraintSolver()
    external = ConstraintSolver(smt_command=REFSOLVER)
    for _ in range(12):
        phi = random_linear_constraint(rng, nvars=2, natoms=2)
        mine = internal.is_valid(phi)
        # external validity: the negation must be unsatisfiable
        other = external.smt_backend(theory.neg(phi))
        if mine.status == "valid":
            assert other.status == "unsat"
        elif mine.status == "invalid":
            assert other.status == "sat"


def test_quantified_nonlinear_unknown_without_backend():
    solver = ConstraintSolver()
    phi = theory.eq(theory.mul(x, y), z)
    res = solver.is_valid_quantified([("forall", [x]), ("exists", [y])], phi)
    assert res.status == "unknown"


def test_every_theory_symbol_renders_with_its_smtlib_name():
    b, c = Var("b", BOOL), Var("c", BOOL)
    args = {INT: (x, y), BOOL: (b, c)}
    rendered = [smtlib.smt_term(App(sym, args[sym.arg_sorts[0]][: sym.arity])) for sym in theory.THEORY_SYMS]
    assert rendered == [
        "(+ x y)", "(- x y)", "(* x y)", "(= x y)", "(distinct x y)", "(< x y)", "(<= x y)", "(> x y)",
        "(>= x y)", "(and b c)", "(or b c)", "(not b)", "(=> b c)", "(= b c)", "(distinct b c)",
    ]
    phi = theory.conj(theory.ne(x, y), theory.imp(theory.ne(b, b), theory.eq(b, theory.neg(b))))
    assert smtlib.smt_term(phi) == "(and (distinct x y) (=> (distinct b b) (= b (not b))))"


def test_parse_model_bare_pairs_and_a_string():
    b = Var("b", BOOL)
    out = 'sat\n((x (- 3)) (b false) (q 1))\n(error "no model")'
    status, model, why = smtlib.parse_result(out, {"x": x, "b": b})
    assert (status, model, why) == ("sat", {x: int_val(-3), b: theory.bool_val(False)}, "")
    # of two bindings in one list the first wins; of two lists the last
    assert smtlib.parse_result("sat\n((x 1) (x 2))", {"x": x})[1] == {x: int_val(1)}
    assert smtlib.parse_result("sat\n(x 1)\n(x 2)", {"x": x})[1] == {x: int_val(2)}
