"""The benchmark's tracer wraps lctrs functions by name; a function it no
longer finds reads as zero.  Every name it lists must resolve."""

import importlib
import importlib.util

from lctrs.logic import ConstraintSolver

from tests.conftest import REPO


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_lctrs():
    tracer = _tracer()
    for name in tracer.FUNCTIONS:
        module_name, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"lctrs.{module_name}"), attr, None)), name
    for method in tracer.QUERY_METHODS:
        assert callable(getattr(ConstraintSolver, method, None)), method
