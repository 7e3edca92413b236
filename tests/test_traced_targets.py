"""Every function and method the benchmark's span tracer wraps still exists.

A traced name the package no longer has is skipped by the tracer, and its
layer metrics then read 0 rather than failing, so this test is what notices
a rename or a deletion.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mhd1d import SchemeConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Layers whose functions are gone from the package and whose metrics read 0.
KNOWN_MISSING = {"solver.stable_dt", "limit_study.run_pair"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(spans):
    missing = {name for name, modname, attr in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(modname), attr, None))}
    assert missing <= KNOWN_MISSING


def test_traced_methods_resolve(spans):
    # the tracer patches the method on the class that defines it, as here
    for name, modname, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name, None)
        assert cls is not None and callable(vars(cls).get(attr)), name


def test_step_counter_reads_the_integrator(spans):
    # the tracer's step hook reads scheme.time_integrator to count RK stages
    assert spans.STAGES.get(SchemeConfig().time_integrator, 0) > 0
