"""The benchmark under perfbench/ still fits the library.

perfbench wraps library functions by module attribute and runs fixed
workloads through the public entry points; a refactor that renames one
of those attributes or breaks a workload would otherwise only show when
the benchmark runs.  Nothing here is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_attributes_exist():
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, attrs in table.items():
            for attr in attrs:
                assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_operation_passes_its_check(name):
    case = workloads.WORKLOADS[name]()
    for attr in tracing.TARGET_ROWS + tracing.TARGET_PRIOR:
        assert callable(getattr(case.target, attr, None)), f"target.{attr}"
    outcome = case.outcome(case.run(workloads.operation_seed(0, 0)))
    assert isinstance(outcome, workloads.Outcome)
    assert outcome.problems == []
    assert outcome.lik_epochs > 0
