"""The benchmark under perfbench/ still fits the library.

perfbench wraps library functions by module attribute and runs fixed
workloads through the public entry points; a refactor that renames one
of those attributes or breaks a workload would otherwise only show when
the benchmark runs.  Nothing here is timed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from islandmc import kernels
from islandmc.targets import make_gaussian_target

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


def test_population_step_returns_the_int_accept_total():
    # the tracer adds up population_step's return value as the accept count
    target = make_gaussian_target(2, 4, 1.0, seed=0)
    rng = np.random.default_rng(0)
    for cfg in (kernels.PcnConfig(), kernels.HmcConfig()):
        pop = kernels.Population.initialize(target, rng, 6, needs_grad=kernels.needs_gradient(cfg))
        stats = kernels.KernelStats()
        accepted = kernels.population_step(
            pop, 0.5, cfg, target, rng.standard_normal((6, 2)), np.log(rng.random(6)), stats=stats,
        )
        assert type(accepted) is int
        assert accepted == stats.accepts


@pytest.mark.parametrize("name", ["islands_hmc_gaussian", "islands_pcn_logistic"])
def test_tracer_sees_the_stage_loop(name):
    # the stage loop calls the traced functions through their modules
    case = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer()
    tracer.install(case.target)
    try:
        case.run(workloads.operation_seed(0, 0))
    finally:
        tracer.uninstall()
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    kernel = "kernels.leapfrog" if name == "islands_hmc_gaussian" else "kernels.estimate_scaling"
    for span in ("smc.next_temperature", "smc.resample", "smc.update_logz",
                 "kernels.mutate", "kernels.population_step", kernel):
        assert calls.get(span, 0) > 0, span
    assert type(tracer.accepted) is int
    assert 0 < tracer.accepted <= tracer.proposals
