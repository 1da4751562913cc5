"""Island-parallel Monte Carlo samplers for Bayesian posteriors.

The package provides tempered sequential Monte Carlo, MCMC, and
annealed importance sampling over a shared set of target models and
transition kernels, plus a communication-free island layer that
combines independent runs through their evidence estimates.
"""

from . import ais, diagnostics, islands, kernels, mcmc, seeds, smc, targets
from .ais import AisConfig, ais_estimate, make_neal_schedule, run_ais
from .diagnostics import iact
from .islands import (
    IslandEnsemble,
    combine_unweighted,
    combine_weighted,
    island_weights,
    run_islands,
)
from .kernels import (
    HmcConfig,
    KernelStats,
    PcnConfig,
    adapt_step_size,
    estimate_scaling,
    leapfrog,
)
from .mcmc import McmcConfig, run_chain_serial, run_chains_parallel
from .smc import (
    IslandResult,
    LogZAccumulator,
    SmcConfig,
    ess,
    next_temperature,
    resample,
    run_smc,
    update_logz,
)
from .targets import (
    EvalCounter,
    GaussianLinearModel,
    GmmTarget,
    LogisticTarget,
    load_logistic_csv,
    make_bimodal_gmm,
    make_gaussian_target,
    make_logistic_target,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the experiment harness loads argparse and json, which a
    # sampler-only process never uses: import it on first access
    if name == "harness":
        import importlib

        return importlib.import_module(f"{__name__}.harness")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
