"""Markov chain Monte Carlo at the full posterior (exponent 1).

Two execution modes share one config.  Serial mode runs a single chain
with burn-in and thinning: the first retained sample is the state right
after burn-in and later samples follow every ``thin`` steps, so with
``burn_in = 0`` and ``thin = 1`` the output is exactly the raw chain
including the prior draw.  Parallel mode runs one short chain per seed
and keeps only final states, trading bias (controlled by burn-in
length) for wall-clock time.

Cost accounting (fresh evaluations, caches warm after the one-time
initialization): a serial chain takes ``B + (n - 1) * thin`` kernel
steps, so its likelihood tally is ``steps + 1`` and, for HMC, its
gradient tally is ``steps * leapfrog_steps + 1``.  A parallel chain is
the ``n = 1`` case, and ``thin`` must be 1: ``B + 1`` likelihood
evaluations, and no gradient at all when ``B = 0``.  Both runners return
the tally the target charged, not these formulas.

Both kernels reject every NaN proposal and every proposal from a NaN or
+inf state, so a chain that meets a NaN or +inf log-likelihood still
holds it after its last step: that state and the start are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import HmcConfig, PcnConfig, Population
from .seeds import check_seed, stream
from .targets import EvalCounter, check_finite_loglik


@dataclass(frozen=True)
class McmcConfig:
    """MCMC settings, each field checked for type and range at construction.

    Parameters
    ----------
    n_samples : int, not bool
        Retained samples (serial mode); parallel mode takes the chain
        count from the seed list instead.
    burn_in : int, not bool
        Kernel steps discarded before retaining anything.
    thin : int, not bool
        Steps between retained samples in serial mode; parallel mode
        retains one state per chain and takes only 1.
    kernel : PcnConfig or HmcConfig
        Transition kernel; standalone chains always use unit pCN
        scaling.
    mode : str
        ``"serial"`` or ``"parallel"``.
    """

    n_samples: int
    burn_in: int = 0
    thin: int = 1
    kernel: PcnConfig | HmcConfig = field(default_factory=PcnConfig)
    mode: str = "serial"

    def __post_init__(self):
        kernels.check_int(self.n_samples, "n_samples", 1)
        kernels.check_int(self.burn_in, "burn_in", 0)
        kernels.check_int(self.thin, "thin", 1)
        if self.mode not in ("serial", "parallel"):
            raise ValueError(f"mode must be one of serial, parallel, got {self.mode!r}")
        kernels.check_kernel(self.kernel)
        if self.mode == "parallel" and self.thin != 1:
            raise ValueError("thin must be 1 in parallel mode, which keeps only each chain's final state")


def run_chain_serial(cfg, target, seed, stats=None):
    """Run a single chain and return ``(samples, epochs)``.

    The chain starts from a prior draw, burns in ``cfg.burn_in`` steps,
    retains the current state, then retains every ``cfg.thin``-th state
    until ``cfg.n_samples`` are collected.  All randomness comes from
    ``seeds.stream(seed)``, numpy's default generator seeded with
    ``seed``: the prior draw, then per step ``d`` standard normals and
    one uniform, which move a one-row population through
    :func:`kernels.population_step`.  A NaN or +inf
    log-likelihood at the start or after the last step raises
    :class:`targets.NumericalDomainError`.
    """
    rng = stream(check_seed(seed))
    counter = EvalCounter()
    pop = Population.initialize(target, rng, 1, counter, needs_grad=kernels.needs_gradient(cfg.kernel))
    check_finite_loglik(pop.loglik, pop.theta, 1.0, "at the start", "chains")
    samples = np.empty((cfg.n_samples, target.dim))
    for i in range(cfg.n_samples):
        for _ in range(cfg.thin if i else cfg.burn_in):
            # the step's d normals, then its uniform
            z, log_u = rng.standard_normal((1, target.dim)), np.log(rng.random(1))
            kernels.population_step(pop, 1.0, cfg.kernel, target, z, log_u, counter, stats)
        samples[i] = pop.theta[0]
    check_finite_loglik(pop.loglik, pop.theta, 1.0, "after the last step", "chains")
    return samples, counter


def run_chains_parallel(cfg, target, seeds, stats=None):
    """Run one chain per seed for ``cfg.burn_in`` steps, keep final states.

    Chains never communicate: chain ``c`` derives every draw from its
    own stream ``seeds.stream(seeds[c])``, consuming first the prior
    draw, then its standard-normal block for all steps, then its
    uniforms, as the chains sweep through one :func:`kernels.mutate`
    call, each a one-row block with its own generator.  Outputs are
    exchangeable under permutation of the seeds.  A NaN or +inf
    log-likelihood at the start or after the last step raises
    :class:`targets.NumericalDomainError`.

    Returns
    -------
    (samples, epochs)
        Final states ``(len(seeds), d)`` and the EvalCounter of every
        evaluation the chains made, together.
    """
    seeds = [check_seed(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if not seeds:
        raise ValueError("need at least one seed")
    rngs = [stream(s) for s in seeds]
    counter = EvalCounter()
    theta0 = np.array([target.prior_sample(rng) for rng in rngs])
    # the gradient is needed only for the steps
    needs_grad = cfg.burn_in > 0 and kernels.needs_gradient(cfg.kernel)
    pop = Population.at(target, theta0, counter, needs_grad)
    check_finite_loglik(pop.loglik, pop.theta, 1.0, "at the start", "chains")
    kernels.mutate(pop, 1.0, cfg.burn_in, cfg.kernel, target, rngs, counter, stats)
    check_finite_loglik(pop.loglik, pop.theta, 1.0, "after the last step", "chains")
    return pop.theta, counter
