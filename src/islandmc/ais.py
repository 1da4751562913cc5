"""Annealed importance sampling along a fixed tempering schedule.

Each sample is annealed independently: starting from a prior draw, every
schedule transition multiplies the sample's running importance weight by
the incremental likelihood power at the current position and then
applies kernel sweeps targeting the new exponent.  There is no
interaction between samples, so the method is sequential Monte Carlo
with resampling disabled and per-sample weight tracking, and it runs on
the SMC stage loop, :func:`smc.run_smc_islands`.  The mean of the final
weights is an unbiased evidence estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smc
from .kernels import HmcConfig, PcnConfig
from .targets import logsumexp


@dataclass(frozen=True)
class AisConfig:
    """Annealed importance sampling settings.

    Parameters
    ----------
    n_samples : int
        Number of independently annealed samples.
    schedule : sequence of float
        Tempering exponents starting at exactly 0, strictly increasing,
        ending at exactly 1.  See :func:`make_neal_schedule`.
    kernel : PcnConfig or HmcConfig
        Mutation kernel applied after each reweighting.
    mutation_steps : int
        Kernel sweeps per transition; 0 gives plain importance sampling
        when combined with the two-point schedule (0, 1).
    """

    n_samples: int
    schedule: tuple
    kernel: PcnConfig | HmcConfig = field(default_factory=PcnConfig)
    mutation_steps: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.mutation_steps < 0:
            raise ValueError("mutation_steps must be non-negative")
        sched = tuple(float(v) for v in self.schedule)
        if len(sched) < 2 or sched[0] != 0.0 or sched[-1] != 1.0:
            raise ValueError("schedule must start at exactly 0 and end at exactly 1")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly increasing")
        object.__setattr__(self, "schedule", sched)


def make_neal_schedule():
    """The fixed 40-point annealing ladder used for AIS baselines.

    Four points linearly spaced from 0 to 0.001, then seven more in
    geometric progression up to 0.01, then twenty-nine more in geometric
    progression up to 1, for 40 points total starting at exactly 0 and
    ending at exactly 1.
    """
    linear = np.linspace(0.0, 0.001, 4)
    geo_a = np.geomspace(0.001, 0.01, 8)[1:]
    geo_b = np.geomspace(0.01, 1.0, 30)[1:]
    schedule = np.concatenate([linear, geo_a, geo_b])
    schedule[-1] = 1.0
    return tuple(float(v) for v in schedule)


def run_ais(cfg, target, seed):
    """Anneal ``cfg.n_samples`` independent samples to the posterior.

    Randomness follows the same stream protocol as SMC: prior draws use
    the stream keyed ``(seed, 0, 0)`` and the mutation sweeps of
    transition ``j`` (1-based) draw all their noise from the stream
    keyed ``(seed, j, 1)``.

    Returns
    -------
    (samples, log_weights, epochs)
        Final positions ``(n, d)``, unnormalized log importance weights
        ``(n,)``, and the evaluation tally.

    Raises
    ------
    NumericalDomainError
        If any sample's log-likelihood is NaN or +inf at the start of a
        transition.
    DegenerateWeightsError
        If every sample's log-likelihood is -inf.
    """
    result = smc.run_smc_islands(cfg, target, [seed])[0]
    return result.samples, result.log_weights, result.epochs


def log_evidence_estimate(log_weights):
    """Log of the mean importance weight, the AIS evidence estimate."""
    lw = np.asarray(log_weights, dtype=float)
    return float(logsumexp(lw) - np.log(lw.shape[0]))


def ais_estimate(samples, log_weights, phi=None):
    """Self-normalized importance-weighted posterior expectation.

    ``phi`` maps a batch ``(n, d)`` to ``(n,)`` or ``(n, k)``; the
    default is the identity.  Adding any constant to the log weights
    leaves the result unchanged.
    """
    samples = np.asarray(samples, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    if lw.shape[0] != samples.shape[0]:
        raise ValueError("samples and log_weights disagree on length")
    norm = logsumexp(lw)
    if norm == -np.inf:
        raise ValueError("all importance weights are zero")
    w = np.exp(lw - norm)
    values = samples if phi is None else np.asarray(phi(samples))
    return np.tensordot(w, values, axes=1)
