"""Communication-free parallel islands and their weighted combination.

Each island is a full, independently seeded sampler run (SMC, AIS or
MCMC).  Islands never exchange state; afterward their posterior averages
are combined with weights proportional to each island's evidence
estimate.
For MCMC islands every evidence estimate is identically 1, so the
combination degenerates to the plain average of island means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from . import mcmc as mcmc_mod
from . import smc as smc_mod
from .ais import AisConfig, ais_estimate
from .kernels import KernelStats, check_int
from .mcmc import McmcConfig
from .seeds import derive_seed
from .smc import DegenerateWeightsError, IslandResult, LogZAccumulator, SmcConfig


@dataclass
class IslandEnsemble:
    """Results of P independent island runs plus their derived seeds."""

    results: list
    seeds: list

    def logz_totals(self) -> np.ndarray:
        return np.array([r.logz.total for r in self.results])


def _run_mcmc_islands(cfg, target, seeds):
    """One MCMC island per seed, run one after another."""
    results = []
    for seed in seeds:
        stats = KernelStats()
        if cfg.mode == "serial":
            samples, counter = mcmc_mod.run_chain_serial(cfg, target, seed, stats=stats)
        else:
            chain_seeds = [derive_seed(seed, 1, c) for c in range(cfg.n_samples)]
            samples, counter = mcmc_mod.run_chains_parallel(cfg, target, chain_seeds, stats=stats)
        # MCMC targets the posterior directly; its evidence estimate is defined as 1
        results.append(IslandResult(samples, LogZAccumulator(), [1.0], counter, stats))
    return results


def _failure_rank(error):
    """Sort key of a worker's error: its stage, a failure at exponent 1 last in it, no stage last of all."""
    stage = getattr(error, "stage", None)
    return (stage is None, stage or 0, getattr(error, "lam", None) == 1.0)


def run_islands(n_islands, island_cfg, target, master_seed, parallelism=1):
    """Run ``n_islands`` independent islands and collect their results.

    ``island_cfg`` is an :class:`smc.SmcConfig`, an
    :class:`ais.AisConfig` or an :class:`mcmc.McmcConfig`; any other
    type raises ``TypeError``.  ``n_islands`` and ``parallelism`` must
    be positive Python or numpy integers and ``master_seed`` a
    non-negative one; any other value raises ``ValueError`` naming the
    argument.  Island ``p`` runs with the derived seed
    :func:`seeds.derive_seed` ``(master_seed, p)``.  SMC and AIS islands
    advance in lockstep through :func:`smc.run_smc_islands`, one stacked
    block pass per stage; MCMC islands run one after another.  With
    ``parallelism == 1`` everything runs in this process.  With
    ``parallelism > 1`` the islands run on ``min(parallelism,
    n_islands)`` worker processes, each of which runs the islands of a
    contiguous share of the seeds the way this process would.  Results
    come back in seed order.  MCMC islands are identical either way,
    and so are SMC and AIS islands when the target's likelihood and
    gradient block heights both divide the population size.
    Otherwise a worker's stack splits the rows into other blocks, and an
    island can differ in the last bits (see :func:`smc.run_smc_islands`).

    A failing run raises the error of the first island to fail, by stage
    (a failure as an island finishes after the others of its stage) and
    then by seed order; the worker path waits for every share and ranks
    their errors the same way, an error without a ``stage`` (such as
    :class:`smc.ScheduleOverflowError`) last.
    """
    n_islands = check_int(n_islands, "n_islands", 1)
    parallelism = check_int(parallelism, "parallelism", 1)
    master_seed = check_int(master_seed, "master_seed", 0)
    if isinstance(island_cfg, (SmcConfig, AisConfig)):
        run = smc_mod.run_smc_islands
    elif isinstance(island_cfg, McmcConfig):
        run = _run_mcmc_islands
    else:
        raise TypeError(
            f"island_cfg must be an SmcConfig, AisConfig or McmcConfig, not {type(island_cfg).__name__}"
        )
    seeds = [derive_seed(master_seed, p) for p in range(n_islands)]
    if parallelism == 1:
        results = run(island_cfg, target, seeds)
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallelism, n_islands)
        shares = [seeds[w * n_islands // workers:(w + 1) * n_islands // workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, island_cfg, target, share) for share in shares]
            errors = [e for e in (f.exception() for f in futures) if e is not None]
            if errors:
                raise min(errors, key=_failure_rank)
            results = [r for f in futures for r in f.result()]
    return IslandEnsemble(results, seeds)


def _checked_evidence(logz_totals):
    """The island log evidences as a float vector; an empty or 2-D input raises ``ValueError``,
    a NaN or +inf evidence :class:`DegenerateWeightsError`."""
    z = np.asarray(logz_totals, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logz_totals must be a non-empty vector")
    bad = np.flatnonzero(np.isnan(z) | (z == np.inf))
    if bad.size:
        raise DegenerateWeightsError(f"island log evidence is NaN or +inf at islands {bad.tolist()}")
    return z


def island_weights(logz_totals):
    """Normalized island weights proportional to exp(log evidence).

    The maximum finite log evidence is subtracted before exponentiating,
    so only ratios matter.  Islands with log evidence of -infinity get
    weight exactly 0; if every island is degenerate, or any has a NaN or
    +inf log evidence, :class:`DegenerateWeightsError` is raised.
    """
    z = _checked_evidence(logz_totals)
    w = smc_mod._max_shift(z)[1]
    return w / w.sum()


def log_mean_evidence(logz_totals):
    """Stable log of the average island evidence, log((1/P) sum Z_p).

    An empty or 2-D input raises ``ValueError``, a NaN or +inf island log
    evidence :class:`DegenerateWeightsError`.
    """
    z = _checked_evidence(logz_totals)
    if not np.isfinite(z).any():
        return -np.inf
    m, w = smc_mod._max_shift(z)
    return float(m + np.log(np.mean(w)))


def combine_weighted(ensemble, phi=None):
    """Evidence-weighted combination of island posterior averages.

    Computes ``sum_p omega_p * mean_i phi(theta_p[i])`` where the
    weights are :func:`island_weights` of the island log evidences.
    ``phi`` maps a batch of samples ``(n, d)`` to ``(n,)`` or
    ``(n, k)``; the default is the identity (posterior mean).  An AIS
    island's average is its self-normalized :func:`ais.ais_estimate`.
    """
    means = _island_means(ensemble, phi)
    w = island_weights(ensemble.logz_totals())
    return np.tensordot(w, means, axes=1)


def combine_unweighted(ensemble, phi=None):
    """Plain average of island posterior averages, ignoring evidence."""
    means = _island_means(ensemble, phi)
    return means.mean(axis=0)


def _island_means(ensemble, phi):
    """Each island's posterior average of ``phi``; AIS islands weight their samples."""
    means = []
    for r in ensemble.results:
        if r.log_weights is not None:
            means.append(ais_estimate(r.samples, r.log_weights, phi))
        else:
            values = r.samples if phi is None else np.asarray(phi(r.samples))
            means.append(np.mean(values, axis=0))
    return np.asarray(means)


def island_to_json(result, seed) -> dict:
    """Serialize one island result to the JSON export schema.

    The keys are ``seed`` and :class:`smc.IslandResult`'s field names; a
    nested record is an object of its fields, an array a nested list, and
    ``log_weights`` is null except for AIS islands.
    """
    payload = {"seed": int(seed), **asdict(result)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}


def island_from_json(payload):
    """Rebuild ``(IslandResult, seed)`` from the JSON export schema, each field by its annotation."""
    fields = {}
    for name, kind in get_type_hints(IslandResult).items():
        value = payload[name]
        if is_dataclass(kind):  # a nested record
            value = kind(**value)
        elif value is not None and np.ndarray in (kind, *get_args(kind)):  # an array
            value = np.asarray(value, dtype=float)
        fields[name] = value
    return IslandResult(**fields), int(payload["seed"])
