"""The benchmark's workloads: fixed inputs, one operation, its output check.

One operation is one ensemble, one posterior estimate as a user gets it:
P islands combined by evidence for the island workloads, one annealed
importance sampling run and its self-normalised estimate for the AIS
workload.  Targets and configs are fixed; the only input that varies is
the master seed each operation receives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from islandmc import ais, islands, kernels, smc, targets

# Loose acceptance band for islands_hmc_gaussian against the closed-form
# posterior.  Over 60 seed-code operations the largest coordinate error of
# the combined mean was 0.22 (median 0.10) and the log-evidence errors lay
# in [-1.5, 0.8] nats with spread 0.45; the band is several times wider,
# so that only a broken sampler fails it.
GAUSSIAN_MEAN_TOL = 0.6
GAUSSIAN_LOGZ_TOL = 4.0


def operation_seed(workload_seed, k):
    """Master seed of operation ``k``, derived from the workload seed."""
    ss = np.random.SeedSequence((int(workload_seed), int(k)))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass
class Outcome:
    """Exact counts of one operation and the problems its check found."""

    lik_epochs: int
    grad_epochs: int
    stages: int
    critical_path: float  # max island epochs (0 without islands)
    mean_path: float  # mean island epochs (0 without islands)
    problems: list


def _expected_grad(n, kernel, sweeps):
    if isinstance(kernel, kernels.HmcConfig):
        return n * (1 + kernel.leapfrog_steps * sweeps)
    return 0


class IslandsCase:
    """``run_islands`` on P in-process serial islands, then the combination."""

    def __init__(self, target, cfg, n_islands, truth=None):
        self.target = target
        self.cfg = cfg
        self.n_islands = n_islands
        self.truth = truth

    def run(self, master_seed):
        ens = islands.run_islands(self.n_islands, self.cfg, self.target, master_seed)
        mean = islands.combine_weighted(ens)
        logz = islands.log_mean_evidence(ens.logz_totals())
        return ens, mean, logz

    def outcome(self, raw):
        ens, mean, logz = raw
        n, m = self.cfg.n_particles, self.cfg.mutation_steps
        problems = []
        epochs = []
        for p, r in enumerate(ens.results):
            sched = list(r.schedule)
            j = len(sched)
            if not sched or sched[-1] != 1.0 or any(b <= a for a, b in zip(sched, sched[1:])):
                problems.append(f"island {p}: schedule not strictly increasing to 1.0")
            if r.epochs.likelihood != n * (1 + m * j):
                problems.append(f"island {p}: {r.epochs.likelihood} likelihood epochs, expected {n * (1 + m * j)}")
            if r.epochs.gradient != _expected_grad(n, self.cfg.kernel, m * j):
                problems.append(f"island {p}: {r.epochs.gradient} gradient epochs")
            epochs.append(r.epochs.epochs)
        if not np.all(np.isfinite(mean)) or not np.isfinite(logz):
            problems.append("non-finite estimate or log evidence")
        elif self.truth is not None:
            mu, _, logz_true = self.truth
            if np.max(np.abs(mean - mu)) > GAUSSIAN_MEAN_TOL:
                problems.append(f"mean error {np.max(np.abs(mean - mu)):.3g} > {GAUSSIAN_MEAN_TOL}")
            if abs(logz - logz_true) > GAUSSIAN_LOGZ_TOL:
                problems.append(f"log-evidence error {abs(logz - logz_true):.3g} > {GAUSSIAN_LOGZ_TOL}")
        return Outcome(
            sum(r.epochs.likelihood for r in ens.results),
            sum(r.epochs.gradient for r in ens.results),
            sum(len(r.schedule) for r in ens.results),
            float(max(epochs)), float(np.mean(epochs)), problems,
        )


class AisCase:
    """One ``run_ais`` run, then its estimate and evidence."""

    def __init__(self, target, cfg):
        self.target = target
        self.cfg = cfg

    def run(self, master_seed):
        samples, log_w, counter = ais.run_ais(self.cfg, self.target, master_seed)
        return counter, ais.ais_estimate(samples, log_w), ais.log_evidence_estimate(log_w)

    def outcome(self, raw):
        counter, est, logz = raw
        n, m = self.cfg.n_samples, self.cfg.mutation_steps
        j = len(self.cfg.schedule) - 1
        problems = []
        if counter.likelihood != n * (1 + m * j):
            problems.append(f"{counter.likelihood} likelihood epochs, expected {n * (1 + m * j)}")
        if counter.gradient != _expected_grad(n, self.cfg.kernel, m * j):
            problems.append(f"{counter.gradient} gradient epochs")
        if not np.all(np.isfinite(est)) or not np.isfinite(logz):
            problems.append("non-finite estimate or log evidence")
        return Outcome(counter.likelihood, counter.gradient, 0, 0.0, 0.0, problems)


def _islands_hmc_gaussian():
    target = targets.make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16))
    cfg = smc.SmcConfig(n_particles=32, mutation_steps=16,
                        kernel=kernels.HmcConfig(step_size=0.1, leapfrog_steps=10))
    return IslandsCase(target, cfg, 8, truth=target.analytic_posterior())


def _logistic_target():
    return targets.make_logistic_target(15, 690, seed=0)


def _islands_pcn_logistic():
    cfg = smc.SmcConfig(n_particles=16, mutation_steps=2, kernel=kernels.PcnConfig(beta=0.5))
    return IslandsCase(_logistic_target(), cfg, 8)


def _ais_pcn_logistic():
    cfg = ais.AisConfig(256, ais.make_neal_schedule(), kernels.PcnConfig(beta=0.5), mutation_steps=2)
    return AisCase(_logistic_target(), cfg)


# workload name -> function that builds it; inputs and reasons are in README.md
WORKLOADS = {
    "islands_hmc_gaussian": _islands_hmc_gaussian,
    "islands_pcn_logistic": _islands_pcn_logistic,
    "ais_pcn_logistic": _ais_pcn_logistic,
}
