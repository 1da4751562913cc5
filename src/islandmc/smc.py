"""Sequential Monte Carlo on a tempered path from prior to posterior.

A single run carries ``n_particles`` prior draws through a ladder of
tempering exponents ``0 < lambda_1 < ... < lambda_J = 1`` chosen on the
fly so each stage's effective sample size hits a fixed fraction of the
population.  Every stage reweights by the incremental likelihood power,
folds the stage normalizer into an overflow-safe evidence accumulator,
resamples, and applies a fixed number of kernel sweeps targeting the
new exponent.  The returned evidence estimate is unbiased when the
schedule and the kernel settings are fixed in advance; tuning either
from the live population perturbs the mean at order 1/N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import HmcConfig, KernelStats, PcnConfig, Population
from .seeds import check_seed
from .targets import EvalCounter, NumericalDomainError


class DegenerateWeightsError(ValueError):
    """All weights are zero: the population cannot be normalized."""


class ScheduleOverflowError(RuntimeError):
    """Tempering failed to reach exponent 1 within the stage budget."""

    def __init__(self, schedule):
        super().__init__(
            f"tempering did not reach 1.0 within {len(schedule)} stages "
            f"(last exponent {schedule[-1] if schedule else 0.0})"
        )
        self.schedule = list(schedule)


@dataclass(frozen=True)
class SmcConfig:
    """Sequential Monte Carlo settings.

    Parameters
    ----------
    n_particles : int
        Population size, at least 2.
    mutation_steps : int
        Kernel sweeps applied to every particle per tempering stage.
    kernel : PcnConfig or HmcConfig
        Mutation kernel settings.
    ess_fraction : float
        Fraction of the population the stage effective sample size is
        pinned to when choosing the next exponent.
    max_stages : int
        Stage budget; exceeding it raises :class:`ScheduleOverflowError`.
    resampling : str
        ``"multinomial"`` or ``"systematic"``.
    schedule : sequence of float, optional
        Fixed tempering exponents replacing the adaptive choice.  Must
        be strictly increasing, start above 0, and end at exactly 1.
        Fixing the schedule keeps the evidence estimate unbiased as
        long as the kernel settings are fixed too (``adapt_steps=False``
        and, for pCN, ``use_scaling=False``); estimating either from
        the current population couples the kernel to the particles it
        mutates and shifts the mean evidence at order 1/N.
    adapt_steps : bool
        Adapt the kernel step size between stages toward the kernel's
        target acceptance rate.
    """

    n_particles: int
    mutation_steps: int
    kernel: PcnConfig | HmcConfig = field(default_factory=PcnConfig)
    ess_fraction: float = 0.5
    max_stages: int = 1000
    resampling: str = "multinomial"
    schedule: tuple | None = None
    adapt_steps: bool = True

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if self.mutation_steps < 0:
            raise ValueError("mutation_steps must be non-negative")
        if not 0.0 < self.ess_fraction < 1.0:
            raise ValueError("ess_fraction must lie in (0, 1)")
        if self.max_stages < 1:
            raise ValueError("max_stages must be positive")
        if self.resampling not in ("multinomial", "systematic"):
            raise ValueError(f"unknown resampling scheme {self.resampling!r}")
        if self.schedule is not None:
            sched = tuple(float(v) for v in self.schedule)
            if len(sched) == 0 or sched[-1] != 1.0 or sched[0] <= 0.0:
                raise ValueError("schedule must start above 0 and end at exactly 1")
            if any(b <= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be strictly increasing")
            object.__setattr__(self, "schedule", sched)


@dataclass(frozen=True)
class LogZAccumulator:
    """Log evidence split into an exact offset and a residual.

    Each stage contributes its maximum log-weight to ``offset_sum`` and
    the log of the mean rescaled weight to ``residual_log``, so the
    total ``offset_sum + residual_log`` never over- or underflows even
    when raw stage weights would.
    """

    offset_sum: float = 0.0
    residual_log: float = 0.0

    @property
    def total(self) -> float:
        return self.offset_sum + self.residual_log


def _max_shift(log_weights):
    """Return ``m = max(lw)`` and the weights ``exp(lw - m)``, largest exactly 1."""
    lw = np.asarray(log_weights, dtype=float)
    m = float(np.max(lw))
    if m == -np.inf:
        raise DegenerateWeightsError("all weights are zero")
    return m, np.exp(lw - m)


def update_logz(acc, stage_log_weights):
    """Fold one stage's unnormalized log-weights into the accumulator.

    The stage factor is ``log mean(exp(w))``, stored as the max
    log-weight plus the log mean of the max-shifted weights.
    """
    m, w = _max_shift(stage_log_weights)
    residual = float(np.log(np.mean(w)))
    return LogZAccumulator(acc.offset_sum + m, acc.residual_log + residual)


def ess(log_weights):
    """Effective sample size 1 / sum(w^2) of normalized weights.

    Computed as ``sum(w)^2 / sum(w^2)`` on max-shifted weights, which
    is invariant to the shift and cannot overflow.
    """
    _, w = _max_shift(log_weights)
    s = w.sum()
    return float(s * s / np.dot(w, w))


def next_temperature(loglik, lambda_prev, cfg):
    """Choose the next tempering exponent by pinning the stage ESS.

    Finds the increment ``h`` with ``ESS(h * loglik) = ess_fraction * N``
    by bisection (absolute tolerance 1e-10 in ``h``, at most 200
    iterations).  Returns exactly 1.0 when the full remaining increment
    already satisfies the ESS constraint.
    """
    loglik = np.asarray(loglik, dtype=float)
    n = loglik.shape[0]
    target_ess = cfg.ess_fraction * n
    hi = 1.0 - lambda_prev
    if hi <= 0.0:
        raise ValueError("lambda_prev must be below 1")
    if ess(hi * loglik) >= target_ess:
        return 1.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ess(mid * loglik) >= target_ess:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    return lambda_prev + 0.5 * (lo + hi)


def resample(log_weights, cfg, rng):
    """Draw ancestor indices proportional to the stage weights.

    Multinomial resampling draws independently; systematic resampling
    places one stratified point per offspring slot, giving each index
    exactly one copy under uniform weights when N divides evenly.
    """
    _, w = _max_shift(log_weights)
    w /= w.sum()
    n = w.shape[0]
    if cfg.resampling == "multinomial":
        return rng.choice(n, size=n, replace=True, p=w)
    cum = np.cumsum(w)
    cum[-1] = 1.0
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(cum, positions, side="right")


@dataclass
class IslandResult:
    """Output of one SMC (or MCMC) island.

    Attributes
    ----------
    samples : ndarray (n, d)
        Equally weighted posterior samples.
    logz : LogZAccumulator
        Log evidence estimate (identically zero for MCMC islands).
    schedule : list of float
        Realized tempering exponents, strictly increasing, ending at 1.
    epochs : EvalCounter
        Likelihood and gradient evaluations spent by this island.
    kernel_stats : KernelStats
    stage_ess : list of float
        Realized effective sample size at each stage.
    """

    samples: np.ndarray
    logz: LogZAccumulator
    schedule: list
    epochs: EvalCounter
    kernel_stats: KernelStats
    stage_ess: list = field(default_factory=list)

    def __post_init__(self):
        sched = self.schedule
        if sched:
            if sched[-1] != 1.0:
                raise ValueError("schedule must end at exactly 1")
            if sched[0] <= 0.0 or any(b <= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be strictly increasing from above 0")


def run_smc(cfg, target, seed):
    """Run one SMC island to the posterior and return its result.

    All randomness derives from the non-negative integer ``seed``:
    initialization and resampling use the stream keyed ``(seed, 0, 0)``
    and the mutation sweeps of stage ``j`` give particle ``i`` the
    stream keyed ``(seed, j, i + 1)``, so reruns are bit-identical.

    Raises
    ------
    ScheduleOverflowError
        If the exponent has not reached 1 after ``max_stages`` stages.
    NumericalDomainError
        If any particle's log-likelihood is NaN at the start of a stage.
    """
    seed = check_seed(seed)
    counter = EvalCounter()
    stats = KernelStats()
    base_rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    pop = Population.initialize(
        target, base_rng, cfg.n_particles, counter,
        needs_grad=kernels.needs_gradient(cfg.kernel),
    )
    lam = 0.0
    acc = LogZAccumulator()
    schedule: list = []
    stage_ess: list = []
    step_size = cfg.kernel.beta if isinstance(cfg.kernel, PcnConfig) else cfg.kernel.step_size
    for stage in range(1, cfg.max_stages + 1):
        bad = np.isnan(pop.loglik)
        if bad.any():
            raise NumericalDomainError(
                f"stage {stage}: log-likelihood is NaN for {int(bad.sum())} "
                f"of {cfg.n_particles} particles (lambda={lam})",
                theta=pop.theta[bad], lam=lam,
            )
        if cfg.schedule is not None:
            lam_new = cfg.schedule[len(schedule)]
        else:
            lam_new = next_temperature(pop.loglik, lam, cfg)
        stage_lw = (lam_new - lam) * pop.loglik
        acc = update_logz(acc, stage_lw)
        stage_ess.append(ess(stage_lw))
        pop.take(resample(stage_lw, cfg, base_rng))
        scaling = None
        if isinstance(cfg.kernel, PcnConfig) and cfg.kernel.use_scaling:
            scaling = kernels.estimate_scaling(pop.theta, cfg.kernel.scaling_floor)
        accepted = kernels.mutate(
            pop, lam_new, cfg.mutation_steps, cfg.kernel, target,
            seed, stage, counter, stats, scaling, step_size,
        )
        if cfg.adapt_steps and cfg.mutation_steps > 0:
            rate = accepted / (cfg.n_particles * cfg.mutation_steps)
            step_size = kernels.adapt_step_size(
                step_size, rate, cfg.kernel.target_accept, stage - 1
            )
            if isinstance(cfg.kernel, PcnConfig):
                step_size = min(step_size, 1.0)
        lam = lam_new
        schedule.append(lam)
        if lam == 1.0:
            return IslandResult(pop.theta, acc, schedule, counter, stats, stage_ess)
    raise ScheduleOverflowError(schedule)
