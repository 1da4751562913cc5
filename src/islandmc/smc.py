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

Independent runs (islands) share nothing but the target, so
:func:`run_smc_islands` advances several of them in lockstep: every
stage stacks the populations of the runs still below exponent 1 and
mutates them in one kernel sweep, while each run keeps its own ladder,
evidence, resampling and kernel tuning.  :func:`run_smc` is its
one-seed call.  The same loop runs annealed importance sampling
(:class:`ais.AisConfig`): a fixed ladder with per-particle weights and
no resampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import HmcConfig, KernelStats, PcnConfig, Population
from .seeds import check_seed
from .targets import EvalCounter, check_finite_loglik


RESAMPLING_SCHEMES = ("multinomial", "systematic")


class DegenerateWeightsError(ValueError):
    """All weights are zero: the population cannot be normalized.

    ``stage`` is the tempering stage of the weights, None outside the
    stage loop.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class ScheduleOverflowError(RuntimeError):
    """Tempering failed to reach exponent 1 within the stage budget."""

    def __init__(self, schedule):
        super().__init__(
            f"tempering did not reach 1.0 within {len(schedule)} stages "
            f"(last exponent {schedule[-1] if schedule else 0.0})"
        )
        self.schedule = list(schedule)

    def __reduce__(self):
        # a worker process pickles its error; rebuild it from the constructor's fields
        return type(self), (self.schedule,)


# next_temperature's absolute tolerance on the increment
_BISECTION_TOL = 1e-10


class StalledTemperingError(ScheduleOverflowError):
    """Adaptive tempering stalled: no increment the bisection tested kept the stage ESS on target.

    The bisection closed on ``[0, tol]`` without a passing midpoint: the
    population cannot keep the stage ESS on target even at the smallest
    increment the bisection resolves, so the run would spend its stage
    budget without progress.  ``schedule`` ends with the stalled
    exponent ``lam``; ``stage``, ``ess`` and ``target_ess`` give where
    it stalled and the stage ESS reached against its target.
    """

    def __init__(self, schedule, stage, lam, ess, target_ess):
        RuntimeError.__init__(
            self,
            f"stage {stage}: tempering stalled at lambda={lam}: no increment above the "
            f"{_BISECTION_TOL} bisection tolerance kept the stage ESS on target (stage ESS of "
            f"{ess} against a target of {target_ess})",
        )
        self.schedule = list(schedule)
        self.stage = stage
        self.lam = lam
        self.ess = ess
        self.target_ess = target_ess

    def __reduce__(self):
        return type(self), (self.schedule, self.stage, self.lam, self.ess, self.target_ess)


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
        be finite, strictly increasing, start above 0, and end at
        exactly 1.
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
        if self.resampling not in RESAMPLING_SCHEMES:
            raise ValueError(f"unknown resampling scheme {self.resampling!r}")
        if self.schedule is not None:
            sched = tuple(float(v) for v in self.schedule)
            if not np.isfinite(sched).all():
                raise ValueError("schedule entries must be finite")
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
    """Row maxima ``m`` of a ``(..., N)`` block and the weights ``exp(lw - m)``.

    Each row's largest weight is exactly 1.  A 1-D ``log_weights`` gives
    one maximum and one weight vector.
    """
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max(axis=-1)
    if np.any(m == -np.inf):
        raise DegenerateWeightsError("all weights are zero")
    return m, _shifted_exp(lw, m)


def _shifted_exp(log_weights, top):
    """``exp(log_weights - top)`` for a ``(..., N)`` block with row maxima ``top``."""
    w = log_weights - top[..., None]
    np.exp(w, out=w)
    return w


def _ess_of(w):
    """``sum(w)^2 / sum(w^2)`` of every row of a ``(..., N)`` block of weights.

    A row's value does not depend on the block around it: the row sum is
    the 1-D sum, and the stacked matmul makes the same BLAS dot as
    ``np.dot`` (``np.einsum`` sums in another order).
    """
    s = w.sum(axis=-1)
    return s * s / (w[..., None, :] @ w[..., :, None])[..., 0, 0]


def _block(a, name):
    """``a`` as floats; it must be a ``(k, N)`` block of k islands' rows."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a (k, N) block of k islands' rows, got shape {a.shape}")
    return a


def update_logz(accs, stage_log_weights, shifted=None):
    """Fold row ``b`` of a ``(k, N)`` block of stage log-weights into ``accs[b]``.

    The stage factor is ``log mean(exp(w))``, stored as the row's max
    log-weight plus the log mean of its max-shifted weights.  A caller
    that already holds ``shifted = _max_shift(stage_log_weights)``
    passes it to skip the shift and ``exp``.  Returns the k updated
    accumulators as a list.
    """
    lw = _block(stage_log_weights, "stage_log_weights")
    m, w = _max_shift(lw) if shifted is None else shifted
    residual = np.log(np.mean(w, axis=-1))
    return [LogZAccumulator(a.offset_sum + off, a.residual_log + res)
            for a, off, res in zip(accs, m.tolist(), residual.tolist())]


def ess(log_weights):
    """Effective sample size 1 / sum(w^2) of normalized weights.

    Computed as ``sum(w)^2 / sum(w^2)`` on max-shifted weights, which
    is invariant to the shift and cannot overflow.
    """
    return float(_ess_of(_max_shift(log_weights)[1]))


# bisection steps settled per block evaluation, and the iteration cap
_ROUND_STEPS = 4
_MAX_BISECTIONS = 200
_GRID = 1 << _ROUND_STEPS  # intervals of one round's grid
# (midpoint, left, right) grid indices, coarsest level first
_GRID_MIDPOINTS = [
    (left + half, left, left + 2 * half)
    for half in (_GRID >> k for k in range(1, _ROUND_STEPS + 1))
    for left in range(0, _GRID, 2 * half)
]


def _bisection_grid(lo, hi):
    """The points the next ``_ROUND_STEPS`` bisection steps of ``[lo, hi]`` can reach.

    Returns the ``_GRID + 1`` breakpoints in increasing order, each
    midpoint computed as ``0.5 * (left + right)`` of its neighbours one
    level up, exactly as the sequential search computes it.
    """
    grid = [lo] * (_GRID + 1)
    grid[-1] = hi
    for mid, left, right in _GRID_MIDPOINTS:
        grid[mid] = 0.5 * (grid[left] + grid[right])
    return grid


def next_temperature(loglik, lambda_prev, cfg):
    """Choose the next tempering exponent of each row of a ``(k, N)`` log-likelihood block.

    Row ``p``'s increment ``h`` with ``ESS(h * loglik[p]) = ess_fraction
    * N`` is found by bisection of ``[0, 1 - lambda_prev[p]]`` (absolute
    tolerance 1e-10 in ``h``, at most 200 iterations); its exponent is
    exactly 1.0 when the full remaining increment already satisfies the
    ESS constraint.  ``lambda_prev`` holds k exponents, or one for all.
    The rows are bisected together in rounds: one block pass evaluates
    the ESS at the 15 points the next 4 steps of each row can visit,
    then each row walks its path through them, so each row gets exactly
    its own bisection's exponent.

    Returns the k exponents as an array and, as a list, whether each
    row's bisection stalled, closing on ``[0, tol]`` with no tested
    increment passing.
    """
    block = _block(loglik, "loglik")
    lam_prev = np.broadcast_to(np.asarray(lambda_prev, dtype=float), block.shape[:1]).tolist()
    if not all(0.0 <= lam < 1.0 for lam in lam_prev):
        raise ValueError("lambda_prev must lie in [0, 1)")
    target_ess = cfg.ess_fraction * block.shape[1]
    top = block.max(axis=1)
    if (top == -np.inf).any():
        raise DegenerateWeightsError("all weights are zero")
    new = [1.0] * len(lam_prev)
    stalled = [False] * len(lam_prev)
    live = [(p, 0.0, 1.0 - lam) for p, lam in enumerate(lam_prev)]  # (row, lo, hi)
    for r in range(_MAX_BISECTIONS // _ROUND_STEPS):
        if not live:
            break
        grids = [_bisection_grid(lo, hi) for _, lo, hi in live]
        # the first round also tests the full increment, each grid's end
        points = np.array(grids)[:, 1:] if r == 0 else np.array(grids)[:, 1:-1]
        rows = [p for p, _, _ in live]
        ll, tp = (block, top) if len(rows) == len(block) else (block[rows], top[rows])
        # h > 0 scales monotonically, so max(h * loglik) is h * max(loglik)
        passes = (_ess_of(_shifted_exp(points[:, :, None] * ll[:, None, :], points * tp[:, None]))
                  >= target_ess).tolist()
        still = []
        for (p, _, _), grid, ok in zip(live, grids, passes):
            if r == 0 and ok[-1]:
                continue  # clamps to 1
            i, s = 0, _GRID
            while True:
                s >>= 1
                if ok[i + s - 1]:
                    i += s
                stop = grid[i + s] - grid[i] <= _BISECTION_TOL
                if stop or s == 1:
                    break
            if stop:
                new[p] = lam_prev[p] + 0.5 * (grid[i] + grid[i + s])
                stalled[p] = grid[i] == 0.0
            else:
                still.append((p, grid[i], grid[i + 1]))
        live = still
    for p, lo, hi in live:  # out of iterations
        new[p] = lam_prev[p] + 0.5 * (lo + hi)
    return np.array(new), stalled


def resample(log_weights, cfg, rngs, shifted=None):
    """Draw ancestor indices for each row of a ``(k, N)`` block of stage log-weights.

    Returns the ``(k, N)`` block of within-row indices.  The weights are
    normalized and summed up in one pass, and row ``b`` draws its
    uniforms from ``rngs[b]``.  ``shifted``, the weights ``exp(lw -
    max(lw))`` when the caller already holds them, skips the shift and
    ``exp``.  Multinomial resampling draws independently; systematic
    resampling places one stratified point per offspring slot, giving
    each index exactly one copy under uniform weights when N divides
    evenly.  Row ``b``'s multinomial indices are those of
    ``rngs[b].choice(N, N, p=w / w.sum())``, leaving ``rngs[b]`` in the
    same state: the cumulative weights are divided by their last entry,
    and ``N`` uniforms are located in them by
    ``searchsorted(side="right")``, the steps ``Generator.choice``
    takes.  Under either scheme a weight that is NaN after the shift (a
    NaN or ``+inf`` log-weight) raises ``ValueError``, as ``choice`` does.
    """
    lw = _block(log_weights, "log_weights")
    w = _max_shift(lw)[1] if shifted is None else shifted
    n = w.shape[1]
    cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    if np.isnan(cdf[:, -1]).any():
        raise ValueError("probabilities contain NaN")
    if cfg.resampling == "multinomial":
        cdf /= cdf[:, -1:]
        draws = [g.random(n) for g in rngs]
    else:
        cdf[:, -1] = 1.0
        draws = (np.array([g.random() for g in rngs])[:, None] + np.arange(n)) / n
    idx = np.empty(w.shape, dtype=np.intp)
    for b, (row, u) in enumerate(zip(cdf, draws)):
        idx[b] = row.searchsorted(u, side="right")
    return idx


@dataclass
class IslandResult:
    """Output of one SMC, AIS or MCMC island.

    Attributes
    ----------
    samples : ndarray (n, d)
        Posterior samples, equally weighted except for AIS islands.
    logz : LogZAccumulator
        Log evidence estimate (identically zero for MCMC islands; for
        AIS islands ``log mean exp(log_weights)``, split as the maximum
        plus a residual).
    schedule : list of float
        Realized tempering exponents, strictly increasing, ending at 1.
    epochs : EvalCounter
        Likelihood and gradient evaluations spent by this island.
    kernel_stats : KernelStats
    stage_ess : list of float
        Realized effective sample size at each stage (empty for AIS).
    log_weights : ndarray (n,) or None
        Unnormalized log importance weights of the AIS samples; None for
        SMC and MCMC islands.
    """

    samples: np.ndarray
    logz: LogZAccumulator
    schedule: list
    epochs: EvalCounter
    kernel_stats: KernelStats
    stage_ess: list = field(default_factory=list)
    log_weights: np.ndarray | None = None

    def __post_init__(self):
        sched = self.schedule
        if sched:
            if sched[-1] != 1.0:
                raise ValueError("schedule must end at exactly 1")
            if sched[0] <= 0.0 or any(b <= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be strictly increasing from above 0")


@dataclass
class _Island:
    """The per-island state of the stage loop; ``result`` is filled in place, its samples at the end."""

    seed: int
    rng: np.random.Generator
    step_size: float
    result: IslandResult
    lam: float = 0.0


def run_smc(cfg, target, seed):
    """Run one SMC island to the posterior and return its result.

    All randomness derives from the non-negative integer ``seed``:
    initialization and resampling use the stream keyed ``(seed, 0, 0)``
    and the mutation sweeps of stage ``j`` draw all their noise from the
    stream keyed ``(seed, j, 1)``, so reruns are bit-identical.

    Raises
    ------
    ScheduleOverflowError
        If the exponent has not reached 1 after ``max_stages`` stages.
    StalledTemperingError
        If an adaptive stage's bisection closes on ``[0, 1e-10]``: no
        tested increment kept the stage ESS on target.
    NumericalDomainError
        If any particle's log-likelihood is NaN or +inf at the start of a
        stage.
    """
    return run_smc_islands(cfg, target, [seed])[0]


def run_smc_islands(cfg, target, seeds):
    """Run one independent island per seed, all in lockstep.

    ``cfg`` is an :class:`SmcConfig`, or an :class:`ais.AisConfig` for
    annealed importance sampling.  An AIS island walks the fixed ladder
    ``cfg.schedule[1:]`` and adds each stage's ``(lambda_new - lambda)
    * loglik`` to per-particle log weights, in stage order.  It has no
    ESS bisection, evidence accumulation or resampling, uses unit pCN
    scaling and never adapts its step size.  Its result carries the
    final ``log_weights``, their log mean as ``logz`` and an empty
    ``stage_ess``.

    Island ``p`` has its own base stream, tempering ladder, evidence,
    resampling, pCN scaling, step size, kernel statistics and
    evaluation tally, as in the one-seed call with ``seeds[p]``
    (:func:`run_smc`, :func:`ais.run_ais`).  Only the block passes are
    shared: each stage bisects the next exponents of the islands still
    below exponent 1 in one :func:`next_temperature` call on their
    ``(P, N)`` log-likelihood block, computes their stage ESS, evidence
    updates, resampling and pCN scalings in one pass each, and mutates
    them as one stacked population in one :func:`kernels.mutate` call,
    with island ``p``'s rows drawing all of a stage's noise from the one
    stream keyed ``(seeds[p], stage, 1)``.  Island ``p`` resamples with uniforms from its own
    base stream.  An island leaves the stack once it reaches
    exponent 1.

    Island ``p`` equals its one-seed run bit for bit when the target's
    likelihood and gradient block heights (see
    ``targets._GaussianPriorTarget``) both divide the population size: its rows then fill whole blocks of the
    stack, and each block is evaluated as in the one-island run.
    Otherwise a block mixes rows of several islands, and a row can get
    a different last bit: BLAS need not give a row of a product the
    same value at every row count, and on the logistic target (block
    height 32) it does not.

    Returns the :class:`IslandResult` of each seed, in seed order.  When
    islands fail, the error of the first one to fail (by stage, then by
    seed order) is raised, as its one-seed run raises it.
    """
    seeds = [check_seed(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    ais = not isinstance(cfg, SmcConfig)
    n = cfg.n_samples if ais else cfg.n_particles
    ladder = cfg.schedule[1:] if ais else cfg.schedule  # None: adaptive
    pcn = isinstance(cfg.kernel, PcnConfig)
    step_size = cfg.kernel.beta if pcn else cfg.kernel.step_size
    islands = [
        _Island(seed, np.random.default_rng(np.random.SeedSequence((seed, 0, 0))), step_size,
                IslandResult(None, LogZAccumulator(), [], EvalCounter(), KernelStats(),
                             log_weights=np.zeros(n) if ais else None))
        for seed in seeds
    ]
    pop = Population.stack([
        Population.initialize(target, island.rng, n, island.result.epochs,
                              needs_grad=kernels.needs_gradient(cfg.kernel))
        for island in islands
    ])
    active = list(islands)

    def rows(b):
        """The rows of block ``b`` of ``pop``, which holds ``active[b]``."""
        return slice(b * n, (b + 1) * n)

    for stage in range(1, (len(ladder) if ais else cfg.max_stages) + 1):
        k = len(active)
        loglik = pop.loglik.reshape(k, n)
        # a row with a NaN or +inf, or with no finite log-likelihood, fails;
        # the islands before the first such row still reweight and resample
        # first, as their one-island runs would
        top = loglik.max(axis=1)
        failed = np.flatnonzero(~np.isfinite(top))
        first_bad = failed[0] if failed.size else k
        lams = [island.lam for island in active[:first_bad]]
        stalled = None
        if ladder is not None:
            lams_new = [ladder[len(island.result.schedule)] for island in active[:first_bad]]
        else:
            lams_new, stalled = next_temperature(loglik[:first_bad], lams, cfg)
            lams_new = lams_new.tolist()
        stage_lw = np.subtract(lams_new, lams)[:, None] * loglik[:first_bad]
        if ais:
            for island, lw in zip(active, stage_lw):
                island.result.log_weights += lw
        else:
            # one shift and exp of the stage weights feed the ESS, the
            # evidence and the resampling of every island, each in one
            # block pass
            head = active[:first_bad]
            top, w = _max_shift(stage_lw)
            stage_ess = _ess_of(w).tolist()
            if stalled is not None and any(stalled):
                b = stalled.index(True)
                raise StalledTemperingError(head[b].result.schedule + [lams_new[b]], stage, lams_new[b],
                                            stage_ess[b], cfg.ess_fraction * n)
            logz = update_logz([island.result.logz for island in head], stage_lw, (top, w))
            ancestors = resample(stage_lw, cfg, [island.rng for island in head], w)
            for island, acc, island_ess in zip(head, logz, stage_ess):
                island.result.logz = acc
                island.result.stage_ess.append(island_ess)
        if first_bad < k:
            check_finite_loglik(loglik[first_bad], pop.theta[rows(first_bad)], active[first_bad].lam,
                                f"stage {stage}", "particles", stage)
            raise DegenerateWeightsError("all weights are zero", stage)
        if not ais:
            ancestors += np.arange(0, k * n, n)[:, None]
            pop.take(ancestors.ravel())
        scaling = None
        if not ais and pcn and cfg.kernel.use_scaling:
            scaling = kernels.estimate_scaling(pop.theta.reshape(k, n, -1), cfg.kernel.scaling_floor)
        stage_stats = [KernelStats() for _ in active]
        stage_counter = EvalCounter()
        kernels.mutate(
            pop, lams_new, cfg.mutation_steps, cfg.kernel, target,
            [island.seed for island in active], stage, stage_counter, stage_stats,
            scaling, [island.step_size for island in active],
        )
        keep = []
        for b, (island, stats, lam_new) in enumerate(zip(active, stage_stats, lams_new)):
            result = island.result
            # every evaluation of the sweep covers all blocks alike
            result.epochs.add_likelihood(stage_counter.likelihood // len(active))
            result.epochs.add_gradient(stage_counter.gradient // len(active))
            result.kernel_stats.record(stats.proposals, stats.accepts)
            if not ais and cfg.adapt_steps and cfg.mutation_steps > 0:
                island.step_size = kernels.adapt_step_size(
                    island.step_size, stats.last_rate, cfg.kernel.target_accept, stage - 1
                )
                if pcn:
                    island.step_size = min(island.step_size, 1.0)
            island.lam = lam_new
            result.schedule.append(lam_new)
            if lam_new == 1.0:
                if ais:
                    result.logz = update_logz([result.logz], result.log_weights[None])[0]
                result.samples = pop.theta[rows(b)].copy()
                result.__post_init__()  # check the finished schedule
            else:
                keep.append(b)
        if not keep:
            return [island.result for island in islands]
        if len(keep) < len(active):
            pop.take(np.concatenate([np.arange(n * b, n * (b + 1)) for b in keep]))
            active = [active[b] for b in keep]
    raise ScheduleOverflowError(active[0].result.schedule)
