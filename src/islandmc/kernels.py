"""Markov transition kernels invariant on tempered posteriors.

Two kernels are provided: a preconditioned Crank-Nicolson proposal that
uses the Gaussian prior as reference measure, and Hamiltonian Monte
Carlo with a leapfrog integrator.  Both leave
``prior * likelihood^lambda`` invariant for any tempering exponent
``lambda`` in [0, 1].

All kernel math lives in population-level functions that act on every
particle at once.  Every sampler steps through :func:`population_step`:
SMC islands, AIS and parallel chains sweep their whole population
through :func:`mutate`, a serial chain steps a population of one row.
States carry cached log-likelihood (and, for HMC, gradient) values so
that one pCN step costs exactly one fresh likelihood evaluation and one
HMC step costs exactly ``leapfrog_steps`` gradient evaluations plus one
likelihood evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PcnConfig:
    """Preconditioned Crank-Nicolson settings, each field checked for type and range at construction.

    Parameters
    ----------
    beta : int or float, not bool; stored as a float
        Step size in (0, 1].  ``beta = 1`` with unit scaling proposes
        fresh prior draws; ``beta -> 0`` degenerates to the identity.
    use_scaling : bool or numpy bool
        Whether samplers should re-estimate the diagonal proposal
        scaling from the particle population each tempering stage.
        Standalone chains always use unit scaling.
    scaling_floor : int or float, not bool; stored as a float
        Lower bound applied to estimated coordinate variances, positive
        and finite.
    target_accept : int or float, not bool; stored as a float
        Acceptance rate targeted by step-size adaptation.
    """

    beta: float = 0.5
    use_scaling: bool = True
    scaling_floor: float = 1e-8
    target_accept: float = 0.234

    def __post_init__(self):
        store_numbers(self, "beta", "scaling_floor", "target_accept")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not 0.0 < self.scaling_floor < np.inf:
            raise ValueError("scaling_floor must be positive and finite")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        check_bool(self.use_scaling, "use_scaling")


@dataclass(frozen=True)
class HmcConfig:
    """Hamiltonian Monte Carlo settings, each field checked for type and range at construction.

    Parameters
    ----------
    step_size : int or float, not bool; stored as a float
        Leapfrog step size, positive and finite.
    leapfrog_steps : int, not bool
        Number of leapfrog steps per proposal, positive.
    mass : int or float, or a sequence of them; not bool
        Diagonal of the mass matrix, a finite positive scalar or
        per-coordinate vector, stored as a float or a tuple of floats.
    target_accept : int or float, not bool; stored as a float
        Acceptance rate targeted by step-size adaptation.
    """

    step_size: float = 0.1
    leapfrog_steps: int = 10
    mass: float | tuple = 1.0
    target_accept: float = 0.65

    def __post_init__(self):
        store_numbers(self, "step_size", "target_accept")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        check_int(self.leapfrog_steps, "leapfrog_steps", 1, "at least 1")
        entries = list(self.mass) if np.iterable(self.mass) else [self.mass]
        if not entries or not all(map(_is_number, entries)):
            raise ValueError(f"mass must be a number or a vector of at least one number, got {self.mass!r}")
        mass = np.asarray(self.mass, dtype=float)
        if not np.all(np.isfinite(mass) & (mass > 0.0)):
            raise ValueError("mass entries must be finite and positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        object.__setattr__(self, "mass", float(mass) if mass.ndim == 0 else tuple(mass.tolist()))


def check_int(value, name, least, wording=None):
    """``value`` as an int; raises ``ValueError`` naming ``name`` unless it is a Python or numpy
    integer, not a bool, and at least ``least`` (the message says ``name`` must be ``wording``,
    by default non-negative, positive or at least ``least``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        wording = wording or {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {wording}")
    return int(value)


def _is_number(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_number(value, name):
    """``value`` as a float; raises ``ValueError`` naming ``name`` unless it is an int, a float or
    a numpy integer or float, not a bool."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def store_numbers(config, *names):
    """Store each field ``names`` of the frozen dataclass ``config`` as a float (see :func:`check_number`)."""
    for name in names:
        object.__setattr__(config, name, check_number(getattr(config, name), name))


def check_bool(value, name):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_kernel(kernel):
    """Raise ``ValueError`` unless ``kernel`` is a :class:`PcnConfig` or :class:`HmcConfig`."""
    if not isinstance(kernel, (PcnConfig, HmcConfig)):
        raise ValueError(f"kernel must be a PcnConfig or HmcConfig, got {kernel!r}")


@dataclass
class KernelStats:
    """Accept/reject tallies accumulated across kernel steps."""

    proposals: int = 0
    accepts: int = 0

    @property
    def last_rate(self) -> float:
        if self.proposals == 0:
            return 0.0
        return self.accepts / self.proposals

    def record(self, proposals: int, accepts: int) -> None:
        self.proposals += int(proposals)
        self.accepts += int(accepts)


@dataclass
class Population:
    """Particle states with cached likelihood values.

    ``logprior`` and ``grad_ll`` are populated only when the HMC kernel
    is in use; pCN needs neither.
    """

    theta: np.ndarray
    loglik: np.ndarray
    logprior: np.ndarray | None = None
    grad_ll: np.ndarray | None = None

    @classmethod
    def at(cls, target, theta, counter=None, needs_grad=False):
        """The population at the ``(n, d)`` states ``theta``, with every cache the kernel needs."""
        loglik = np.atleast_1d(target.log_likelihood(theta, counter))
        logprior = grad_ll = None
        if needs_grad:
            logprior = np.atleast_1d(target.log_prior(theta))
            grad_ll = target.grad_log_likelihood(theta, counter)
        return cls(theta, loglik, logprior, grad_ll)

    @classmethod
    def initialize(cls, target, rng, n, counter=None, needs_grad=False):
        """Draw n prior particles and fill every cache the kernel needs."""
        return cls.at(target, target.prior_sample(rng, n), counter, needs_grad)

    @classmethod
    def stack(cls, blocks):
        """One population holding the rows of ``blocks`` in order."""
        def cat(name):
            arrays = [getattr(b, name) for b in blocks]
            return None if arrays[0] is None else np.concatenate(arrays)

        return cls(cat("theta"), cat("loglik"), cat("logprior"), cat("grad_ll"))

    def take(self, idx) -> None:
        """Reindex every array in place (resampling)."""
        self.theta = self.theta[idx]
        self.loglik = self.loglik[idx]
        if self.logprior is not None:
            self.logprior = self.logprior[idx]
        if self.grad_ll is not None:
            self.grad_ll = self.grad_ll[idx]


def needs_gradient(cfg) -> bool:
    return isinstance(cfg, HmcConfig)


@lru_cache(maxsize=64)
def _mass_vector(mass, d):
    """The read-only ``(d,)`` diagonal of ``HmcConfig.mass``, or None for a unit mass.

    Dividing by 1.0 and multiplying by ``sqrt(1.0)`` are exact, so a
    unit mass leaves them out and keeps every bit.
    """
    vec = np.full(d, mass) if isinstance(mass, float) else np.array(mass)
    if vec.shape != (d,):
        raise ValueError(f"mass has shape {vec.shape}, expected ({d},)")
    if (vec == 1.0).all():
        return None
    vec.flags.writeable = False
    return vec


def _kinetic(momentum, mass):
    """``0.5 * sum(p * p / mass)`` of each row; ``mass`` None is a unit mass."""
    p2 = momentum * momentum
    return 0.5 * np.sum(p2 if mass is None else p2 / mass, axis=-1)


def leapfrog(theta, momentum, lam, cfg, target, counter=None, grad_ll=None, step_size=None):
    """Integrate Hamiltonian dynamics for ``cfg.leapfrog_steps`` steps.

    Uses the kick-drift-kick scheme: a half momentum update, a full
    position update, and another half momentum update per step, with
    the gradient shared between adjacent steps.  Costs exactly
    ``leapfrog_steps`` gradient evaluations when the starting
    log-likelihood gradient ``grad_ll`` is supplied, one more otherwise.
    ``lam`` and ``step_size`` (default ``cfg.step_size``) are scalars,
    per-row ``(n, 1)`` columns or full arrays of ``theta``'s shape, used
    as given.

    The integration runs in place in copies of ``theta`` and
    ``momentum``: the arrays passed in, ``grad_ll`` included, are never
    modified.

    Returns
    -------
    (theta, momentum, grad_ll)
        End state plus the likelihood gradient at the end position, for
        reuse as the next call's starting gradient.
    """
    theta = np.array(theta, dtype=float)
    momentum = np.array(momentum, dtype=float)
    mass = _mass_vector(cfg.mass, theta.shape[-1])
    dt = cfg.step_size if step_size is None else step_size
    half_dt = 0.5 * dt
    steps = cfg.leapfrog_steps
    if grad_ll is None:
        grad_ll = target.grad_log_likelihood(theta, counter)
    # grad = lam * grad_ll + grad_log_prior, then momentum += h * grad, in buf
    buf = np.multiply(lam, grad_ll)
    buf += target.grad_log_prior(theta)
    buf *= half_dt
    momentum += buf
    for step in range(steps):
        if mass is None:
            np.multiply(momentum, dt, out=buf)
        else:
            np.divide(momentum, mass, out=buf)
            buf *= dt
        theta += buf
        grad_ll = target.grad_log_likelihood(theta, counter)
        np.multiply(lam, grad_ll, out=buf)
        buf += target.grad_log_prior(theta)
        buf *= dt if step < steps - 1 else half_dt
        momentum += buf
    return theta, momentum, grad_ll


def _rows(x):
    """A per-row ``(n, 1)`` or ``(n, d)`` array as the ``(n,)`` vector of its rows' values; scalars pass through."""
    return x[:, 0] if np.ndim(x) == 2 else x


def _py_squares(values):
    """Python's ``b**2`` of each float in ``values``, as an array of their shape.

    Python squares a float with libm's pow, numpy by one multiplication;
    the two differ in the last bit for about one value in a thousand.
    Per-row step sizes are squared the way a scalar step size is.
    """
    values = np.asarray(values, dtype=float)
    return np.array([b**2 for b in values.ravel().tolist()]).reshape(values.shape)


def _pcn_population_step(pop, lam, beta, beta_sq, scaling, target, delta, log_u, counter):
    """One pCN sweep over the population with pre-drawn noise; returns the accept mask.

    Each row whitens ``theta`` against the prior, proposes the
    autoregression ``sqrt(1 - beta^2 D) u + beta sqrt(D) delta`` and
    accepts with probability ``min(1, (L(theta') / L(theta))^lambda)``:
    the prior is invariant under the proposal, so only the likelihood
    ratio enters.  At ``lambda > 0`` a NaN proposal is rejected (``log_u
    <= NaN`` is False) and a +inf one accepted.  ``scaling`` None is the
    unit D, left out of the products: ``beta^2 * 1.0`` and ``beta *
    sqrt(1.0)`` are exact, so every bit is kept.
    """
    keep = 1.0 - (beta_sq if scaling is None else beta_sq * scaling)
    if np.any(keep < -1e-12):
        raise ValueError("scaling entries must satisfy beta^2 * D <= 1")
    keep = np.maximum(keep, 0.0)
    u = target.whiten(pop.theta)
    u_new = np.sqrt(keep) * u + (beta if scaling is None else beta * np.sqrt(scaling)) * delta
    theta_new = target.unwhiten(u_new)
    ll_new = np.atleast_1d(target.log_likelihood(theta_new, counter))
    lam = _rows(lam)
    with np.errstate(invalid="ignore"):
        log_ratio = lam * (ll_new - pop.loglik)
    # at lam == 0 the prior-invariant proposal is always accepted
    accept = (log_u <= log_ratio) | (lam == 0.0)
    np.copyto(pop.theta, theta_new, where=accept[:, None])
    np.copyto(pop.loglik, ll_new, where=accept)
    return accept


def _hmc_population_step(pop, lam, cfg, dt, target, z, log_u, counter):
    """One HMC sweep over the population with pre-drawn noise; returns the accept mask.

    ``z`` holds standard-normal draws; momenta are ``sqrt(mass) * z``,
    ``z`` itself for a unit mass.  A proposal is accepted with probability
    ``min(1, exp(H - H'))`` for the Hamiltonian ``H`` of the tempered
    target.  Non-finite trajectories reject rather than raise.
    """
    n, d = pop.theta.shape
    mass = _mass_vector(cfg.mass, d)
    momentum = z if mass is None else np.sqrt(mass) * z
    lam_rows = _rows(lam)
    h0 = -(lam_rows * pop.loglik + pop.logprior) + _kinetic(momentum, mass)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        theta_new, momentum_new, grad_new = leapfrog(
            pop.theta, momentum, lam, cfg, target, counter, grad_ll=pop.grad_ll, step_size=dt
        )
        ll_new = np.atleast_1d(target.log_likelihood(theta_new, counter))
        lp_new = np.atleast_1d(target.log_prior(theta_new))
        log_ratio = h0 - (-(lam_rows * ll_new + lp_new) + _kinetic(momentum_new, mass))
    accept = log_u <= log_ratio
    rows = np.repeat(accept, d).reshape(n, d)  # faster than a broadcast (n, 1) mask
    np.copyto(pop.theta, theta_new, where=rows)
    np.copyto(pop.loglik, ll_new, where=accept)
    np.copyto(pop.logprior, lp_new, where=accept)
    np.copyto(pop.grad_ll, grad_new, where=rows)
    return accept


def population_step(pop, lam, cfg, target, normals, log_u, counter=None, stats=None, scaling=None, step_size=None,
                    step_size_sq=None):
    """Dispatch one kernel sweep and return the number of accepted proposals.

    ``lam`` and ``step_size`` (pCN ``beta`` or HMC ``step_size``; the
    config value when omitted) are scalars or per-row ``(n, 1)`` columns;
    HMC also takes full ``(n, d)`` arrays.  The pCN ``scaling`` is ``(d,)`` or per-row
    ``(n, d)``, unit when omitted.  ``step_size_sq`` is pCN's ``beta**2``,
    each value squared as a Python float; it is squared here when omitted.
    ``stats`` is one :class:`KernelStats` or a sequence of them, one per
    equal block of rows.
    """
    if isinstance(cfg, PcnConfig):
        beta = cfg.beta if step_size is None else step_size
        if step_size_sq is None:
            step_size_sq = beta**2 if np.ndim(beta) == 0 else _py_squares(beta)
        accept = _pcn_population_step(pop, lam, beta, step_size_sq, scaling, target, normals, log_u, counter)
    else:
        dt = cfg.step_size if step_size is None else step_size
        accept = _hmc_population_step(pop, lam, cfg, dt, target, normals, log_u, counter)
    if isinstance(stats, KernelStats):
        stats.record(accept.size, accept.sum())
    elif stats is not None:
        counts = accept.reshape(len(stats), -1).sum(axis=1).tolist()
        for block_stats, count in zip(stats, counts):
            block_stats.record(accept.size // len(stats), count)
        return sum(counts)
    return int(accept.sum())


def _per_row(values, n_blocks, block_rows, width):
    """One value, or one per block, as a scalar or a per-row ``(n, width)`` array; None passes through.

    One block's one value stays a scalar: it gives the same products as
    an array, faster.  HMC asks for ``width`` d, the width of the arrays
    it multiplies: numpy multiplies by a full array faster than by a
    broadcast ``(n, 1)`` column (2.6 against 4.7 us at (256, 16) on an
    x86_64 VM), with the same products.
    """
    if np.ndim(values) == 0:
        return values
    values = np.asarray(values, dtype=float)
    if values.shape != (n_blocks,):
        raise ValueError(f"expected one value per block ({n_blocks}), got shape {values.shape}")
    if n_blocks == 1:
        return float(values[0])
    return np.repeat(values, block_rows * width).reshape(-1, width)


def mutate(pop, lam, n_steps, cfg, target, rngs, counter=None, stats=None, scaling=None, step_size=None):
    """Apply ``n_steps`` kernel sweeps to the whole population.

    All noise comes from ``rngs``, a sequence of B generators, one per
    equal block of rows (independent populations advanced in one
    sweep).  Block ``b`` draws from ``rngs[b]`` first an
    ``(rows, n_steps, d)`` standard-normal block, row ``i``'s draws in
    ``[i]``, then ``(rows, n_steps)`` uniforms, exactly as its own
    one-generator call would.  A row's noise therefore depends only on
    its generator, its place in the block and (rows, n_steps, d), not on
    the order in which rows are processed.  The stage loop passes each
    island's stage stream ``seeds.stream(seed, stage, 1)``; parallel
    chains pass each chain's own stream ``seeds.stream(seed)``.
    ``lam`` and ``step_size`` are one value or one per block,
    ``scaling`` is ``(d,)`` or ``(B, d)``, and ``stats`` one
    :class:`KernelStats` or one per block.

    Each per-block ``lam`` and step size is spread once for all the
    sweeps, in one step, to the shape its kernel multiplies by: a full
    ``(n, d)`` array for HMC, an ``(n, 1)`` column for pCN.  pCN's B
    step sizes are squared once, as Python floats, and spread the same way.

    Returns the number of accepted proposals (out of ``n * n_steps``).
    """
    n, d = pop.theta.shape
    n_blocks = len(rngs)
    if n_blocks == 0 or n % n_blocks:
        raise ValueError(f"{n} rows do not split into {n_blocks} equal blocks")
    if not (stats is None or isinstance(stats, KernelStats) or len(stats) == n_blocks):
        raise ValueError(f"expected one KernelStats per block ({n_blocks}), got {len(stats)}")
    block_rows = n // n_blocks
    width = d if needs_gradient(cfg) else 1
    step_size_sq = None
    if not needs_gradient(cfg) and np.ndim(step_size) == 1:
        step_size_sq = _per_row(_py_squares(step_size), n_blocks, block_rows, width)
    lam, step_size = (_per_row(v, n_blocks, block_rows, width) for v in (lam, step_size))
    if np.ndim(scaling) == 2:
        if len(scaling) != n_blocks:
            raise ValueError(f"expected one scaling row per block ({n_blocks}), got shape {np.shape(scaling)}")
        scaling = np.repeat(scaling, block_rows, axis=0)
    normals = np.empty((n, n_steps, d))
    log_u = np.empty((n, n_steps))
    for b, rng in enumerate(rngs):
        rows = slice(b * block_rows, (b + 1) * block_rows)
        rng.standard_normal(out=normals[rows])
        rng.random(out=log_u[rows])
    np.log(log_u, out=log_u)
    log_u = log_u.T
    accepted = 0
    for s, step_normals in enumerate(normals.transpose(1, 0, 2)):
        accepted += population_step(
            pop, lam, cfg, target, step_normals, log_u[s], counter, stats, scaling, step_size, step_size_sq
        )
    return accepted


def adapt_step_size(current, observed_rate, target_rate, iteration):
    """Robbins-Monro update of a kernel step size on the log scale.

    ``log s`` moves by ``gamma_t (observed - target)`` with gain
    ``gamma_t = 1 / (1 + t)^0.6``, clamped to [1e-10, 1e3].  Rates above
    target grow the step size, rates below shrink it.
    """
    gamma = 1.0 / (1.0 + iteration) ** 0.6
    new = float(current * np.exp(gamma * (observed_rate - target_rate)))
    return min(max(new, 1e-10), 1e3)


def estimate_scaling(population, floor=1e-8):
    """Diagonal pCN proposal scaling from a particle population.

    Coordinate-wise sample variances (ddof 1), floored below by
    ``floor`` and normalized so the largest entry is exactly 1.  A
    ``(P, n, d)`` stack of P populations gives the ``(P, d)`` scalings
    of its populations, each equal to that of its own ``(n, d)`` block.
    """
    population = np.asarray(population, dtype=float)
    if population.ndim not in (2, 3) or population.shape[-2] < 2:
        raise ValueError("need at least two particles to estimate scaling")
    var = population.var(axis=-2, ddof=1)
    var = np.maximum(var, floor)
    return var / var.max(axis=-1, keepdims=True)
