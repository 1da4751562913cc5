import math
import re

import numpy as np
import pytest

from islandmc.diagnostics import iact
from islandmc.kernels import HmcConfig, KernelStats, PcnConfig, Population, needs_gradient, population_step
from islandmc.mcmc import McmcConfig, run_chain_serial, run_chains_parallel
from islandmc.targets import EvalCounter, GaussianLinearModel, NumericalDomainError, make_gaussian_target


def prior_only(d):
    return GaussianLinearModel(np.zeros((0, d)), np.zeros(0), sigma=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(n_samples=0)
    with pytest.raises(ValueError):
        McmcConfig(n_samples=1, burn_in=-1)
    with pytest.raises(ValueError):
        McmcConfig(n_samples=1, thin=0)
    with pytest.raises(ValueError):
        McmcConfig(n_samples=1, mode="distributed")


def test_serial_full_refresh_replays_prior_stream():
    # beta=1 on a flat likelihood: every step is an independent prior draw
    target = prior_only(2)
    cfg = McmcConfig(n_samples=6, burn_in=0, thin=1, kernel=PcnConfig(beta=1.0))
    samples, counter = run_chain_serial(cfg, target, seed=42)
    ref = np.random.default_rng(42)
    expected = [ref.standard_normal(2)]
    for _ in range(5):
        delta = ref.standard_normal(2)
        ref.random()  # the uniform consumed by the accept test
        expected.append(delta)
    assert np.array_equal(samples, np.asarray(expected))
    assert counter.likelihood == 6  # burn_in + (n-1) * thin + 1


def test_serial_pcn_eval_accounting():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    cfg = McmcConfig(n_samples=10, burn_in=7, thin=3, kernel=PcnConfig(beta=0.5))
    _, counter = run_chain_serial(cfg, target, seed=0)
    steps = 7 + 9 * 3
    assert counter.likelihood == steps + 1
    assert counter.gradient == 0


def test_serial_hmc_eval_accounting():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    kernel = HmcConfig(step_size=0.2, leapfrog_steps=4)
    cfg = McmcConfig(n_samples=5, burn_in=3, thin=2, kernel=kernel)
    _, counter = run_chain_serial(cfg, target, seed=0)
    steps = 3 + 4 * 2
    assert counter.likelihood == steps + 1
    assert counter.gradient == steps * 4 + 1


def test_serial_deterministic():
    target = make_gaussian_target(3, 6, 1.0, seed=2)
    cfg = McmcConfig(n_samples=20, burn_in=5, kernel=PcnConfig(beta=0.4))
    a, _ = run_chain_serial(cfg, target, seed=9)
    b, _ = run_chain_serial(cfg, target, seed=9)
    assert np.array_equal(a, b)


def test_serial_hmc_recovers_conjugate_mean():
    # d=1 model with posterior N(1, 1/2)
    target = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), sigma=1.0)
    kernel = HmcConfig(step_size=0.5, leapfrog_steps=10)
    cfg = McmcConfig(n_samples=2000, burn_in=500, thin=10, kernel=kernel)
    samples, _ = run_chain_serial(cfg, target, seed=31)
    chain = samples[:, 0]
    tau = iact(chain)
    halfwidth = 4.0 * math.sqrt(0.5) * math.sqrt(tau) / math.sqrt(2000)
    assert abs(chain.mean() - 1.0) < halfwidth
    assert np.var(chain) == pytest.approx(0.5, rel=0.15)


def test_parallel_no_burn_in_returns_prior_draws():
    target = prior_only(3)
    cfg = McmcConfig(n_samples=4, burn_in=0, kernel=PcnConfig(beta=0.5), mode="parallel")
    seeds = [5, 17, 99, 3]
    samples, counter = run_chains_parallel(cfg, target, seeds)
    for c, s in enumerate(seeds):
        assert np.array_equal(samples[c], np.random.default_rng(s).standard_normal(3))
    assert counter.likelihood == 4 * 1 and counter.gradient == 0


@pytest.mark.parametrize("kernel", [PcnConfig(beta=0.5), HmcConfig(step_size=0.2, leapfrog_steps=3)])
def test_parallel_burn_in_replays_each_chains_own_stream(kernel):
    # chain c draws from default_rng(seeds[c]) its prior draw, then (B, d)
    # normals, then B uniforms; the chains take one population_step per step
    target = make_gaussian_target(3, 6, 1.0, seed=4)
    seeds, b = [5, 17, 99, 3], 7
    cfg = McmcConfig(n_samples=1, burn_in=b, kernel=kernel, mode="parallel")
    stats, ref_stats = KernelStats(), KernelStats()
    samples, counter = run_chains_parallel(cfg, target, seeds, stats)
    rngs = [np.random.default_rng(s) for s in seeds]
    theta0 = np.array([target.prior_sample(rng) for rng in rngs])
    normals = np.stack([rng.standard_normal((b, 3)) for rng in rngs], axis=1)
    log_u = np.stack([np.log(rng.random(b)) for rng in rngs], axis=1)
    ref_counter = EvalCounter()
    pop = Population.at(target, theta0, ref_counter, needs_gradient(kernel))
    for step in range(b):
        population_step(pop, 1.0, kernel, target, normals[step], log_u[step], ref_counter, ref_stats)
    assert np.array_equal(samples, pop.theta)
    assert counter == ref_counter and stats == ref_stats
    assert 0 < stats.accepts < stats.proposals


def test_parallel_eval_accounting():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    cfg = McmcConfig(n_samples=3, burn_in=25, kernel=PcnConfig(beta=0.5), mode="parallel")
    _, counter = run_chains_parallel(cfg, target, [0, 1, 2])
    assert counter.likelihood == 3 * 26 and counter.gradient == 0
    kernel = HmcConfig(step_size=0.2, leapfrog_steps=3)
    cfg = McmcConfig(n_samples=3, burn_in=25, kernel=kernel, mode="parallel")
    _, counter = run_chains_parallel(cfg, target, [0, 1, 2])
    assert counter.likelihood == 3 * 26 and counter.gradient == 3 * (25 * 3 + 1)


def test_parallel_chains_exchangeable_under_seed_permutation():
    target = make_gaussian_target(2, 6, 1.0, seed=4)
    cfg = McmcConfig(n_samples=5, burn_in=30, kernel=PcnConfig(beta=0.5), mode="parallel")
    seeds = [11, 7, 23, 2, 40]
    a, _ = run_chains_parallel(cfg, target, seeds)
    perm = [3, 0, 4, 1, 2]
    b, _ = run_chains_parallel(cfg, target, [seeds[i] for i in perm])
    assert np.array_equal(b, a[perm])


def test_parallel_rejects_duplicate_seeds():
    target = prior_only(1)
    cfg = McmcConfig(n_samples=2, burn_in=1, mode="parallel")
    with pytest.raises(ValueError, match="distinct"):
        run_chains_parallel(cfg, target, [4, 4])


def test_parallel_rejects_negative_seed():
    target = prior_only(1)
    cfg = McmcConfig(n_samples=2, burn_in=1, mode="parallel")
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        run_chains_parallel(cfg, target, [1, -2])
    for seed in (2.7, "5", True):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            run_chains_parallel(cfg, target, [1, seed])


def test_parallel_hmc_reduces_initialization_bias():
    # longer burn-in pulls the chain-mean toward the posterior mean
    target = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), sigma=1.0)
    estimates = {}
    for b in (0, 40):
        cfg = McmcConfig(
            n_samples=1, burn_in=b,
            kernel=HmcConfig(step_size=0.4, leapfrog_steps=5), mode="parallel",
        )
        samples, _ = run_chains_parallel(cfg, target, list(range(400)))
        estimates[b] = samples.mean()
    assert abs(estimates[40] - 1.0) < abs(estimates[0] - 1.0)


def test_parallel_mode_rejects_thin():
    with pytest.raises(ValueError, match=r"^thin must be 1 in parallel mode"):
        McmcConfig(n_samples=8, burn_in=5, thin=7, mode="parallel")
    assert McmcConfig(n_samples=8, burn_in=5, thin=7).thin == 7


class _LoglikAbove:
    """Gaussian target whose log-likelihood is ``value`` wherever ``theta[0] > cut``."""

    def __init__(self, base, cut, value):
        self.base = base
        self.cut = cut
        self.value = value

    def __getattr__(self, name):
        return getattr(self.base, name)

    def log_likelihood(self, theta, counter=None):
        ll = np.atleast_1d(self.base.log_likelihood(theta, counter))
        return np.where(np.atleast_2d(theta)[:, 0] > self.cut, self.value, ll)


def _starts_above(target, seeds, cut):
    """Whether each seed's chain starts at ``theta[0] > cut`` (its first prior draw)."""
    return [target.prior_sample(np.random.default_rng(s))[0] > cut for s in seeds]


KERNELS = [PcnConfig(beta=0.5), HmcConfig(step_size=0.2, leapfrog_steps=5)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_chains_raise_on_nan_start(kernel):
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    target = _LoglikAbove(base, 0.5, np.nan)
    seeds = list(range(20))
    above = _starts_above(base, seeds, 0.5)
    # a NaN state rejects every proposal, so the serial chain would return its start 200 times
    serial = McmcConfig(n_samples=200, kernel=kernel)
    with pytest.raises(NumericalDomainError) as err:
        run_chain_serial(serial, target, seeds[above.index(True)])
    assert str(err.value) == "at the start: log-likelihood is NaN for 1 of 1 chains (lambda=1.0)"
    assert err.value.lam == 1.0 and err.value.stage is None
    assert err.value.theta.shape == (1, 2) and err.value.theta[0, 0] > 0.5
    # a chain that starts below the cut never takes a NaN proposal
    samples, _ = run_chain_serial(serial, target, seeds[above.index(False)])
    assert samples[:, 0].max() <= 0.5
    parallel = McmcConfig(n_samples=1, burn_in=30, kernel=kernel, mode="parallel")
    with pytest.raises(NumericalDomainError) as err:
        run_chains_parallel(parallel, target, seeds)
    assert str(err.value) == f"at the start: log-likelihood is NaN for {sum(above)} of 20 chains (lambda=1.0)"
    assert err.value.theta.shape == (sum(above), 2) and (err.value.theta[:, 0] > 0.5).all()


@pytest.mark.parametrize("kernel", KERNELS)
def test_chains_raise_on_pos_inf_reached_mid_chain(kernel):
    # a +inf proposal is always accepted and then never left
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    target = _LoglikAbove(base, 0.5, np.inf)
    seeds = [s for s, up in zip(range(60), _starts_above(base, range(60), 0.5)) if not up][:20]
    with pytest.raises(NumericalDomainError) as err:
        run_chain_serial(McmcConfig(n_samples=200, kernel=kernel), target, seeds[0])
    assert str(err.value) == "after the last step: log-likelihood is +inf for 1 of 1 chains (lambda=1.0)"
    assert err.value.lam == 1.0 and err.value.theta[0, 0] > 0.5
    cfg = McmcConfig(n_samples=1, burn_in=30, kernel=kernel, mode="parallel")
    with pytest.raises(NumericalDomainError, match=r"^after the last step: log-likelihood is \+inf for \d+ of 20 chains") as err:
        run_chains_parallel(cfg, target, seeds)
    hits = err.value.theta.shape[0]
    assert 0 < hits < 20 and f"for {hits} of 20" in str(err.value)
    assert (err.value.theta[:, 0] > 0.5).all()


@pytest.mark.parametrize("kernel", KERNELS)
def test_chains_may_start_at_zero_likelihood(kernel):
    # a -inf start accepts the first finite proposal and goes on
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    target = _LoglikAbove(base, 0.5, -np.inf)
    seeds = list(range(20))
    above = _starts_above(base, seeds, 0.5)
    samples, _ = run_chain_serial(McmcConfig(n_samples=200, kernel=kernel), target, seeds[above.index(True)])
    assert samples[0, 0] > 0.5 and samples[-1, 0] <= 0.5
    final, _ = run_chains_parallel(McmcConfig(n_samples=1, burn_in=200, kernel=kernel, mode="parallel"),
                                   target, seeds)
    assert sum(above) > 0 and (final[:, 0] <= 0.5).all()
