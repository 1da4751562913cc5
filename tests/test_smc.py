import math

import numpy as np
import pytest
from scipy.special import logsumexp

from islandmc import smc
from islandmc.kernels import HmcConfig, KernelStats, PcnConfig
from islandmc.smc import (
    DegenerateWeightsError,
    IslandResult,
    LogZAccumulator,
    ScheduleOverflowError,
    SmcConfig,
    ess,
    next_temperature,
    resample,
    run_smc,
    update_logz,
)
from islandmc.targets import EvalCounter, NumericalDomainError, make_gaussian_target

# log-weight vectors for checking the max-shift numerics against scipy:
# huge offsets either way, zero weights, a lone finite weight
ORACLE_LOG_WEIGHTS = [
    np.array([-1.0, 0.5, 2.0, -3.0]) + 700.0,
    np.array([-1.0, 0.5, 2.0, -3.0]) - 700.0,
    np.array([710.0, 0.0, -710.0, 705.0]),
    np.array([-np.inf, 1.5, -np.inf, 0.25, -2.0]),
    np.array([-np.inf, -np.inf, 3.0, -np.inf]),
    np.random.default_rng(4).standard_normal(64) * 40.0,
]


def mini_cfg(**kw):
    base = dict(n_particles=2, mutation_steps=0)
    base.update(kw)
    return SmcConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SmcConfig(n_particles=1, mutation_steps=1)
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=-1)
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=1, ess_fraction=1.0)
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=1, resampling="stratified")
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=1, schedule=(0.5, 0.9))
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=1, schedule=(0.0, 1.0))
    with pytest.raises(ValueError):
        SmcConfig(n_particles=4, mutation_steps=1, schedule=(0.5, 0.5, 1.0))


def test_ess_uniform_weights():
    assert ess(np.zeros(8)) == pytest.approx(8.0, abs=1e-9)


def test_ess_point_mass():
    lw = np.full(5, -np.inf)
    lw[2] = 0.0
    assert ess(lw) == pytest.approx(1.0, abs=1e-12)


def test_ess_hand_value():
    # weights (0.8, 0.2): 1 / (0.64 + 0.04)
    assert ess(np.log([0.8, 0.2])) == pytest.approx(1.0 / 0.68, rel=1e-10)


def test_ess_shift_invariant():
    lw = np.array([-1.0, 0.5, 2.0])
    assert ess(lw) == pytest.approx(ess(lw - 700.0), rel=1e-9)


def test_ess_degenerate():
    with pytest.raises(DegenerateWeightsError):
        ess(np.full(3, -np.inf))


@pytest.mark.parametrize("lw", ORACLE_LOG_WEIGHTS)
def test_ess_matches_logsumexp_oracle(lw):
    oracle = math.exp(-logsumexp(2.0 * (lw - logsumexp(lw))))
    assert ess(lw) == pytest.approx(oracle, rel=1e-12)


def test_next_temperature_equal_logliks_jumps_to_one():
    cfg = mini_cfg(n_particles=4)
    assert next_temperature(np.full(4, -3.7), 0.0, cfg) == 1.0


def test_next_temperature_matches_bisection_oracle():
    # N=2, loglik (0, ln 4): solve (1 + 4^h)^2 / (1 + 16^h) = 1.6
    loglik = np.array([0.0, math.log(4.0)])
    cfg = mini_cfg(ess_fraction=0.8)

    def oracle_ess(h):
        return (1.0 + 4.0**h) ** 2 / (1.0 + 16.0**h)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_ess(mid) >= 1.6:
            lo = mid
        else:
            hi = mid
    h_star = 0.5 * (lo + hi)
    lam = next_temperature(loglik, 0.0, cfg)
    assert lam == pytest.approx(h_star, abs=1e-9)
    assert ess(lam * loglik) == pytest.approx(1.6, abs=1e-8)


def test_next_temperature_respects_previous_exponent():
    # r=100: (1 + r^h)^2 / (1 + r^2h) = 1.6 solves to r^h = 3
    loglik = np.array([0.0, math.log(100.0)])
    cfg = mini_cfg(ess_fraction=0.8)
    h_exact = math.log(3.0) / math.log(100.0)
    h1 = next_temperature(loglik, 0.0, cfg)
    h2 = next_temperature(loglik, h1, cfg)
    assert h1 == pytest.approx(h_exact, abs=1e-9)
    assert h2 == pytest.approx(2 * h_exact, abs=1e-8)
    assert ess((h2 - h1) * loglik) == pytest.approx(1.6, abs=1e-8)


def test_next_temperature_terminal_clamp():
    loglik = np.array([0.0, 0.001])
    cfg = mini_cfg()
    assert next_temperature(loglik, 0.999, cfg) == 1.0


def test_resample_systematic_uniform_is_permutation_free():
    cfg = mini_cfg(n_particles=8, resampling="systematic")
    idx = resample(np.zeros(8), cfg, np.random.default_rng(0))
    assert np.array_equal(np.sort(idx), np.arange(8))


def test_resample_systematic_stratification_counts():
    # every index receives floor(N w) or ceil(N w) copies
    w = np.array([0.4, 0.3, 0.2, 0.1])
    cfg = mini_cfg(n_particles=4, resampling="systematic")
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = resample(np.log(w), cfg, rng)
        counts = np.bincount(idx, minlength=4)
        assert np.all(counts >= np.floor(4 * w))
        assert np.all(counts <= np.ceil(4 * w))


def test_resample_point_mass():
    lw = np.full(6, -np.inf)
    lw[3] = 0.0
    for scheme in ("multinomial", "systematic"):
        cfg = mini_cfg(n_particles=6, resampling=scheme)
        idx = resample(lw, cfg, np.random.default_rng(1))
        assert np.all(idx == 3)


def test_resample_multinomial_unbiased():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    cfg = mini_cfg(n_particles=4)
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    trials = 20000
    for _ in range(trials):
        counts += np.bincount(resample(np.log(w), cfg, rng), minlength=4)
    freq = counts / (4 * trials)
    se = np.sqrt(w * (1 - w) / (4 * trials))
    assert np.all(np.abs(freq - w) < 5 * se)


@pytest.mark.parametrize("lw", ORACLE_LOG_WEIGHTS)
def test_resample_weights_match_logsumexp_oracle(lw):
    oracle = np.exp(lw - logsumexp(lw))
    _, w = smc._max_shift(lw)
    w /= w.sum()
    assert np.allclose(w, oracle, rtol=1e-12, atol=0.0)
    n = lw.shape[0]
    for scheme in ("multinomial", "systematic"):
        cfg = mini_cfg(n_particles=n, resampling=scheme)
        for seed in range(5):
            idx = resample(lw, cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            if scheme == "multinomial":
                expect = rng.choice(n, size=n, replace=True, p=oracle)
            else:
                cum = np.cumsum(oracle)
                cum[-1] = 1.0
                expect = np.searchsorted(cum, (rng.random() + np.arange(n)) / n, side="right")
            assert np.array_equal(idx, expect)


def test_resample_degenerate():
    cfg = mini_cfg(n_particles=3)
    with pytest.raises(DegenerateWeightsError):
        resample(np.full(3, -np.inf), cfg, np.random.default_rng(0))


def test_update_logz_identity_stage():
    acc = LogZAccumulator(2.5, -0.25)
    out = update_logz(acc, np.zeros(16))
    assert out.total == pytest.approx(acc.total, abs=1e-12)


def test_update_logz_hand_value():
    out = update_logz(LogZAccumulator(), np.array([0.0, math.log(3.0)]))
    assert out.total == pytest.approx(math.log(2.0), abs=1e-12)


def test_update_logz_deep_underflow():
    out = update_logz(LogZAccumulator(), np.array([-800.0, -800.0]))
    assert out.offset_sum == -800.0
    assert out.residual_log == 0.0
    assert out.total == -800.0


def test_update_logz_accumulates_across_stages():
    acc = update_logz(LogZAccumulator(), np.array([0.0, math.log(3.0)]))
    acc = update_logz(acc, np.array([-700.0, -700.0]))
    assert acc.total == pytest.approx(math.log(2.0) - 700.0, abs=1e-9)


def test_update_logz_degenerate():
    with pytest.raises(DegenerateWeightsError):
        update_logz(LogZAccumulator(), np.full(4, -np.inf))


def test_run_smc_deterministic():
    target = make_gaussian_target(3, 6, 1.0, seed=2)
    cfg = SmcConfig(n_particles=32, mutation_steps=2)
    a = run_smc(cfg, target, seed=11)
    b = run_smc(cfg, target, seed=11)
    assert np.array_equal(a.samples, b.samples)
    assert a.schedule == b.schedule
    assert a.logz == b.logz
    c = run_smc(cfg, target, seed=12)
    assert not np.array_equal(a.samples, c.samples)


def test_run_smc_flat_likelihood_single_stage():
    target = make_gaussian_target(2, 0, 1.0, seed=0)
    cfg = SmcConfig(n_particles=4096, mutation_steps=1)
    result = run_smc(cfg, target, seed=5)
    assert result.schedule == [1.0]
    assert result.logz.total == 0.0
    # samples remain prior distributed
    assert np.abs(result.samples.mean(axis=0)).max() < 4.0 / math.sqrt(4096)
    assert np.abs(result.samples.var(axis=0) - 1.0).max() < 0.1


def test_run_smc_schedule_contract():
    target = make_gaussian_target(4, 16, 0.5, seed=7)
    cfg = SmcConfig(n_particles=128, mutation_steps=2)
    result = run_smc(cfg, target, seed=3)
    sched = result.schedule
    assert sched[-1] == 1.0
    assert sched[0] > 0.0
    assert all(b > a for a, b in zip(sched, sched[1:]))
    # every non-terminal stage pins ESS at ess_fraction * N
    for stage_ess in result.stage_ess[:-1]:
        assert abs(stage_ess - 0.5 * 128) < 1e-6 * 128
    assert result.stage_ess[-1] >= 0.5 * 128 - 1e-6 * 128


def test_run_smc_pcn_eval_accounting():
    target = make_gaussian_target(3, 8, 1.0, seed=1)
    cfg = SmcConfig(n_particles=64, mutation_steps=3)
    result = run_smc(cfg, target, seed=9)
    j = len(result.schedule)
    assert result.epochs.likelihood == 64 * (1 + j * 3)
    assert result.epochs.gradient == 0


def test_run_smc_hmc_eval_accounting():
    target = make_gaussian_target(3, 8, 1.0, seed=1)
    kernel = HmcConfig(step_size=0.2, leapfrog_steps=5)
    cfg = SmcConfig(n_particles=32, mutation_steps=2, kernel=kernel)
    result = run_smc(cfg, target, seed=4)
    j = len(result.schedule)
    assert result.epochs.likelihood == 32 * (1 + j * 2)
    assert result.epochs.gradient == 32 * (1 + j * 2 * 5)


def test_run_smc_fixed_schedule():
    target = make_gaussian_target(2, 4, 1.0, seed=3)
    cfg = SmcConfig(n_particles=32, mutation_steps=1, schedule=(0.25, 0.5, 1.0))
    result = run_smc(cfg, target, seed=2)
    assert result.schedule == [0.25, 0.5, 1.0]


def test_run_smc_stage_budget_overflow():
    target = make_gaussian_target(4, 64, 0.05, seed=8)
    cfg = SmcConfig(n_particles=64, mutation_steps=1, max_stages=2)
    with pytest.raises(ScheduleOverflowError) as err:
        run_smc(cfg, target, seed=1)
    sched = err.value.schedule
    assert len(sched) == 2
    assert 0.0 < sched[-1] < 1.0


class _NanLikelihood:
    """Gaussian target whose log-likelihood is NaN for chosen batch rows."""

    def __init__(self, base, rows):
        self.base = base
        self.rows = rows

    def __getattr__(self, name):
        return getattr(self.base, name)

    def log_likelihood(self, theta, counter=None):
        ll = np.array(self.base.log_likelihood(theta, counter), dtype=float)
        if ll.ndim == 1:
            ll[self.rows] = np.nan
        return ll


def test_run_smc_nan_likelihood_raises_domain_error():
    target = _NanLikelihood(make_gaussian_target(2, 4, 1.0, seed=0), [1, 5])
    for resampling in ("multinomial", "systematic"):
        cfg = SmcConfig(n_particles=8, mutation_steps=1, resampling=resampling)
        with pytest.raises(NumericalDomainError, match=r"stage 1: .* NaN for 2 of 8") as err:
            run_smc(cfg, target, seed=0)
        assert err.value.lam == 0.0
        assert err.value.theta.shape == (2, 2)


def test_run_smc_rejects_bad_seed():
    target = make_gaussian_target(2, 2, 1.0, seed=0)
    cfg = SmcConfig(n_particles=4, mutation_steps=1)
    with pytest.raises(ValueError):
        run_smc(cfg, target, seed=-3)


def test_island_result_schedule_validation():
    ok = IslandResult(np.zeros((2, 1)), LogZAccumulator(), [0.5, 1.0],
                      EvalCounter(), KernelStats())
    assert ok.schedule == [0.5, 1.0]
    with pytest.raises(ValueError):
        IslandResult(np.zeros((2, 1)), LogZAccumulator(), [0.5, 0.9],
                     EvalCounter(), KernelStats())
    with pytest.raises(ValueError):
        IslandResult(np.zeros((2, 1)), LogZAccumulator(), [0.7, 0.6, 1.0],
                     EvalCounter(), KernelStats())
