import math

import numpy as np
import pytest

from islandmc.ais import (
    AisConfig,
    ais_estimate,
    log_evidence_estimate,
    make_neal_schedule,
    run_ais,
)
from islandmc.kernels import HmcConfig, PcnConfig, Population, population_step
from islandmc.targets import GaussianLinearModel, make_gaussian_target


def test_neal_schedule_shape():
    sched = make_neal_schedule()
    assert len(sched) == 40
    assert sched[0] == 0.0
    assert sched[-1] == 1.0
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_neal_schedule_segments():
    sched = np.asarray(make_neal_schedule())
    assert np.array_equal(sched[:4], np.linspace(0.0, 0.001, 4))
    # geometric segments have constant consecutive ratios
    ratios_a = sched[4:11] / sched[3:10]
    assert np.all(np.abs(ratios_a / ratios_a[0] - 1.0) < 1e-12)
    ratios_b = sched[11:40] / sched[10:39]
    assert np.all(np.abs(ratios_b / ratios_b[0] - 1.0) < 1e-12)
    assert sched[10] == pytest.approx(0.01, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        AisConfig(n_samples=0, schedule=(0.0, 1.0))
    with pytest.raises(ValueError):
        AisConfig(n_samples=4, schedule=(0.1, 1.0))
    with pytest.raises(ValueError):
        AisConfig(n_samples=4, schedule=(0.0, 0.9))
    with pytest.raises(ValueError):
        AisConfig(n_samples=4, schedule=(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        AisConfig(n_samples=4, schedule=(0.0, 1.0), mutation_steps=-1)


def test_flat_likelihood_gives_zero_weights():
    target = GaussianLinearModel(np.zeros((0, 2)), np.zeros(0), sigma=1.0)
    cfg = AisConfig(n_samples=16, schedule=make_neal_schedule())
    samples, log_w, _ = run_ais(cfg, target, seed=3)
    assert np.all(log_w == 0.0)
    assert samples.shape == (16, 2)


def test_two_point_schedule_without_mutation_is_plain_importance_sampling():
    target = make_gaussian_target(2, 3, 1.0, seed=1)
    cfg = AisConfig(n_samples=32, schedule=(0.0, 1.0), mutation_steps=0)
    samples, log_w, counter = run_ais(cfg, target, seed=8)
    # positions are untouched prior draws and weights are their logliks
    rng = np.random.default_rng(np.random.SeedSequence((8, 0, 0)))
    prior = target.prior_sample(rng, 32)
    assert np.array_equal(samples, prior)
    assert np.array_equal(log_w, np.atleast_1d(target.log_likelihood(prior)))
    assert counter.likelihood == 32


def test_plain_importance_sampling_matches_bruteforce_oracle():
    target = make_gaussian_target(1, 4, 1.0, seed=2)
    mean, cov, logz = target.analytic_posterior()
    cfg = AisConfig(n_samples=20000, schedule=(0.0, 1.0), mutation_steps=0)
    samples, log_w, _ = run_ais(cfg, target, seed=4)
    estimate = ais_estimate(samples, log_w)
    # brute-force self-normalized IS with a much larger prior sample
    rng = np.random.default_rng(900)
    draws = target.prior_sample(rng, 10**6)
    w = np.exp(target.log_likelihood(draws) - logz)
    oracle = (w[:, None] * draws).sum(axis=0) / w.sum()
    assert oracle == pytest.approx(mean, abs=0.01)
    assert estimate == pytest.approx(oracle, abs=0.02)
    assert log_evidence_estimate(log_w) == pytest.approx(logz, abs=0.05)


def test_scalar_reference_replay():
    # independent reimplementation: per sample, one pCN step on a one-row population per transition
    target = make_gaussian_target(2, 4, 0.8, seed=5)
    sched = (0.0, 0.05, 0.3, 1.0)
    kernel = PcnConfig(beta=0.5)
    cfg = AisConfig(n_samples=5, schedule=sched, kernel=kernel, mutation_steps=1)
    seed = 21
    samples, log_w, _ = run_ais(cfg, target, seed=seed)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    theta = target.prior_sample(rng, 5)
    loglik = np.array([float(target.log_likelihood(t)) for t in theta])
    ref_w = np.zeros(5)
    lam = 0.0
    for stage, lam_new in enumerate(sched[1:], start=1):
        ref_w += (lam_new - lam) * loglik
        # one stream per stage: all normals, then all uniforms
        rng_j = np.random.default_rng(np.random.SeedSequence((seed, stage, 1)))
        normals, log_u = rng_j.standard_normal((5, 1, 2)), np.log(rng_j.random((5, 1)))
        for i in range(5):
            row = Population(theta[i:i + 1].copy(), loglik[i:i + 1].copy())
            population_step(row, lam_new, kernel, target, normals[i], log_u[i])
            theta[i], loglik[i] = row.theta[0], row.loglik[0]
        lam = lam_new
    assert samples == pytest.approx(theta, abs=1e-12)
    assert log_w == pytest.approx(ref_w, abs=1e-10)


def test_likelihood_shift_moves_evidence_not_estimate():
    class Shifted(GaussianLinearModel):
        def _log_likelihood(self, theta):
            return super()._log_likelihood(theta) + 2.5

    base = make_gaussian_target(2, 4, 1.0, seed=6)
    shifted = Shifted(base.X, base.y, base.sigma)
    cfg = AisConfig(n_samples=64, schedule=make_neal_schedule())
    s0, w0, _ = run_ais(cfg, base, seed=12)
    s1, w1, _ = run_ais(cfg, shifted, seed=12)
    # acceptance ratios see only loglik differences, so the chains coincide
    assert np.array_equal(s0, s1)
    assert w1 - w0 == pytest.approx(np.full(64, 2.5), abs=1e-9)
    assert log_evidence_estimate(w1) == pytest.approx(
        log_evidence_estimate(w0) + 2.5, abs=1e-9
    )
    assert ais_estimate(s1, w1) == pytest.approx(ais_estimate(s0, w0), abs=1e-12)


def test_evidence_unbiased_over_replicates():
    target = make_gaussian_target(2, 2, 1.0, seed=7)
    _, _, logz = target.analytic_posterior()
    cfg = AisConfig(n_samples=32, schedule=make_neal_schedule(),
                    kernel=PcnConfig(beta=0.7), mutation_steps=1)
    values = []
    for seed in range(200):
        _, log_w, _ = run_ais(cfg, target, seed=seed)
        values.append(np.exp(log_w))
    values = np.concatenate(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - math.exp(logz)) < 3 * se


def test_eval_accounting():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    sched = make_neal_schedule()
    cfg = AisConfig(n_samples=8, schedule=sched, mutation_steps=2)
    _, _, counter = run_ais(cfg, target, seed=0)
    assert counter.likelihood == 8 * (1 + 39 * 2)
    assert counter.gradient == 0
    kernel = HmcConfig(step_size=0.2, leapfrog_steps=3)
    cfg = AisConfig(n_samples=8, schedule=sched, kernel=kernel, mutation_steps=2)
    _, _, counter = run_ais(cfg, target, seed=0)
    assert counter.likelihood == 8 * (1 + 39 * 2)
    assert counter.gradient == 8 * (1 + 39 * 2 * 3)


def test_run_ais_deterministic():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    cfg = AisConfig(n_samples=16, schedule=(0.0, 0.1, 1.0))
    a = run_ais(cfg, target, seed=5)
    b = run_ais(cfg, target, seed=5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_ais_estimate_hand_cases():
    samples = np.array([[1.0], [2.0]])
    assert ais_estimate(samples, np.zeros(2)) == pytest.approx([1.5], abs=1e-12)
    assert ais_estimate(samples, np.log([1.0, 3.0])) == pytest.approx([1.75], abs=1e-12)
    doubled = ais_estimate(np.vstack([samples, samples]),
                           np.log([1.0, 3.0, 1.0, 3.0]))
    assert doubled == pytest.approx([1.75], abs=1e-12)
    with pytest.raises(ValueError):
        ais_estimate(samples, np.full(2, -np.inf))
    with pytest.raises(ValueError):
        ais_estimate(samples, np.zeros(3))


def test_log_evidence_estimate_hand_value():
    assert log_evidence_estimate(np.log([1.0, 3.0])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
