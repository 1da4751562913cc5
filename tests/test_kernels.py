import copy
import dataclasses
import math
import re

import numpy as np
import pytest

from islandmc import kernels
from islandmc.kernels import (
    HmcConfig,
    KernelStats,
    PcnConfig,
    Population,
    adapt_step_size,
    estimate_scaling,
    leapfrog,
    mutate,
    needs_gradient,
    population_step,
)
from islandmc.seeds import stream
from islandmc.targets import EvalCounter, GaussianLinearModel, make_gaussian_target


class FlatTarget:
    """Zero potential everywhere: leapfrog must reduce to free flight."""

    dim = 3

    def grad_log_likelihood(self, theta, counter=None):
        return np.zeros_like(theta)

    def grad_log_prior(self, theta):
        return np.zeros_like(theta)


def prior_only(d):
    return GaussianLinearModel(np.zeros((0, d)), np.zeros(0), sigma=1.0)


def one_row(target, theta, needs_grad=False):
    """A population of the single state ``theta``, its caches filled."""
    theta = np.array([theta], dtype=float)
    pop = Population(theta, target.log_likelihood(theta))
    if needs_grad:
        pop.logprior = target.log_prior(theta)
        pop.grad_ll = target.grad_log_likelihood(theta)
    return pop


def one_step_noise(rng, d):
    """One step's noise for one row: ``d`` standard normals, then the log of one uniform."""
    return rng.standard_normal((1, d)), np.log([rng.random()])


def hamiltonian(target, theta, momentum, lam, mass):
    pot = -(lam * target.log_likelihood(theta) + target.log_prior(theta))
    return pot + 0.5 * np.sum(momentum**2 / mass)


def test_config_validation():
    with pytest.raises(ValueError):
        PcnConfig(beta=0.0)
    with pytest.raises(ValueError):
        PcnConfig(beta=1.5)
    with pytest.raises(ValueError):
        PcnConfig(target_accept=1.0)
    with pytest.raises(ValueError):
        HmcConfig(step_size=0.0)
    with pytest.raises(ValueError):
        HmcConfig(leapfrog_steps=0)
    with pytest.raises(ValueError):
        HmcConfig(mass=[1.0, -1.0])
    # nan <= 0 is False: non-finite masses are rejected on their own, and the
    # message starts with the field's name
    for mass in (np.nan, np.inf, -np.inf, 0.0, [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="^mass entries must be finite and positive"):
            HmcConfig(mass=mass)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^step_size must be positive and finite"):
            HmcConfig(step_size=value)
        with pytest.raises(ValueError, match="^scaling_floor must be positive and finite"):
            PcnConfig(scaling_floor=value)


def test_kernel_configs_reject_wrong_types_at_construction():
    for value in ("no", "", 1, 0, None):
        with pytest.raises(ValueError, match=f"^use_scaling must be true or false, got {re.escape(repr(value))}$"):
            PcnConfig(use_scaling=value)
    assert not PcnConfig(use_scaling=np.False_).use_scaling
    # an empty mass used to fail at the first sweep, string masses passed as numbers
    for mass in ([], (), np.array([]), "1", ["1", 2], [1.0, "2"], True, [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="^mass must be a number or a vector of at least one number, got "):
            HmcConfig(mass=mass)
    assert HmcConfig(mass=np.array([1, 2])).mass == (1.0, 2.0) and HmcConfig(mass=np.float32(2.0)).mass == 2.0


def test_hmc_config_mass_compares_hashes_and_keeps_no_alias():
    # the mass is stored as a float or a tuple of floats: configs compare
    # and hash by value, and the caller's array is not kept
    a, b = HmcConfig(mass=np.array([2.0, 2.0])), HmcConfig(mass=[2.0, 2.0])
    assert a == b and hash(a) == hash(b)
    assert a.mass == (2.0, 2.0) and all(type(v) is float for v in a.mass)
    assert HmcConfig(mass=2) == HmcConfig(mass=np.float64(2.0)) and type(HmcConfig(mass=2).mass) is float
    assert HmcConfig(mass=[2.0, 2.0]) != HmcConfig(mass=2.0)
    assert len({a, b, HmcConfig(), HmcConfig(mass=1.0)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.mass = 1.0
    with pytest.raises(ValueError, match="^mass must be a number or a vector"):
        HmcConfig(mass=[[1.0, 2.0]])
    m = np.array([2.0, 2.0])
    cfg = HmcConfig(step_size=0.3, leapfrog_steps=3, mass=m)
    m[0] = -1.0
    assert cfg.mass == (2.0, 2.0)
    vec = kernels._mass_vector(cfg.mass, 2)
    assert np.array_equal(vec, [2.0, 2.0]) and not vec.flags.writeable
    # an all-ones vector is still a unit mass
    assert kernels._mass_vector(HmcConfig(mass=[1.0, 1.0]).mass, 2) is None
    with pytest.raises(ValueError, match=r"mass has shape \(2,\), expected \(3,\)"):
        kernels._mass_vector(cfg.mass, 3)
    # the sweep moves with the validated mass: finite momenta and states
    target = make_gaussian_target(2, 5, 1.0, seed=1)
    pop = Population.initialize(target, np.random.default_rng(2), 8, needs_grad=True)
    z = np.random.default_rng(3).standard_normal((8, 2))
    accepted = population_step(pop, 1.0, cfg, target, z, np.log(np.full(8, 0.5)))
    assert accepted > 0 and np.isfinite(pop.theta).all() and np.isfinite(pop.grad_ll).all()


def test_cost_helpers():
    pcn, hmc = PcnConfig(), HmcConfig(leapfrog_steps=7)
    assert not needs_gradient(pcn) and needs_gradient(hmc)


def test_leapfrog_free_flight():
    cfg = HmcConfig(step_size=0.2, leapfrog_steps=5, mass=2.0)
    theta0 = np.array([1.0, -2.0, 0.5])
    q0 = np.array([0.4, 0.0, -1.0])
    theta, q, _ = leapfrog(theta0, q0, 1.0, cfg, FlatTarget())
    assert theta == pytest.approx(theta0 + 5 * 0.2 * q0 / 2.0, abs=1e-12)
    assert q == pytest.approx(q0, abs=1e-12)


def test_leapfrog_harmonic_oscillator():
    # standard Gaussian potential: exact flow is a rotation by t = L dt
    target = prior_only(1)
    cfg = HmcConfig(step_size=0.01, leapfrog_steps=100)
    theta, q, _ = leapfrog(np.array([1.0]), np.array([0.0]), 1.0, cfg, target)
    assert theta[0] == pytest.approx(math.cos(1.0), abs=1e-3)
    assert q[0] == pytest.approx(-math.sin(1.0), abs=1e-3)


def test_leapfrog_reversibility():
    target = make_gaussian_target(4, 8, 0.8, seed=3)
    cfg = HmcConfig(step_size=0.05, leapfrog_steps=30)
    rng = np.random.default_rng(5)
    theta0, q0 = rng.standard_normal(4), rng.standard_normal(4)
    theta1, q1, _ = leapfrog(theta0, q0, 1.0, cfg, target)
    theta2, q2, _ = leapfrog(theta1, -q1, 1.0, cfg, target)
    assert theta2 == pytest.approx(theta0, abs=1e-10)
    assert -q2 == pytest.approx(q0, abs=1e-10)


def test_leapfrog_energy_error_second_order():
    # fixed trajectory time: halving dt should shrink |dH| by about 4x
    target = make_gaussian_target(4, 8, 0.8, seed=3)
    rng = np.random.default_rng(9)
    theta0, q0 = rng.standard_normal(4), rng.standard_normal(4)
    mass = np.ones(4)
    errs = []
    for dt, steps in [(0.1, 20), (0.05, 40)]:
        cfg = HmcConfig(step_size=dt, leapfrog_steps=steps)
        theta, q, _ = leapfrog(theta0, q0, 1.0, cfg, target)
        h0 = hamiltonian(target, theta0, q0, 1.0, mass)
        h1 = hamiltonian(target, theta, q, 1.0, mass)
        errs.append(abs(h1 - h0))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_leapfrog_gradient_count():
    target = make_gaussian_target(3, 5, 1.0, seed=1)
    cfg = HmcConfig(step_size=0.1, leapfrog_steps=6)
    theta = np.zeros(3)
    q = np.ones(3)
    counter = EvalCounter()
    _, _, grad = leapfrog(theta, q, 1.0, cfg, target, counter)
    assert counter.gradient == 7  # cold start costs one extra
    counter = EvalCounter()
    leapfrog(theta, q, 1.0, cfg, target, counter, grad_ll=target.grad_log_likelihood(theta))
    assert counter.gradient == 6


def _reference_leapfrog(theta, momentum, lam, cfg, target, counter=None, grad_ll=None, step_size=None):
    """The out-of-place leapfrog that the in-place one must reproduce bit for bit."""
    theta = np.asarray(theta, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    mass = np.broadcast_to(np.asarray(cfg.mass, dtype=float), theta.shape[-1:])
    dt = cfg.step_size if step_size is None else step_size
    steps = cfg.leapfrog_steps
    if grad_ll is None:
        grad_ll = target.grad_log_likelihood(theta, counter)
    grad = lam * grad_ll + target.grad_log_prior(theta)
    momentum = momentum + 0.5 * dt * grad
    for step in range(steps):
        theta = theta + dt * (momentum / mass)
        grad_ll = target.grad_log_likelihood(theta, counter)
        grad = lam * grad_ll + target.grad_log_prior(theta)
        momentum = momentum + (dt if step < steps - 1 else 0.5 * dt) * grad
    return theta, momentum, grad_ll


@pytest.mark.parametrize("per_row_lam", [False, True])
@pytest.mark.parametrize("per_row_step", [False, True])
@pytest.mark.parametrize("mass", [1.7, [1.0, 2.5, 0.4, 0.9], 1.0, [1.0, 1.0, 1.0, 1.0]])
def test_leapfrog_in_place_equals_reference(per_row_lam, per_row_step, mass):
    # unit masses take the drift without the division, sigma = 1 targets
    # the gradient without it
    cfg = HmcConfig(step_size=0.13, leapfrog_steps=7, mass=mass)
    rng = np.random.default_rng(21)
    n = 11
    theta, momentum = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
    lam = rng.random((n, 1)) if per_row_lam else 0.6
    step_size = 0.05 + 0.2 * rng.random((n, 1)) if per_row_step else None
    for target in (make_gaussian_target(4, 9, 0.8, seed=6), make_gaussian_target(4, 9, 1.0, seed=6)):
        for grad_ll in (None, target.grad_log_likelihood(theta)):
            inputs = [a.copy() for a in (theta, momentum)] + ([] if grad_ll is None else [grad_ll.copy()])
            counter, ref_counter = EvalCounter(), EvalCounter()
            got = leapfrog(theta, momentum, lam, cfg, target, counter, grad_ll, step_size)
            ref = _reference_leapfrog(theta, momentum, lam, cfg, target, ref_counter, grad_ll, step_size)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
            assert counter == ref_counter
            # the caller's arrays are never written
            for before, after in zip(inputs, (theta, momentum, grad_ll)):
                assert np.array_equal(before, after)


def test_leapfrog_in_place_equals_reference_single_vector():
    target = make_gaussian_target(3, 5, 1.1, seed=2)
    cfg = HmcConfig(step_size=0.21, leapfrog_steps=5, mass=[0.5, 1.0, 3.0])
    theta, momentum = np.array([0.3, -1.2, 0.8]), np.array([1.0, 0.1, -0.7])
    got = leapfrog(theta, momentum, 0.45, cfg, target)
    ref = _reference_leapfrog(theta, momentum, 0.45, cfg, target)
    for a, b in zip(got, ref):
        assert a.shape == (3,)
        assert np.array_equal(a, b)
    assert np.array_equal(theta, [0.3, -1.2, 0.8]) and np.array_equal(momentum, [1.0, 0.1, -0.7])


def test_pcn_beta_to_zero_is_identity():
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    cfg = PcnConfig(beta=1e-12)
    theta0 = np.array([0.3, -0.8])
    rng = np.random.default_rng(0)
    for _ in range(5):
        pop = one_row(target, theta0)
        accepted = population_step(pop, 1.0, cfg, target, *one_step_noise(rng, 2))
        assert accepted
        assert pop.theta[0] == pytest.approx(theta0, abs=1e-10)


def test_pcn_lambda_zero_always_accepts():
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    cfg = PcnConfig(beta=1.0)
    rng = np.random.default_rng(1)
    pop = one_row(target, [100.0, -100.0])
    for _ in range(10):
        accepted = population_step(pop, 0.0, cfg, target, *one_step_noise(rng, 2))
        assert accepted


def test_pcn_full_refresh_is_prior_draw():
    # beta=1, D=1: the proposal is an independent prior draw
    target = prior_only(3)
    cfg = PcnConfig(beta=1.0)
    rng = np.random.default_rng(7)
    expected = np.random.default_rng(7).standard_normal(3)
    pop = one_row(target, np.full(3, 9.0))
    accepted = population_step(pop, 0.0, cfg, target, *one_step_noise(rng, 3))
    assert accepted
    assert np.array_equal(pop.theta[0], expected)


def test_pcn_scaling_bound_enforced():
    target = prior_only(2)
    cfg = PcnConfig(beta=1.0)
    pop = one_row(target, np.zeros(2))
    noise = one_step_noise(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="beta"):
        population_step(pop, 1.0, cfg, target, *noise, scaling=np.array([2.0, 1.0]))


def test_pcn_step_matches_manual_proposal():
    # replay the exact proposal and accept decision by hand
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    cfg = PcnConfig(beta=0.4)
    scaling = np.array([1.0, 0.5, 0.25])
    theta0 = np.array([0.2, -0.1, 0.7])
    lam = 0.6
    pop = one_row(target, theta0)
    accepted = population_step(
        pop, lam, cfg, target, *one_step_noise(np.random.default_rng(21), 3), scaling=scaling
    )
    ref = np.random.default_rng(21)
    delta = ref.standard_normal(3)
    log_u = math.log(ref.random())
    u = target.whiten(theta0)
    keep = np.sqrt(1.0 - cfg.beta**2 * scaling)
    prop = target.unwhiten(keep * u + cfg.beta * np.sqrt(scaling) * delta)
    want = log_u <= lam * (target.log_likelihood(prop) - target.log_likelihood(theta0))
    assert accepted == want
    assert np.array_equal(pop.theta[0], prop if want else theta0)
    assert pop.loglik[0] == pytest.approx(float(target.log_likelihood(pop.theta[0])), abs=1e-10)


def test_hmc_identity_limit():
    target = make_gaussian_target(2, 4, 1.0, seed=6)
    cfg = HmcConfig(step_size=1e-10, leapfrog_steps=1)
    theta0 = np.array([0.5, -0.5])
    pop = one_row(target, theta0, needs_grad=True)
    accepted = population_step(pop, 1.0, cfg, target, *one_step_noise(np.random.default_rng(3), 2))
    assert accepted
    assert pop.theta[0] == pytest.approx(theta0, abs=1e-8)


def test_hmc_nonfinite_trajectory_rejects():
    target = make_gaussian_target(2, 4, 0.1, seed=6)
    cfg = HmcConfig(step_size=1e150, leapfrog_steps=2)
    theta0 = np.array([0.5, -0.5])
    pop = one_row(target, theta0, needs_grad=True)
    accepted = population_step(pop, 1.0, cfg, target, *one_step_noise(np.random.default_rng(3), 2))
    assert not accepted
    assert np.array_equal(pop.theta[0], theta0)


def test_hmc_matches_manual_replay():
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    cfg = HmcConfig(step_size=0.15, leapfrog_steps=8, mass=2.0)
    theta0 = np.array([0.2, -0.1, 0.7])
    lam = 0.8
    pop = one_row(target, theta0, needs_grad=True)
    accepted = population_step(pop, lam, cfg, target, *one_step_noise(np.random.default_rng(33), 3))
    ref = np.random.default_rng(33)
    z = ref.standard_normal(3)
    log_u = math.log(ref.random())
    mass = np.full(3, 2.0)
    q0 = np.sqrt(mass) * z
    prop, q1, _ = leapfrog(theta0, q0, lam, cfg, target)
    h0 = hamiltonian(target, theta0, q0, lam, mass)
    h1 = hamiltonian(target, prop, q1, lam, mass)
    want = log_u <= h0 - h1
    assert accepted == want
    theta = pop.theta[0]
    assert np.array_equal(theta, prop if want else theta0)
    assert pop.loglik[0] == pytest.approx(float(target.log_likelihood(theta)), abs=1e-12)
    assert pop.grad_ll[0] == pytest.approx(target.grad_log_likelihood(theta), abs=1e-12)


def test_population_step_eval_counts():
    target = make_gaussian_target(3, 5, 1.0, seed=1)
    rng = np.random.default_rng(0)
    for cfg, lik, grad in [(PcnConfig(), 8, 0), (HmcConfig(leapfrog_steps=4), 8, 8 + 8 * 4)]:
        counter = EvalCounter()
        pop = Population.initialize(target, rng, 8, counter, needs_grad=needs_gradient(cfg))
        population_step(
            pop, 0.7, cfg, target, rng.standard_normal((8, 3)),
            np.log(rng.random(8)), counter,
        )
        assert counter.likelihood == lik + 8
        assert counter.gradient == grad


def stage_noise(seed, stage, n, n_steps, d):
    """One seed's stage noise as ``mutate`` draws it from ``stream(seed, stage, 1)``, built here by hand:
    ``default_rng(SeedSequence((seed, stage, 1)))`` gives the ``(n, n_steps, d)`` normals, then the
    ``(n, n_steps)`` uniforms."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, stage, 1)))
    return rng.standard_normal((n, n_steps, d)), np.log(rng.random((n, n_steps)))


def test_mutate_matches_scalar_steps_pcn():
    # the vectorized engine and one-row steps on each row's share of the stage noise must agree bit for bit
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    cfg = PcnConfig(beta=0.3)
    scaling = np.array([1.0, 0.7, 0.2])
    seed, stage, lam, n = 17, 2, 0.45, 6
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    pop = Population.initialize(target, rng, n)
    ref = Population.stack([pop])
    mutate(pop, lam, 1, cfg, target, [stream(seed, stage, 1)], scaling=scaling)
    normals, log_u = stage_noise(seed, stage, n, 1, 3)
    for i in range(n):
        row = copy.copy(ref)
        row.take([i])
        population_step(row, lam, cfg, target, normals[i], log_u[i], scaling=scaling)
        # proposals are elementwise, so positions agree bit for bit; the
        # cached loglik may differ in the last ulps (batched vs single matmul)
        assert np.array_equal(pop.theta[i], row.theta[0])
        assert pop.loglik[i] == pytest.approx(row.loglik[0], abs=1e-12)


def test_mutate_matches_scalar_steps_hmc():
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    cfg = HmcConfig(step_size=0.2, leapfrog_steps=5)
    seed, stage, lam, n = 23, 3, 0.85, 6
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    pop = Population.initialize(target, rng, n, needs_grad=True)
    ref = Population.stack([pop])
    mutate(pop, lam, 1, cfg, target, [stream(seed, stage, 1)])
    normals, log_u = stage_noise(seed, stage, n, 1, 3)
    for i in range(n):
        row = copy.copy(ref)
        row.take([i])
        population_step(row, lam, cfg, target, normals[i], log_u[i])
        # trajectories pass through matmuls, so agreement is to ulp level only
        assert pop.theta[i] == pytest.approx(row.theta[0], abs=1e-12)
        assert pop.loglik[i] == pytest.approx(row.loglik[0], abs=1e-10)


def test_mutate_multi_step_noise_layout():
    # one stream per stage: an (n, n_steps, d) normal block, row i's steps in [i]
    target = prior_only(2)
    cfg = PcnConfig(beta=1.0)
    seed, stage, n, steps = 5, 1, 3, 4
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    pop = Population.initialize(target, rng, n)
    mutate(pop, 0.0, steps, cfg, target, [stream(seed, stage, 1)])
    # at beta=1 and lam=0 the final state is each row's last normal draw
    normals, _ = stage_noise(seed, stage, n, steps, 2)
    assert np.array_equal(pop.theta, normals[:, -1])


@pytest.mark.parametrize("n_steps", [0, 1, 16])
def test_mutate_matches_reference_stream_loop(n_steps):
    # mutate must replay its stage's one stream, step by step, bit for bit
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    cfg = PcnConfig(beta=0.4)
    seed, stage, lam, n = 2**64 - 59, 2**32 + 3, 0.7, 37
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    pop = Population.initialize(target, rng, n)
    ref = Population(pop.theta.copy(), pop.loglik.copy())
    stats, ref_stats = KernelStats(), KernelStats()
    accepted = mutate(pop, lam, n_steps, cfg, target, [stream(seed, stage, 1)], stats=stats)
    normals, log_u = stage_noise(seed, stage, n, n_steps, 3)
    ref_accepted = sum(
        population_step(ref, lam, cfg, target, normals[:, s], log_u[:, s], stats=ref_stats)
        for s in range(n_steps)
    )
    assert accepted == ref_accepted
    assert (stats.proposals, stats.accepts) == (ref_stats.proposals, ref_stats.accepts)
    assert np.array_equal(pop.theta, ref.theta)
    assert np.array_equal(pop.loglik, ref.loglik)


def _block_population(target, seed, n, needs_grad):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    return Population.initialize(target, rng, n, needs_grad=needs_grad)


@pytest.mark.parametrize("cfg, step_sizes, scaling", [
    (PcnConfig(), [0.35, 0.8], [[1.0, 0.5, 0.25], [0.3, 1.0, 0.6]]),
    (PcnConfig(), [0.6, 0.2], None),
    (HmcConfig(leapfrog_steps=4, mass=[1.0, 2.0, 0.5]), [0.15, 0.3], None),
])
def test_mutate_stacked_blocks_equal_separate_calls(cfg, step_sizes, scaling):
    # one sweep over two stacked blocks with their own seed, lam, step
    # size and scaling gives each block exactly its own mutate call
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    seeds, lams, n, stage, steps = [11, 2**63 + 5], [0.3, 0.9], 8, 3, 2
    grad = needs_gradient(cfg)
    blocks = [_block_population(target, s, n, grad) for s in seeds]
    stacked = Population.stack(blocks)
    counter, stats = EvalCounter(), [KernelStats(), KernelStats()]
    accepted = mutate(stacked, lams, steps, cfg, target, [stream(s, stage, 1) for s in seeds], counter, stats,
                      None if scaling is None else np.array(scaling), step_sizes)
    assert isinstance(accepted, int)
    assert accepted == stats[0].accepts + stats[1].accepts
    for b, block in enumerate(blocks):
        block_counter, block_stats = EvalCounter(), KernelStats()
        mutate(block, lams[b], steps, cfg, target, [stream(seeds[b], stage, 1)], block_counter, block_stats,
               None if scaling is None else np.array(scaling[b]), step_sizes[b])
        rows = slice(b * n, (b + 1) * n)
        assert np.array_equal(stacked.theta[rows], block.theta)
        assert np.array_equal(stacked.loglik[rows], block.loglik)
        if grad:
            assert np.array_equal(stacked.logprior[rows], block.logprior)
            assert np.array_equal(stacked.grad_ll[rows], block.grad_ll)
        assert stats[b] == block_stats
        assert counter.likelihood == 2 * block_counter.likelihood
        assert counter.gradient == 2 * block_counter.gradient


def _reference_hmc_population_step(pop, lam, cfg, dt, target, z, log_u, counter=None):
    """The boolean-mask HMC sweep, with the mass in every term, that the fast paths must replay."""
    d = pop.theta.shape[1]
    mass = np.broadcast_to(np.asarray(cfg.mass, dtype=float), (d,))
    momentum = np.sqrt(mass) * z
    kinetic0 = 0.5 * np.sum(momentum * momentum / mass, axis=-1)
    lam_rows = lam[:, 0] if np.ndim(lam) == 2 else lam
    h0 = -(lam_rows * pop.loglik + pop.logprior) + kinetic0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        theta_new, momentum_new, grad_new = _reference_leapfrog(
            pop.theta, momentum, lam, cfg, target, counter, pop.grad_ll, dt
        )
        ll_new = np.atleast_1d(target.log_likelihood(theta_new, counter))
        lp_new = np.atleast_1d(target.log_prior(theta_new))
        kinetic1 = 0.5 * np.sum(momentum_new * momentum_new / mass, axis=-1)
        log_ratio = h0 - (-(lam_rows * ll_new + lp_new) + kinetic1)
    accept = log_u <= log_ratio
    pop.theta[accept] = theta_new[accept]
    pop.loglik[accept] = ll_new[accept]
    pop.logprior[accept] = lp_new[accept]
    pop.grad_ll[accept] = grad_new[accept]
    return accept


@pytest.mark.parametrize("mass", [1.0, [1.0, 1.0, 1.0], 1.7, [1.0, 2.5, 0.4]])
@pytest.mark.parametrize("sigma", [1.0, 0.9])
def test_hmc_population_step_replays_boolean_mask_reference(mass, sigma):
    # the unit-mass and sigma = 1 fast paths, the masked writes and the
    # per-block stats give the old sweep's every bit; the huge step size of
    # the last block sends its trajectories to inf and NaN, which reject
    target = make_gaussian_target(3, 6, sigma, seed=4)
    cfg = HmcConfig(leapfrog_steps=4, mass=mass)
    seeds, n = [3, 8, 13], 16
    pop = Population.stack([_block_population(target, s, n, True) for s in seeds])
    ref = Population(pop.theta.copy(), pop.loglik.copy(), pop.logprior.copy(), pop.grad_ll.copy())
    lam = np.repeat([0.2, 0.7, 1.0], n)[:, None]
    dt = np.repeat([0.15, 0.6, 1e200], n)[:, None]
    stats, ref_stats = [KernelStats() for _ in seeds], [KernelStats() for _ in seeds]
    counter, ref_counter = EvalCounter(), EvalCounter()
    rng = np.random.default_rng(5)
    for _ in range(3):
        z, log_u = rng.standard_normal((3 * n, 3)), np.log(rng.random(3 * n))
        accepted = population_step(pop, lam, cfg, target, z, log_u, counter, stats, step_size=dt)
        accept = _reference_hmc_population_step(ref, lam, cfg, dt, target, z, log_u, ref_counter)
        for block_stats, block in zip(ref_stats, accept.reshape(len(seeds), -1)):
            block_stats.record(block.size, block.sum())
        assert isinstance(accepted, int) and accepted == accept.sum()
        assert 0 < accepted and not accept[2 * n:].any()
        for name in ("theta", "loglik", "logprior", "grad_ll"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name))
        assert stats == ref_stats
        assert counter == ref_counter


def test_mutate_at_the_workload_shape_replays_the_reference_sweep_by_sweep(monkeypatch):
    # the C1 shape: d = 16, m = 32, unit mass, 8 stacked blocks of 32 rows
    # with their own exponent and step size; mutate's stage constants (full
    # (n, d) exponents and steps, the cached mass) and its
    # full-shape masks must give every sweep the reference's every bit
    target = make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16))
    cfg = HmcConfig(step_size=0.1, leapfrog_steps=10)
    seeds, n, stage, steps = list(range(40, 48)), 32, 5, 3
    lams = np.linspace(0.05, 0.9, len(seeds))
    step_sizes = np.linspace(0.04, 0.25, len(seeds))
    pop = Population.stack([_block_population(target, s, n, True) for s in seeds])
    ref = Population(pop.theta.copy(), pop.loglik.copy(), pop.logprior.copy(), pop.grad_ll.copy())
    snapshots = []
    sweep = kernels.population_step

    def recording(p, *args, **kwargs):
        accepted = sweep(p, *args, **kwargs)
        snapshots.append((accepted, [getattr(p, name).copy() for name in ("theta", "loglik", "logprior", "grad_ll")]))
        return accepted

    monkeypatch.setattr(kernels, "population_step", recording)
    counter, ref_counter = EvalCounter(), EvalCounter()
    accepted = mutate(pop, lams, steps, cfg, target, [stream(s, stage, 1) for s in seeds], counter,
                      step_size=step_sizes)
    assert len(snapshots) == steps and accepted == sum(a for a, _ in snapshots)
    noise = [stage_noise(s, stage, n, steps, 16) for s in seeds]
    normals = np.concatenate([z for z, _ in noise])
    log_u = np.concatenate([u for _, u in noise])
    lam, dt = np.repeat(lams, n)[:, None], np.repeat(step_sizes, n)[:, None]
    for s, (got_accepted, got) in enumerate(snapshots):
        accept = _reference_hmc_population_step(ref, lam, cfg, dt, target, normals[:, s], log_u[:, s], ref_counter)
        assert got_accepted == accept.sum() and 0 < accept.sum() < accept.size
        for name, value in zip(("theta", "loglik", "logprior", "grad_ll"), got):
            assert np.array_equal(value, getattr(ref, name))
    assert counter == ref_counter


def test_mutate_rejects_unequal_blocks():
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    pop = _block_population(target, 1, 5, False)
    with pytest.raises(ValueError, match="equal blocks"):
        mutate(pop, [0.5, 0.5], 1, PcnConfig(), target, [stream(1, 1, 1), stream(2, 1, 1)])
    with pytest.raises(ValueError, match="one value per block"):
        mutate(_block_population(target, 1, 4, False), [0.5, 0.5, 0.5], 1, PcnConfig(), target,
               [stream(1, 1, 1), stream(2, 1, 1)])


def _four_blocks():
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    return target, _block_population(target, 1, 8, False), [stream(s, 1, 1) for s in range(4)]


def test_mutate_rejects_stats_not_one_per_block():
    # unchecked, 4 blocks and 2 KernelStats would book two blocks into each
    target, pop, rngs = _four_blocks()
    theta = pop.theta.copy()
    with pytest.raises(ValueError, match=r"one KernelStats per block \(4\), got 2"):
        mutate(pop, 0.5, 1, PcnConfig(), target, rngs, stats=[KernelStats(), KernelStats()])
    assert np.array_equal(pop.theta, theta)
    assert all(rng.bit_generator.state == stream(s, 1, 1).bit_generator.state for s, rng in enumerate(rngs))


def test_mutate_rejects_scaling_not_one_per_block():
    # unchecked, a mismatched scaling would fail with an unnamed broadcast error
    target, pop, rngs = _four_blocks()
    with pytest.raises(ValueError, match=r"one scaling row per block \(4\), got shape \(2, 3\)"):
        mutate(pop, 0.5, 1, PcnConfig(), target, rngs, scaling=np.ones((2, 3)))


def _python_squares_differ(count, seed):
    """``count`` uniform step sizes whose Python square is not their product."""
    draws = np.random.default_rng(seed).uniform(0.05, 1.0, 100_000).tolist()
    odd = [b for b in draws if b**2 != b * b]
    assert len(odd) >= count
    return np.array(odd[:count])


def test_pcn_per_row_step_sizes_are_squared_like_python():
    # a block of rows with step size b moves as the one-block sweep with the
    # scalar b, whose square is Python's b**2, not numpy's b * b
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    betas = _python_squares_differ(4, 0)
    scaling = np.random.default_rng(1).uniform(0.2, 1.0, (4, 3))
    n = 6
    blocks = [_block_population(target, seed, n, False) for seed in range(4)]
    rng = np.random.default_rng(2)
    delta, log_u = rng.standard_normal((4 * n, 3)), np.log(rng.random(4 * n))
    pop = Population.stack(blocks)
    population_step(pop, 0.0, PcnConfig(), target, delta, log_u,
                    scaling=np.repeat(scaling, n, axis=0), step_size=np.repeat(betas, n)[:, None])
    for b, block in enumerate(blocks):
        ref = Population(block.theta.copy(), block.loglik.copy())
        rows = slice(b * n, (b + 1) * n)
        population_step(ref, 0.0, PcnConfig(), target, delta[rows], log_u[rows],
                        scaling=scaling[b], step_size=float(betas[b]))
        assert np.array_equal(pop.theta[rows], ref.theta)
    # numpy's squares would move some proposal coefficients
    python_sq = np.array([b**2 for b in betas.tolist()])[:, None]
    assert (np.sqrt(1.0 - python_sq * scaling) != np.sqrt(1.0 - (betas * betas)[:, None] * scaling)).any()


@pytest.mark.parametrize("unit_scaling", [True, False])
def test_mutate_squares_each_block_step_size_once_like_python(monkeypatch, unit_scaling):
    # four stacked blocks with step sizes whose Python square is not their
    # product: mutate squares the four values once for all its sweeps, and
    # each block still moves exactly as its own scalar-step mutate call
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    scaling = None if unit_scaling else np.random.default_rng(3).uniform(0.2, 1.0, (4, 3))
    d_rows = np.ones((4, 3)) if unit_scaling else scaling
    # step sizes whose numpy square would move every block's proposal coefficient
    odd = _python_squares_differ(80, 1)
    betas = np.array([next(b for b in odd if (np.sqrt(1.0 - b**2 * row) != np.sqrt(1.0 - (b * b) * row)).any())
                      for row in d_rows])
    n, stage, steps, lam = 5, 2, 3, 0.7
    blocks = [_block_population(target, seed, n, False) for seed in range(4)]
    stacked = Population.stack(blocks)
    squared = []
    square = kernels._py_squares
    monkeypatch.setattr(kernels, "_py_squares", lambda values: squared.append(np.shape(values)) or square(values))
    mutate(stacked, lam, steps, PcnConfig(), target, [stream(seed, stage, 1) for seed in range(4)],
           scaling=scaling, step_size=betas)
    assert squared == [(4,)]
    for b, block in enumerate(blocks):
        mutate(block, lam, steps, PcnConfig(), target, [stream(b, stage, 1)],
               scaling=None if unit_scaling else scaling[b], step_size=float(betas[b]))
        assert np.array_equal(stacked.theta[b * n:(b + 1) * n], block.theta)
        assert np.array_equal(stacked.loglik[b * n:(b + 1) * n], block.loglik)


def test_pcn_unit_scaling_equals_a_scaling_of_ones():
    # no scaling leaves D out of the proposal; a D of ones gives the same bits
    target = make_gaussian_target(3, 6, 0.9, seed=4)
    n = 12
    rng = np.random.default_rng(5)
    delta, log_u = rng.standard_normal((n, 3)), np.log(rng.random(n))
    for beta in (0.37, np.repeat(_python_squares_differ(3, 2), 4)[:, None]):
        unit, ones = (_block_population(target, 8, n, False) for _ in range(2))
        got = population_step(unit, 0.6, PcnConfig(), target, delta, log_u, step_size=beta)
        want = population_step(ones, 0.6, PcnConfig(), target, delta, log_u, scaling=np.ones(3), step_size=beta)
        assert got == want
        assert np.array_equal(unit.theta, ones.theta) and np.array_equal(unit.loglik, ones.loglik)
    with pytest.raises(ValueError, match="beta"):
        population_step(unit, 0.6, PcnConfig(), target, delta, log_u, step_size=1.5)


def test_mutate_accept_count_and_stats():
    target = make_gaussian_target(2, 4, 1.0, seed=0)
    cfg = PcnConfig(beta=0.5)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
    pop = Population.initialize(target, rng, 16)
    stats = KernelStats()
    accepted = mutate(pop, 1.0, 3, cfg, target, [stream(1, 1, 1)], stats=stats, scaling=np.ones(2))
    assert stats.proposals == 48
    assert stats.accepts == accepted
    assert 0 <= accepted <= 48
    assert stats.last_rate == accepted / 48


def test_population_take_reindexes_all_caches():
    target = make_gaussian_target(2, 4, 1.0, seed=0)
    rng = np.random.default_rng(1)
    pop = Population.initialize(target, rng, 4, needs_grad=True)
    theta = pop.theta.copy()
    pop.take(np.array([2, 2, 0, 1]))
    assert np.array_equal(pop.theta, theta[[2, 2, 0, 1]])
    assert pop.loglik == pytest.approx(
        np.atleast_1d(target.log_likelihood(pop.theta)), abs=1e-12
    )


def test_adapt_step_size_fixed_point_and_monotone():
    assert adapt_step_size(0.3, 0.65, 0.65, 4) == 0.3
    assert adapt_step_size(0.3, 1.0, 0.65, 0) > 0.3
    assert adapt_step_size(0.3, 0.0, 0.65, 0) < 0.3
    assert adapt_step_size(1e-10, 0.0, 0.65, 0) == 1e-10
    assert adapt_step_size(1e3, 1.0, 0.65, 0) == 1e3


def test_adapt_step_size_clamps_like_numpy_clip():
    rng = np.random.default_rng(3)
    for current, rate, it in zip(np.exp(rng.uniform(-30, 10, 500)).tolist(), rng.uniform(0, 1, 500).tolist(),
                                 rng.integers(0, 40, 500).tolist()):
        got = adapt_step_size(current, rate, 0.3, it)
        want = float(np.clip(current * np.exp((1.0 / (1.0 + it) ** 0.6) * (rate - 0.3)), 1e-10, 1e3))
        assert type(got) is float and got.hex() == want.hex()
    assert math.isnan(adapt_step_size(math.nan, 0.5, 0.3, 0))


def test_adapt_step_size_converges_to_target_rate():
    # repeated adaptation on a Gaussian target settles near 0.65 acceptance
    target = make_gaussian_target(4, 8, 1.0, seed=12)
    cfg = HmcConfig(step_size=1.0, leapfrog_steps=10)
    rng = np.random.default_rng(np.random.SeedSequence((3, 0, 0)))
    n = 128
    pop = Population.initialize(target, rng, n, needs_grad=True)
    step = cfg.step_size
    rates = []
    for t in range(50):
        stats = KernelStats()
        population_step(
            pop, 1.0, cfg, target, rng.standard_normal((n, 4)),
            np.log(rng.random(n)), stats=stats, step_size=step,
        )
        rates.append(stats.last_rate)
        step = adapt_step_size(step, stats.last_rate, 0.65, t)
    tail = float(np.mean(rates[-10:]))
    assert 0.55 < tail < 0.75
    assert abs(tail - 0.65) < 0.08


def test_estimate_scaling_hand_cases():
    assert np.array_equal(estimate_scaling(np.array([[0.0], [2.0]])), [1.0])
    d = estimate_scaling(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert d[0] == 1.0
    assert d[1] == pytest.approx(1e-8 / 2.0, rel=1e-12)
    same = estimate_scaling(np.ones((5, 3)))
    assert np.array_equal(same, np.ones(3))


def test_estimate_scaling_permutation_invariant():
    pop = np.random.default_rng(2).standard_normal((10, 3))
    perm = np.random.default_rng(3).permutation(10)
    assert estimate_scaling(pop) == pytest.approx(estimate_scaling(pop[perm]), rel=1e-12)


def test_estimate_scaling_stack_equals_per_block_calls():
    rng = np.random.default_rng(12)
    for p, n, d in ((1, 2, 1), (3, 16, 5), (8, 32, 15), (5, 7, 3)):
        stack = rng.standard_normal((p, n, d)) * rng.random(d) * 10.0 + rng.standard_normal(d)
        stack[-1, :, 0] = 2.0  # a constant coordinate hits the floor
        got = estimate_scaling(stack, floor=1e-6)
        assert got.shape == (p, d)
        for block, row in zip(stack, got):
            assert np.array_equal(row, estimate_scaling(block, floor=1e-6))


def test_estimate_scaling_needs_two_particles():
    with pytest.raises(ValueError):
        estimate_scaling(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        estimate_scaling(np.zeros((3, 1, 2)))
