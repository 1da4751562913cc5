import dataclasses
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from islandmc import smc
from islandmc.ais import AisConfig, ais_estimate, log_evidence_estimate, run_ais
from islandmc.harness import ConfigError
from islandmc.islands import (
    IslandEnsemble,
    combine_unweighted,
    combine_weighted,
    island_from_json,
    island_seed,
    island_to_json,
    island_weights,
    log_mean_evidence,
    run_islands,
)
from islandmc.kernels import HmcConfig, KernelStats, PcnConfig
from islandmc.mcmc import McmcConfig
from islandmc.smc import (
    DegenerateWeightsError,
    IslandResult,
    LogZAccumulator,
    ScheduleOverflowError,
    SmcConfig,
    StalledTemperingError,
    run_smc,
)
from islandmc.targets import (
    EvalCounter,
    GaussianLinearModel,
    NumericalDomainError,
    make_gaussian_target,
    make_logistic_target,
)


def stub_ensemble(sample_sets, logzs):
    results = [
        IslandResult(np.asarray(s, dtype=float), LogZAccumulator(z, 0.0), [1.0],
                     EvalCounter(), KernelStats())
        for s, z in zip(sample_sets, logzs)
    ]
    return IslandEnsemble(results, list(range(len(results))))


def test_island_seed_deterministic_and_spread():
    seeds = [island_seed(123, p) for p in range(64)]
    assert seeds == [island_seed(123, p) for p in range(64)]
    assert len(set(seeds)) == 64
    assert all(s >= 0 for s in seeds)


def test_island_weights_equal_logz():
    w = island_weights(np.full(4, -3.2))
    assert w == pytest.approx(np.full(4, 0.25), abs=1e-12)


def test_island_weights_hand_softmax():
    w = island_weights(np.array([0.0, math.log(3.0)]))
    assert w == pytest.approx([0.25, 0.75], abs=1e-12)


def test_island_weights_shift_invariant():
    w = island_weights(np.array([-1000.0, -1000.0 + math.log(3.0)]))
    assert w == pytest.approx([0.25, 0.75], abs=1e-12)


def test_island_weights_degenerate_island_gets_zero():
    w = island_weights(np.array([0.0, -np.inf, 0.0]))
    assert w == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
    with pytest.raises(DegenerateWeightsError):
        island_weights(np.full(3, -np.inf))


def test_island_weights_reject_nan_and_pos_inf_evidence():
    # NaN or +inf evidence used to give NaN weights; now it names the islands
    cases = (([0.0, np.nan, -1.0], [1]), ([0.0, np.inf, -1.0], [1]),
             ([np.inf, -np.inf, np.nan, 0.0], [0, 2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for logz, bad in cases:
            for combine in (island_weights, log_mean_evidence):
                with pytest.raises(DegenerateWeightsError, match=re.escape(f"at islands {bad}")):
                    combine(np.array(logz))
        # -inf still gets weight exactly 0
        w = island_weights([0.0, -np.inf, -1.0])
        assert w[1] == 0.0 and w[0] > w[2] > 0.0
        assert log_mean_evidence([0.0, -np.inf]) == pytest.approx(math.log(0.5), abs=1e-15)


def test_evidence_helpers_equal_the_max_shift_formulas_bit_for_bit():
    rng = np.random.default_rng(29)
    cases = [np.array([-np.inf, 0.0]), np.array([3.5, -np.inf, -np.inf, 1e3]), np.array([-7.25])]
    for size in range(2, 10):
        z = rng.normal(scale=300.0, size=size)
        z[rng.permutation(size)[:size // 2]] = -np.inf
        cases.append(z)
    for z in cases:
        m = z[np.isfinite(z)].max()
        w = np.exp(z - m)
        assert island_weights(z).tobytes() == (w / w.sum()).tobytes()
        assert log_mean_evidence(z) == float(m + np.log(np.mean(np.exp(z - m))))
    assert log_mean_evidence(np.full(3, -np.inf)) == -np.inf


def test_log_mean_evidence_hand_value():
    value = log_mean_evidence(np.array([0.0, math.log(3.0)]))
    assert value == pytest.approx(math.log(2.0), abs=1e-12)
    assert log_mean_evidence(np.full(2, -np.inf)) == -np.inf


def test_combine_weighted_hand_case():
    ens = stub_ensemble([[[1.0]], [[2.0]]], [0.0, math.log(3.0)])
    assert combine_weighted(ens) == pytest.approx([1.75], abs=1e-12)
    assert combine_unweighted(ens) == pytest.approx([1.5], abs=1e-12)


def test_combine_single_island_is_island_mean():
    ens = stub_ensemble([[[1.0, 2.0], [3.0, 4.0]]], [-5.0])
    assert combine_weighted(ens) == pytest.approx([2.0, 3.0], abs=1e-12)


def test_combine_equal_weights_match_unweighted():
    rng = np.random.default_rng(0)
    sets = [rng.standard_normal((4, 2)) for _ in range(3)]
    ens = stub_ensemble(sets, [1.7, 1.7, 1.7])
    assert combine_weighted(ens) == pytest.approx(combine_unweighted(ens), abs=1e-12)


def test_combine_constant_statistic_ignores_weights():
    ens = stub_ensemble([[[2.0]], [[2.0]]], [0.0, 5.0])
    assert combine_weighted(ens) == pytest.approx([2.0], abs=1e-12)


def test_combine_with_custom_statistic():
    ens = stub_ensemble([[[1.0]], [[2.0]]], [0.0, math.log(3.0)])
    value = combine_weighted(ens, phi=lambda s: s**2)
    assert value == pytest.approx([0.25 * 1.0 + 0.75 * 4.0], abs=1e-12)


def test_run_islands_single_island_matches_direct_run():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    cfg = SmcConfig(n_particles=16, mutation_steps=2)
    ens = run_islands(1, cfg, target, master_seed=77)
    direct = run_smc(cfg, target, island_seed(77, 0))
    assert np.array_equal(ens.results[0].samples, direct.samples)
    assert ens.results[0].logz == direct.logz


def test_run_islands_parallelism_invariant():
    target = make_gaussian_target(2, 4, 1.0, seed=1)
    cfg = SmcConfig(n_particles=16, mutation_steps=2)
    a = run_islands(4, cfg, target, master_seed=5, parallelism=1)
    b = run_islands(4, cfg, target, master_seed=5, parallelism=4)
    assert a.seeds == b.seeds
    for ra, rb in zip(a.results, b.results):
        assert np.array_equal(ra.samples, rb.samples)
        assert ra.logz == rb.logz
        assert ra.schedule == rb.schedule
        assert ra.epochs == rb.epochs
        assert ra.kernel_stats == rb.kernel_stats
        assert ra.kernel_stats.proposals > 0
        assert ra.stage_ess == rb.stage_ess
        assert len(ra.stage_ess) == len(ra.schedule)


def test_run_islands_process_shares_equal_serial_stack():
    # 5 islands on 2 workers: one stacked run on each share of the seeds
    target = make_logistic_target(5, 100, seed=1)
    cfg = SmcConfig(n_particles=16, mutation_steps=2, kernel=PcnConfig(beta=0.5))
    serial = run_islands(5, cfg, target, master_seed=9)
    parallel = run_islands(5, cfg, target, master_seed=9, parallelism=2)
    assert parallel.seeds == serial.seeds
    for got, want in zip(parallel.results, serial.results):
        assert_same_island(got, want)
    assert len({len(r.schedule) for r in serial.results}) > 1


def test_run_islands_smoke_many_islands():
    target = make_gaussian_target(4, 8, 1.0, seed=6)
    cfg = SmcConfig(n_particles=32, mutation_steps=2)
    ens = run_islands(16, cfg, target, master_seed=3, parallelism=4)
    totals = ens.logz_totals()
    assert totals.shape == (16,)
    assert np.all(np.isfinite(totals))
    assert len(set(totals.tolist())) == 16


def test_run_islands_mcmc_serial_islands():
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    cfg = McmcConfig(n_samples=10, burn_in=5, kernel=PcnConfig(beta=0.5))
    ens = run_islands(3, cfg, target, master_seed=4)
    # MCMC islands carry unit evidence, so weighting degenerates to the mean
    assert np.all(ens.logz_totals() == 0.0)
    assert combine_weighted(ens) == pytest.approx(combine_unweighted(ens), abs=1e-12)
    assert ens.results[0].samples.shape == (10, 2)
    assert ens.results[0].epochs.likelihood == 5 + 9 + 1


def test_run_islands_mcmc_parallel_islands():
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    cfg = McmcConfig(n_samples=8, burn_in=12, kernel=PcnConfig(beta=0.5), mode="parallel")
    ens = run_islands(2, cfg, target, master_seed=4)
    assert ens.results[0].samples.shape == (8, 2)
    assert ens.results[0].epochs.likelihood == 8 * 13
    a = run_islands(2, cfg, target, master_seed=4)
    assert np.array_equal(a.results[1].samples, ens.results[1].samples)


def test_run_islands_validation():
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    cfg = SmcConfig(n_particles=4, mutation_steps=1)
    with pytest.raises(ValueError):
        run_islands(0, cfg, target, master_seed=1)
    with pytest.raises(ValueError):
        run_islands(1, cfg, target, master_seed=1, parallelism=0)
    for args, message in (((2.5, 1, 1), "n_islands must be an integer, got 2.5"),
                          ((True, 1, 1), "n_islands must be an integer, got True"),
                          ((2, 1.9, 1), "master_seed must be an integer, got 1.9"),
                          ((2, "5", 1), "master_seed must be an integer, got '5'"),
                          ((2, -1, 1), "master_seed must be non-negative"),
                          ((2, 1, 1.5), "parallelism must be an integer, got 1.5"),
                          ((2, 1, 0), "parallelism must be positive")):
        n_islands, master_seed, parallelism = args
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_islands(n_islands, cfg, target, master_seed, parallelism)
    a, b = run_islands(np.int64(2), cfg, target, np.uint8(1), np.int32(1)), run_islands(2, cfg, target, 1)
    assert a.seeds == b.seeds and all(np.array_equal(x.samples, y.samples) for x, y in zip(a.results, b.results))
    for bad in ({"n_particles": 4}, cfg.kernel):
        with pytest.raises(TypeError, match=type(bad).__name__):
            run_islands(2, bad, target, master_seed=1)


def test_island_json_round_trip():
    target = make_gaussian_target(3, 6, 1.0, seed=5)
    cfg = SmcConfig(n_particles=8, mutation_steps=1)
    result = run_smc(cfg, target, seed=13)
    assert result.kernel_stats.proposals > 0 and result.stage_ess
    loaded, seed = island_from_json(json.loads(json.dumps(island_to_json(result, 13))))
    assert seed == 13
    assert set(vars(loaded)) == set(vars(result))
    assert np.array_equal(loaded.samples, result.samples)
    assert loaded.logz == result.logz
    assert loaded.schedule == result.schedule
    assert loaded.epochs == result.epochs
    assert loaded.kernel_stats == result.kernel_stats
    assert loaded.stage_ess == result.stage_ess


def test_island_json_schema_fields():
    result = IslandResult(np.zeros((1, 2)), LogZAccumulator(1.5, -0.5), [1.0],
                          EvalCounter(7, 3), KernelStats(8, 5), [3.5])
    payload = island_to_json(result, 99)
    assert payload == {
        "seed": 99,
        "samples": [[0.0, 0.0]],
        "logz": {"offset_sum": 1.5, "residual_log": -0.5},
        "schedule": [1.0],
        "epochs": {"likelihood": 7, "gradient": 3},
        "kernel_stats": {"proposals": 8, "accepts": 5},
        "stage_ess": [3.5],
        "log_weights": None,
    }
    rebuilt, seed = island_from_json(payload)
    assert seed == 99
    assert rebuilt.logz.total == 1.0


def assert_same_island(got, want):
    assert set(vars(got)) == set(vars(want))
    for f in dataclasses.fields(IslandResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


ISLAND_KINDS = {
    "smc": SmcConfig(n_particles=8, mutation_steps=1),
    "ais": AisConfig(n_samples=8, schedule=(0.0, 0.3, 1.0), kernel=HmcConfig(step_size=0.2, leapfrog_steps=3)),
    "mcmc_serial": McmcConfig(n_samples=6, burn_in=3, thin=2),
    "mcmc_parallel": McmcConfig(n_samples=6, burn_in=3, mode="parallel"),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("kind", sorted(ISLAND_KINDS))
def test_island_json_round_trip_every_island_kind(kind, parallelism):
    # the payload is IslandResult's fields plus the seed, so every field of
    # every island kind comes back through JSON text equal
    target = make_gaussian_target(3, 6, 1.0, seed=5)
    ens = run_islands(2, ISLAND_KINDS[kind], target, master_seed=4, parallelism=parallelism)
    names = {f.name for f in dataclasses.fields(IslandResult)}
    for seed, result in zip(ens.seeds, ens.results):
        payload = island_to_json(result, seed)
        assert set(payload) == names | {"seed"}
        assert (payload["log_weights"] is None) == (kind != "ais")
        loaded, loaded_seed = island_from_json(json.loads(json.dumps(payload)))
        assert loaded_seed == seed
        assert_same_island(loaded, result)


# in-process SMC islands advance as one stacked population; each must
# still equal its own one-island run bit for bit
STACKED_CASES = {
    "pcn_scaling_adapted": (PcnConfig(beta=0.5), {}),
    "pcn_unit_scaling_fixed_steps": (PcnConfig(beta=0.4, use_scaling=False), {"adapt_steps": False}),
    "pcn_fixed_schedule": (PcnConfig(beta=0.3), {"schedule": (0.05, 0.3, 1.0)}),
    "pcn_systematic": (PcnConfig(beta=0.5), {"resampling": "systematic"}),
    # at master seed 1 all four islands of this case finish in 9 stages
    "hmc_vector_mass": (HmcConfig(step_size=0.2, leapfrog_steps=3, mass=[1.0, 2.0, 0.5, 1.5, 1.0]),
                        {"master": 2}),
    # m = 1100 data rows give 16-row likelihood blocks, so the 16-particle
    # islands of the stack are evaluated in the products of their own runs
    "pcn_blocked_rows": (PcnConfig(beta=0.5), {"m": 1100}),
    "hmc_blocked_rows": (HmcConfig(step_size=0.1, leapfrog_steps=3), {"m": 1100}),
}


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_stacked_islands_equal_one_island_runs(name):
    kernel, options = STACKED_CASES[name]
    options = dict(options)
    m = options.pop("m", 100)
    master = options.pop("master", 1)
    target = make_logistic_target(5, m, seed=1)
    cfg = SmcConfig(n_particles=16, mutation_steps=2, kernel=kernel, **options)
    if m == 1100:
        assert target._block_rows == 16  # the 4-island stack spans 4 blocks
    ens = run_islands(4, cfg, target, master_seed=master)
    assert ens.seeds == [island_seed(master, p) for p in range(4)]
    for seed, got in zip(ens.seeds, ens.results):
        assert_same_island(got, run_smc(cfg, target, seed))
    if "schedule" not in options:
        # islands finish at different stages and leave the stack early
        assert len({len(r.schedule) for r in ens.results}) > 1


@pytest.mark.parametrize("master", [0, 1, 2])
def test_c1_hmc_islands_equal_one_island_runs_and_processes(master):
    # the C1 target and kernel: the Gram-form gradient's (rows, d) @ (d, d)
    # product gives each island the bits of its own 32-row run, stacked or
    # in a worker process
    target = make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16))
    cfg = SmcConfig(n_particles=32, mutation_steps=4, kernel=HmcConfig(step_size=0.1, leapfrog_steps=10))
    serial = run_islands(8, cfg, target, master_seed=master)
    for seed, got in zip(serial.seeds, serial.results):
        one = run_smc(cfg, target, seed)
        assert np.array_equal(got.samples, one.samples)
        assert got.logz == one.logz
    parallel = run_islands(8, cfg, target, master_seed=master, parallelism=2)
    assert parallel.seeds == serial.seeds
    for got, want in zip(parallel.results, serial.results):
        assert_same_island(got, want)


def test_c9_target_stacked_smc_islands_equal_one_island_runs():
    # the C9 target's 32-row likelihood blocks: at N = 32 each island of the
    # stack fills exactly one block, so it gets the bits of its own run
    target = make_logistic_target(15, 690, seed=0)
    assert target._block_rows == 32
    cfg = SmcConfig(n_particles=32, mutation_steps=2, kernel=PcnConfig(beta=0.5))
    seeds = [island_seed(9, p) for p in range(3)]
    for seed, got in zip(seeds, smc.run_smc_islands(cfg, target, seeds)):
        assert_same_island(got, run_smc(cfg, target, seed))


@pytest.mark.parametrize("kernel", [PcnConfig(beta=0.5), HmcConfig(step_size=0.1, leapfrog_steps=3)])
def test_ais_islands_on_the_stage_loop(kernel):
    # 16-row likelihood blocks: each island of the stack fills its own block
    target = make_logistic_target(5, 1100, seed=1)
    cfg = AisConfig(n_samples=16, schedule=(0.0, 0.1, 0.4, 1.0), kernel=kernel, mutation_steps=2)
    seeds = [3, 4, 5]
    for seed, got in zip(seeds, smc.run_smc_islands(cfg, target, seeds)):
        samples, log_w, epochs = run_ais(cfg, target, seed)
        assert np.array_equal(got.samples, samples)
        assert np.array_equal(got.log_weights, log_w)
        assert got.epochs == epochs
        assert got.schedule == [0.1, 0.4, 1.0]
        assert got.stage_ess == []
        # the island's own evidence, not the default accumulator's 1
        assert got.logz.offset_sum == log_w.max()
        assert got.logz.total == pytest.approx(log_evidence_estimate(log_w), abs=1e-12)
        loaded, loaded_seed = island_from_json(json.loads(json.dumps(island_to_json(got, seed))))
        assert loaded_seed == seed
        assert_same_island(loaded, got)
        assert np.array_equal(loaded.log_weights, got.log_weights)


def test_run_islands_runs_ais_islands():
    # 16-row likelihood blocks: each island of the stack fills its own block
    target = make_logistic_target(5, 1100, seed=1)
    assert target._block_rows == 16
    cfg = AisConfig(n_samples=16, schedule=(0.0, 0.1, 0.4, 1.0), kernel=PcnConfig(beta=0.5), mutation_steps=2)
    ens = run_islands(3, cfg, target, master_seed=6)
    assert ens.seeds == [island_seed(6, p) for p in range(3)]
    estimates = []
    for seed, got in zip(ens.seeds, ens.results):
        samples, log_w, epochs = run_ais(cfg, target, seed)
        assert np.array_equal(got.samples, samples)
        assert np.array_equal(got.log_weights, log_w)
        assert got.epochs == epochs
        estimates.append(ais_estimate(samples, log_w))
    # each island's average is its self-normalized importance estimate
    w = island_weights(ens.logz_totals())
    assert np.array_equal(combine_weighted(ens), np.tensordot(w, np.array(estimates), axes=1))
    parallel = run_islands(3, cfg, target, master_seed=6, parallelism=2)
    for got, want in zip(parallel.results, ens.results):
        assert_same_island(got, want)
        assert np.array_equal(got.log_weights, want.log_weights)


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_run_islands_mcmc_processes_equal_serial(mode):
    # 3 islands on 2 workers: each worker runs a contiguous share of the seeds
    target = make_gaussian_target(2, 4, 1.0, seed=2)
    # parallel chains keep one state each and take no thinning
    cfg = McmcConfig(n_samples=6, burn_in=3, thin=2 if mode == "serial" else 1, kernel=PcnConfig(beta=0.5), mode=mode)
    serial = run_islands(3, cfg, target, master_seed=4)
    parallel = run_islands(3, cfg, target, master_seed=4, parallelism=2)
    assert parallel.seeds == serial.seeds
    for got, want in zip(parallel.results, serial.results):
        assert_same_island(got, want)
    assert len({r.samples.tobytes() for r in serial.results}) == 3


def test_stacked_islands_overflow_names_first_unfinished_island():
    target = make_gaussian_target(4, 64, 0.05, seed=8)
    cfg = SmcConfig(n_particles=16, mutation_steps=1, max_stages=2)
    with pytest.raises(ScheduleOverflowError) as err:
        run_islands(3, cfg, target, master_seed=5)
    with pytest.raises(ScheduleOverflowError) as want:
        run_smc(cfg, target, island_seed(5, 0))
    assert err.value.schedule == want.value.schedule


def test_library_errors_survive_pickling():
    # a worker process sends its error back pickled
    errors = [
        DegenerateWeightsError("all weights are zero"),
        DegenerateWeightsError("all weights are zero", stage=4),
        ScheduleOverflowError([0.25, 0.5]),
        ScheduleOverflowError([]),
        StalledTemperingError([1e-11], 3, 1e-11, 1.5, 8.0),
        NumericalDomainError("stage 2: log-likelihood is NaN for 2 of 8 particles (lambda=0.5)",
                             theta=np.ones((2, 3)), lam=0.5, stage=2),
        ConfigError("sweep[0].T: thin must be 1 in parallel mode"),
    ]
    for err in errors:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert (str(back), back.args) == (str(err), err.args)
        assert vars(back).keys() == vars(err).keys()
        for name, value in vars(err).items():
            assert np.array_equal(getattr(back, name), value), name


class _SharpGaussian(GaussianLinearModel):
    """Linear model with its log-likelihood scaled by 1e13 (module level, so workers unpickle it)."""

    def _log_likelihood(self, theta):
        return 1e13 * super()._log_likelihood(theta)


class _InfAbove(GaussianLinearModel):
    """Linear model whose log-likelihood is +inf where theta_0 > 1.5 (module level, so workers unpickle it)."""

    def _log_likelihood(self, theta):
        return np.where(theta[..., 0] > 1.5, np.inf, super()._log_likelihood(theta))


class _NanAbove(GaussianLinearModel):
    """Linear model whose log-likelihood is NaN where theta_0 > 1.371 (module level, so workers unpickle it)."""

    def _log_likelihood(self, theta):
        return np.where(theta[..., 0] > 1.371, np.nan, super()._log_likelihood(theta))


def test_worker_errors_equal_in_process_errors():
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    cases = [
        # the cut lies between the islands' largest initial theta_0 (1.124 and 1.618 at master 0):
        # island 1 fails at stage 1, while island 0's worker share overflows the one-stage budget
        (SmcConfig(16, 1, PcnConfig(beta=0.5), max_stages=1), _NanAbove(base.X, base.y, base.sigma),
         NumericalDomainError, ("stage", "lam")),
        # every increment above the bisection tolerance leaves one particle dominant
        (SmcConfig(16, 1, PcnConfig(beta=0.5)), _SharpGaussian(base.X, base.y, base.sigma),
         StalledTemperingError, ("schedule", "stage", "lam", "ess", "target_ess")),
        (SmcConfig(16, 1, PcnConfig(beta=0.5), max_stages=1), base, ScheduleOverflowError, ("schedule",)),
    ]
    for cfg, target, error, fields in cases:
        with pytest.raises(error) as want:
            run_islands(2, cfg, target, master_seed=0)
        with pytest.raises(error) as got:
            run_islands(2, cfg, target, master_seed=0, parallelism=2)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert [getattr(got.value, f) for f in fields] == [getattr(want.value, f) for f in fields]
        if error is NumericalDomainError:
            assert str(want.value).startswith("stage 1: log-likelihood is NaN for 1 of 16 particles")
            assert want.value.stage == 1 and np.array_equal(got.value.theta, want.value.theta)
    # the overflow message is built from its one-stage schedule, not from its own characters
    assert str(got.value).startswith("tempering did not reach 1.0 within 1 stages (last exponent 0.")


def test_worker_errors_rank_a_failure_as_an_island_finishes_last_in_its_stage():
    # at master seed 102, island 0's last sweep (stage 2) accepts a +inf
    # row, while island 1's stage-1 sweep accepts one that fails the scan
    # at the start of stage 2: the stage loop meets island 1's failure
    # first, and the worker path, with one island per worker, must agree
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    target = _InfAbove(base.X, base.y, base.sigma)
    cfg = SmcConfig(8, 1, PcnConfig(beta=0.5), schedule=(0.5, 1.0))
    errors = []
    for p in range(2):
        with pytest.raises(NumericalDomainError) as err:
            run_smc(cfg, target, island_seed(102, p))
        errors.append(err.value)
    assert [(e.stage, e.lam) for e in errors] == [(2, 1.0), (2, 0.5)]
    for parallelism in (1, 2):
        with pytest.raises(NumericalDomainError) as got:
            run_islands(2, cfg, target, master_seed=102, parallelism=parallelism)
        assert str(got.value) == str(errors[1])
        assert (got.value.stage, got.value.lam) == (2, 0.5)
        assert np.array_equal(got.value.theta, errors[1].theta)
