import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from islandmc import smc
from islandmc.ais import AisConfig, make_neal_schedule, run_ais
from islandmc.kernels import HmcConfig, KernelStats, PcnConfig
from islandmc.mcmc import McmcConfig
from islandmc.smc import (
    DegenerateWeightsError,
    IslandResult,
    LogZAccumulator,
    ScheduleOverflowError,
    SmcConfig,
    StalledTemperingError,
    ess,
    next_temperature,
    resample,
    run_smc,
    update_logz,
)
from islandmc.targets import EvalCounter, GaussianLinearModel, NumericalDomainError, make_gaussian_target

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
    # NaN passes every ordering comparison, so it is rejected on its own
    for schedule in ((float("nan"), 1.0), (0.5, float("nan"), 1.0)):
        with pytest.raises(ValueError, match="^schedule entries must be finite"):
            SmcConfig(n_particles=8, mutation_steps=1, schedule=schedule)


def test_sampler_configs_name_the_field_of_a_bad_choice_flag_or_kernel_at_construction():
    with pytest.raises(ValueError, match=r"^resampling must be one of multinomial, systematic, got 'stratified'$"):
        SmcConfig(n_particles=4, mutation_steps=1, resampling="stratified")
    with pytest.raises(ValueError, match=r"^mode must be one of serial, parallel, got 'batch'$"):
        McmcConfig(n_samples=4, mode="batch")
    # "no" used to run as adapt_steps=True, and a None kernel failed only at run time
    for value in ("no", 1, None):
        with pytest.raises(ValueError, match=f"^adapt_steps must be true or false, got {re.escape(repr(value))}$"):
            SmcConfig(n_particles=4, mutation_steps=1, adapt_steps=value)
    assert not SmcConfig(n_particles=4, mutation_steps=1, adapt_steps=np.False_).adapt_steps
    for make in (lambda k: SmcConfig(4, 1, kernel=k), lambda k: AisConfig(4, (0.0, 1.0), kernel=k),
                 lambda k: McmcConfig(4, kernel=k)):
        for kernel in (None, "pcn", PcnConfig):
            with pytest.raises(ValueError, match=f"^kernel must be a PcnConfig or HmcConfig, got {re.escape(repr(kernel))}$"):
                make(kernel)
        assert make(HmcConfig()).kernel == HmcConfig()


def test_configs_reject_wrongly_typed_fields_at_construction():
    # class -> (its required arguments, the rule of each field)
    configs = {
        PcnConfig: ({}, {"beta": "number", "scaling_floor": "number", "target_accept": "number",
                         "use_scaling": "flag"}),
        HmcConfig: ({}, {"step_size": "number", "leapfrog_steps": "count", "mass": "mass",
                         "target_accept": "number"}),
        SmcConfig: ({"n_particles": 8, "mutation_steps": 1},
                    {"n_particles": "count", "mutation_steps": "count", "ess_fraction": "number",
                     "max_stages": "count", "resampling": "choice", "schedule": "ladder", "adapt_steps": "flag"}),
        AisConfig: ({"n_samples": 8, "schedule": (0.0, 1.0)},
                    {"n_samples": "count", "schedule": "ladder", "mutation_steps": "count"}),
        McmcConfig: ({"n_samples": 4}, {"n_samples": "count", "burn_in": "count", "thin": "count", "mode": "choice"}),
    }
    extra = {"number": [True, False], "count": [True, False, 2.5, 2.0],
             "mass": [[[1.0, 2.0]], [1.0, [2.0]], [1.0, True], [True, True], True],
             "ladder": [5, "abc", [0.5, "1"], [0.0, True]]}
    for cls, (required, rules) in configs.items():
        for field, rule in rules.items():
            # a one-entry mass is a vector, a null SMC schedule the adaptive one
            bad = ["0.5", {}] + [[0.5]] * (rule != "mass") + [None] * ((cls, rule) != (SmcConfig, "ladder"))
            for value in bad + extra.get(rule, []):
                with pytest.raises(ValueError, match=f"^{field} "):
                    cls(**{**required, field: value})
    # numpy integers and floats give the config of their Python twins, numbers stored as floats
    smc_cfg = SmcConfig(np.int64(8), np.int32(1), ess_fraction=np.float32(0.5), max_stages=np.uint16(9),
                        schedule=np.array([0.5, 1.0]))
    assert smc_cfg == SmcConfig(8, 1, ess_fraction=0.5, max_stages=9, schedule=(0.5, 1.0))
    hmc = HmcConfig(np.float64(0.1), np.int64(3), np.array([1, 2]), np.float32(0.5))
    assert hmc == HmcConfig(0.1, 3, [1.0, 2.0], 0.5) and type(hmc.step_size) is float
    assert PcnConfig(np.float16(0.5), np.True_, np.float64(1e-8), np.float32(0.25)) == PcnConfig(0.5, True, 1e-8, 0.25)
    ais = AisConfig(np.int64(8), np.array([0.0, 1.0]), mutation_steps=np.int8(2))
    assert ais == AisConfig(8, (0.0, 1.0), mutation_steps=2)
    assert McmcConfig(np.int64(4), np.int64(2), np.int64(1)) == McmcConfig(4, 2, 1)


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
    assert next_temperature(np.full((1, 4), -3.7), 0.0, cfg)[0][0] == 1.0


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
    lam = next_temperature(loglik[None], 0.0, cfg)[0][0]
    assert lam == pytest.approx(h_star, abs=1e-9)
    assert ess(lam * loglik) == pytest.approx(1.6, abs=1e-8)


def test_next_temperature_respects_previous_exponent():
    # r=100: (1 + r^h)^2 / (1 + r^2h) = 1.6 solves to r^h = 3
    loglik = np.array([0.0, math.log(100.0)])
    cfg = mini_cfg(ess_fraction=0.8)
    h_exact = math.log(3.0) / math.log(100.0)
    h1 = next_temperature(loglik[None], 0.0, cfg)[0][0]
    h2 = next_temperature(loglik[None], h1, cfg)[0][0]
    assert h1 == pytest.approx(h_exact, abs=1e-9)
    assert h2 == pytest.approx(2 * h_exact, abs=1e-8)
    assert ess((h2 - h1) * loglik) == pytest.approx(1.6, abs=1e-8)


def test_next_temperature_terminal_clamp():
    loglik = np.array([0.0, 0.001])
    cfg = mini_cfg()
    assert next_temperature(loglik[None], 0.999, cfg)[0][0] == 1.0


def sequential_next_temperature(loglik, lambda_prev, cfg):
    """One-row ESS bisection, step by step; returns (exponent, steps taken)."""
    target_ess = cfg.ess_fraction * loglik.shape[0]
    hi = 1.0 - lambda_prev
    if ess(hi * loglik) >= target_ess:
        return 1.0, 0
    lo = 0.0
    for step in range(1, 201):
        mid = 0.5 * (lo + hi)
        if ess(mid * loglik) >= target_ess:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    return lambda_prev + 0.5 * (lo + hi), step


@pytest.mark.parametrize("n", [2, 16, 32, 257])
def test_block_next_temperature_equals_sequential_rows(n):
    rng = np.random.default_rng(n)
    cfg = mini_cfg(n_particles=n, ess_fraction=0.6)
    for trial in range(12):
        p = 1 if trial == 0 else 7
        loglik = rng.standard_normal((p, n)) * rng.choice([0.01, 1.0, 30.0, 1e4], size=(p, 1)) - 500.0
        loglik[p // 2, 0] = -np.inf  # a zero-weight particle
        lams = rng.choice([0.0, 0.25, 0.9, 0.999, 1.0 - 1e-7], size=p)
        got = next_temperature(loglik, lams, cfg)[0]
        assert got.shape == (p,)
        want = [sequential_next_temperature(row, lam, cfg) for row, lam in zip(loglik, lams.tolist())]
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v, _ in want]
        for row, lam, (v, _) in zip(loglik, lams.tolist(), want):
            assert float(next_temperature(row[None], lam, cfg)[0][0]).hex() == float(v).hex()
        if trial > 0:
            # rows clamp to 1 or stop in different rounds of the block pass
            rounds = {(steps - 1) // smc._ROUND_STEPS for _, steps in want if steps}
            assert len(rounds) > 1 or any(steps == 0 for _, steps in want)
    # one shared exponent broadcasts over the rows
    loglik = rng.standard_normal((3, n)) * 5.0
    assert np.array_equal(next_temperature(loglik, 0.5, cfg)[0], next_temperature(loglik, [0.5] * 3, cfg)[0])


def test_block_next_temperature_mixed_stopping_rounds_and_clamps():
    # rows with different previous exponents stop after different numbers
    # of steps; a flat row and a nearly-finished row clamp to 1
    rng = np.random.default_rng(3)
    cfg = mini_cfg(n_particles=16)
    base = rng.standard_normal(16) * 40.0
    loglik = np.stack([base, 1e4 * base, 1e7 * base, np.full(16, -2.0), base, 1e-3 * base])
    lams = [0.0, 0.999, 0.999999, 0.3, 0.5, 0.9999]
    want = [sequential_next_temperature(row, lam, cfg) for row, lam in zip(loglik, lams)]
    assert {steps for _, steps in want} >= {0}
    assert len({(steps - 1) // smc._ROUND_STEPS for _, steps in want if steps}) >= 3
    got = next_temperature(loglik, lams, cfg)[0]
    assert [v.hex() for v in got.tolist()] == [float(v).hex() for v, _ in want]


def test_block_next_temperature_rejects_dead_rows_and_finished_islands():
    cfg = mini_cfg(n_particles=3)
    loglik = np.array([[0.0, 1.0, 2.0], [-np.inf, -np.inf, -np.inf]])
    with pytest.raises(DegenerateWeightsError):
        next_temperature(loglik, [0.0, 0.0], cfg)
    with pytest.raises(ValueError, match="lambda_prev"):
        next_temperature(loglik[:1], [1.0], cfg)


def test_stage_functions_reject_one_island_vectors():
    # each takes a (k, N) block of k islands, and a one-island vector is an error
    cfg = mini_cfg(n_particles=4)
    x = np.log([0.1, 0.2, 0.3, 0.4])
    calls = [
        ("loglik", lambda a: next_temperature(a, 0.0, cfg)),
        ("log_weights", lambda a: resample(a, cfg, [np.random.default_rng(0)])),
        ("stage_log_weights", lambda a: update_logz([LogZAccumulator()], a)),
    ]
    for name, call in calls:
        for bad in (x, x[None, None], 0.5):
            with pytest.raises(ValueError, match=rf"^{name} must be a \(k, N\) block .*got shape {re.escape(str(np.shape(bad)))}$"):
                call(bad)
        call(x[None])


@pytest.mark.parametrize("n", [2, 16, 32, 257])
def test_row_ess_equals_ess(n):
    rng = np.random.default_rng(100 + n)
    lw = rng.standard_normal((40, n)) * rng.choice([0.01, 1.0, 40.0, 700.0], size=(40, 1))
    lw += rng.choice([-700.0, 0.0, 700.0], size=(40, 1))
    lw[::5, : n // 2] = -np.inf
    got = smc._ess_of(smc._shifted_exp(lw, lw.max(axis=1)))
    assert [v.hex() for v in got.tolist()] == [ess(row).hex() for row in lw]


def test_resample_systematic_uniform_is_permutation_free():
    cfg = mini_cfg(n_particles=8, resampling="systematic")
    idx = resample(np.zeros((1, 8)), cfg, [np.random.default_rng(0)])[0]
    assert np.array_equal(np.sort(idx), np.arange(8))


def test_resample_systematic_stratification_counts():
    # every index receives floor(N w) or ceil(N w) copies
    w = np.array([0.4, 0.3, 0.2, 0.1])
    cfg = mini_cfg(n_particles=4, resampling="systematic")
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = resample(np.log(w)[None], cfg, [rng])[0]
        counts = np.bincount(idx, minlength=4)
        assert np.all(counts >= np.floor(4 * w))
        assert np.all(counts <= np.ceil(4 * w))


def test_resample_point_mass():
    lw = np.full(6, -np.inf)
    lw[3] = 0.0
    for scheme in ("multinomial", "systematic"):
        cfg = mini_cfg(n_particles=6, resampling=scheme)
        idx = resample(lw[None], cfg, [np.random.default_rng(1)])[0]
        assert np.all(idx == 3)


def test_resample_multinomial_unbiased():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    cfg = mini_cfg(n_particles=4)
    rng = np.random.default_rng(7)
    counts = np.zeros(4)
    trials = 20000
    for _ in range(trials):
        counts += np.bincount(resample(np.log(w)[None], cfg, [rng])[0], minlength=4)
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
            idx = resample(lw[None], cfg, [np.random.default_rng(seed)])[0]
            rng = np.random.default_rng(seed)
            if scheme == "multinomial":
                expect = rng.choice(n, size=n, replace=True, p=oracle)
            else:
                cum = np.cumsum(oracle)
                cum[-1] = 1.0
                expect = np.searchsorted(cum, (rng.random() + np.arange(n)) / n, side="right")
            assert np.array_equal(idx, expect)


def _weight_block(k, n, seed):
    """A (k, N) block of stage log-weights with point-mass and partly -inf rows."""
    rng = np.random.default_rng(seed)
    lw = rng.standard_normal((k, n)) * rng.choice([0.01, 1.0, 30.0], size=(k, 1))
    lw += rng.choice([-700.0, 0.0, 700.0], size=(k, 1))
    if n > 1:
        lw[::3, : n // 2] = -np.inf  # half the particles dead
        lw[1::3] = -np.inf  # point mass
        lw[1::3, n - 1] = 5.0
    return lw


@pytest.mark.parametrize("n", [1, 2, 7, 16, 257])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_block_resample_equals_per_row_draws(n, k):
    lw = _weight_block(k, n, 10 * n + k)
    for scheme in smc.RESAMPLING_SCHEMES:
        cfg = mini_cfg(resampling=scheme)
        rngs = [np.random.default_rng(seed) for seed in range(k)]
        ref_rngs = [np.random.default_rng(seed) for seed in range(k)]
        got = resample(lw, cfg, rngs)
        assert got.shape == (k, n)
        for row, g, idx in zip(lw, ref_rngs, got):
            w = np.exp(row - row.max())
            w /= w.sum()
            if scheme == "multinomial":
                expect = g.choice(n, size=n, replace=True, p=w)
            else:
                cum = np.cumsum(w)
                cum[-1] = 1.0
                expect = np.searchsorted(cum, (g.random() + np.arange(n)) / n, side="right")
            assert np.array_equal(idx, expect)
        # every generator is left where its own per-row draw leaves it
        for g, ref in zip(rngs, ref_rngs):
            assert g.bit_generator.state == ref.bit_generator.state
        # the shifted weights give the same draws, and each row its one-row call's
        one_row = [resample(row[None], cfg, [np.random.default_rng(seed)])[0] for seed, row in enumerate(lw)]
        shifted = resample(lw, cfg, [np.random.default_rng(seed) for seed in range(k)], smc._max_shift(lw)[1])
        assert np.array_equal(np.array(one_row), got)
        assert np.array_equal(shifted, got)


def test_resample_nan_weight_raises_value_error():
    cfg = mini_cfg()
    lw = np.array([0.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        resample(lw[None], cfg, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="NaN"):
        resample(np.stack([np.zeros(3), lw]), cfg, [np.random.default_rng(0), np.random.default_rng(1)])


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
@pytest.mark.parametrize("lw", [[0.0, np.nan, 0.0, 0.0], [np.nan] * 4, [0.0, 0.0, np.inf, 0.0]])
def test_resample_weight_nan_after_shift_raises_under_both_schemes(scheme, lw):
    cfg = mini_cfg(n_particles=4, resampling=scheme)
    lw = np.array(lw)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
        resample(lw[None], cfg, [np.random.default_rng(0)])
    # one bad row in a block of three islands
    block = np.stack([np.zeros(4), lw, np.log([0.1, 0.2, 0.3, 0.4])])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
        resample(block, cfg, [np.random.default_rng(seed) for seed in range(3)])


@pytest.mark.parametrize("n", [1, 2, 7, 16, 257])
def test_block_update_logz_equals_per_row_calls(n):
    lw = _weight_block(8, n, n)
    accs = [LogZAccumulator(float(a), float(b)) for a, b in np.random.default_rng(n).normal(0, 50, (8, 2))]
    got = update_logz(accs, lw)
    assert got == update_logz(accs, lw, smc._max_shift(lw))
    for acc, row, out in zip(accs, lw, got):
        want = update_logz([acc], row[None])[0]
        assert (out.offset_sum.hex(), out.residual_log.hex()) == (want.offset_sum.hex(), want.residual_log.hex())


def test_resample_degenerate():
    cfg = mini_cfg(n_particles=3)
    with pytest.raises(DegenerateWeightsError):
        resample(np.full((1, 3), -np.inf), cfg, [np.random.default_rng(0)])


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_resample_needs_one_generator_per_row(scheme):
    # unchecked, one generator for three rows would leave rows 1 and 2 uninitialized
    cfg = mini_cfg(n_particles=4, resampling=scheme)
    for count in (1, 4):
        with pytest.raises(ValueError, match=rf"one generator per row \(3\), got {count}"):
            resample(np.zeros((3, 4)), cfg, [np.random.default_rng(seed) for seed in range(count)])


def test_update_logz_needs_one_accumulator_per_row():
    # unchecked, one accumulator for three rows would return one
    for count in (1, 4):
        with pytest.raises(ValueError, match=rf"one accumulator per row \(3\), got {count}"):
            update_logz([LogZAccumulator()] * count, np.zeros((3, 4)))


def test_update_logz_identity_stage():
    acc = LogZAccumulator(2.5, -0.25)
    out = update_logz([acc], np.zeros((1, 16)))[0]
    assert out.total == pytest.approx(acc.total, abs=1e-12)


def test_update_logz_hand_value():
    out = update_logz([LogZAccumulator()], np.array([[0.0, math.log(3.0)]]))[0]
    assert out.total == pytest.approx(math.log(2.0), abs=1e-12)


def test_update_logz_deep_underflow():
    out = update_logz([LogZAccumulator()], np.array([[-800.0, -800.0]]))[0]
    assert out.offset_sum == -800.0
    assert out.residual_log == 0.0
    assert out.total == -800.0


def test_update_logz_accumulates_across_stages():
    acc = update_logz([LogZAccumulator()], np.array([[0.0, math.log(3.0)]]))[0]
    acc = update_logz([acc], np.array([[-700.0, -700.0]]))[0]
    assert acc.total == pytest.approx(math.log(2.0) - 700.0, abs=1e-9)


def test_update_logz_degenerate():
    with pytest.raises(DegenerateWeightsError):
        update_logz([LogZAccumulator()], np.full((1, 4), -np.inf))


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


def test_run_smc_stalled_tempering_raises():
    # sigma 1e-6 makes the likelihood so sharp that no increment above the
    # bisection tolerance keeps the stage ESS at 8 of 16
    target = make_gaussian_target(2, 4, 1e-6, seed=0)
    cfg = SmcConfig(n_particles=16, mutation_steps=1, kernel=PcnConfig(beta=0.5))
    with pytest.raises(StalledTemperingError) as err:
        run_smc(cfg, target, seed=0)
    e = err.value
    assert isinstance(e, ScheduleOverflowError)
    assert e.stage == 1
    assert 0.0 < e.lam <= 1e-10
    assert e.schedule == [e.lam]
    assert e.target_ess == 8.0
    assert 1.0 <= e.ess < 8.0
    for part in ("stage 1", f"lambda={e.lam}", f"stage ESS of {e.ess}", "target of 8.0"):
        assert part in str(e)


class _ScaledLikelihood:
    """Gaussian target whose log-likelihood is multiplied by ``scale``."""

    def __init__(self, base, scale):
        self.base = base
        self.scale = scale

    def __getattr__(self, name):
        return getattr(self.base, name)

    def log_likelihood(self, theta, counter=None):
        return self.scale * np.asarray(self.base.log_likelihood(theta, counter))


def test_run_smc_increment_below_tolerance_on_target_goes_on():
    # scale the likelihood so the first increment that pins the stage ESS is
    # about 8.7e-11, below the bisection tolerance: a tested midpoint passes,
    # so the run goes on until its stage budget runs out
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    cfg = SmcConfig(n_particles=16, mutation_steps=1, kernel=PcnConfig(beta=0.5), max_stages=1)
    with pytest.raises(ScheduleOverflowError) as probe:
        run_smc(cfg, base, seed=0)
    target = _ScaledLikelihood(base, probe.value.schedule[0] / 8.7e-11)
    with pytest.raises(ScheduleOverflowError) as err:
        run_smc(SmcConfig(n_particles=16, mutation_steps=1, kernel=PcnConfig(beta=0.5), max_stages=3),
                target, seed=0)
    assert type(err.value) is ScheduleOverflowError
    sched = err.value.schedule
    assert len(sched) == 3 and 5.8e-11 < sched[0] <= 1e-10


def test_next_temperature_reports_stalled_rows():
    # rows: an ordinary one, one pinned at about 8.7e-11 with a passing
    # midpoint, and one where no increment above the tolerance passes
    cfg = mini_cfg(n_particles=16)
    x = np.random.default_rng(0).standard_normal(16)
    loglik = np.stack([x, x * (next_temperature(x[None], 0.0, cfg)[0][0] / 8.7e-11), -1e13 * np.arange(16.0)])
    lams, stalled = next_temperature(loglik, 0.0, cfg)
    assert stalled == [False, False, True]
    assert 5.8e-11 < lams[1] <= 1e-10 and 0.0 < lams[2] <= 0.5e-10
    for row, lam, stall in zip(loglik, lams.tolist(), stalled):
        got, got_stalled = next_temperature(row[None], 0.0, cfg)
        assert (got.tolist(), got_stalled) == ([lam], [stall])


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


class _NanInSecondBlock(GaussianLinearModel):
    """Linear model whose log-likelihood is NaN at rows 1 and 3 of a call's second row block."""

    def log_likelihood(self, theta, counter=None):
        self.blocks_seen = 0
        return super().log_likelihood(theta, counter)

    def _log_likelihood(self, theta):
        ll = super()._log_likelihood(theta)
        self.blocks_seen += 1
        if self.blocks_seen == 2:
            ll[[1, 3]] = np.nan
        return ll


def test_run_smc_nan_likelihood_in_second_block_raises_domain_error():
    base = make_gaussian_target(2, 4096, 1.0, seed=0)
    target = _NanInSecondBlock(base.X, base.y, base.sigma)
    assert target._block_rows == 8
    cfg = SmcConfig(n_particles=16, mutation_steps=1)
    with pytest.raises(NumericalDomainError, match=r"stage 1: .* NaN for 2 of 16") as err:
        run_smc(cfg, target, seed=0)
    assert err.value.lam == 0.0
    assert err.value.theta.shape == (2, 2)
    assert target.blocks_seen == 2


class _BadInitialRows:
    """Gaussian target whose ``call``-th log-likelihood call sets chosen rows to ``value``."""

    def __init__(self, base, bad):
        self.base = base
        self.bad = bad  # call index -> (rows, value)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def log_likelihood(self, theta, counter=None):
        ll = np.array(self.base.log_likelihood(theta, counter), dtype=float)
        rows, value = self.bad.get(self.calls, ([], 0.0))
        ll[rows] = value
        self.calls += 1
        return ll


@pytest.mark.parametrize("schedule", [None, (0.5, 1.0)])
def test_stacked_islands_raise_the_first_failing_islands_error(schedule):
    # each island's initial population is one likelihood call, in seed order
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    cfg = SmcConfig(n_particles=8, mutation_steps=1, schedule=schedule)
    seeds = [11, 12, 13, 14]
    all_rows = list(range(8))
    # NaNs in islands 1 and 2: island 1's error, with its count, rows and exponent
    target = _BadInitialRows(base, {1: ([0, 3], np.nan), 2: ([1, 2, 5], np.nan)})
    with pytest.raises(NumericalDomainError) as got:
        smc.run_smc_islands(cfg, target, seeds)
    with pytest.raises(NumericalDomainError) as want:
        run_smc(cfg, _BadInitialRows(base, {0: ([0, 3], np.nan)}), seeds[1])
    assert str(got.value) == str(want.value)
    assert "NaN for 2 of 8" in str(got.value)
    assert np.array_equal(got.value.theta, want.value.theta)
    assert got.value.theta.shape == (2, 2)
    assert got.value.lam == want.value.lam == 0.0
    assert got.value.stage == want.value.stage == 1
    # an island with no finite log-likelihood before a NaN island: its error wins
    target = _BadInitialRows(base, {1: (all_rows, -np.inf), 2: ([4], np.nan)})
    with pytest.raises(DegenerateWeightsError, match="all weights are zero") as err:
        smc.run_smc_islands(cfg, target, seeds)
    assert err.value.stage == 1
    with pytest.raises(DegenerateWeightsError, match="all weights are zero"):
        run_smc(cfg, _BadInitialRows(base, {0: (all_rows, -np.inf)}), seeds[1])
    # and a NaN island before a dead one raises the NaN
    target = _BadInitialRows(base, {1: ([4], np.nan), 2: (all_rows, -np.inf)})
    with pytest.raises(NumericalDomainError, match="NaN for 1 of 8"):
        smc.run_smc_islands(cfg, target, seeds)


def test_stacked_islands_raise_the_first_stalled_islands_error():
    # a likelihood spread of 1e13 between neighbouring particles leaves one
    # particle dominant at every increment above the bisection tolerance
    base = make_gaussian_target(2, 4, 1.0, seed=0)
    cfg = SmcConfig(n_particles=8, mutation_steps=1)
    seeds = [11, 12, 13, 14]
    all_rows = list(range(8))
    spread = -1e13 * np.arange(8.0)
    target = _BadInitialRows(base, {1: (all_rows, spread), 2: (all_rows, 2 * spread)})
    with pytest.raises(StalledTemperingError) as got:
        smc.run_smc_islands(cfg, target, seeds)
    with pytest.raises(StalledTemperingError) as want:
        run_smc(cfg, _BadInitialRows(base, {0: (all_rows, spread)}), seeds[1])
    assert str(got.value) == str(want.value)
    assert got.value.schedule == want.value.schedule
    assert (got.value.stage, got.value.ess) == (want.value.stage, want.value.ess)
    # a NaN island before the stalled one raises its NaN, a later one does not
    target = _BadInitialRows(base, {1: ([4], np.nan), 2: (all_rows, spread)})
    with pytest.raises(NumericalDomainError, match="NaN for 1 of 8"):
        smc.run_smc_islands(cfg, target, seeds)
    target = _BadInitialRows(base, {1: (all_rows, spread), 2: ([4], np.nan)})
    with pytest.raises(StalledTemperingError):
        smc.run_smc_islands(cfg, target, seeds)
    # a fixed schedule takes its steps as given
    fixed = SmcConfig(n_particles=8, mutation_steps=1, schedule=(1e-12, 1.0))
    assert run_smc(fixed, _BadInitialRows(base, {0: (all_rows, spread)}), seeds[1]).schedule == [1e-12, 1.0]


STAGE_PHASES = ("_reweight", "_weigh", "_mutate", "_settle")


@pytest.mark.parametrize("cfg", [
    SmcConfig(n_particles=8, mutation_steps=1),
    AisConfig(n_samples=8, schedule=(0.0, 0.1, 0.3, 0.6, 1.0), kernel=PcnConfig(beta=0.5)),
], ids=["smc", "ais"])
def test_stage_loop_calls_each_phase_by_module_name_once_per_stage(cfg, monkeypatch):
    # the loop looks each phase up in the module, so a timer or tracer that
    # replaces smc.<phase> sees every call
    calls = dict.fromkeys(STAGE_PHASES, 0)

    def counting(name, phase):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return phase(*args, **kwargs)
        return wrapper

    for name in STAGE_PHASES:
        monkeypatch.setattr(smc, name, counting(name, getattr(smc, name)))
    results = smc.run_smc_islands(cfg, make_gaussian_target(2, 4, 0.3, seed=0), [1, 2, 3])
    stages = [len(r.schedule) for r in results]
    assert len(set(stages)) == (3 if isinstance(cfg, SmcConfig) else 1)
    assert calls == dict.fromkeys(STAGE_PHASES, max(stages))


def _raise_later_failure(cfg, base, seeds, fail, stage):
    """Run ``seeds`` stacked with +inf proposals at two of island ``fail``'s rows in its stage-``stage`` sweep.

    A +inf proposal is always accepted, so the island fails at stage
    ``stage + 1``, or as it finishes when ``stage`` is its last.  With
    one pCN sweep per stage, the stacked run's likelihood calls are one
    per island for the initial populations and then one per stage; a
    probe run gives the islands still in the stack at ``stage``.  Checks
    that the stacked run raises what the island's one-seed run raises,
    and returns the probe's stage counts, the islands in the stack at
    ``stage`` and the error.
    """
    n = cfg.n_particles if isinstance(cfg, SmcConfig) else cfg.n_samples
    stages = [len(r.schedule) for r in smc.run_smc_islands(cfg, base, seeds)]
    assert stages[fail] >= stage
    active = [p for p, count in enumerate(stages) if count >= stage]
    rows = [1, 6]
    offset = active.index(fail) * n
    target = _BadInitialRows(base, {len(seeds) + stage - 1: ([offset + r for r in rows], np.inf)})
    with pytest.raises(NumericalDomainError) as got:
        smc.run_smc_islands(cfg, target, seeds)
    with pytest.raises(NumericalDomainError) as want:
        smc.run_smc_islands(cfg, _BadInitialRows(base, {stage: (rows, np.inf)}), [seeds[fail]])
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert "+inf for 2 of 8" in str(got.value)
    assert np.array_equal(got.value.theta, want.value.theta)
    assert got.value.theta.shape == (2, base.dim)
    assert got.value.lam == want.value.lam
    assert got.value.stage == want.value.stage == min(stage + 1, stages[fail])
    return stages, active, got.value


def test_stacked_smc_raises_a_failure_after_an_island_left_the_stack():
    base = make_gaussian_target(2, 4, 0.3, seed=0)
    cfg = SmcConfig(n_particles=8, mutation_steps=1)
    stages, active, _ = _raise_later_failure(cfg, base, [1, 2, 3], fail=2, stage=3)
    # island 1 finished at stage 2, so island 2 fails from block 1 of the
    # stack, behind island 0, which goes on
    assert stages == [5, 2, 4]
    assert active == [0, 2]


def test_stacked_smc_raises_the_failure_of_an_island_as_it_finishes():
    # island 1's last sweep, at stage 2, accepts two +inf proposals: it fails
    # as it finishes, from block 1 of the stack, while islands 0 and 2 go on
    base = make_gaussian_target(2, 4, 0.3, seed=0)
    cfg = SmcConfig(n_particles=8, mutation_steps=1)
    stages, active, error = _raise_later_failure(cfg, base, [1, 2, 3], fail=1, stage=2)
    assert stages == [5, 2, 4]
    assert active == [0, 1, 2]
    assert error.lam == 1.0
    assert str(error).startswith("stage 2: log-likelihood is +inf for 2 of 8 particles (lambda=1.0)")


def test_stacked_ais_raises_a_later_stage_failure_of_a_later_island():
    # AIS islands share one ladder and finish together, so none leaves the
    # stack early; island 2 fails from block 2 at stage 3
    base = make_gaussian_target(2, 4, 0.3, seed=0)
    cfg = AisConfig(n_samples=8, schedule=(0.0, 0.1, 0.3, 0.6, 1.0), kernel=PcnConfig(beta=0.5))
    stages, active, _ = _raise_later_failure(cfg, base, [1, 2, 3], fail=2, stage=2)
    assert stages == [4, 4, 4]
    assert active == [0, 1, 2]


@pytest.mark.parametrize("resampling", smc.RESAMPLING_SCHEMES)
def test_run_smc_pos_inf_likelihood_raises_domain_error(resampling):
    # +inf fails like NaN: multinomial resampling would otherwise raise
    # numpy's "Probabilities contain NaN", and systematic resampling crawl
    # to a ScheduleOverflowError
    base = make_gaussian_target(3, 4, 1.0, seed=0)
    cfg = SmcConfig(n_particles=8, mutation_steps=1, resampling=resampling)
    target = _BadInitialRows(base, {0: ([2, 6, 7], np.inf)})
    with pytest.raises(NumericalDomainError, match=r"stage 1: log-likelihood is \+inf for 3 of 8 particles \(lambda=0.0\)") as err:
        run_smc(cfg, target, seed=0)
    assert (err.value.lam, err.value.stage) == (0.0, 1)
    assert err.value.theta.shape == (3, 3)
    target = _BadInitialRows(base, {0: ([1, 4], [np.inf, np.nan])})
    with pytest.raises(NumericalDomainError, match=r"stage 1: log-likelihood is NaN or \+inf for 2 of 8"):
        run_smc(cfg, target, seed=0)
    # a +inf proposal is always accepted, so a sweep's +inf rows fail at the
    # start of the next stage
    target = _BadInitialRows(base, {1: ([0, 5], np.inf)})
    with pytest.raises(NumericalDomainError, match=r"stage 2: log-likelihood is \+inf for 2 of 8") as err:
        run_smc(cfg, target, seed=0)
    assert err.value.theta.shape == (2, 3) and err.value.stage == 2
    assert 0.0 < err.value.lam < 1.0
    # and +inf rows of the last sweep fail as the island finishes, at lambda 1
    last = len(run_smc(cfg, base, seed=0).schedule)
    target = _BadInitialRows(base, {last: ([0, 5], np.inf)})
    with pytest.raises(NumericalDomainError, match=rf"stage {last}: log-likelihood is \+inf for 2 of 8 particles \(lambda=1.0\)") as err:
        run_smc(cfg, target, seed=0)
    assert (err.value.lam, err.value.stage) == (1.0, last)
    assert err.value.theta.shape == (2, 3)


@pytest.mark.parametrize("kernel", [PcnConfig(beta=0.5), HmcConfig(step_size=0.1, leapfrog_steps=3)])
def test_run_ais_non_finite_likelihood_raises(kernel):
    # AIS runs on the SMC stage loop, so it fails where SMC does instead of
    # returning NaN or +inf weights
    base = make_gaussian_target(3, 4, 1.0, seed=0)
    cfg = AisConfig(n_samples=8, schedule=make_neal_schedule(), kernel=kernel)
    target = _BadInitialRows(base, {0: ([1, 5], np.nan)})
    with pytest.raises(NumericalDomainError, match=r"stage 1: log-likelihood is NaN for 2 of 8 particles \(lambda=0.0\)") as err:
        run_ais(cfg, target, seed=0)
    assert err.value.lam == 0.0
    assert err.value.theta.shape == (2, 3)
    target = _BadInitialRows(base, {0: ([2, 6, 7], np.inf)})
    with pytest.raises(NumericalDomainError, match=r"stage 1: log-likelihood is \+inf for 3 of 8 particles"):
        run_ais(cfg, target, seed=0)
    target = _BadInitialRows(base, {0: (list(range(8)), -np.inf)})
    with pytest.raises(DegenerateWeightsError, match="all weights are zero"):
        run_ais(cfg, target, seed=0)
    # a +inf proposal is always accepted and fails at the next transition
    target = _BadInitialRows(base, {1: ([0, 5], np.inf)})
    with pytest.raises(NumericalDomainError, match=r"stage 2: log-likelihood is \+inf for 2 of 8") as err:
        run_ais(cfg, target, seed=0)
    assert err.value.lam == make_neal_schedule()[1]
    # and in the last transition's sweep, as the run finishes
    last = len(cfg.schedule) - 1
    target = _BadInitialRows(base, {last: ([0, 5], np.inf)})
    with pytest.raises(NumericalDomainError, match=rf"stage {last}: log-likelihood is \+inf for 2 of 8 particles \(lambda=1.0\)") as err:
        run_ais(cfg, target, seed=0)
    assert (err.value.lam, err.value.stage) == (1.0, last)
    assert err.value.theta.shape == (2, 3)


def test_run_smc_rejects_bad_seed():
    target = make_gaussian_target(2, 2, 1.0, seed=0)
    cfg = SmcConfig(n_particles=4, mutation_steps=1)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        run_smc(cfg, target, seed=-3)
    for seed in (2.7, "5", True):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            run_smc(cfg, target, seed=seed)
    assert np.array_equal(run_smc(cfg, target, seed=np.int64(2)).samples, run_smc(cfg, target, seed=2).samples)


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
    # the ladder rule of SmcConfig, with its messages
    for schedule, message in (([0.0, 1.0], "schedule must start above 0 and end at exactly 1"),
                              ([0.5, float("nan"), 1.0], "schedule entries must be finite"),
                              ([0.5, 0.5, 1.0], "schedule must be strictly increasing")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IslandResult(np.zeros((2, 1)), LogZAccumulator(), schedule, EvalCounter(), KernelStats())
