"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a full run yields one status line per criterion.  Every
statistical check runs on frozen seeds: margins were sized offline and
reruns are bit-reproducible.
"""
import math

import numpy as np
import pytest
from scipy.signal import lfilter

from islandmc.ais import AisConfig, ais_estimate, make_neal_schedule, run_ais
from islandmc.diagnostics import iact
from islandmc.harness import fit_rate, parse_config, run_experiment, write_csv
from islandmc.islands import combine_unweighted, combine_weighted, run_islands
from islandmc.kernels import (
    HmcConfig,
    PcnConfig,
    Population,
    leapfrog,
    mutate,
)
from islandmc.mcmc import McmcConfig, run_chain_serial, run_chains_parallel
from islandmc.seeds import stream
from islandmc.smc import SmcConfig, run_smc
from islandmc.targets import (
    EvalCounter,
    GaussianLinearModel,
    make_bimodal_gmm,
    make_gaussian_target,
    make_logistic_target,
)


def _report(tag, ok, detail):
    print(f"\n[{tag}] {detail} -> {'PASS' if ok else 'FAIL'}")


# --- 1: weighted island estimator error falls like 1/(N P) ---------------


def test_island_mse_rate():
    target = make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16))
    mu, _, _ = target.analytic_posterior()
    cfg = SmcConfig(n_particles=32, mutation_steps=16,
                    kernel=HmcConfig(step_size=0.1, leapfrog_steps=10))
    ps = (1, 2, 4, 8, 16)
    mses = []
    for p in ps:
        errs = []
        for s in range(50):
            est = combine_weighted(run_islands(p, cfg, target, master_seed=1000 * p + s))
            errs.append(np.mean((est - mu) ** 2))
        mses.append(np.mean(errs))
    slope = np.polyfit(np.log(ps), np.log(mses), 1)[0]
    ok = -1.25 <= slope <= -0.75
    _report("C1 island mse rate", ok, f"log-log slope {slope:.3f}, target [-1.25, -0.75]")
    assert ok, f"MSE-vs-P slope {slope:.3f} outside [-1.25, -0.75] (mses {mses})"


# --- 2: fixed-schedule evidence estimate is unbiased ----------------------


def test_fixed_schedule_evidence_unbiased():
    target = make_gaussian_target(4, 4, 1.0, seed=0)
    _, _, logz = target.analytic_posterior()
    z_true = math.exp(logz)
    sched = tuple(np.geomspace(0.02, 1.0, 10).tolist()[:-1]) + (1.0,)
    # fixed schedule AND fixed kernel settings: tuning either from the
    # live population shifts the mean at order 1/N
    cfg = SmcConfig(n_particles=64, mutation_steps=3, schedule=sched,
                    kernel=PcnConfig(beta=0.5), adapt_steps=False)
    zs = np.array([math.exp(run_smc(cfg, target, seed=s).logz.total) for s in range(400)])
    se = zs.std(ddof=1) / math.sqrt(zs.size)
    z_score = (zs.mean() - z_true) / se
    ok = abs(zs.mean() - z_true) <= 3 * se
    _report("C2 evidence unbiasedness", ok,
            f"mean Z {zs.mean():.4e} vs analytic {z_true:.4e}, {abs(z_score):.2f} SE (limit 3)")
    assert ok, f"mean Z off by {z_score:.2f} standard errors over {zs.size} replicates"


# --- 3: adaptive tempering pins every non-terminal stage's ESS ------------


def test_adaptive_tempering_pins_ess():
    target = make_gaussian_target(4, 8, 1.0, seed=3)
    n = 128
    worst = 0.0
    ok = True
    for kernel in (PcnConfig(beta=0.5), HmcConfig(step_size=0.2, leapfrog_steps=5)):
        cfg = SmcConfig(n_particles=n, mutation_steps=2, kernel=kernel)
        for seed in (0, 1, 2):
            res = run_smc(cfg, target, seed=seed)
            sched = np.asarray(res.schedule)
            ok &= sched[-1] == 1.0
            ok &= bool(np.all(np.diff(np.concatenate([[0.0], sched])) > 0))
            gaps = np.abs(np.asarray(res.stage_ess[:-1]) - 0.5 * n)
            if gaps.size:
                worst = max(worst, gaps.max())
    ok &= worst <= 1e-6 * n
    _report("C3 tempering contract", ok,
            f"worst non-terminal |ESS - N/2| = {worst:.2e} (limit {1e-6 * n:.2e}), "
            "schedules strictly increasing, terminal exponent exactly 1")
    assert ok, f"tempering contract violated (worst ESS gap {worst:.3e})"


# --- 4: kernels preserve the prior at exponent zero -----------------------


def test_prior_preserved_at_exponent_zero():
    # 1e4 independent chains, final states only, so effective samples = 1e4
    target = make_gaussian_target(4, 8, 1.0, seed=3)
    k, steps = 10_000, 10
    bound = 4.0 / math.sqrt(k)
    ok = True
    details = []
    for name, cfg in [("pcn", PcnConfig(beta=0.5)),
                      ("hmc", HmcConfig(step_size=0.3, leapfrog_steps=10))]:
        rng = np.random.default_rng(np.random.SeedSequence((99, 0, 0)))
        pop = Population.initialize(target, rng, k, EvalCounter(),
                                    needs_grad=isinstance(cfg, HmcConfig))
        mutate(pop, 0.0, steps, cfg, target, [stream(99, 1, 1)])
        mean = pop.theta.mean(axis=0)
        var = pop.theta.var(axis=0, ddof=1)
        ok &= np.abs(mean).max() < bound
        ok &= bool(np.all((0.9 <= var) & (var <= 1.1)))
        details.append(f"{name} max|mean| {np.abs(mean).max():.4f}, "
                       f"var [{var.min():.3f}, {var.max():.3f}]")
    _report("C4 prior preservation", ok,
            f"{'; '.join(details)} (limits {bound:.3f}, [0.9, 1.1])")
    assert ok, f"exponent-zero chains drifted from N(0, I): {details}"


# --- 5: leapfrog is second order and reversible ----------------------------


def test_leapfrog_order_and_reversibility():
    target = make_gaussian_target(4, 8, 0.8, seed=3)

    def hamiltonian(theta, momentum, lam):
        pot = -(lam * target.log_likelihood(theta) + target.log_prior(theta))
        return pot + 0.5 * np.sum(momentum**2)

    # the endpoint energy error of a single trajectory suffers phase
    # cancellations, so compare the max |dH| envelope along the path,
    # which scales cleanly with dt^2
    def envelope(theta0, q0, dt, steps):
        h0 = hamiltonian(theta0, q0, 1.0)
        cfg = HmcConfig(step_size=dt, leapfrog_steps=1)
        theta, q, grad = theta0, q0, None
        worst = 0.0
        for _ in range(steps):
            theta, q, grad = leapfrog(theta, q, 1.0, cfg, target, grad_ll=grad)
            worst = max(worst, abs(hamiltonian(theta, q, 1.0) - h0))
        return worst

    ok = True
    ratios = []
    for start_seed in (9, 21, 33):
        rng = np.random.default_rng(start_seed)
        theta0, q0 = rng.standard_normal(4), rng.standard_normal(4)
        ratios.append(envelope(theta0, q0, 0.1, 20) / envelope(theta0, q0, 0.05, 40))
        ok &= 3.0 <= ratios[-1] <= 5.0
        cfg = HmcConfig(step_size=0.05, leapfrog_steps=30)
        theta1, q1, _ = leapfrog(theta0, q0, 1.0, cfg, target)
        theta2, q2, _ = leapfrog(theta1, -q1, 1.0, cfg, target)
        rev = max(np.abs(theta2 - theta0).max(), np.abs(-q2 - q0).max())
        ok &= rev < 1e-10
    _report("C5 leapfrog order", ok,
            f"max |dH| shrinks {np.round(ratios, 2)}x under dt/2 (target [3, 5]), "
            "reversible to 1e-10")
    assert ok, f"leapfrog order/reversibility failed (ratios {ratios})"


# --- 6: tempered population recovers a mixture mean a single chain misses --


def test_bimodal_mean_recovery_beats_single_chain():
    target = make_bimodal_gmm(2)
    truth = target.mixture_mean()
    kern = HmcConfig(step_size=0.1, leapfrog_steps=10)
    cfg = SmcConfig(n_particles=512, mutation_steps=16, kernel=kern)

    smc_means, chain_means = [], []
    for s in range(20):
        res = run_smc(cfg, target, seed=s)
        smc_means.append(res.samples.mean(axis=0))
        # same per-particle epoch budget for the lone chain
        epochs_pp = res.epochs.epochs / cfg.n_particles
        steps = int(np.ceil((epochs_pp - 1) / (1 + kern.leapfrog_steps)))
        mcfg = McmcConfig(n_samples=steps, burn_in=0, thin=1, kernel=kern, mode="serial")
        samples, _ = run_chain_serial(mcfg, target, seed=s)
        chain_means.append(samples.mean(axis=0))
    smc_means = np.array(smc_means)
    chain_means = np.array(chain_means)

    avg_gap = np.abs(smc_means.mean(axis=0) - truth).max()
    smc_mae = np.abs(smc_means - truth).mean()
    chain_mae = np.abs(chain_means - truth).mean()
    ratio = chain_mae / smc_mae
    ok = avg_gap <= 0.1 and ratio >= 3.0
    _report("C6 bimodal recovery", ok,
            f"avg estimate within {avg_gap:.3f} of -0.6 (limit 0.1); "
            f"chain MAE / population MAE = {ratio:.1f} (floor 3)")
    assert avg_gap <= 0.1, f"population mean estimate off by {avg_gap:.3f}"
    assert ratio >= 3.0, f"budget-matched chain only {ratio:.2f}x worse"


# --- 7: evidence weighting beats equal weighting across islands ------------


def test_weighted_island_combination():
    target = make_bimodal_gmm(2)
    truth = target.mixture_mean()
    cfg = SmcConfig(n_particles=8, mutation_steps=8, kernel=PcnConfig(beta=0.5))
    w_err, u_err = [], []
    for m in range(100):
        ens = run_islands(32, cfg, target, master_seed=m)
        w_err.append(np.abs(combine_weighted(ens) - truth).mean())
        u_err.append(np.abs(combine_unweighted(ens) - truth).mean())
    w_mae, u_mae = np.mean(w_err), np.mean(u_err)
    ok = w_mae <= u_mae
    _report("C7 island weighting", ok,
            f"weighted MAE {w_mae:.4f} <= unweighted MAE {u_mae:.4f}")
    assert ok, f"weighted {w_mae:.4f} vs unweighted {u_mae:.4f} over 100 ensembles"


# --- 8: parallel-chain bias decays with burn-in ----------------------------


def test_parallel_chain_burn_in_bias_decay():
    target = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), 1.0)
    truth = target.analytic_posterior()[0][0]
    kern = PcnConfig(beta=0.15)
    sq_bias = []
    for burn in (10, 50, 250):
        cfg = McmcConfig(n_samples=1, burn_in=burn, thin=1, kernel=kern, mode="parallel")
        ests = []
        for s in range(100):
            seeds = [s * 1000 + c for c in range(64)]
            samples, _ = run_chains_parallel(cfg, target, seeds)
            ests.append(samples.mean())
        sq_bias.append((np.mean(ests) - truth) ** 2)
    ok = sq_bias[0] > sq_bias[1] > sq_bias[2]
    _report("C8 burn-in bias decay", ok,
            "squared bias over B=10/50/250: "
            + " > ".join(f"{b:.2e}" for b in sq_bias))
    assert ok, f"squared bias not monotone over burn-in: {sq_bias}"


# --- 9: island populations beat annealed importance sampling ----------------


def test_island_smc_variance_below_ais():
    target = make_logistic_target(15, 690, seed=0)
    reps = 50
    ps = np.arange(1, 9)
    smc_var, ais_var = [], []
    for p in ps:
        scfg = SmcConfig(n_particles=16, mutation_steps=2, kernel=PcnConfig(beta=0.5))
        sv = [combine_weighted(run_islands(int(p), scfg, target, master_seed=10_000 * int(p) + r))
              for r in range(reps)]
        acfg = AisConfig(n_samples=16 * int(p), schedule=make_neal_schedule(),
                         kernel=PcnConfig(beta=0.5), mutation_steps=2)
        av = []
        for r in range(reps):
            s, logw, _ = run_ais(acfg, target, seed=20_000 + 97 * int(p) + r)
            av.append(ais_estimate(s, logw))
        smc_var.append(np.var(np.array(sv), axis=0, ddof=1).mean())
        ais_var.append(np.var(np.array(av), axis=0, ddof=1).mean())
    smc_var, ais_var = np.array(smc_var), np.array(ais_var)
    s_slope = np.polyfit(np.log(ps), np.log(smc_var), 1)[0]
    a_slope = np.polyfit(np.log(ps), np.log(ais_var), 1)[0]
    ok = bool(np.all(smc_var <= ais_var)) and s_slope < 0 and a_slope < 0
    _report("C9 variance vs annealed IS", ok,
            f"island variance below AIS at all P in 1..8 "
            f"(worst ratio {np.max(smc_var / ais_var):.2f}); "
            f"slopes {s_slope:.2f} / {a_slope:.2f} (both < 0)")
    assert np.all(smc_var <= ais_var), f"variance comparison failed: {smc_var} vs {ais_var}"
    assert s_slope < 0 and a_slope < 0, f"slopes not both negative: {s_slope}, {a_slope}"


# --- 10: integrated autocorrelation time oracle -----------------------------


def test_iact_known_values():
    rho = 0.9
    rng = np.random.default_rng(10)
    eps = rng.standard_normal(1_000_000)
    series = lfilter([1.0], [1.0, -rho], eps)
    tau = iact(series)
    expected = (1 + rho) / (1 - rho)  # 19
    iid = iact(np.random.default_rng(11).standard_normal(1_000_000))
    ok = abs(tau - expected) <= 0.1 * expected and abs(iid - 1.0) <= 0.1
    _report("C10 iact oracle", ok,
            f"AR(1) rho=0.9: {tau:.2f} vs 19 (tol 1.9); iid: {iid:.3f} vs 1 (tol 0.1)")
    assert abs(tau - expected) <= 0.1 * expected, f"AR(1) iact {tau:.3f} not within 10% of 19"
    assert abs(iid - 1.0) <= 0.1, f"iid iact {iid:.3f} not within 0.1 of 1"


# --- 11: reruns are identical and epoch tallies are exact -------------------


def _strip_wall(path):
    lines = path.read_text().strip().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_csv_determinism_and_epoch_accounting(tmp_path):
    points = {
        "smc": {"N": 16, "M": 1},
        "smc_par": {"N": 8, "P": 2, "M": 1},
        "mcmc": {"N": 30, "B": 10, "T": 2},
        "mcmc_par": {"N": 12, "B": 5},
        "ais": {"N": 8, "M": 1},
    }
    deterministic = True
    for kind, point in points.items():
        cfg = parse_config({
            "target": {"kind": "gaussian", "d": 2, "m": 4, "seed": 1},
            "method": {"kind": kind, "kernel": {"kind": "pcn", "beta": 0.5}},
            "sweep": [point],
            "replicates": 2,
            "master_seed": 7,
        })
        paths = []
        for i in (0, 1):
            rows = run_experiment(cfg)
            out = tmp_path / f"{kind}_{i}.csv"
            write_csv(rows, out)
            paths.append(out)
        deterministic &= _strip_wall(paths[0]) == _strip_wall(paths[1])

    # closed-form epoch identities, checked exactly for every method
    target = make_gaussian_target(3, 6, 1.0, seed=2)
    pcn = PcnConfig(beta=0.5)
    hmc = HmcConfig(step_size=0.2, leapfrog_steps=4)
    n, m_steps = 16, 2
    exact = True

    res = run_smc(SmcConfig(n_particles=n, mutation_steps=m_steps, kernel=pcn), target, seed=0)
    j = len(res.schedule)
    exact &= res.epochs.likelihood == n * (1 + j * m_steps) and res.epochs.gradient == 0

    res = run_smc(SmcConfig(n_particles=n, mutation_steps=m_steps, kernel=hmc), target, seed=0)
    j = len(res.schedule)
    exact &= res.epochs.likelihood == n * (1 + j * m_steps)
    exact &= res.epochs.gradient == n * (1 + j * m_steps * hmc.leapfrog_steps)

    ens = run_islands(3, SmcConfig(n_particles=n, mutation_steps=m_steps, kernel=pcn),
                      target, master_seed=5)
    for island in ens.results:
        exact &= island.epochs.likelihood == n * (1 + len(island.schedule) * m_steps)

    burn, draws, thin = 4, 9, 3
    _, counter = run_chain_serial(
        McmcConfig(n_samples=draws, burn_in=burn, thin=thin, kernel=pcn, mode="serial"),
        target, seed=3)
    exact &= counter.likelihood == burn + (draws - 1) * thin + 1

    _, counter = run_chain_serial(
        McmcConfig(n_samples=draws, burn_in=burn, thin=thin, kernel=hmc, mode="serial"),
        target, seed=3)
    steps = burn + (draws - 1) * thin
    exact &= counter.likelihood == steps + 1
    exact &= counter.gradient == steps * hmc.leapfrog_steps + 1

    _, counter = run_chains_parallel(
        McmcConfig(n_samples=1, burn_in=6, thin=1, kernel=hmc, mode="parallel"),
        target, seeds=list(range(8)))
    exact &= counter.likelihood == 8 * 7
    exact &= counter.gradient == 8 * (6 * hmc.leapfrog_steps + 1)

    sched = make_neal_schedule()
    _, _, counter = run_ais(AisConfig(n_samples=8, schedule=sched, kernel=pcn,
                                      mutation_steps=2), target, seed=4)
    exact &= counter.likelihood == 8 * (1 + (len(sched) - 1) * 2)

    _, _, counter = run_ais(AisConfig(n_samples=8, schedule=sched, kernel=hmc,
                                      mutation_steps=2), target, seed=4)
    exact &= counter.likelihood == 8 * (1 + (len(sched) - 1) * 2)
    exact &= counter.gradient == 8 * (1 + (len(sched) - 1) * 2 * hmc.leapfrog_steps)

    ok = deterministic and exact
    _report("C11 determinism and accounting", ok,
            f"reruns identical up to wall_seconds: {deterministic}; "
            f"epoch identities exact for all methods: {exact}")
    assert deterministic, "rerun produced different rows (beyond wall_seconds)"
    assert exact, "an epoch tally deviated from its closed form"
