"""Frozen-seed fingerprint of islandmc's sampler outputs.

Runs a fixed set of small SMC, AIS and MCMC island ensembles, both chain
runners and a few harness sweeps, and prints one sha256 digest per
group.  Every ``IslandResult`` field is hashed bit for bit (samples,
evidence, schedule, epochs, kernel stats, stage ESS, AIS log-weights),
and every harness row except ``wall_seconds``.  Two trees whose digests
match produce the same outputs on these seeds.

Usage::

    python tools/fingerprint.py                 # the tree this script sits in
    python tools/fingerprint.py --src OTHER/src # another checkout's package

BLAS runs on one thread, so that the digests do not depend on the core
count.  The whole run takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys

# before numpy loads, which happens on first use below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, tag, payload: bytes):
        self._h.update(tag.encode() + b"\0" + len(payload).to_bytes(8, "little") + payload)

    def array(self, tag, a):
        import numpy as np

        a = np.ascontiguousarray(a, dtype=float)
        self.add(tag, repr(a.shape).encode() + a.tobytes())

    def floats(self, tag, values):
        values = [float(v) for v in values]
        self.add(tag, struct.pack(f"<{len(values)}d", *values))

    def ints(self, tag, values):
        self.add(tag, repr([int(v) for v in values]).encode())

    def island(self, tag, r):
        self.array(f"{tag}.samples", r.samples)
        self.floats(f"{tag}.logz", (r.logz.offset_sum, r.logz.residual_log))
        self.floats(f"{tag}.schedule", r.schedule)
        self.ints(f"{tag}.epochs", (r.epochs.likelihood, r.epochs.gradient))
        self.ints(f"{tag}.kernel_stats", (r.kernel_stats.proposals, r.kernel_stats.accepts))
        self.floats(f"{tag}.stage_ess", r.stage_ess)
        if r.log_weights is None:
            self.add(f"{tag}.log_weights", b"None")
        else:
            self.array(f"{tag}.log_weights", r.log_weights)

    def hexdigest(self):
        return self._h.hexdigest()


def _targets(im):
    import numpy as np

    return {
        "gauss_d4": im.make_gaussian_target(4, 20, 0.8, seed=3),
        "gauss_c1": im.make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16)),
        # 8-row log-likelihood blocks: a stacked batch spans many of them
        "gauss_tall": im.make_gaussian_target(2, 4096, 1.0, seed=5),
        "logistic_d5": im.make_logistic_target(5, 100, seed=1),
        "logistic_c9": im.make_logistic_target(15, 690, seed=0),
        "mixture_d2": im.make_bimodal_gmm(2),
    }


def _kernels(im):
    return {
        "pcn": im.PcnConfig(beta=0.5),
        "pcn_unit": im.PcnConfig(beta=0.4, use_scaling=False),
        "hmc_unit": im.HmcConfig(step_size=0.2, leapfrog_steps=4),
        "hmc_scalar_mass": im.HmcConfig(step_size=0.2, leapfrog_steps=3, mass=1.7),
        "hmc_vector_mass": im.HmcConfig(step_size=0.2, leapfrog_steps=3, mass=[1.0, 2.0, 0.5, 1.5]),
        "hmc_ones_mass": im.HmcConfig(step_size=0.2, leapfrog_steps=3, mass=[1.0, 1.0, 1.0, 1.0]),
        "hmc_c1": im.HmcConfig(step_size=0.1, leapfrog_steps=10),
    }


def smc_group(im, digest):
    t, k = _targets(im), _kernels(im)
    cases = [
        ("gauss_d4", "pcn", 32, 3, {}),
        ("gauss_d4", "hmc_unit", 32, 3, {}),
        ("gauss_d4", "hmc_scalar_mass", 16, 2, {"resampling": "systematic"}),
        ("gauss_d4", "hmc_vector_mass", 16, 2, {}),
        ("gauss_d4", "hmc_ones_mass", 16, 2, {"schedule": (0.1, 0.4, 1.0), "adapt_steps": False}),
        ("gauss_c1", "hmc_c1", 32, 4, {}),
        ("gauss_tall", "hmc_unit", 16, 2, {}),
        ("logistic_d5", "pcn", 7, 2, {}),
        ("logistic_d5", "pcn", 16, 2, {}),
        ("logistic_d5", "pcn_unit", 16, 2, {"adapt_steps": False}),
        ("logistic_d5", "hmc_unit", 7, 2, {}),
        ("logistic_d5", "hmc_unit", 16, 2, {}),
        ("logistic_c9", "pcn", 16, 2, {}),
        ("mixture_d2", "hmc_unit", 32, 3, {}),
    ]
    for i, (target, kernel, n, m, opts) in enumerate(cases):
        cfg = im.SmcConfig(n_particles=n, mutation_steps=m, kernel=k[kernel], **opts)
        ens = im.run_islands(4, cfg, t[target], master_seed=i)
        for p, r in enumerate(ens.results):
            digest.island(f"smc{i}.{p}", r)


def ais_group(im, digest):
    t, k = _targets(im), _kernels(im)
    ladder = (0.0, 0.01, 0.1, 0.4, 1.0)
    cases = [
        ("gauss_d4", "pcn", 32, 2, ladder),
        ("gauss_d4", "hmc_unit", 32, 2, ladder),
        ("gauss_d4", "hmc_vector_mass", 16, 1, ladder),
        ("logistic_d5", "pcn", 7, 2, ladder),
        ("logistic_d5", "hmc_unit", 16, 1, ladder),
        ("logistic_c9", "pcn", 64, 2, im.make_neal_schedule()),
        ("mixture_d2", "hmc_unit", 32, 2, ladder),
    ]
    for i, (target, kernel, n, m, schedule) in enumerate(cases):
        cfg = im.AisConfig(n, schedule, k[kernel], mutation_steps=m)
        ens = im.run_islands(3, cfg, t[target], master_seed=100 + i)
        for p, r in enumerate(ens.results):
            digest.island(f"ais{i}.{p}", r)


def mcmc_group(im, digest):
    t, k = _targets(im), _kernels(im)
    cases = [
        ("gauss_d4", "pcn", {"n_samples": 40, "burn_in": 5, "thin": 2}),
        ("gauss_d4", "hmc_unit", {"n_samples": 30, "burn_in": 5}),
        ("gauss_d4", "hmc_vector_mass", {"n_samples": 20, "burn_in": 3, "thin": 2}),
        ("logistic_d5", "hmc_unit", {"n_samples": 20, "burn_in": 2}),
        ("gauss_d4", "pcn", {"n_samples": 16, "burn_in": 10, "mode": "parallel"}),
        ("gauss_d4", "hmc_unit", {"n_samples": 16, "burn_in": 6, "mode": "parallel"}),
        ("logistic_d5", "hmc_unit", {"n_samples": 7, "burn_in": 4, "mode": "parallel"}),
    ]
    for i, (target, kernel, opts) in enumerate(cases):
        cfg = im.McmcConfig(kernel=k[kernel], **opts)
        ens = im.run_islands(3, cfg, t[target], master_seed=200 + i)
        for p, r in enumerate(ens.results):
            digest.island(f"mcmc{i}.{p}", r)


def chains_group(im, digest):
    t, k = _targets(im), _kernels(im)
    for i, (target, kernel) in enumerate([("gauss_d4", "pcn"), ("gauss_d4", "hmc_unit"),
                                          ("gauss_d4", "hmc_vector_mass"), ("mixture_d2", "hmc_unit"),
                                          ("logistic_d5", "hmc_unit")]):
        stats = im.KernelStats()
        cfg = im.McmcConfig(n_samples=50, burn_in=10, thin=2, kernel=k[kernel])
        samples, counter = im.run_chain_serial(cfg, t[target], 300 + i, stats=stats)
        digest.array(f"serial{i}.samples", samples)
        digest.ints(f"serial{i}.tally", (counter.likelihood, counter.gradient, stats.proposals, stats.accepts))
        stats = im.KernelStats()
        cfg = im.McmcConfig(n_samples=1, burn_in=12, kernel=k[kernel], mode="parallel")
        samples, counter = im.run_chains_parallel(cfg, t[target], list(range(400, 424)), stats=stats)
        digest.array(f"parallel{i}.samples", samples)
        digest.ints(f"parallel{i}.tally", (counter.likelihood, counter.gradient, stats.proposals, stats.accepts))


def harness_group(im, digest):
    from islandmc import harness

    hmc = {"kind": "hmc", "step_size": 0.2, "leapfrog_steps": 3}
    gauss = {"kind": "gaussian", "d": 3, "m": 12, "sigma": 1.0, "seed": 0}
    configs = [
        (gauss, {"kind": "smc_par", "kernel": hmc}, [{"N": 16, "P": 1, "M": 2}, {"N": 16, "P": 4, "M": 2}]),
        (gauss, {"kind": "smc", "kernel": {"kind": "pcn", "beta": 0.5}}, [{"N": 32, "P": 1, "M": 2}]),
        (gauss, {"kind": "mcmc_par", "kernel": hmc}, [{"N": 16, "P": 2, "M": 1, "B": 4}]),
        (gauss, {"kind": "mcmc", "kernel": hmc}, [{"N": 30, "P": 1, "M": 1, "B": 5, "T": 2}]),
        (gauss, {"kind": "ais", "kernel": hmc}, [{"N": 16, "P": 2, "M": 1}]),
        ({"kind": "logistic", "d": 4, "m": 60, "seed": 2}, {"kind": "smc_par"}, [{"N": 7, "P": 3, "M": 2}]),
    ]
    for i, (target, method, sweep) in enumerate(configs):
        cfg = harness.parse_config({"target": target, "method": method, "sweep": sweep,
                                    "replicates": 2, "master_seed": 500 + i})
        for j, row in enumerate(harness.run_experiment(cfg)):
            row = {key: value for key, value in row.items() if key != "wall_seconds"}
            digest.add(f"harness{i}.{j}", repr(sorted(row.items())).encode())


GROUPS = {
    "smc": smc_group,
    "ais": ais_group,
    "mcmc": mcmc_group,
    "chains": chains_group,
    "harness": harness_group,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
                        help="directory holding the islandmc package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import islandmc

    print(f"islandmc from {os.path.dirname(islandmc.__file__)}", file=sys.stderr)
    for name, group in GROUPS.items():
        digest = _Digest()
        group(islandmc, digest)
        print(f"{name} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
