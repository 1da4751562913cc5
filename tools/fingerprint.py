"""Frozen-seed fingerprint of islandmc's sampler outputs.

Runs a fixed set of small SMC, AIS and MCMC island ensembles, both chain
runners, a few harness sweeps and a few failing stacked runs, and prints
one sha256 digest per group.  Every ``IslandResult`` field is hashed bit
for bit (samples, evidence, schedule, epochs, kernel stats, stage ESS,
AIS log-weights), every harness row except ``wall_seconds``, and the
type, message and fields of each failing run's error.  Two trees whose
digests match produce the same outputs on these seeds.

Usage::

    python tools/fingerprint.py                 # the tree this script sits in
    python tools/fingerprint.py --src OTHER/src # another checkout's package

BLAS runs on one thread, so that the digests do not depend on the core
count.  The whole run takes a few seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
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
        """Every field of the IslandResult ``r``, in order: arrays by bytes, records
        of ints as ints, other records and lists as floats, None as ``b"None"``."""
        import numpy as np

        for field in dataclasses.fields(r):
            name, value = f"{tag}.{field.name}", getattr(r, field.name)
            if value is None:
                self.add(name, b"None")
            elif isinstance(value, np.ndarray):
                self.array(name, value)
            elif dataclasses.is_dataclass(value):
                values = dataclasses.astuple(value)
                (self.ints if all(type(v) is int for v in values) else self.floats)(name, values)
            else:
                self.floats(name, value)

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


class _BadRows:
    """A target whose ``call``-th log-likelihood call sets chosen rows to ``value``."""

    def __init__(self, base, bad):
        self.base = base
        self.bad = bad  # call index -> (rows, value)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def log_likelihood(self, theta, counter=None):
        import numpy as np

        ll = np.array(self.base.log_likelihood(theta, counter), dtype=float)
        rows, value = self.bad.get(self.calls, ([], 0.0))
        ll[rows] = value
        self.calls += 1
        return ll


def errors_group(im, digest):
    import numpy as np

    gauss = im.make_gaussian_target(2, 4, 1.0, seed=0)
    # islands 1, 2 and 3 of seeds [1, 2, 3] take 5, 2 and 4 stages here
    uneven = im.make_gaussian_target(2, 4, 0.3, seed=0)
    pcn = im.SmcConfig(n_particles=8, mutation_steps=1)
    every_row = list(range(8))
    # the stacked runs make one likelihood call per island for the initial
    # populations, then one per pCN or HMC sweep; a NaN proposal is rejected
    # and a +inf one accepted, so only +inf can fail a later stage
    cases = [
        ("stalled", pcn, _BadRows(gauss, {1: (every_row, -1e13 * np.arange(8.0))}), [11, 12, 13, 14]),
        ("overflow", im.SmcConfig(n_particles=64, mutation_steps=1, max_stages=2),
         im.make_gaussian_target(4, 64, 0.05, seed=8), [1, 2]),
        ("nan_stage_1", pcn, _BadRows(gauss, {1: ([0, 3], np.nan), 2: ([1, 2, 5], np.nan)}), [11, 12, 13, 14]),
        # island 2's rows, block 1 of the stage-3 sweep after island 1 left
        ("inf_stage_4", pcn, _BadRows(uneven, {5: ([9, 14], np.inf)}), [1, 2, 3]),
        ("dead", pcn, _BadRows(gauss, {1: (every_row, -np.inf), 2: ([4], np.nan)}), [11, 12, 13, 14]),
        ("ais_nan", im.AisConfig(8, (0.0, 0.1, 0.3, 0.6, 1.0), im.HmcConfig(step_size=0.2, leapfrog_steps=3)),
         _BadRows(im.make_gaussian_target(3, 4, 1.0, seed=0), {2: ([4, 7], np.nan)}), [1, 2, 3]),
    ]
    for name, cfg, target, seeds in cases:
        try:
            im.smc.run_smc_islands(cfg, target, seeds)
        except Exception as e:  # an unexpected type changes the digest too
            error = e
        else:
            raise AssertionError(f"errors case {name} ran to the end")
        digest.add(f"{name}.error", f"{type(error).__name__}: {error}".encode())
        for field in ("stage", "schedule", "lam", "ess", "target_ess", "theta"):
            value = getattr(error, field, None)
            if value is None:
                digest.add(f"{name}.{field}", b"None")
            elif field == "theta":
                digest.array(f"{name}.{field}", value)
            else:
                digest.floats(f"{name}.{field}", np.atleast_1d(value))


GROUPS = {
    "smc": smc_group,
    "ais": ais_group,
    "mcmc": mcmc_group,
    "chains": chains_group,
    "harness": harness_group,
    "errors": errors_group,
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
