"""Experiment harness: config-driven sweeps, CSV output, rate fits.

A JSON config names a target, a method, and a sweep over population
size N, island count P, mutation steps M, burn-in B, and thinning T.
Each sweep point runs ``replicates`` times with seeds derived from the
master seed, and every run becomes one CSV row.  Rows are deterministic
functions of the config and master seed except for the wall_seconds
column.

The ``fit`` entry point regresses log y on log x across sweep points to
summarize convergence rates.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from functools import partial
from typing import NamedTuple

import numpy as np

from . import ais as ais_mod
from . import islands as islands_mod
from . import mcmc as mcmc_mod
from . import targets as targets_mod
from .ais import AisConfig
from .kernels import HmcConfig, PcnConfig, check_int
from .mcmc import McmcConfig
from .seeds import derive_seed
from .smc import DegenerateWeightsError, ScheduleOverflowError, SmcConfig
from .targets import NumericalDomainError

CSV_COLUMNS = [
    "method", "N", "P", "M", "B", "T", "replicate",
    "mse_vs_truth", "logZ", "lik_evals", "grad_evals",
    "epochs_serial", "epochs_parallel", "wall_seconds",
]

COLUMN_ALIASES = {"mse": "mse_vs_truth", "epochs": "epochs_serial", "logz": "logZ"}

class ConfigError(ValueError):
    """Config file problem; the message names the offending field."""


class CellError(RuntimeError):
    """A sweep cell's sampler failed; the message names the cell."""


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One sweep point: population size N, island count P, mutation steps M,
    burn-in B and thinning T, each an int, not bool, checked at construction
    to be at least 1 (M and B: at least 0)."""

    N: int
    P: int = 1
    M: int = 1
    B: int = 0
    T: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_int(getattr(self, f.name), f.name, 0 if f.name in "MB" else 1)


@dataclasses.dataclass
class ExperimentConfig:
    """A parsed config holding what runs: the built target, the method
    kind, and one method config per sweep point, all built once."""

    target: object
    kind: str
    sweep: list
    method_configs: list
    replicates: int
    master_seed: int
    output: str | None = None


def _check_fields(spec, allowed, path, kind=None):
    """Reject the keys of ``spec`` outside ``allowed``; the error names the section ``path``."""
    unknown = set(spec) - set(allowed)
    if unknown:
        of_kind = "" if kind is None else f" for kind {kind!r}"
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}{of_kind}")


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required field '{key}'")
    return mapping[key]


def parse_config(payload) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_fields(payload, ("target", "method", "sweep", "replicates", "master_seed", "output"), "top level")
    target_spec = _require(payload, "target", "top level")
    method_spec = _require(payload, "method", "top level")
    raw_sweep = _require(payload, "sweep", "top level")
    replicates = _build(check_int, "replicates", _require(payload, "replicates", "top level"), "replicates", 1)
    master_seed = _build(check_int, "master_seed", _require(payload, "master_seed", "top level"), "master_seed", 0)
    output = payload.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a file path, got {output!r}")
    if not isinstance(raw_sweep, list) or not raw_sweep:
        raise ConfigError("sweep: expected a non-empty list")
    sweep = []
    for i, entry in enumerate(raw_sweep):
        path = f"sweep[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object with N, P, M, B, T")
        _check_fields(entry, [f.name for f in dataclasses.fields(SweepPoint)], path)
        _require(entry, "N", path)
        sweep.append(_build(SweepPoint, path, **entry))
    target = build_target(target_spec)
    method_configs = [_point_config(method_spec, point, target, i) for i, point in enumerate(sweep)]
    # each _point_config call has checked the method kind
    return ExperimentConfig(target, method_spec["kind"], sweep, method_configs, replicates, master_seed, output)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_config(payload)


def _build(make, section, *args, path=None, paths=None, **fields):
    """``make(*args, **fields)``; an error names its field's path in ``paths``, else
    ``section.<field>`` for one of ``fields`` (``section.<field>[k]`` for its entry ``k``),
    else ``path`` (default ``section``)."""
    try:
        return make(*args, **fields)
    except (OSError, ValueError) as exc:
        # the library starts each field's message with the field's name
        field = str(exc).split(" ", 1)[0]
        where = (paths or {}).get(field) or (f"{section}.{field}" if field.split("[")[0] in fields else path or section)
        raise ConfigError(f"{where}: {exc}") from exc


def _mixture(d, weights, means):
    """The explicit mixture, whose means must have ``d`` entries each."""
    target = targets_mod.GmmTarget(weights, means)
    if target.dim != check_int(d, "d", 1):
        raise ValueError(f"means[0] has {target.dim} entries, expected {d} (target.d)")
    return target


# target kind -> (the field that selects its second variant, then each variant's
# builder, fields besides kind and required fields): a gmm target given means is
# an explicit mixture, a logistic target given csv reads its data from the file;
# a builder checks each value, and a field the spec leaves out takes its default
_TARGETS = {
    "gaussian": (None, (partial(targets_mod.make_gaussian_target, sigma=1.0, seed=0),
                        ("d", "m", "sigma", "seed", "theta_star"), ("d", "m"))),
    "gmm": ("means", (targets_mod.make_bimodal_gmm, ("d", "weight"), ("d",)),
            (_mixture, ("d", "weights", "means"), ("d", "weights"))),
    "logistic": ("csv", (partial(targets_mod.make_logistic_target, seed=0), ("d", "m", "seed", "prior_var"), ("d", "m")),
                 (lambda csv, **kw: targets_mod.load_logistic_csv(csv, **kw), ("csv", "prior_var"), ())),
}


def build_target(spec):
    if not isinstance(spec, dict):
        raise ConfigError("target: expected an object")
    kind = _require(spec, "kind", "target")
    if not isinstance(kind, str) or kind not in _TARGETS:
        raise ConfigError(f"target.kind: unknown target kind {kind!r}")
    switch, *variants = _TARGETS[kind]
    _check_fields(spec, {"kind"}.union(*(fields for _, fields, _ in variants)), "target", kind)
    given = switch in spec
    make, fields, required = variants[given]
    # a field of the kind that the chosen variant would drop
    ignored = sorted(set(spec) - {"kind", *fields})
    if ignored:
        raise ConfigError(f"target.{ignored[0]}: not used {'with' if given else 'without'} target.{switch}")
    for name in required:
        if name not in spec:
            raise ConfigError(f"target.{name}: required when target.{switch} is given" if given
                              else f"target: missing required field '{name}'")
    return _build(make, "target", path=f"target.{switch}" if given else "target",
                  **{k: v for k, v in spec.items() if k != "kind"})


# kernel kind -> its config class, whose fields are the spec's fields besides kind
_KERNELS = {"pcn": PcnConfig, "hmc": HmcConfig}


def build_kernel(spec):
    if spec is None:
        return PcnConfig()
    if not isinstance(spec, dict):
        raise ConfigError("method.kernel: expected an object")
    kind = spec.get("kind", "pcn")
    if not isinstance(kind, str) or kind not in _KERNELS:
        raise ConfigError(f"method.kernel.kind: unknown kernel kind {kind!r}")
    _check_fields(spec, ("kind", *(f.name for f in dataclasses.fields(_KERNELS[kind]))), "method.kernel", kind)
    return _build(_KERNELS[kind], "method.kernel", **{k: v for k, v in spec.items() if k != "kind"})


def analytic_truth(target):
    """Posterior mean when available for the target, else None."""
    if isinstance(target, targets_mod.GaussianLinearModel):
        return target.analytic_posterior()[0]
    if isinstance(target, targets_mod.GmmTarget):
        return target.mixture_mean()
    return None


def _run_islands_cell(cfg, n_islands, target, seed):
    """SMC or MCMC islands combined by evidence; MCMC evidences are all 1, so logZ is 0."""
    ens = islands_mod.run_islands(n_islands, cfg, target, seed)
    logz = islands_mod.log_mean_evidence(ens.logz_totals())
    return islands_mod.combine_weighted(ens), logz, [r.epochs for r in ens.results]


def _run_chain_cell(cfg, n_islands, target, seed):
    samples, counter = mcmc_mod.run_chain_serial(cfg, target, seed)
    return samples.mean(axis=0), 0.0, [counter]


def _run_ais_cell(cfg, n_islands, target, seed):
    """One ``run_ais`` per island seed, pooled.

    Stacking the islands in one run would put rows of several islands
    into one likelihood block, where BLAS can give a row other last bits
    (it does on the logistic target).
    """
    runs = [ais_mod.run_ais(cfg, target, derive_seed(seed, p)) for p in range(n_islands)]
    samples, log_ws, tallies = zip(*runs)
    samples, log_ws = np.concatenate(samples), np.concatenate(log_ws)
    return ais_mod.ais_estimate(samples, log_ws), ais_mod.log_evidence_estimate(log_ws), tallies


_SMC_FIELDS = ("ess_fraction", "max_stages", "resampling", "schedule", "adapt_steps")

# method kind -> (config class, the config field each sweep-point field sets,
# the method spec's fields besides kind and kernel, cell runner taking
# (config, P, target, seed) and returning the estimate, the log evidence and
# the evaluation tally of each island); the class checks each value, and a
# field the spec leaves out takes the class's default
_METHODS = {
    "smc": (SmcConfig, {"N": "n_particles", "M": "mutation_steps"}, _SMC_FIELDS, _run_islands_cell),
    "smc_par": (SmcConfig, {"N": "n_particles", "M": "mutation_steps"}, _SMC_FIELDS, _run_islands_cell),
    "mcmc": (McmcConfig, {"N": "n_samples", "B": "burn_in", "T": "thin"}, (), _run_chain_cell),
    "mcmc_par": (partial(McmcConfig, mode="parallel"), {"N": "n_samples", "B": "burn_in", "T": "thin"}, (),
                 _run_islands_cell),
    "ais": (AisConfig, {"N": "n_samples", "M": "mutation_steps"}, ("schedule",), _run_ais_cell),
}


def _point_config(method_spec, point, target, index):
    """The method config of sweep point ``index``; each error names its field."""
    if not isinstance(method_spec, dict):
        raise ConfigError("method: expected an object")
    kind = _require(method_spec, "kind", "method")
    if not isinstance(kind, str) or kind not in _METHODS:
        raise ConfigError(f"method.kind: unknown method kind {kind!r}")
    _check_fields(method_spec, ("kind", "kernel", *_METHODS[kind][2]), "method", kind)
    kernel = build_kernel(method_spec.get("kernel"))
    if isinstance(kernel, HmcConfig) and np.ndim(kernel.mass) != 0 and np.shape(kernel.mass) != (target.dim,):
        raise ConfigError(
            f"method.kernel.mass: expected a number or a list of {target.dim} numbers "
            f"(target.dim), got {list(kernel.mass)!r}"
        )
    if kind in ("smc", "mcmc") and point.P != 1:
        raise ConfigError(f"sweep[{index}].P: method {kind!r} requires P = 1 (use {kind}_par for islands)")
    make, point_fields, fields, _ = _METHODS[kind]
    opts = {k: method_spec[k] for k in fields if k in method_spec}
    if kind == "ais" and opts.get("schedule", "neal") == "neal":
        opts["schedule"] = ais_mod.make_neal_schedule()  # the default AIS ladder, by name or left out
    opts.update({name: getattr(point, f) for f, name in point_fields.items()})
    paths = {name: f"sweep[{index}].{f}" for f, name in point_fields.items()}
    return _build(make, "method", path=f"sweep[{index}]", paths=paths, kernel=kernel, **opts)


def run_experiment(cfg):
    """Run the whole sweep and return one row dict per replicate.

    Rows are ordered by (sweep index, replicate), and every column
    except wall_seconds is a deterministic function of the config and
    master seed.  A cell whose sampler fails raises :class:`CellError`
    naming the cell, chained to the sampler's error.
    """
    truth = analytic_truth(cfg.target)
    run_cell = _METHODS[cfg.kind][3]
    rows = []
    for si, (point, method_cfg) in enumerate(zip(cfg.sweep, cfg.method_configs)):
        for replicate in range(cfg.replicates):
            seed = derive_seed(cfg.master_seed, si, replicate)
            start = time.perf_counter()
            try:
                estimate, logz, tallies = run_cell(method_cfg, point.P, cfg.target, seed)
            except (ScheduleOverflowError, NumericalDomainError, DegenerateWeightsError) as exc:
                raise CellError(f"sweep[{si}] replicate {replicate}: {exc}") from exc
            wall = time.perf_counter() - start
            lik = sum(t.likelihood for t in tallies)
            grad = sum(t.gradient for t in tallies)
            rows.append({
                "method": cfg.kind, "N": point.N, "P": point.P, "M": point.M,
                "B": point.B, "T": point.T, "replicate": replicate,
                "mse_vs_truth": "" if truth is None else float(np.mean((estimate - truth) ** 2)),
                "logZ": float(logz), "lik_evals": lik, "grad_evals": grad,
                "epochs_serial": lik + grad, "epochs_parallel": max(t.epochs for t in tallies),
                "wall_seconds": wall,
            })
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r2: float
    dropped: int


def _column_value(row, name):
    name = COLUMN_ALIASES.get(name, name)
    if name == "NP":
        n, p = _column_value(row, "N"), _column_value(row, "P")
        return None if n is None or p is None else n * p
    if name not in row:
        raise ValueError(f"unknown column {name!r}")
    value = row[name]
    if value == "" or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"column {name!r} is not numeric, got {value!r}") from None


def fit_rate(rows, x_column, y_column) -> FitResult:
    """Least-squares slope of log y against log x across sweep points.

    Replicate rows sharing an x value are averaged first.  Rows with
    missing or non-positive values are dropped and counted in the
    result.  ``x_column`` may be the derived column ``NP`` (= N * P)
    and ``mse`` / ``epochs`` / ``logz`` alias their CSV columns.
    """
    groups: dict = {}
    dropped = 0
    for row in rows:
        x = _column_value(row, x_column)
        y = _column_value(row, y_column)
        if x is None or y is None or x <= 0 or y <= 0:
            dropped += 1
            continue
        groups.setdefault(x, []).append(y)
    if len(groups) < 2:
        raise ValueError("need at least two distinct positive x values to fit")
    xs = np.array(sorted(groups))
    ys = np.array([np.mean(groups[x]) for x in xs])
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2, dropped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="islandmc",
        description="Run island sampler sweeps and fit convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a sweep described by a JSON config")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", help="CSV output path (overrides config 'output')")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_fit = sub.add_parser("fit", help="fit a log-log rate from a results CSV")
    p_fit.add_argument("--csv", required=True, help="results CSV path")
    p_fit.add_argument("--x", required=True, help="x column (NP, N, P, epochs, ...)")
    p_fit.add_argument("--y", required=True, help="y column (mse, logZ, ...)")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.master_seed = _build(check_int, "--seed", args.seed, "master_seed", 0)
            out = args.out or cfg.output
            if out is None:
                raise ConfigError("no output path: pass --out or set 'output' in the config")
            rows = run_experiment(cfg)
            write_csv(rows, out)
            print(f"wrote {len(rows)} rows to {out}")
        else:
            fit = fit_rate(read_csv(args.csv), args.x, args.y)
            if fit.dropped:
                print(f"warning: dropped {fit.dropped} rows with missing or non-positive values")
            print(f"slope {fit.slope:.6f} intercept {fit.intercept:.6f} r2 {fit.r2:.6f}")
    except CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
