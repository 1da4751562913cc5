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
from .kernels import HmcConfig, PcnConfig
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
    N: int
    P: int = 1
    M: int = 1
    B: int = 0
    T: int = 1


# sweep point field -> its least value; a field left out takes SweepPoint's default
_POINT_MINIMA = {"N": 1, "P": 1, "M": 0, "B": 0, "T": 1}


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


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_vector(value, path, length=None):
    """A non-empty list of numbers (of ``length`` entries, when given) as floats."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise ConfigError(f"{path}: expected a list of {size}numbers, got {value!r}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def parse_config(payload) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_fields(payload, ("target", "method", "sweep", "replicates", "master_seed", "output"), "top level")
    target_spec = _require(payload, "target", "top level")
    method_spec = _require(payload, "method", "top level")
    raw_sweep = _require(payload, "sweep", "top level")
    replicates = _as_int(_require(payload, "replicates", "top level"), "replicates", 1)
    master_seed = _as_int(_require(payload, "master_seed", "top level"), "master_seed", 0)
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
        _check_fields(entry, _POINT_MINIMA, path)
        _require(entry, "N", path)
        sweep.append(SweepPoint(**{k: _as_int(entry[k], f"{path}.{k}", least)
                                   for k, least in _POINT_MINIMA.items() if k in entry}))
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
    ``section.<field>`` for one of ``fields``, else ``path`` (default ``section``)."""
    try:
        return make(*args, **fields)
    except (OSError, ValueError) as exc:
        # the library starts each field's message with the field's name
        field = str(exc).split(" ", 1)[0]
        where = (paths or {}).get(field) or (f"{section}.{field}" if field in fields else path or section)
        raise ConfigError(f"{where}: {exc}") from exc


# target kind -> (its fields besides kind, the field that selects its other
# variant, that variant's fields): a gmm target given means is an explicit
# mixture, a logistic target given csv reads its data from the file
_TARGET_FIELDS = {
    "gaussian": (("d", "m", "sigma", "seed", "theta_star"), None, ()),
    "gmm": (("d", "weight"), "means", ("d", "weights", "means")),
    "logistic": (("d", "m", "seed", "prior_var"), "csv", ("csv", "prior_var")),
}


def build_target(spec):
    if not isinstance(spec, dict):
        raise ConfigError("target: expected an object")
    kind = _require(spec, "kind", "target")
    if not isinstance(kind, str) or kind not in _TARGET_FIELDS:
        raise ConfigError(f"target.kind: unknown target kind {kind!r}")
    fields, switch, switched = _TARGET_FIELDS[kind]
    _check_fields(spec, ("kind", *fields, *switched), "target", kind)
    # a field of the kind that the chosen variant would drop
    side, fields = ("with", switched) if switch in spec else ("without", fields)
    ignored = sorted(set(spec) - {"kind", *fields})
    if ignored:
        raise ConfigError(f"target.{ignored[0]}: not used {side} target.{switch}")
    if kind == "gaussian":
        d = _as_int(_require(spec, "d", "target"), "target.d", 1)
        theta_star = spec.get("theta_star")
        return _build(
            targets_mod.make_gaussian_target, "target",
            d=d,
            m=_as_int(_require(spec, "m", "target"), "target.m", 0),
            sigma=_as_float(spec.get("sigma", 1.0), "target.sigma"),
            seed=_as_int(spec.get("seed", 0), "target.seed", 0),
            theta_star=None if theta_star is None else _as_vector(theta_star, "target.theta_star", d),
        )
    if kind == "gmm":
        d = _as_int(_require(spec, "d", "target"), "target.d", 1)
        if "means" in spec:
            if "weights" not in spec:
                raise ConfigError("target.weights: required when target.means is given")
            means = spec["means"]
            if not isinstance(means, list) or not means:
                raise ConfigError(f"target.means: expected a list of points, got {means!r}")
            means = [_as_vector(m, f"target.means[{k}]", d) for k, m in enumerate(means)]
            weights = _as_vector(spec["weights"], "target.weights", len(means))
            return _build(targets_mod.GmmTarget, "target", weights=weights, means=means)
        weight = _as_float(spec.get("weight", 0.2), "target.weight")
        return _build(targets_mod.make_bimodal_gmm, "target", d, weight=weight)
    # a logistic target
    prior_var = _as_float(spec.get("prior_var", 100.0), "target.prior_var")
    if "csv" in spec:
        if not isinstance(spec["csv"], str):
            raise ConfigError(f"target.csv: expected a file path, got {spec['csv']!r}")
        return _build(targets_mod.load_logistic_csv, "target", spec["csv"], path="target.csv", prior_var=prior_var)
    return _build(
        targets_mod.make_logistic_target, "target",
        d=_as_int(_require(spec, "d", "target"), "target.d", 1),
        m=_as_int(_require(spec, "m", "target"), "target.m", 1),
        seed=_as_int(spec.get("seed", 0), "target.seed", 0),
        prior_var=prior_var,
    )


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
    runs = [ais_mod.run_ais(cfg, target, islands_mod.island_seed(seed, p)) for p in range(n_islands)]
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
                if args.seed < 0:
                    raise ConfigError("--seed: must be non-negative")
                cfg.master_seed = args.seed
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
