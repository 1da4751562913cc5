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
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ais as ais_mod
from . import islands as islands_mod
from . import mcmc as mcmc_mod
from . import targets as targets_mod
from .ais import AisConfig
from .diagnostics import posterior_mean
from .kernels import HmcConfig, PcnConfig
from .mcmc import McmcConfig
from .seeds import derive_seed
from .smc import SmcConfig

CSV_COLUMNS = [
    "method", "N", "P", "M", "B", "T", "replicate",
    "mse_vs_truth", "logZ", "lik_evals", "grad_evals",
    "epochs_serial", "epochs_parallel", "wall_seconds",
]

COLUMN_ALIASES = {"mse": "mse_vs_truth", "epochs": "epochs_serial", "logz": "logZ"}

METHOD_KINDS = ("smc", "smc_par", "mcmc", "mcmc_par", "ais")


class ConfigError(ValueError):
    """Config file problem; the message names the offending field."""


@dataclass(frozen=True)
class SweepPoint:
    N: int
    P: int = 1
    M: int = 1
    B: int = 0
    T: int = 1


@dataclass
class ExperimentConfig:
    target_spec: dict
    method_spec: dict
    sweep: list
    replicates: int
    master_seed: int
    output: str | None = None


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


def parse_config(payload) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("top level: expected a JSON object")
    target_spec = _require(payload, "target", "top level")
    method_spec = _require(payload, "method", "top level")
    raw_sweep = _require(payload, "sweep", "top level")
    replicates = _as_int(_require(payload, "replicates", "top level"), "replicates", 1)
    master_seed = _as_int(_require(payload, "master_seed", "top level"), "master_seed", 0)
    if not isinstance(raw_sweep, list) or not raw_sweep:
        raise ConfigError("sweep: expected a non-empty list")
    sweep = []
    for i, entry in enumerate(raw_sweep):
        path = f"sweep[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object with N, P, M, B, T")
        point = SweepPoint(
            N=_as_int(_require(entry, "N", path), f"{path}.N", 1),
            P=_as_int(entry.get("P", 1), f"{path}.P", 1),
            M=_as_int(entry.get("M", 1), f"{path}.M", 0),
            B=_as_int(entry.get("B", 0), f"{path}.B", 0),
            T=_as_int(entry.get("T", 1), f"{path}.T", 1),
        )
        unknown = set(entry) - {"N", "P", "M", "B", "T"}
        if unknown:
            raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
        sweep.append(point)
    cfg = ExperimentConfig(
        target_spec=target_spec,
        method_spec=method_spec,
        sweep=sweep,
        replicates=replicates,
        master_seed=master_seed,
        output=payload.get("output"),
    )
    # fail fast on bad specs before any run starts
    target = build_target(cfg.target_spec)
    for i, point in enumerate(sweep):
        try:
            _check_point(cfg.method_spec, point, target)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"sweep[{i}]: {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_config(payload)


def build_target(spec):
    if not isinstance(spec, dict):
        raise ConfigError("target: expected an object")
    kind = _require(spec, "kind", "target")
    if kind == "gaussian":
        return targets_mod.make_gaussian_target(
            d=_as_int(_require(spec, "d", "target"), "target.d", 1),
            m=_as_int(_require(spec, "m", "target"), "target.m", 0),
            sigma=float(spec.get("sigma", 1.0)),
            seed=_as_int(spec.get("seed", 0), "target.seed", 0),
            theta_star=spec.get("theta_star"),
        )
    if kind == "gmm":
        d = _as_int(_require(spec, "d", "target"), "target.d", 1)
        if "means" in spec:
            if "weights" not in spec:
                raise ConfigError("target.weights: required when target.means is given")
            return targets_mod.GmmTarget(spec["weights"], spec["means"])
        return targets_mod.make_bimodal_gmm(d, weight=float(spec.get("weight", 0.2)))
    if kind == "logistic":
        prior_var = float(spec.get("prior_var", 100.0))
        if "csv" in spec:
            return targets_mod.load_logistic_csv(spec["csv"], prior_var=prior_var)
        return targets_mod.make_logistic_target(
            d=_as_int(_require(spec, "d", "target"), "target.d", 1),
            m=_as_int(_require(spec, "m", "target"), "target.m", 1),
            seed=_as_int(spec.get("seed", 0), "target.seed", 0),
            prior_var=prior_var,
        )
    raise ConfigError(f"target.kind: unknown target kind {kind!r}")


def build_kernel(spec):
    if spec is None:
        return PcnConfig()
    if not isinstance(spec, dict):
        raise ConfigError("method.kernel: expected an object")
    kind = spec.get("kind", "pcn")
    opts = {k: v for k, v in spec.items() if k != "kind"}
    try:
        if kind == "pcn":
            return PcnConfig(**opts)
        if kind == "hmc":
            return HmcConfig(**opts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"method.kernel: {exc}") from exc
    raise ConfigError(f"method.kernel.kind: unknown kernel kind {kind!r}")


def analytic_truth(target):
    """Posterior mean when available for the target, else None."""
    if isinstance(target, targets_mod.GaussianLinearModel):
        return target.analytic_posterior()[0]
    if isinstance(target, targets_mod.GmmTarget):
        return target.mixture_mean()
    return None


def _method_kind(method_spec):
    kind = _require(method_spec, "kind", "method")
    if kind not in METHOD_KINDS:
        raise ConfigError(f"method.kind: unknown method kind {kind!r}")
    return kind


def _smc_config(method_spec, point, kernel):
    return SmcConfig(
        n_particles=point.N,
        mutation_steps=point.M,
        kernel=kernel,
        ess_fraction=_as_float(method_spec.get("ess_fraction", 0.5), "method.ess_fraction"),
        max_stages=_as_int(method_spec.get("max_stages", 1000), "method.max_stages", 1),
        resampling=method_spec.get("resampling", "multinomial"),
        schedule=method_spec.get("schedule"),
        adapt_steps=bool(method_spec.get("adapt_steps", True)),
    )


def _ais_config(method_spec, point, kernel):
    sched = method_spec.get("schedule", "neal")
    if sched == "neal":
        sched = ais_mod.make_neal_schedule()
    return AisConfig(
        n_samples=point.N,
        schedule=sched,
        kernel=kernel,
        mutation_steps=point.M,
    )


def _check_point(method_spec, point, target):
    kind = _method_kind(method_spec)
    kernel = build_kernel(method_spec.get("kernel"))
    if kind in ("smc", "mcmc") and point.P != 1:
        raise ConfigError(f"method {kind!r} requires P = 1 (use {kind}_par for islands)")
    if kind in ("smc", "smc_par"):
        _smc_config(method_spec, point, kernel)
    elif kind == "ais":
        _ais_config(method_spec, point, kernel)
    else:
        McmcConfig(n_samples=point.N, burn_in=point.B, thin=point.T, kernel=kernel,
                   mode="serial" if kind == "mcmc" else "parallel")


def run_seed(master_seed, sweep_index, replicate) -> int:
    """Seed for one (sweep point, replicate) cell, hash-split from the master."""
    return derive_seed(master_seed, sweep_index, replicate)


def _run_cell(method_spec, point, target, seed):
    kind = _method_kind(method_spec)
    kernel = build_kernel(method_spec.get("kernel"))
    if kind in ("smc", "smc_par"):
        cfg = _smc_config(method_spec, point, kernel)
        ens = islands_mod.run_islands(point.P, cfg, target, seed)
        estimate = islands_mod.combine_weighted(ens)
        logz = islands_mod.log_mean_evidence(ens.logz_totals())
        tallies = [r.epochs for r in ens.results]
    elif kind == "mcmc":
        cfg = McmcConfig(n_samples=point.N, burn_in=point.B, thin=point.T,
                         kernel=kernel, mode="serial")
        samples, counter = mcmc_mod.run_chain_serial(cfg, target, seed)
        estimate = posterior_mean(samples)
        logz = 0.0
        tallies = [counter]
    elif kind == "mcmc_par":
        cfg = McmcConfig(n_samples=point.N, burn_in=point.B, thin=point.T,
                         kernel=kernel, mode="parallel")
        ens = islands_mod.run_islands(point.P, cfg, target, seed)
        estimate = islands_mod.combine_weighted(ens)
        logz = 0.0
        tallies = [r.epochs for r in ens.results]
    else:
        cfg = _ais_config(method_spec, point, kernel)
        thetas, log_ws, tallies = [], [], []
        for p in range(point.P):
            th, lw, counter = ais_mod.run_ais(cfg, target, islands_mod.island_seed(seed, p))
            thetas.append(th)
            log_ws.append(lw)
            tallies.append(counter)
        thetas = np.concatenate(thetas)
        log_ws = np.concatenate(log_ws)
        estimate = ais_mod.ais_estimate(thetas, log_ws)
        logz = ais_mod.log_evidence_estimate(log_ws)
    lik = sum(t.likelihood for t in tallies)
    grad = sum(t.gradient for t in tallies)
    per_worker = max(t.epochs for t in tallies)
    return estimate, logz, lik, grad, per_worker


def run_experiment(cfg, workers=1):
    """Run the whole sweep and return one row dict per replicate.

    Rows are ordered by (sweep index, replicate) regardless of worker
    scheduling, and every column except wall_seconds is a deterministic
    function of the config and master seed.
    """
    target = build_target(cfg.target_spec)
    truth = analytic_truth(target)
    kind = _method_kind(cfg.method_spec)

    def one(task):
        si, replicate = task
        point = cfg.sweep[si]
        seed = run_seed(cfg.master_seed, si, replicate)
        start = time.perf_counter()
        estimate, logz, lik, grad, per_worker = _run_cell(
            cfg.method_spec, point, target, seed
        )
        wall = time.perf_counter() - start
        mse = "" if truth is None else float(np.mean((estimate - truth) ** 2))
        return {
            "method": kind, "N": point.N, "P": point.P, "M": point.M,
            "B": point.B, "T": point.T, "replicate": replicate,
            "mse_vs_truth": mse, "logZ": float(logz),
            "lik_evals": lik, "grad_evals": grad,
            "epochs_serial": lik + grad, "epochs_parallel": per_worker,
            "wall_seconds": wall,
        }

    tasks = [(si, r) for si in range(len(cfg.sweep)) for r in range(cfg.replicates)]
    if workers == 1:
        rows = [one(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, tasks))
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
        return float(row["N"]) * float(row["P"])
    if name not in row:
        raise ValueError(f"unknown column {name!r}")
    value = row[name]
    if value == "" or value is None:
        return None
    return float(value)


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
    p_run.add_argument("--workers", type=int, default=1, help="concurrent runs")
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
            if args.workers < 1:
                raise ConfigError("--workers: must be positive")
            out = args.out or cfg.output
            if out is None:
                raise ConfigError("no output path: pass --out or set 'output' in the config")
            rows = run_experiment(cfg, workers=args.workers)
            write_csv(rows, out)
            print(f"wrote {len(rows)} rows to {out}")
        else:
            fit = fit_rate(read_csv(args.csv), args.x, args.y)
            if fit.dropped:
                print(f"warning: dropped {fit.dropped} rows with missing or non-positive values")
            print(f"slope {fit.slope:.6f} intercept {fit.intercept:.6f} r2 {fit.r2:.6f}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
