"""Paired benchmark runs of a parent revision against the working tree.

Runs ``perfbench/run.py`` in alternating pairs: one run of the parent
revision (a ``git archive`` of it) and one of the working tree (its
tracked and untracked, not ignored, files as they are on disk), each
from its own copy under one work directory, at paths of equal length
(``<work>/parent`` and ``<work>/change``).  Pair ``i`` uses the fixed
seed ``--seed-base + i``; the parent runs first in even pairs and the
change first in odd ones.  Within a pair the workloads run one after
another, the two sides of each back to back.

Writes one JSON file (``BENCH_<pr>.json`` by convention) with every run,
and per workload and end-to-end metric of ``BENCHMARK.json`` the two
medians, the two quartile pairs, the parent's interquartile range, the
median of the per-pair change/parent ratios and the count of pairs in
which the change was better.  Optional sections time the logistic
likelihood blocks and a serial pCN step in fresh processes
(``--block-processes``), record one traced run per side
(``--traced-seconds``) and the frozen-seed fingerprints of both sides
(``--fingerprint``).

Usage, from the root of a checkout::

    python tools/bench_pairs.py --parent HEAD~1 --out BENCH_28.json \\
        --pairs 10 --seconds 30 --claim ais_pcn_logistic ensemble_ref_p50

Exits 1 when a run is not correct or gives no JSON summary, after
writing the file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# Times LogisticTarget.log_likelihood on the C9 target at several row
# counts (best of 7 repeats of 200 calls) and one serial pCN(0.5) chain
# step (best of 5 chains of 3000 steps), in microseconds.  Runs with the
# copy's src first on sys.path and BLAS on one thread.
BLOCK_PROBE = """
import json, sys, time
import numpy as np
from islandmc import McmcConfig, PcnConfig, make_logistic_target, run_chain_serial
target = make_logistic_target(15, 690, seed=0)
rng = np.random.default_rng(0)
out = {}
for n in (1, 16, 32, 256):
    theta = 0.3 * rng.standard_normal((n, 15))
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(200):
            target.log_likelihood(theta)
        best = min(best, (time.perf_counter() - start) / 200)
    out[str(n)] = round(best * 1e6, 2)
cfg = McmcConfig(n_samples=1, burn_in=3000, kernel=PcnConfig(beta=0.5))
best = float("inf")
for seed in range(5):
    start = time.perf_counter()
    run_chain_serial(cfg, target, seed)
    best = min(best, (time.perf_counter() - start) / 3000)
out["serial_pcn_step"] = round(best * 1e6, 2)
print(json.dumps(out))
"""


def child_env(copy):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_copies(work, parent_rev):
    """The parent revision and the working tree, copied to ``work/parent`` and ``work/change``."""
    copies = {side: work / side for side in SIDES}
    archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    copies["parent"].mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(copies["parent"], filter="data")
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            dest = copies["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest)
    return copies


def run_perfbench(copy, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run in ``copy``: its JSON summary, or None, with its ``ru_minflt`` growth."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, env=child_env(copy), capture_output=True, text=True,
    )
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{copy.name} {workload} seed {seed}: no JSON summary\n{proc.stderr[-2000:]}\n")
        summary = None
    return summary, minflt


def pair_stats(parent, change, better):
    """Medians, quartiles and pair counts of one metric's per-pair values."""
    sign = 1.0 if better == "lower" else -1.0
    p_q = np.percentile(parent, [25, 75])
    return {
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_quartiles": [round(float(q), 4) for q in p_q],
        "change_quartiles": [round(float(q), 4) for q in np.percentile(change, [25, 75])],
        "change_pct": round(100.0 * (statistics.median(change) / statistics.median(parent) - 1.0), 2),
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_iqr": round(float(p_q[1] - p_q[0]), 4),
        "median_pair_ratio": round(statistics.median(c / p for p, c in zip(parent, change)), 4),
    }


def summarize(runs, workloads, metrics):
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {side: {r["pair"]: r for r in mine if r["side"] == side} for side in SIDES}
        pairs = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
        entry = {
            "pairs": len(pairs),
            "seeds": sorted({r["seed"] for r in mine}),
            "all_correct": all(r["correct"] is True for r in mine),
            "correct": {side: all(r["correct"] is True for r in by_pair[side].values()) for side in SIDES},
            "failed": sum(r["failed"] or 0 for r in mine),
            "minflt_range": {side: [min(r["minflt"] for r in by_pair[side].values()),
                                    max(r["minflt"] for r in by_pair[side].values())] for side in SIDES},
            "metrics": {},
        }
        for name, better in metrics.items():
            values = {side: [by_pair[side][p].get(name) for p in pairs] for side in SIDES}
            if pairs and None not in values["parent"] + values["change"]:
                entry["metrics"][name] = pair_stats(values["parent"], values["change"], better)
        summary[workload] = entry
    return summary


def block_timings(copies, processes):
    """``BLOCK_PROBE`` in ``processes`` fresh processes per side, the sides alternating."""
    runs = {side: [] for side in SIDES}
    for i in range(processes):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = subprocess.run([sys.executable, "-c", BLOCK_PROBE], cwd=copies[side], env=child_env(copies[side]),
                                 capture_output=True, text=True, check=True).stdout
            runs[side].append(json.loads(out.strip().splitlines()[-1]))
    keys = list(runs["parent"][0])
    return {
        "what": "LogisticTarget.log_likelihood on make_logistic_target(15, 690, seed=0) at 1, 16, 32 (one block) "
                "and 256 rows of (n, 15) batches, theta = 0.3 * standard normal, best of 7 repeats of 200 calls; "
                "serial_pcn_step: run_chain_serial with PcnConfig(beta=0.5) on the same target, best of 5 chains of "
                f"3000 steps, per step; BLAS on one thread, {processes} alternating processes per side",
        "us": {side: {k: [r[k] for r in runs[side]] for k in keys} for side in SIDES},
        "median": {side: {k: statistics.median(r[k] for r in runs[side]) for k in keys} for side in SIDES},
    }


def fingerprints(copies):
    """``tools/fingerprint.py`` of this tree on each side's sources."""
    out = {}
    for side in SIDES:
        text = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--src", str(copies[side] / "src")],
                              env=child_env(copies[side]), capture_output=True, text=True, check=True).stdout
        out[side] = dict(line.split() for line in text.strip().splitlines())
    out["moved"] = sorted(k for k in out["parent"] if out["parent"][k] != out["change"].get(k))
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=0, help="pair i runs on seed SEED_BASE + i")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), help="copy this metric's pair "
                        "statistics to the top-level claim")
    parser.add_argument("--expected", default="", help="the claim's expected result, in words")
    parser.add_argument("--block-processes", type=int, default=0, help="processes per side for block timings")
    parser.add_argument("--traced-seconds", type=float, default=0.0, help="one --trace 1 run per side and workload")
    parser.add_argument("--fingerprint", action="store_true", help="record tools/fingerprint.py of both sides")
    parser.add_argument("--what", default="", help="what the change does, in words")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be positive and --seconds positive")

    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        copies = make_copies(work, args.parent)
        runs = []
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            for workload in args.workloads:
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    start = time.strftime("%H:%M:%S", time.gmtime())
                    summary, minflt = run_perfbench(copies[side], workload, seed, args.seconds, 0)
                    run = {"workload": workload, "pair": pair, "side": side, "seed": seed,
                           "correct": None, "failed": None, "attempted": None, "minflt": minflt, "start_utc": start}
                    if summary is not None:
                        run.update({k: summary[k] for k in ("correct", "failed", "attempted")})
                        run.update({name: summary["metrics"].get(name, {}).get("value") for name in metrics})
                    runs.append(run)
                    print(json.dumps(run), flush=True)
        result = {
            "what": args.what,
            "machine": f"{platform.machine()} {os.cpu_count()} cores, {cpu_model()}, Python {platform.python_version()}, "
                       f"numpy {np.__version__}, BLAS pinned to one thread, PYTHONDONTWRITEBYTECODE=1",
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, each side "
                       f"from its own copy at paths of equal length (parent: git archive of {args.parent}; change: "
                       "the working tree), alternating which side runs first per pair, both sides of one workload "
                       "back to back within a pair; minflt is the RUSAGE_CHILDREN ru_minflt growth over that run "
                       "(tools/bench_pairs.py)",
        }
        summary = summarize(runs, args.workloads, metrics)
        if args.claim:
            workload, metric = args.claim
            result["claim"] = {"workload": workload, "metric": metric, "expected": args.expected,
                               "result": summary[workload]["metrics"].get(metric)}
        result["summary"] = summary
        result["runs"] = runs
        if args.block_processes:
            result["block_us"] = block_timings(copies, args.block_processes)
        if args.traced_seconds:
            per_layer = [m["name"] for m in bench["per_layer"]]
            traced = []
            for workload in args.workloads:
                for side in SIDES:
                    summary_t, _ = run_perfbench(copies[side], workload, 0, args.traced_seconds, 1)
                    row = {"workload": workload, "side": side, "correct": summary_t and summary_t["correct"]}
                    if summary_t:
                        row.update({k: summary_t["metrics"][k]["value"] for k in per_layer if k in summary_t["metrics"]})
                    traced.append(row)
            result["traced_layers"] = {
                "what": f"perfbench/run.py --workload W --seed 0 --seconds {args.traced_seconds:g} --trace 1, once per "
                        "side; counts are exact, times are single runs",
                "runs": traced,
            }
        if args.fingerprint:
            result["fingerprint"] = fingerprints(copies)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    ok = all(r["correct"] is True for r in runs)
    print(f"wrote {args.out}; every run correct: {ok}")
    return 0 if ok else 1


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


if __name__ == "__main__":
    sys.exit(main())
