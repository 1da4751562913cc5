"""Benchmark of islandmc: wall time per ensemble, set-up, memory, and layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one ensemble (see workloads.py).  Operations run back to
back in a closed loop with one caller, in this process; operation ``k``
gets a master seed derived from ``(--seed, k)``.

Both modes first run one untimed operation, so that first-call costs
fall on no sample.  ``--trace 0`` runs the closed loop for ``--seconds``
(at least MIN_OPS operations) with no tracing and reports the end-to-end
metrics.  ``--trace 1`` runs TRACED_OPS operations, each once untraced
and once with spans around every layer (tracing.py), and reports the
per-layer metrics; a fixed operation count keeps its counts exact.  Both
passes must give identical exact counts, or the run is not correct.
A run is not correct either if any operation raised or failed its check.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The environment, per-operation times and (traced runs) the
spans are written under perfbench/out/.
"""

import os

# Pin BLAS to one thread before numpy loads: on a small shared machine a
# second BLAS thread competes with the sampler and made AIS timings drift.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 20  # the tail needs at least 11 operations
TAIL_BEYOND = 10  # operations the tail percentile must leave beyond it
TRACED_OPS = 6
SETUP_REPEATS = 11

# Runs in a fresh interpreter: import the library and build the workload,
# then report ready.  argv: src dir, perfbench dir, workload name.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](); print('ready', flush=True)"
)

def load_library():
    if not (SRC / "islandmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no islandmc sources at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import islandmc
    import workloads

    if Path(islandmc.__file__).resolve().parent != SRC / "islandmc":
        sys.exit(f"perfbench: imported islandmc from {islandmc.__file__}, not from {SRC}")
    return workloads


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(name):
    """Wall time of one fresh process from launch until the workload is built."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up of {name} failed in a fresh process")
    return elapsed


class Loop:
    """Runs operations, times each, and checks what they return."""

    def __init__(self, workloads, case, seed):
        self.workloads = workloads
        self.case = case
        self.seed = seed
        self.times = []  # seconds per attempted operation
        self.outcomes = []  # Outcome, or None for an operation that raised
        self.failed = 0

    def run_op(self, k, run=None):
        run = run or self.case.run
        master = self.workloads.operation_seed(self.seed, k)
        t0 = time.perf_counter()
        try:
            raw = run(master)
        except Exception:  # a library error fails this operation, not the run
            self.times.append(time.perf_counter() - t0)
            self.outcomes.append(None)
            self.failed += 1
            print(f"# operation {k} (master seed {master}) raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        self.times.append(time.perf_counter() - t0)
        outcome = self.case.outcome(raw)
        self.outcomes.append(outcome)
        if outcome.problems:
            self.failed += 1
            print(f"# operation {k} (master seed {master}) wrong: {outcome.problems}", file=sys.stderr)
        return outcome


def _finite(x):
    return x if math.isfinite(x) else None


class Reference:
    """A fixed computation that measures how fast the machine runs right now.

    On a shared machine the wall time of one operation drifts by tens of
    percent over seconds while the process keeps the CPU: one operation
    repeated for 60 s on a 2-core shared VM had a wall-time interquartile
    range of 28% of its median, and of 13% in units of this reference
    timed on either side of it.  So the end-to-end timings are reported
    in those units.  The reference mixes what the workloads spend their
    time on: a small matrix product and a ufunc on a (16, 690) array,
    seeding a random stream, and interpreted Python arithmetic.  It does
    not use islandmc, so no library change moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((690, 15))
        self.theta = rng.standard_normal((16, 15))

    def seconds(self):
        t0 = time.perf_counter()
        for i in range(50):
            np.logaddexp(0.0, self.theta @ self.x.T).sum()
            np.random.default_rng(np.random.SeedSequence((i, 1))).standard_normal((4, 15))
            sum(j * 0.5 for j in range(400))
        return time.perf_counter() - t0


def end_to_end(workloads, case, args):
    Loop(workloads, case, args.seed).run_op(0)  # warm-up, not timed
    loop = Loop(workloads, case, args.seed)
    ref = Reference()
    refs = []  # (before, after): the reference timed on either side of each operation
    # Set-up is timed in fresh processes spread evenly over the loop, so
    # that a slow spell of the machine moves few of its samples; the time
    # they take does not count towards --seconds.
    setup_all = []
    t0 = time.perf_counter()
    probe_s = 0.0
    k = 0
    while True:
        elapsed = time.perf_counter() - t0 - probe_s
        if len(setup_all) < SETUP_REPEATS and elapsed >= len(setup_all) * args.seconds / SETUP_REPEATS:
            p0 = time.perf_counter()
            setup_all.append(setup_seconds(args.workload))
            probe_s += time.perf_counter() - p0
        elif k < MIN_OPS or elapsed < args.seconds:
            before = ref.seconds()
            loop.run_op(k)
            refs.append((before, ref.seconds()))
            k += 1
        else:
            break
    setup_s = statistics.median(setup_all)
    # each operation in units of the reference timed on either side of it
    units = [t / (0.5 * (a + b)) for t, (a, b) in zip(loop.times, refs)]
    # a failed operation misses any latency limit
    cost = sorted(u if o is not None and not o.problems else math.inf
                  for u, o in zip(units, loop.outcomes))
    wall = sorted(loop.times)
    n = len(cost)
    done = n - loop.failed
    tail = n - 1 - TAIL_BEYOND
    metrics = {
        "setup_s": (setup_s, "s"),
        "ensemble_ref_p50": (_finite(statistics.median(cost)), "ref"),
        "ensemble_ref_tail": (_finite(cost[tail]), "ref"),
        "ensembles_per_kref": (1000.0 * done / sum(units), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {
        "operations": n,
        "ensemble_ref_p50": f"median of {n} operations",
        "ensemble_ref_tail": f"p{100.0 * (n - TAIL_BEYOND) / n:.1f}: the {TAIL_BEYOND + 1}th slowest of {n} operations",
        "ensembles_per_kref": f"{done} completed",
        "ref": f"median {statistics.median(a + b for a, b in refs) / 2:.6f} s over {2 * len(refs)} timings around operations",
        "wall": f"ensemble_s_p50 {statistics.median(wall):.6f} s, ensemble_s_tail {wall[tail]:.6f} s, "
                f"ensembles_per_s {done / sum(loop.times):.6f} 1/s (not normalised)",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes spread over the loop",
        "peak_rss_mb": "peak resident set of this process",
        "error_rate": f"{loop.failed / n:g} ({loop.failed} of {n} operations failed)",
    }
    detail = {"samples": samples, "setup_s_all": setup_all, "operation_s": loop.times, "reference_s": refs}
    return loop, metrics, detail


def exact_counts(outcomes):
    """Counts that must repeat bit for bit: per operation, as a tuple."""
    return [None if o is None else (o.lik_epochs, o.grad_epochs, o.stages, o.critical_path, o.mean_path)
            for o in outcomes]


def per_layer(workloads, case, args):
    from tracing import TARGET_PRIOR, Tracer

    Loop(workloads, case, args.seed).run_op(0)  # warm-up, not timed
    plain = Loop(workloads, case, args.seed)
    traced = Loop(workloads, case, args.seed)
    tracer = Tracer()
    run = tracer.wrap("operation", case.run)
    # Untraced and traced runs of each operation alternate, so that a
    # change in machine load falls on both passes alike.
    for k in range(TRACED_OPS):
        plain.run_op(k)
        tracer.op = k
        tracer.install(case.target)
        try:
            traced.run_op(k, run)
        finally:
            tracer.uninstall()
    repeated = exact_counts(plain.outcomes) == exact_counts(traced.outcomes)
    if not repeated:
        print("# exact counts differ between the untraced and the traced pass", file=sys.stderr)

    spans = tracer.summary()
    ok = [o for o in traced.outcomes if o is not None]

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names)

    def ns_per_row(name):
        rows = spans[name]["rows"]
        return spans[name]["self_s"] * 1e9 / rows if rows else 0.0

    stages = sum(o.stages for o in ok)
    lik = sum(o.lik_epochs for o in ok)
    grad = sum(o.grad_epochs for o in ok)
    mean_path = sum(o.mean_path for o in ok)
    untraced_s, traced_s = sum(plain.times), sum(traced.times)
    target_s = self_s(*(n for n in spans if n.startswith("targets.")))
    prior_names = [f"targets.{a}" for a in TARGET_PRIOR]
    # the work layers: everything but the drivers and the operation wrapper
    work_s = self_s(*(n for n in spans if n.split(".")[0] in ("targets", "kernels", "smc") and n != "smc.run_smc"))
    ess_calls = sum(tracer.calls_from("smc.ess").values())
    bisect_calls = tracer.calls_from("smc.ess").get("smc.next_temperature", 0)
    m = {
        "smc.next_temperature.calls": (calls("smc.next_temperature"), "count"),
        "smc.next_temperature.self_s": (self_s("smc.next_temperature"), "s"),
        "smc.ess.calls": (ess_calls, "count"),
        "smc.ess_calls_per_stage": (bisect_calls / stages if stages else 0.0, "calls/stage"),
        "smc.resample.self_s": (self_s("smc.resample"), "s"),
        "smc.update_logz.self_s": (self_s("smc.update_logz"), "s"),
        "smc.run_smc.self_s": (self_s("smc.run_smc"), "s"),
        "smc.stages": (stages, "count"),
    }
    for name in ("log_likelihood", "grad_log_likelihood"):
        key = f"targets.{name}"
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.rows"] = (spans[key]["rows"], "count")
        m[f"{key}.self_s"] = (self_s(key), "s")
        m[f"{key}.ns_per_row"] = (ns_per_row(key), "ns/row")
    m.update({
        "targets.prior.calls": (calls(*prior_names), "count"),
        "targets.prior.self_s": (self_s(*prior_names), "s"),
    })
    for name in ("mutate", "population_step", "leapfrog"):
        m[f"kernels.{name}.calls"] = (calls(f"kernels.{name}"), "count")
        m[f"kernels.{name}.self_s"] = (self_s(f"kernels.{name}"), "s")
    m.update({
        "kernels.estimate_scaling.self_s": (self_s("kernels.estimate_scaling"), "s"),
        "kernels.accept_rate": (tracer.accepted / tracer.proposals if tracer.proposals else 0.0, "ratio"),
        "islands.run_islands.self_s": (self_s("islands.run_islands"), "s"),
        "islands.combine.self_s": (self_s("islands.combine_weighted", "islands.log_mean_evidence"), "s"),
        "islands.critical_path_ratio": (sum(o.critical_path for o in ok) / mean_path if mean_path else 0.0, "ratio"),
        "ais.run_ais.self_s": (self_s("ais.run_ais"), "s"),
        "ais.ais_estimate.self_s": (self_s("ais.ais_estimate"), "s"),
        "epochs.likelihood": (lik, "count"),
        "epochs.gradient": (grad, "count"),
        "overhead.ns_per_epoch": (untraced_s * 1e9 / (lik + grad) if lik + grad else 0.0, "ns/epoch"),
        "overhead.ratio": (traced_s / target_s if target_s else 0.0, "ratio"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "fraction"),
        "trace.layer_frac": (work_s / traced_s, "fraction"),
    })
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}.spans.npz")
    detail = {
        "samples": {"operations": TRACED_OPS, "passes": "after one warm-up, each operation once untraced, then once traced"},
        "untraced_operation_s": plain.times,
        "traced_operation_s": traced.times,
        "spans": spans,
        "exact_counts_repeat": repeated,
    }
    loops = (plain, traced)
    return loops, m, detail, repeated


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment(args)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    case = workloads.WORKLOADS[args.workload]()

    if args.trace:
        loops, metrics, detail, repeated = per_layer(workloads, case, args)
    else:
        loop, metrics, detail = end_to_end(workloads, case, args)
        loops, repeated = (loop,), True
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    correct = repeated and failed == 0

    for key, text in detail["samples"].items():
        print(f"# samples {key}: {text}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r:>24} {unit}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, **detail}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
