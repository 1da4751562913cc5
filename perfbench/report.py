"""Print every metric of every workload and check that exact counts repeat.

Usage, from the root of a checkout:

    python3 perfbench/report.py

For each workload in BENCHMARK.json this runs run.py once with
``--trace 0`` (end-to-end metrics) and twice with ``--trace 1`` (per-layer
metrics), all with seed 0 and the file's ``run_seconds``, relaying each
run's output: every metric by name and unit, the sample counts behind
the timings, and the environment.  The two
traced runs must agree exactly on every count (unit ``count``) and on
``islands.critical_path_ratio``; the command exits with status 1 if they
do not, or if any run is not correct or has failed operations.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 0
SECONDS = BENCHMARK["run_seconds"]


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def exact(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name == "islands.critical_path_ratio"}


def main():
    ok = True
    for workload in WORKLOADS:
        print(f"== {workload}: end to end")
        results = [run(workload, 0)]
        print(f"== {workload}: per layer, twice with seed {SEED}")
        results += [run(workload, 1) for _ in range(2)]
        first, second = exact(results[1]), exact(results[2])
        differ = sorted(k for k in first if first[k] != second[k])
        print(f"== {workload}: exact counts {'differ: ' + ', '.join(differ) if differ else 'repeat'}")
        ok &= not differ and all(r["correct"] and r["failed"] == 0 for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
