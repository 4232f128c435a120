#!/usr/bin/env python3
"""Measure every workload over several seeds and append a baseline entry.

Run from the repository root::

    python3 perfbench/baseline.py --note "what changed"

For each workload this runs ``run.py --trace 0`` once for each of ten seeds
(the default seed first, never the held-out seed) and once with ``--trace 1`` on the
default seed. It prints, per end-to-end metric, the median, the quartiles
and their distance as a share of the median (the spread) next to the bound
from ``BENCHMARK.json``, and appends everything to ``baseline.json``
together with the host block and calibration time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from repro.perf import host_info  # noqa: E402

BASELINE = HERE / "baseline.json"
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds_for(runs: int) -> list[int]:
    seeds = [run.DEFAULT_SEED]
    candidate = 11
    while len(seeds) < runs:
        if candidate != run.HELDOUT_SEED:
            seeds.append(candidate)
        candidate += 1
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = seeds_for(RUNS)
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "note": args.note,
        "host": host_info(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        results = [bench(workload, seed, seconds, 0) for seed in seeds]
        rows = {}
        for name, unit in run.END_TO_END:
            values = [result["metrics"][name]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "unit": unit}
            print(f"{workload:17s} {name:13s} median {median:12.6g} {unit:4s}"
                  f" spread {spread:6.3f} (bound {bounds[name]})")
        traced = bench(workload, run.DEFAULT_SEED, seconds, 1)
        record = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "end_to_end": rows,
            "per_layer": {name: metric["value"] for name, metric
                          in traced["metrics"].items()},
        }
        entry["workloads"][workload] = record
        print(f"{workload}: correct {record['correct']}, "
              f"{record['failed']} of {record['attempted']} failed")
    history = (json.loads(BASELINE.read_text()) if BASELINE.exists()
               else {"entries": []})
    history["entries"].append(entry)
    BASELINE.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended an entry to {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
