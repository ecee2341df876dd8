"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py [--seeds 10] [--workload NAME ...] [--write]

Runs ``run.py`` untraced once per seed 1..N on each workload, then once
traced with seed 1, all with BENCHMARK.json's ``run_seconds``.  Prints, for
every end-to-end metric, the median and the quartile spread
(``statistics.quantiles(values, n=4)``, Q3 - Q1 as a share of the median)
next to the metric's bound.  ``--write`` records the result, the machine and
query-stream's input statistics in ``bench/baseline.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from run import CACHE_STATE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    machine = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_avg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }
    result = {"machine": machine, "run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    steady = True
    for workload in args.workload or workloads.WORKLOADS:
        runs = [_run(spec, workload, seed, 0) for seed in seeds]
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "cache": CACHE_STATE[workload],
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "escaped": sum(d["escaped"] for d, _ in runs),
            "host_factor_median": statistics.median(d["host_factor"] for d, _ in runs),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0][1]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            }
            if name != "setup_s":
                steady &= spread < bound / 3
            print(f"{workload:16} {name:12} median {median:12.5g}  spread {spread:6.3f}"
                  f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}", flush=True)
        detail, traced = _run(spec, workload, seeds[0], 1)
        entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                           "stdout_differs": detail["stdout_differs"],
                           "per_layer": traced["metrics"]}
        print(f"{workload:16} traced correct={traced['correct']} overhead "
              f"{traced['metrics']['trace.overhead_s']['value']:.3f} s", flush=True)
        if workload == "query-stream":
            stream = workloads.query_pass(seeds[0])
            entry["inputs"] = {"seed": seeds[0],
                               "repeat_share": workloads.repeat_share(stream),
                               "degree_histogram": workloads.degree_histogram(stream)}
        result["workloads"][workload] = entry
    print("steady" if steady else "NOT steady: some spread is at least a third of its bound")
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
