"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload, one short traced run must be correct: traced stdout
byte-identical to untraced stdout, every stressed layer called, every output
checked.  Then a copy of the benchmark without the package sources must exit
nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        passed = proc.returncode == 0 and len(lines) >= 2 and json.loads(lines[-1])["correct"]
        ok &= passed
        print(f"{workload}: {'ok' if passed else 'FAILED'} {lines[-2] if lines else proc.stderr[-500:]}")

    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workloads.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    ok &= refused
    print(f"without sources: {'ok' if refused else 'FAILED'} exit {proc.returncode}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
