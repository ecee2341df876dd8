"""polyconnect benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates one pass of the workload (see workloads.py).  The pass is
run again and again, each time in fresh processes, until ``--seconds`` are
used up, and every output of every repetition is checked.  The result is a
detail line and then, as the last line, ``{"correct", "attempted",
"failed", "metrics"}``.  The package is imported from ``src/`` of the
checkout this file sits in; nothing is installed.  One client drives the
program in a closed loop: the next operation starts only when the previous
one has finished.

``--trace 0`` reports the end-to-end metrics.  An operation is a CLI command:
in certify-large each runs in a fresh process, so its caches start cold; in
query-stream and identity-sweeps one process serves the whole pass.  Each is
timed from the call into ``cli.run`` to its return, in the process running
it; starting the interpreter is what the set-up time measures.  The pass
time is the sum of the operations' times; the operation rate, median and
99th-percentile latency follow from them.  Set-up time is the median of cold
interpreter starts to a finished trivial command, spread over the run; peak
memory is the median over repetitions of the peak resident set of the
process doing the work.

On the shared machines this runs on, the same work takes up to twice as long
from one second to the next and from one minute to the next.  So a
reference computation runs right before and right after each operation
(probe.py), and each time reported is the measured time divided by how much
slower than its reference time the probe ran then: a time as it would read
on the host at its fastest.  An operation's time is its total over the
repetitions divided by the total of those factors.  The detail line before
the result holds the run's mean factor and the times as measured.

``--trace 1`` runs the pass untraced and then traced, in pairs, and reports
the per-layer metrics of layers.py plus the tracing overhead (traced minus
untraced pass time), divided by the host factor likewise.  It also fails
unless the traced stdout is byte-identical to the untraced stdout and every
layer the workload stresses was called.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import layer_metrics, merge
from probe import slowdown

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

#: The layers each workload must reach in a traced run (nonzero counts).
STRESSED = {
    "certify-large": (
        "rationals.pochhammer_calls", "hypseries.series_calls", "polybases.family_calls",
        "polybases.poly_arith_calls", "connection.closed_form_calls", "connection.oracle_calls",
        "connection.reconstruct_calls", "connection.verify_entries", "cli.requests",
    ),
    "query-stream": (
        "polybases.family_calls", "connection.closed_form_calls", "connection.oracle_calls",
        "cli.requests", "cli.exit2",
    ),
    "identity-sweeps": (
        "rationals.pochhammer_calls", "hypseries.series_calls", "expansions.identity_calls",
        "sweeps.draws_attempted", "cli.requests",
    ),
}
CACHE_STATE = {"certify-large": "cold", "query-stream": "warming", "identity-sweeps": "none"}
SETUP_STARTS = 4
#: About how long a certify-large command and a cold start take, to size the
#: probe before them.
CERTIFY_EXPECT_S = 0.2
SETUP_EXPECT_S = 0.15
SETUP_ARGV = ("poly", "--family", "hermite", "--n", "1")


class Op:
    """One finished operation: its input, outcome, time, host factor and stdout digest."""

    __slots__ = ("spec", "rc", "seconds", "factor", "digest", "size", "verdict")

    def __init__(self, spec, rc, seconds, factor, out: bytes, verdict):
        self.spec, self.rc, self.seconds, self.verdict = spec, rc, seconds, verdict
        self.factor = factor
        self.digest, self.size = hashlib.sha256(out).hexdigest(), len(out)


class Pass:
    def __init__(self, ops, rss_mb, layers=None):
        self.ops, self.rss_mb, self.layers = ops, rss_mb, layers
        self.wall = sum(op.seconds for op in ops)
        self.work = sum(op.spec.get("ops", 1) for op in ops)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _spawn(cmd, stdin=None, on_line=None):
    """Run a child to completion; returns (stdout, exit code, seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(c) for c in cmd], stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
    )
    try:
        if stdin:
            proc.stdin.write(stdin)
            proc.stdin.close()
        if on_line is None:
            out = proc.stdout.read()
        else:
            out = b""
            for line in proc.stdout:
                on_line(json.loads(line))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out, proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024


def verdict(spec, rc, out: bytes, digests) -> str:
    """"ok", "escaped" (the known raw exception of an invalid request) or a failure reason."""
    if rc == spec.get("may_escape"):
        return "escaped"
    if rc != spec["exit"]:
        return f"exit {rc}, expected {spec['exit']}"
    text = out.decode()
    if spec["kind"] == "invalid":
        return "ok" if not text else "stdout written on an invalid request"
    if "name" in spec:
        if hashlib.sha256(out).hexdigest() != digests[spec["name"]]:
            return "stdout differs from the recorded digest"
        if spec["name"] == "verify-3.3":
            first = next(e for e in json.loads(text)["entries"] if not e["match"])
            if (first["n"], first["alpha"], first["beta"], first["first_mismatch"]) != (2, "0", "0", 0):
                return f"first 3.3 failure moved to {first}"
        return "ok"
    argv = spec["argv"]
    default = "csv" if spec["kind"] == "table" else "json"
    if (argv[argv.index("--format") + 1] if "--format" in argv else default) == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if spec.get("agree"):
            closed = [r[2] for r in rows[1:] if r[3] != "Oracle"]
            oracle = [r[2] for r in rows[1:] if r[3] == "Oracle"]
            if not closed or closed != oracle:
                return "closed form and oracle disagree"
        return "ok" if rows else "empty csv"
    data = json.loads(text)
    if spec.get("agree") and data["agree"] is not True:
        return "closed form and oracle disagree"
    if "verdict" in spec and (data["verdict"] != spec["verdict"] or len(data["entries"]) != spec["ops"]):
        return f"verdict {data['verdict']} over {len(data['entries'])} entries"
    return "ok"


def run_pass(workload, specs, trace, tag, digests) -> Pass:
    if workload != "certify-large":
        return _stream_pass(specs, trace, tag, digests)
    # one fresh process per command, so the family caches start cold in each
    parts = [_stream_pass([spec], trace, f"{tag}-{i}", digests, expect_s=CERTIFY_EXPECT_S)
             for i, spec in enumerate(specs)]
    layers = {} if trace else None
    for part in parts if trace else ():
        merge(layers, part.layers)
    return Pass([op for part in parts for op in part.ops], max(part.rss_mb for part in parts), layers)


def _stream_pass(specs, trace, tag, digests, expect_s=0.0) -> Pass:
    ops, final = [], {}

    def on_line(record):
        if "layers" in record:
            final["layers"] = record["layers"]
            return
        spec = specs[len(ops)]
        out = record["out"].encode()
        ops.append(Op(spec, record["rc"], record["s"], record["f"], out,
                      verdict(spec, record["rc"], out, digests)))

    request = {"requests": [s["argv"] for s in specs], "trace": bool(trace),
               "spans": str(OUT / f"{tag}.spans.csv"), "expect_s": expect_s}
    _, rc, _, rss_mb = _spawn([sys.executable, BENCH / "worker.py"],
                              stdin=json.dumps(request).encode(), on_line=on_line)
    if rc != 0 or len(ops) != len(specs):
        raise RuntimeError(f"worker exited {rc} after {len(ops)} of {len(specs)} requests")
    return Pass(ops, rss_mb, final.get("layers"))


def _nondeterministic(passes) -> int:
    """Identical argv must give byte-identical stdout, within and across passes."""
    seen, bad = {}, 0
    for op in (op for p in passes for op in p.ops):
        bad += seen.setdefault(tuple(op.spec["argv"]), op.digest) != op.digest
    return bad


def measure_setup(starts: int) -> list:
    """Seconds from a cold interpreter start to a finished trivial command,
    each with the host factor probed around it."""
    cmd = [sys.executable, "-m", "polyconnect", *SETUP_ARGV]
    times = []
    for _ in range(starts):
        before = slowdown(SETUP_EXPECT_S)
        out, rc, seconds, _ = _spawn(cmd)
        factor = (before + slowdown(seconds)) / 2
        if rc != 0 or out != b'["0", "2"]\n':
            raise RuntimeError(f"set-up command failed: exit {rc}, stdout {out!r}")
        times.append((seconds, factor))
    return times


def _p99(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def _normalised(reps) -> list:
    """Per operation, its time over identical repetitions divided by the
    host factors measured after them."""
    return [sum(op.seconds for op in ops) / sum(op.factor for op in ops)
            for ops in zip(*(r.ops for r in reps))]


def _host_factor(reps) -> float:
    """The run's mean host factor: time as measured over time normalised."""
    ops = [op for r in reps for op in r.ops]
    return sum(op.seconds for op in ops) / sum(op.seconds / op.factor for op in ops)


def _kind_seconds(specs, times, kind):
    times = [t for spec, t in zip(specs, times) if spec["kind"] == kind]
    return sum(times) if times else None


def _repeat(workload, specs, seconds, trace, digests, between=None) -> list:
    """Run the same pass until the time is used up: (untraced, traced) pairs
    when tracing, single untraced passes otherwise."""
    start, reps = time.perf_counter(), []
    while True:
        tag = f"{workload}-{len(reps)}"
        rep = run_pass(workload, specs, False, tag, digests)
        if trace:
            rep = (rep, run_pass(workload, specs, True, tag + "-traced", digests))
        reps.append(rep)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def untraced(workload, seed, seconds, digests):
    specs = workloads.PASS_INPUTS[workload](seed)
    measure_setup(1)  # writes the bytecode caches
    setup = measure_setup(SETUP_STARTS)
    # one cold start after each pass, so one slow moment weighs less
    reps = _repeat(workload, specs, seconds, False, digests,
                   between=lambda: setup.extend(measure_setup(1)))
    times = _normalised(reps)
    wall = sum(times)
    metrics = {
        "setup_s": (statistics.median(t / f for t, f in setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (reps[0].work / wall, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p99_ms": (_p99(times) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
    }
    detail = {
        "repetitions": len(reps),
        "latency_samples": len(times),
        "host_factor": _host_factor(reps),
        "setup_starts_s": [t for t, _ in setup],
        "pass_wall_s": [r.wall for r in reps],
        "verify_s": _kind_seconds(specs, times, "verify"),
        "table_s": _kind_seconds(specs, times, "table"),
    }
    if workload == "query-stream":
        detail["repeat_share"] = workloads.repeat_share(specs)
    return reps, metrics, detail, _nondeterministic(reps)


def traced(workload, seed, seconds, digests):
    specs = workloads.PASS_INPUTS[workload](seed)
    pairs = _repeat(workload, specs, seconds, True, digests)
    factor = _host_factor([p for pair in pairs for p in pair])
    differing = sum(
        (a.rc, a.digest) != (b.rc, b.digest)
        for off, on in pairs for a, b in zip(off.ops, on.ops)
    )
    per_pair = [layer_metrics(on.layers) for _, on in pairs]
    metrics = {}
    for name, (value, unit) in per_pair[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pair) / factor
        metrics[name] = (value, unit)
    first = pairs[0][1].ops
    metrics["cli.exit2"] = (sum(op.rc == 2 for op in first), "count")
    metrics["cli.escaped"] = (sum(op.verdict == "escaped" for op in first), "count")
    metrics["cli.stdout_bytes"] = (sum(op.size for op in first), "B")
    metrics["trace.spans"] = (pairs[0][1].layers["spans"], "count")
    overhead = sum(_normalised([on for _, on in pairs])) - sum(_normalised([off for off, _ in pairs]))
    metrics["trace.overhead_s"] = (overhead, "s")
    uncovered = [name for name in STRESSED[workload] if not metrics[name][0]]
    detail = {"pairs": len(pairs), "host_factor": factor, "stdout_differs": differing,
              "uncovered": uncovered}
    return [p for pair in pairs for p in pair], metrics, detail, differing + len(uncovered)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a stopped run still stops the child it is waiting for (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "polyconnect" / "cli.py").is_file():
        print(f"error: no polyconnect sources under {SRC}", file=sys.stderr)
        return 1
    digests = json.loads((BENCH / "digests.json").read_text())["stdout_sha256"]
    OUT.mkdir(exist_ok=True)
    load = os.getloadavg()[0]
    measure = traced if args.trace else untraced
    passes, metrics, detail, broken = measure(args.workload, args.seed, args.seconds, digests)
    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if op.verdict not in ("ok", "escaped")]
    escaped = sum(op.verdict == "escaped" for op in ops)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cache": CACHE_STATE[args.workload], "load_avg_1m": load, **detail,
        "attempted": len(ops), "failed": len(failures), "escaped": escaped,
        "fail_ratio": (len(failures) + escaped) / len(ops),
        "failures": sorted({f"{op.spec['argv']}: {op.verdict}" for op in failures})[:5],
    }
    if not args.trace:
        detail["nondeterministic"] = broken
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and not broken,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
