"""The benchmark's client process: runs polyconnect CLI requests in-process.

It reads ``{"requests": [argv, ...], "trace": bool, "spans": path,
"expect_s": seconds}`` as JSON on stdin and serves the requests one after another in a closed loop, writing
one JSON line per request to stdout:
``{"rc": exit code or escaped exception class, "s": seconds, "f": host
factor, "out": stdout}``.  Only the ``cli.run`` call is timed; the host
factor is probed right before and right after it (see probe.py), each time
for a tenth of what the last request took (``expect_s`` before the first).  A traced stream ends with
one more line, ``{"layers": <Tracer.aggregate()>}``, and writes its spans to
``spans``.
"""

import contextlib
import io
import json
import sys
import time


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _stream() -> None:
    spec = json.load(sys.stdin)
    tracer = _tracer() if spec["trace"] else None
    from polyconnect import cli
    from probe import slowdown

    out, seconds = sys.stdout, spec["expect_s"]
    for index, argv in enumerate(spec["requests"]):
        before = slowdown(seconds)
        if tracer is not None:
            tracer.request = index
        captured, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            start = time.perf_counter()
            try:
                rc = cli.run(argv)
            except Exception as exc:  # an escape is an outcome to report, not to crash on
                rc = type(exc).__name__
            seconds = time.perf_counter() - start
        factor = (before + slowdown(seconds)) / 2
        out.write(json.dumps({"rc": rc, "s": seconds, "f": factor, "out": captured.getvalue()}) + "\n")
    if tracer is not None:
        out.write(json.dumps({"layers": tracer.aggregate()}) + "\n")
        out.flush()
        tracer.write_spans(spec["spans"])


if __name__ == "__main__":
    _stream()
