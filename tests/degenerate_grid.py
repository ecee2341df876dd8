"""CLI outcomes over degenerate Jacobi parameters, one line per command.

The grid crosses (alpha, beta) over PARAMS, where alpha, beta or
alpha + beta + 1 is often a negative integer: members that are not graded,
series poles, vanishing prefactor denominators, and the per-entry and
per-row oracle fallbacks of the closed forms and tables.  Each command's
outcome is "<exit> <SHA-256 of stdout> <stderr as a JSON string>".

    python tests/degenerate_grid.py            # one SHA-256 over every outcome
    python tests/degenerate_grid.py --record   # rewrite golden_degenerate.txt

The digest is the same under ``python -O`` and ``python -OO``; CI compares
them.  tests/test_golden_cli.py checks the outcomes against
golden_degenerate.txt, which was recorded before the integer-row Poly and
must only change with a deliberate wire change, said in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from polyconnect.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden_degenerate.txt"

PARAMS = ("-6", "-3", "-5/2", "-2", "-1", "-1/2", "0", "1/2", "1", "7/3")
PAIRS = (("hermite", "jacobi-1mx"), ("shifted-jacobi", "hermite"),
         ("laguerre", "shifted-jacobi"))
METHODS = ("closed", "oracle", "both")


def commands():
    for alpha in PARAMS:
        for beta in PARAMS:
            jp = [f"--alpha={alpha}", f"--beta={beta}"]
            for source, target in PAIRS:
                pair = ["--source", source, "--target", target]
                for method in METHODS:
                    for n in range(5):
                        yield ["connect", *pair, "--n", str(n), *jp, "--method", method]
                    yield ["table", *pair, "--n-max", "4", *jp, "--method", method]
            for theorem in ("3.3", "3.3c", "3.4"):
                yield ["verify", "--theorem", theorem, "--n-max", "4", *jp]
            for family in ("shifted-jacobi", "jacobi-1mx"):
                for n in range(5):
                    yield ["poly", "--family", family, "--n", str(n), *jp]


def outcome(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} {json.dumps(err.getvalue())}"


if __name__ == "__main__":
    outcomes = [outcome(argv) for argv in commands()]
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text("".join(line + "\n" for line in outcomes))
    else:
        print(hashlib.sha256("".join(line + "\n" for line in outcomes).encode()).hexdigest())
