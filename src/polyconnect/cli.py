"""Command-line front end: polynomial construction, connection computation,
and formula/identity verification with machine-readable output.

Output on stdout is always valid JSON or CSV per --format; diagnostics go to
stderr only.  Exit codes: 0 success or verification pass, 1 verification
mismatch, 2 invalid input, a verification whose entries raised errors but
never mismatched (for both verification outcomes the report is still
emitted), or stdout closed before the output was written.
"""

import argparse
import csv
import dataclasses
import functools
import json
import os
import re
import sys
from typing import Optional

from .connection import (
    FAMILIES,
    JACOBI_FAMILIES,
    THEOREMS,
    basis,
    basis_poly,
    closed_form_connection,
    connection_oracle,
    connection_table,
    verify_theorem,
)
from .errors import InvalidInputError, PolyConnectError
from .polybases import JacobiParams
from .rationals import check_index, parse_rational, rational_to_str
from .sweeps import LEMMA_SWEEPS

_VERIFY_IDS = (*THEOREMS, *LEMMA_SWEEPS)
_CONNECTION_HEADER = ("n", "k", "coefficient", "provenance")
_VERDICT_EXIT = {"pass": 0, "fail": 1, "error": 2}


class _Parser(argparse.ArgumentParser):
    """Raises InvalidInputError instead of exiting, and reads "-p/q" as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse sets the matcher per instance; the default one has no "/".
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # exit 2 with a one-line reason, never sys.exit here
        raise InvalidInputError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first request and reused by later ones; a
    parse keeps its state in the namespace it returns, not in the parser."""
    parser = _Parser(prog="polyconnect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    poly = sub.add_parser("poly", help="construct a polynomial family member")
    connect = sub.add_parser("connect", help="connection coefficients for one degree")
    verify = sub.add_parser("verify", help="verify a closed form or identity sweep")
    table = sub.add_parser("table", help="full lower-triangular connection matrix")

    poly.add_argument("--family", required=True, choices=FAMILIES)
    poly.add_argument("--n", required=True, type=int)
    verify.add_argument("--theorem", required=True, choices=_VERIFY_IDS)
    verify.add_argument("--n-max", type=int, default=0)
    for command, degree in ((connect, "--n"), (table, "--n-max")):
        command.add_argument("--source", required=True, choices=FAMILIES)
        command.add_argument("--target", required=True, choices=FAMILIES)
        command.add_argument(degree, required=True, type=int)
    for command in (poly, connect, verify, table):
        command.add_argument("--alpha")
        command.add_argument("--beta")
    verify.add_argument("--cases", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    for command, method in ((connect, "both"), (table, "closed")):
        command.add_argument("--method", choices=("closed", "oracle", "both"), default=method)
    for command, fmt in ((poly, "json"), (connect, "json"), (verify, "json"), (table, "csv")):
        command.add_argument("--format", choices=("json", "csv"), default=fmt)
    return parser


def _jacobi_params(ns, families, subject: str) -> Optional[JacobiParams]:
    """The --alpha/--beta pair; it applies exactly when one of the named
    families takes Jacobi parameters."""
    if ns.alpha is None and ns.beta is None:
        return None
    if ns.alpha is None or ns.beta is None:
        raise InvalidInputError("--alpha and --beta must be given together")
    jp = JacobiParams(parse_rational(ns.alpha), parse_rational(ns.beta))
    if not any(family in JACOBI_FAMILIES for family in families):
        raise InvalidInputError(f"--alpha/--beta do not apply to {subject}")
    return jp


def _emit(ns, header, rows, payload=None, indent=2) -> None:
    """Write one result to stdout: the rows under header as CSV, or the
    payload as JSON (by default the rows as objects keyed by header)."""
    if ns.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    if payload is None:
        payload = [dict(zip(header, row)) for row in rows]
    print(json.dumps(payload, indent=indent))


def _cmd_poly(ns) -> int:
    jp = _jacobi_params(ns, (ns.family,), f"family {ns.family}")
    p = basis_poly(basis(ns.family, jp), ns.n)
    rows = ((k, rational_to_str(c)) for k, c in enumerate(p.coefficients))
    _emit(ns, ("degree", "coefficient"), rows, p.to_json(), indent=None)
    return 0


def _connections(ns) -> list:
    """The closed-form and/or oracle results (--method) for the degree --n of
    connect, or for each degree up to --n-max of table, whose oracle rows come
    from connection_table; both name --source as their source.  Rows are
    drawn degree by degree, after each degree's closed form, so the first
    error raised is the one converting each degree on its own would raise."""
    families = (ns.source, ns.target)
    jp = _jacobi_params(ns, families, f"{ns.source} -> {ns.target}")
    source, target = (basis(family, jp) for family in families)
    if ns.command == "connect":
        degrees = (ns.n,)
        rows = (connection_oracle(basis_poly(source, n), target) for n in degrees)
    else:
        degrees = range(check_index(ns.n_max, "--n-max") + 1)
        rows = connection_table(source, target, degrees[-1])
    results = []
    for n in degrees:
        if ns.method != "oracle":
            results.append(closed_form_connection(source, target, n))
        if ns.method != "closed":
            row = next(rows)
            if isinstance(row, PolyConnectError):
                raise row
            results.append(dataclasses.replace(row, source=source))
    return results


def _connection_rows(results):
    return (row for result in results for row in result.to_csv_rows())


def _cmd_connect(ns) -> int:
    results = _connections(ns)
    if ns.method == "both":
        closed, oracle = results
        payload = {
            "source": closed.source.to_json(),
            "target": closed.target.to_json(),
            "degree": ns.n,
            "closed": [rational_to_str(c) for c in closed.coefficients],
            "oracle": [rational_to_str(c) for c in oracle.coefficients],
            "agree": closed.coefficients == oracle.coefficients,
            "provenance": closed.provenance,
        }
    else:
        payload = results[0].to_json()
    _emit(ns, _CONNECTION_HEADER, _connection_rows(results), payload)
    return 0


def _cmd_table(ns) -> int:
    results = _connections(ns)
    _emit(ns, _CONNECTION_HEADER, _connection_rows(results))
    return 0


def _cmd_verify(ns) -> int:
    record = THEOREMS.get(ns.theorem)
    families = () if record is None else (record.source, record.target)
    jp = _jacobi_params(ns, families, f"theorem {ns.theorem}")
    if record is None:
        if ns.cases < 1:
            raise InvalidInputError("--cases must be >= 1")
        entries = LEMMA_SWEEPS[ns.theorem](ns.cases, ns.seed)
        verdict = "pass" if all(e["match"] for e in entries) else "fail"
        header = ("theorem", "case", "match", "residual", "verdict")
        rows = (
            (ns.theorem, i, e["match"], e["residual"], verdict) for i, e in enumerate(entries)
        )
        payload = {
            "theorem": ns.theorem,
            "params": {"cases": ns.cases, "seed": ns.seed},
            "entries": [
                {"n": i, "match": e["match"], "residual": e["residual"]}
                for i, e in enumerate(entries)
            ],
            "verdict": verdict,
        }
    else:
        report = verify_theorem(ns.theorem, ns.n_max, None if jp is None else (jp,))
        verdict = report.verdict
        header = ("theorem", "n", "alpha", "beta", "match", "first_mismatch", "verdict")
        rows = (
            (
                report.theorem,
                e.n,
                "" if e.alpha is None else rational_to_str(e.alpha),
                "" if e.beta is None else rational_to_str(e.beta),
                e.match,
                "" if e.first_mismatch is None else e.first_mismatch,
                verdict,
            )
            for e in report.entries
        )
        payload = report.to_json()
    _emit(ns, header, rows, payload)
    if verdict == "error":
        print("error: some verification entries could not be built", file=sys.stderr)
    return _VERDICT_EXIT[verdict]


_COMMANDS = {
    "poly": _cmd_poly,
    "connect": _cmd_connect,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def run(argv) -> int:
    """Parse argv and run one command; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except PolyConnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
