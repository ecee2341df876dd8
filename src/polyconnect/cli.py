"""Command-line front end: polynomial construction, connection computation,
and formula/identity verification with machine-readable output.

Output on stdout is always valid JSON or CSV per --format; diagnostics go to
stderr only.  Exit codes: 0 success or verification pass, 1 verification
mismatch (the report is still emitted), 2 invalid input.
"""

import argparse
import csv
import json
import sys
from typing import Optional

from .connection import (
    FAMILIES,
    JACOBI_FAMILIES,
    THEOREMS,
    BasisId,
    basis,
    basis_poly,
    closed_form_connection,
    connection_oracle,
    verify_theorem,
)
from .errors import PolyConnectError
from .polybases import JacobiParams
from .rationals import parse_rational, rational_to_str
from .sweeps import LEMMA_SWEEPS

_VERIFY_IDS = (*THEOREMS, *LEMMA_SWEEPS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with a one-line reason, never sys.exit here
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyconnect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="construct a polynomial family member")
    poly.add_argument("--family", required=True, choices=FAMILIES)
    poly.add_argument("--n", required=True, type=int)
    poly.add_argument("--alpha")
    poly.add_argument("--beta")
    poly.add_argument("--format", choices=("json", "csv"), default="json")

    connect = sub.add_parser("connect", help="connection coefficients for one degree")
    connect.add_argument("--source", required=True, choices=FAMILIES)
    connect.add_argument("--target", required=True, choices=FAMILIES)
    connect.add_argument("--n", required=True, type=int)
    connect.add_argument("--alpha")
    connect.add_argument("--beta")
    connect.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    connect.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="verify a closed form or identity sweep")
    verify.add_argument("--theorem", required=True, choices=_VERIFY_IDS)
    verify.add_argument("--n-max", type=int, default=0)
    verify.add_argument("--alpha")
    verify.add_argument("--beta")
    verify.add_argument("--cases", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("json", "csv"), default="json")

    table = sub.add_parser("table", help="full lower-triangular connection matrix")
    table.add_argument("--source", required=True, choices=FAMILIES)
    table.add_argument("--target", required=True, choices=FAMILIES)
    table.add_argument("--n-max", required=True, type=int)
    table.add_argument("--alpha")
    table.add_argument("--beta")
    table.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    table.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


def _jacobi_params(ns) -> Optional[JacobiParams]:
    if ns.alpha is None and ns.beta is None:
        return None
    if ns.alpha is None or ns.beta is None:
        raise _UsageError("--alpha and --beta must be given together")
    return JacobiParams(parse_rational(ns.alpha), parse_rational(ns.beta))


def _emit_csv(rows, header) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_poly(ns) -> int:
    jp = _jacobi_params(ns)
    if jp is not None and ns.family not in JACOBI_FAMILIES:
        raise _UsageError(f"--alpha/--beta do not apply to family {ns.family}")
    p = basis_poly(basis(ns.family, jp), ns.n)
    if ns.format == "json":
        print(json.dumps(p.to_json()))
    else:
        _emit_csv(
            [(k, rational_to_str(c)) for k, c in enumerate(p.coefficients)],
            ("degree", "coefficient"),
        )
    return 0


def _connection_results(source: BasisId, target: BasisId, n: int, method: str):
    closed = oracle = None
    if method in ("closed", "both"):
        closed = closed_form_connection(source, target, n)
    if method in ("oracle", "both"):
        oracle = connection_oracle(basis_poly(source, n), target)
    return closed, oracle


def _cmd_connect(ns) -> int:
    jp = _jacobi_params(ns)
    source = basis(ns.source, jp)
    target = basis(ns.target, jp)
    closed, oracle = _connection_results(source, target, ns.n, ns.method)
    if ns.format == "csv":
        rows = []
        if closed is not None:
            rows += closed.to_csv_rows()
        if oracle is not None:
            rows += oracle.to_csv_rows()
        _emit_csv(rows, ("n", "k", "coefficient", "provenance"))
        return 0
    if ns.method == "both":
        payload = {
            "source": source.to_json(),
            "target": target.to_json(),
            "degree": ns.n,
            "closed": [rational_to_str(c) for c in closed.coefficients],
            "oracle": [rational_to_str(c) for c in oracle.coefficients],
            "agree": closed.coefficients == oracle.coefficients,
            "provenance": closed.provenance,
        }
    else:
        payload = (closed or oracle).to_json()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_verify(ns) -> int:
    jp, record = _jacobi_params(ns), THEOREMS.get(ns.theorem)
    if jp is not None and (record is None or not record.needs_params):
        raise _UsageError(f"--alpha/--beta do not apply to theorem {ns.theorem}")
    if ns.theorem in LEMMA_SWEEPS:
        if ns.cases < 1:
            raise _UsageError("--cases must be >= 1")
        entries = LEMMA_SWEEPS[ns.theorem](ns.cases, ns.seed)
        verdict = "pass" if all(e["match"] for e in entries) else "fail"
        if ns.format == "csv":
            _emit_csv(
                [
                    (ns.theorem, i, e["match"], e["residual"], verdict)
                    for i, e in enumerate(entries)
                ],
                ("theorem", "case", "match", "residual", "verdict"),
            )
        else:
            payload = {
                "theorem": ns.theorem,
                "params": {"cases": ns.cases, "seed": ns.seed},
                "entries": [
                    {"n": i, "match": e["match"], "residual": e["residual"]}
                    for i, e in enumerate(entries)
                ],
                "verdict": verdict,
            }
            print(json.dumps(payload, indent=2))
        return 0 if verdict == "pass" else 1

    report = verify_theorem(ns.theorem, ns.n_max, None if jp is None else (jp,))
    if ns.format == "csv":
        rows = [
            (
                report.theorem,
                e.n,
                "" if e.alpha is None else rational_to_str(e.alpha),
                "" if e.beta is None else rational_to_str(e.beta),
                e.match,
                "" if e.first_mismatch is None else e.first_mismatch,
                report.verdict,
            )
            for e in report.entries
        ]
        _emit_csv(rows, ("theorem", "n", "alpha", "beta", "match", "first_mismatch", "verdict"))
    else:
        print(json.dumps(report.to_json(), indent=2))
    return 0 if report.verdict == "pass" else 1


def _cmd_table(ns) -> int:
    jp = _jacobi_params(ns)
    source = basis(ns.source, jp)
    target = basis(ns.target, jp)
    if ns.n_max < 0:
        raise _UsageError("--n-max must be >= 0")
    rows = []
    for n in range(ns.n_max + 1):
        closed, oracle = _connection_results(source, target, n, ns.method)
        for result in (closed, oracle):
            if result is not None:
                rows += result.to_csv_rows()
    if ns.format == "csv":
        _emit_csv(rows, ("n", "k", "coefficient", "provenance"))
    else:
        print(
            json.dumps(
                [
                    {"n": n, "k": k, "coefficient": c, "provenance": prov}
                    for n, k, c, prov in rows
                ],
                indent=2,
            )
        )
    return 0


_COMMANDS = {
    "poly": _cmd_poly,
    "connect": _cmd_connect,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def run(argv) -> int:
    """Parse argv and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyConnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
