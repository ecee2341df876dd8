"""CLI stdout pinned byte for byte: "<exit code> <SHA-256 of stdout>" per
command.

The digests in golden_cli.json were recorded before the family/theorem
registry refactor, which had to leave every one of them unchanged; the 60
``connect --method oracle --format json`` digests whose source is not the
monomial basis were recorded again when that output began to name the
requested source instead of "monomial".  Every
Jacobi parameter pair used here is regular for the degrees asked, so no
command reaches the ungraded-member path; tests/degenerate_grid.py and its
golden_degenerate.txt pin those paths, with exit code, stdout digest and
stderr per command.  Regenerate the file with
``PYTHONPATH=src python tests/test_golden_cli.py`` only for a deliberate
wire change, and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from degenerate_grid import GOLDEN as DEGENERATE_GOLDEN, commands, outcome
from polyconnect.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

FAMILIES = ("hermite", "laguerre", "shifted-jacobi", "jacobi-1mx", "monomial")
JACOBI = ("shifted-jacobi", "jacobi-1mx")
PARAMS = (("0", "0"), ("1/2", "1/2"), ("1", "2"), ("-1/2", "1/3"), ("2", "1/2"))
CLOSED_PAIRS = (
    ("laguerre", "hermite"),
    ("hermite", "laguerre"),
    ("hermite", "jacobi-1mx"),
    ("shifted-jacobi", "hermite"),
)
FORMATS = ("json", "csv")
#: Further pairs for the Jacobi theorems only: alpha = -3/2 gives a Thm3.3 row
#: a negative raw denominator, and (1/2, -3/2) has lam = 0.
ROW_PARAMS = (("-3/2", "1/3"), ("1/2", "-3/2"))


def _params(families, i):
    if not any(f in JACOBI for f in families):
        return []
    alpha, beta = PARAMS[i % len(PARAMS)]
    return [f"--alpha={alpha}", f"--beta={beta}"]


def _poly():
    for family in FAMILIES:
        for i in range(len(PARAMS) if family in JACOBI else 1):
            params = _params((family,), i)
            for n in (0, 1, 2, 3, 4, 5, 6, 12):
                for fmt in FORMATS:
                    yield ["poly", "--family", family, "--n", str(n), *params, "--format", fmt]


def _connect():
    i = 0
    for source in FAMILIES:
        for target in FAMILIES:
            for method in ("closed", "oracle", "both"):
                for n in (0, 3, 6):
                    for fmt in FORMATS:
                        i += 1
                        yield ["connect", "--source", source, "--target", target, "--n", str(n),
                               *_params((source, target), i), "--method", method, "--format", fmt]


def _table():
    i = 0
    for source in FAMILIES:
        for target in FAMILIES:
            closed = (source, target) in CLOSED_PAIRS
            for method in ("closed", "oracle", "both") if closed else ("oracle",):
                for n_max in (0, 4) if closed else (3,):
                    for fmt in FORMATS:
                        i += 1
                        yield ["table", "--source", source, "--target", target,
                               "--n-max", str(n_max), *_params((source, target), i),
                               "--method", method, "--format", fmt]


def _verify_closed():
    for theorem in ("3.1", "3.2", "3.3", "3.3c", "3.4"):
        jacobi = theorem in ("3.3", "3.3c", "3.4")
        for params in ([[]] + [[f"--alpha={a}", f"--beta={b}"] for a, b in PARAMS + ROW_PARAMS]
                       if jacobi else [[], ["--alpha=1", "--beta=1"]]):
            for n_max in (0, 5, 12):
                for fmt in FORMATS:
                    yield ["verify", "--theorem", theorem, "--n-max", str(n_max), *params,
                           "--format", fmt]


def _verify_lemmas():
    for lemma in ("2.1", "2.2", "2.3"):
        for cases in (1, 3, 7, 40):
            for seed in (0, 1, 7, 12345):
                for fmt in FORMATS:
                    yield ["verify", "--theorem", lemma, "--cases", str(cases),
                           "--seed", str(seed), "--format", fmt]


#: Jacobi parameters of the large-degree group, regular at every degree.
LARGE_PARAMS = ("1/2", "1/3")


def _large():
    """Large integers on the wire: degree 40 conversions, degree 20 tables,
    degree 160 Jacobi members and a Thm3.3 verify that fails."""
    def params(families):
        jacobi = any(f in JACOBI for f in families)
        return [f"--alpha={LARGE_PARAMS[0]}", f"--beta={LARGE_PARAMS[1]}"] if jacobi else []

    for source in FAMILIES:
        for target in FAMILIES:
            for fmt in FORMATS:
                yield ["connect", "--source", source, "--target", target, "--n", "40",
                       *params((source, target)), "--method", "oracle", "--format", fmt]
    for source, target in CLOSED_PAIRS:
        for fmt in FORMATS:
            yield ["connect", "--source", source, "--target", target, "--n", "40",
                   *params((source, target)), "--method", "both", "--format", fmt]
    for source, target in CLOSED_PAIRS:
        yield ["table", "--source", source, "--target", target, "--n-max", "20",
               *params((source, target)), "--method", "both"]
    for family in JACOBI:
        yield ["poly", "--family", family, "--n", "160", *params((family,))]
    yield ["verify", "--theorem", "3.3", "--n-max", "20"]


GROUPS = {
    "large": _large,
    "poly": _poly,
    "connect": _connect,
    "table": _table,
    "verify-closed": _verify_closed,
    "verify-lemmas": _verify_lemmas,
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_stdout_matches_recorded_digests(group):
    recorded = json.loads(GOLDEN.read_text())[group]
    commands = [" ".join(argv) for argv in GROUPS[group]()]
    assert sorted(commands) == sorted(recorded)
    changed = [cmd for cmd in commands if _digest(cmd.split(" ")) != recorded[cmd]]
    assert changed == []


def test_degenerate_grid_matches_recorded_outcomes():
    recorded = DEGENERATE_GOLDEN.read_text().splitlines()
    argvs = list(commands())
    assert len(argvs) == len(recorded)
    changed = [" ".join(argv) for argv, line in zip(argvs, recorded) if outcome(argv) != line]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {group: {" ".join(argv): _digest(argv) for argv in make()}
             for group, make in GROUPS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
