"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic, so every check is a zero-tolerance
equality.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import json
import subprocess
import sys
from fractions import Fraction as F

from polyconnect import (
    BasisId,
    DEFAULT_JACOBI_SWEEP,
    LAGUERRE,
    Poly,
    coeff_hermite_in_laguerre,
    coeff_laguerre_in_hermite,
    connection_oracle,
    fields_wimp_luke_terminating,
    hermite,
    hermite_in_laguerre_via_bilinear,
    verify_theorem,
)
from polyconnect.sweeps import (
    sweep_bilinear_plain,
    sweep_bilinear_weighted,
    sweep_even_odd_split,
    sweep_luke_terminating,
    sweep_wimp_terminating,
)
from test_polybases import hermite_via_1f1


def _report(number, description, passed, note=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {number:2d} [{description}]: {status}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_laguerre_in_hermite_reconstructs():
    report = verify_theorem("3.1", 40)
    ok = report.verdict == "pass" and all(
        e.residual.is_zero and e.first_mismatch is None for e in report.entries
    )
    _report(1, "Laguerre in Hermite, n <= 40, zero residual", ok)


def test_criterion_02_hermite_in_laguerre_reconstructs():
    report = verify_theorem("3.2", 40)
    parities = {e.n % 2 for e in report.entries}
    ok = report.verdict == "pass" and parities == {0, 1}
    _report(2, "Hermite in Laguerre, N <= 40 both parities", ok)


def test_criterion_03_inverse_pair_matrices():
    n_max = 20
    size = n_max + 1
    a = [[coeff_laguerre_in_hermite(n, k) if k <= n else F(0) for k in range(size)]
         for n in range(size)]
    b = [[coeff_hermite_in_laguerre(n, k) if k <= n else F(0) for k in range(size)]
         for n in range(size)]
    ok = True
    for i in range(size):
        for j in range(size):
            expected = F(int(i == j))
            ab = sum(a[i][k] * b[k][j] for k in range(size))
            ba = sum(b[i][k] * a[k][j] for k in range(size))
            ok = ok and ab == expected and ba == expected
    _report(3, "inverse-pair matrices up to n = 20 multiply to identity", ok)


def test_criterion_04_shifted_jacobi_in_hermite_reconstructs():
    report = verify_theorem("3.4", 25)
    ok = (
        report.verdict == "pass"
        and len(report.entries) == 26 * len(DEFAULT_JACOBI_SWEEP)
        and all(e.first_mismatch is None for e in report.entries)
    )
    _report(4, "shifted Jacobi in Hermite, n <= 25, four parameter sets", ok)


def test_criterion_05_interpreted_hermite_in_jacobi_vs_oracle():
    report = verify_theorem("3.3", 20)
    # reporting consistency: an entry disagrees with the oracle entrywise
    # exactly when its reconstruction residual is nonzero (silent failure
    # would show up here)
    consistent = all(
        e.error is None and e.match == (e.first_mismatch is None)
        for e in report.entries
    )
    # the oracle route must reconstruct every source polynomial regardless
    oracle_ok = True
    for jp in DEFAULT_JACOBI_SWEEP:
        target = BasisId("jacobi-1mx", jp)
        for n in range(21):
            oracle_ok = oracle_ok and connection_oracle(hermite(n), target).reconstruct() == hermite(n)
    failure = report.first_failure()
    if failure is None:
        _report(5, "interpreted Hermite-in-Jacobi closed form", consistent and oracle_ok)
        return
    first = (failure.n, failure.alpha, failure.beta, failure.first_mismatch)
    print(
        "criterion  5 discrepancy report: interpreted closed form disagrees with "
        f"oracle first at (n, alpha, beta, m) = ({failure.n}, {failure.alpha}, "
        f"{failure.beta}, {failure.first_mismatch}); "
        f"verdict = {report.verdict}; oracle reconstruction intact = {oracle_ok}"
    )
    documented = (
        report.verdict == "fail"
        and first == (2, F(0), F(0), 0)
        and failure.first_mismatch is not None
        and not failure.residual.is_zero
    )
    _report(
        5,
        "interpreted Hermite-in-Jacobi closed form vs oracle",
        consistent and oracle_ok and documented,
        note="documented discrepancy",
    )


def test_criterion_06_even_odd_split_identity():
    entries = sweep_even_odd_split(cases=200, seed=2023)
    ok = len(entries) >= 200 and all(e["match"] for e in entries)
    _report(6, "even/odd split identity, 200 randomized terminating series", ok)


def test_criterion_07_bilinear_rearrangements():
    weighted = sweep_bilinear_weighted(cases=200, seed=101)
    plain = sweep_bilinear_plain(cases=200, seed=202)
    ok = (
        len(weighted) >= 200
        and len(plain) >= 200
        and all(e["match"] for e in weighted + plain)
    )
    _report(7, "bilinear rearrangements, 200 randomized sequence pairs each", ok)


def test_criterion_08_product_argument_expansions():
    wimp = sweep_wimp_terminating(cases=200, seed=303)
    # seed 400 draws the worked example a = (-1,), c = 3, z = w = 1/2 at entry
    # 98 (about one case in 2520 does); the cases hold the drawn objects
    luke = sweep_luke_terminating(cases=100, seed=400)
    drawn = any(
        e["case"]["a"] == (F(-1),) and e["case"]["c"] == 3
        and e["case"]["z"] == e["case"]["w"] == F(1, 2)
        for e in luke
    )
    lhs, rhs = fields_wimp_luke_terminating([-1], [], [], [], 3, F(1, 2), F(1, 2))
    ok = (
        len(wimp) >= 200
        and len(luke) >= 100
        and all(e["match"] for e in wimp + luke)
        and drawn
        and lhs == rhs == F(3, 4)
    )
    _report(8, "product-argument expansions, 200 + 100 randomized instances", ok)


def test_criterion_09_bilinear_route_reproduces_oracle():
    ok = True
    for p in range(7):
        route = hermite_in_laguerre_via_bilinear(p)
        oracle = connection_oracle(hermite(2 * p), LAGUERRE).coefficients
        ok = ok and route == oracle
    _report(9, "sequence-expansion route matches oracle for H_{2p}, p <= 6", ok)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polyconnect", *args], capture_output=True, text=True
    )


def test_criterion_10_construction_crosschecks_and_cli_contract():
    constructions_ok = True
    prev, cur = Poly([1]), Poly([0, 2])
    for n in range(65):
        by_recurrence = prev if n == 0 else cur
        constructions_ok = (
            constructions_ok and hermite(n) == hermite_via_1f1(n) == by_recurrence
        )
        if n >= 1:
            prev, cur = cur, Poly([0, 2]) * cur - (2 * n) * prev

    rerun_ok = True
    for args in (
        ("poly", "--family", "hermite", "--n", "10"),
        ("table", "--source", "hermite", "--target", "laguerre", "--n-max", "6"),
        ("verify", "--theorem", "2.2", "--cases", "15", "--seed", "8"),
    ):
        first, second = _run_cli(*args), _run_cli(*args)
        rerun_ok = (
            rerun_ok
            and first.stdout == second.stdout
            and first.returncode == second.returncode == 0
            and first.stderr == ""
            and first.stdout != ""
        )

    pass_proc = _run_cli("verify", "--theorem", "3.1", "--n-max", "8")
    mismatch_proc = _run_cli("verify", "--theorem", "3.3", "--n-max", "3")
    invalid_proc = _run_cli("poly", "--family", "hermite", "--n", "-2")
    exit_ok = (
        pass_proc.returncode == 0
        and mismatch_proc.returncode == 1
        and json.loads(mismatch_proc.stdout)["verdict"] == "fail"
        and invalid_proc.returncode == 2
        and invalid_proc.stdout == ""
    )
    _report(
        10,
        "construction cross-checks to n = 64 and CLI determinism/exit codes",
        constructions_ok and rerun_ok and exit_ok,
    )
