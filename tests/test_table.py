"""Connection tables from three-term recurrences, checked against the oracle,
and the path verify_theorem takes through them."""

from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyconnect import (
    BasisId,
    InvalidInputError,
    JacobiParams,
    Poly,
    PolyConnectError,
    basis_poly,
    coeff_hermite_in_shifted_jacobi,
    connection_oracle,
    connection_table,
    hermite,
    verify_theorem,
)
from polyconnect import connection
from polyconnect.connection import FAMILIES, basis

PAIRS = list(product(FAMILIES, FAMILIES))
JP00 = JacobiParams(0, 0)

#: Small rationals, weighted towards the integers where Jacobi members lose
#: their degree or meet a series pole and a recurrence's a or d vanishes.
jacobi_values = st.one_of(
    st.integers(min_value=-6, max_value=4).map(F),
    st.fractions(min_value=-6, max_value=4, max_denominator=3),
)


def _outcome(call):
    try:
        result = call()
    except PolyConnectError as exc:
        return type(exc), str(exc)
    return result.degree, result.coefficients


def _row_outcome(row):
    if isinstance(row, PolyConnectError):
        return type(row), str(row)
    return row.degree, row.coefficients


@pytest.mark.parametrize("source_family, target_family", PAIRS, ids="->".join)
@settings(deadline=None, max_examples=25)
@given(alpha=jacobi_values, beta=jacobi_values, n_max=st.integers(min_value=0, max_value=12))
def test_table_rows_equal_oracle_rows(source_family, target_family, alpha, beta, n_max):
    jp = JacobiParams(alpha, beta)
    source, target = basis(source_family, jp), basis(target_family, jp)
    rows = list(connection_table(source, target, n_max))
    assert len(rows) == n_max + 1
    for n, row in enumerate(rows):
        expected = _outcome(lambda: connection_oracle(basis_poly(source, n), target))
        assert _row_outcome(row) == expected, n


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "jp",
    [
        JP00,
        JacobiParams(F(-1, 2), F(1, 3)),
        JacobiParams(F(5, 2), -3),
        # lam = -1: the k = 0 coefficients of the divided form are singular
        JacobiParams(F(-1, 2), F(-3, 2)),
    ],
)
def test_family_recurrences_hold_on_members(family, jp):
    """d x p_k = a p_{k+1} + b p_k + c p_{k-1} in integers, on every member
    that can be built, graded or not."""
    params = basis(family, jp).params
    member = FAMILIES[family].member
    x = Poly.monomial(1)
    for k in range(8):
        quad = FAMILIES[family].recurrence(k, params)
        assert [type(v) for v in quad] == [int] * 4, k
        a, b, c, d = quad
        try:
            lower = member(k - 1, params) if k else Poly()
            rhs = a * member(k + 1, params) + b * member(k, params) + c * lower
        except PolyConnectError:
            continue
        assert d * x * member(k, params) == rhs, k


def test_rows_of_ungraded_families_come_from_the_oracle(monkeypatch):
    # alpha = -6, beta = 0: the shifted Jacobi members of degree 3, 4 and 5
    # lose their top coefficient; with such a family every row is the
    # oracle's conversion of its member, or the error building it raises
    jp = JacobiParams(-6, 0)
    source, target = basis("shifted-jacobi", jp), basis("laguerre", None)
    calls = Counter()
    oracle = connection.connection_oracle

    def counting(p, t):
        calls[p.degree] += 1
        return oracle(p, t)

    monkeypatch.setattr(connection, "connection_oracle", counting)
    rows = list(connection_table(source, target, 10))
    for n in (3, 4, 5):
        assert isinstance(rows[n], InvalidInputError)
        assert str(rows[n]) == f"shifted-jacobi family is not graded at degree {n}"
    good = [0, 1, 2, 6, 7, 8, 9, 10]
    assert calls == {n: 1 for n in good}
    for n in good:
        assert rows[n].coefficients == oracle(basis_poly(source, n), target).coefficients


@pytest.mark.parametrize(
    "jp", [JP00, JacobiParams(F(-1, 2), F(1, 3)), JacobiParams(F(-13, 3), F(5, 2))]
)
def test_rows_of_graded_families_come_from_the_recurrence(monkeypatch, jp):
    # no parameter is a negative integer, so every pair takes the recurrence
    # branch and the oracle is never called; the rows still equal its rows
    oracle = connection.connection_oracle

    def refuse(p, t):
        raise AssertionError("oracle called for a graded pair")

    monkeypatch.setattr(connection, "connection_oracle", refuse)
    for source_family, target_family in PAIRS:
        source, target = basis(source_family, jp), basis(target_family, jp)
        rows = list(connection_table(source, target, 8))
        for n, row in enumerate(rows):
            expected = oracle(basis_poly(source, n), target)
            assert row.coefficients == expected.coefficients, (source_family, target_family, n)


def test_table_checks_n_max_and_is_lazy():
    with pytest.raises(InvalidInputError):
        connection_table(connection.LAGUERRE, connection.HERMITE, -1)
    rows = connection_table(connection.LAGUERRE, connection.HERMITE, 10**9)
    assert next(rows).coefficients == (1,)
    assert next(rows).coefficients == (1, F(-1, 2))


def _count_calls(monkeypatch):
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(connection, "connection_oracle")
    counting(connection.ConnectionResult, "reconstruct")
    return calls


def test_verify_runs_oracle_and_reconstruct_only_on_mismatch(monkeypatch):
    calls = _count_calls(monkeypatch)
    report = verify_theorem("3.1", 20)
    assert report.verdict == "pass" and len(report.entries) == 21
    assert all(e.residual.is_zero and e.first_mismatch is None for e in report.entries)
    assert calls == {}

    report = verify_theorem("3.3", 3)
    mismatches = [e for e in report.entries if e.error is None and not e.match]
    assert len(mismatches) == 8  # n = 2 and 3, every default parameter set
    assert calls == {"connection_oracle": 8, "reconstruct": 8}
    failure = report.first_failure()
    assert (failure.n, failure.alpha, failure.beta, failure.first_mismatch) == (2, 0, 0, 0)
    assert coeff_hermite_in_shifted_jacobi(2, JP00, 0) == F(22, 3)
    oracle = connection_oracle(hermite(2), BasisId("jacobi-1mx", JP00))
    assert oracle.coefficients[0] == F(10, 3)


def test_verify_records_table_oracle_disagreement_as_entry_error(monkeypatch):
    # a table row that the oracle does not confirm is an error, never a verdict
    rows = connection._table_rows

    def skewed(source, target, n_max):
        for num, den in rows(source, target, n_max):
            yield [2 * r for r in num], den

    monkeypatch.setattr(connection, "_table_rows", skewed)
    report = verify_theorem("3.2", 2)
    assert [e.error for e in report.entries] == [
        f"connection table and oracle disagree at degree {n}" for n in range(3)
    ]
    assert report.verdict == "error"


def test_verify_runs_oracle_once_per_row_for_degenerate_parameters(monkeypatch):
    # beta = -3: every table row already is the oracle's conversion, so a
    # mismatching row is not converted a second time
    calls = _count_calls(monkeypatch)
    report = verify_theorem("3.3", 4, [JacobiParams(F(1, 2), -3)])
    assert report.verdict == "fail"
    mismatches = [e.n for e in report.entries if e.error is None and not e.match]
    assert mismatches == [2, 3, 4]
    assert calls == {"connection_oracle": 5, "reconstruct": 3}
    assert [e.first_mismatch for e in report.entries] == [None, None, 0, 0, 0]


@pytest.mark.parametrize(
    "theorem, param_sets",
    [("3.1", [JacobiParams(1, 1)]), ("3.2", []), ("3.3", []), ("3.4", ())],
)
def test_verify_refuses_parameter_sets_the_theorem_cannot_use(theorem, param_sets):
    with pytest.raises(InvalidInputError):
        verify_theorem(theorem, 3, param_sets)
