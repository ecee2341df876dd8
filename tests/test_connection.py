from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyconnect import (
    BasisId,
    DEFAULT_JACOBI_SWEEP,
    HERMITE,
    InvalidInputError,
    JacobiParams,
    LAGUERRE,
    MONOMIAL,
    Poly,
    PolyConnectError,
    UnsupportedPairError,
    basis_poly,
    closed_form_connection,
    coeff_hermite_in_laguerre,
    coeff_hermite_in_shifted_jacobi,
    coeff_laguerre_in_hermite,
    coeff_shifted_jacobi_in_hermite,
    connection_oracle,
    delta_params,
    hermite,
    jacobi_at_one_minus_x_basis,
    laguerre,
    shifted_jacobi,
    shifted_jacobi_basis,
    verify_theorem,
)

JP00 = JacobiParams(0, 0)
TARGETS = [
    MONOMIAL,
    HERMITE,
    LAGUERRE,
    shifted_jacobi_basis(JacobiParams(F(1, 2), F(1, 2))),
    jacobi_at_one_minus_x_basis(JacobiParams(1, 2)),
]

small_polys = st.builds(
    Poly,
    st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        min_size=0,
        max_size=7,
    ),
)


class TestBasisId:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BasisId("nope")
        with pytest.raises(InvalidInputError):
            BasisId("shifted-jacobi")
        with pytest.raises(InvalidInputError):
            BasisId("hermite", JP00)

    def test_json(self):
        assert HERMITE.to_json() == {"family": "hermite"}
        assert shifted_jacobi_basis(JacobiParams(F(1, 2), 2)).to_json() == {
            "family": "shifted-jacobi",
            "alpha": "1/2",
            "beta": "2",
        }


class TestOracle:
    def test_frozen_examples(self):
        assert connection_oracle(hermite(2), LAGUERRE).coefficients == (6, -16, 8)
        assert connection_oracle(Poly([0, 0, 1]), HERMITE).coefficients == (
            F(1, 2),
            0,
            F(1, 4),
        )
        assert connection_oracle(laguerre(2), HERMITE).coefficients == (
            F(5, 4),
            -1,
            F(1, 8),
        )

    @pytest.mark.parametrize("target", TARGETS, ids=lambda b: b.family)
    @pytest.mark.parametrize("k", range(0, 6))
    def test_identity_expansion(self, target, k):
        result = connection_oracle(basis_poly(target, k), target)
        expected = tuple(F(int(i == k)) for i in range(k + 1))
        assert result.coefficients == expected

    @settings(max_examples=60)
    @given(small_polys, st.sampled_from(TARGETS))
    def test_soundness_by_reexpansion(self, p, target):
        result = connection_oracle(p, target)
        assert result.reconstruct() == p
        assert result.provenance == "Oracle"

    def test_zero_polynomial(self):
        result = connection_oracle(Poly(), HERMITE)
        assert result.coefficients == (0,)
        assert result.reconstruct().is_zero

    def test_short_target_member_is_invalid_input(self):
        # at alpha = -6, beta = 0 the degree-3 shifted Jacobi member has degree 2
        target = shifted_jacobi_basis(JacobiParams(-6, 0))
        with pytest.raises(InvalidInputError, match="not graded at degree 3"):
            connection_oracle(Poly.monomial(3), target)


class TestLaguerreInHermite:
    def test_frozen_examples(self):
        assert coeff_laguerre_in_hermite(0, 0) == 1
        assert coeff_laguerre_in_hermite(1, 0) == 1
        assert coeff_laguerre_in_hermite(1, 1) == F(-1, 2)
        assert coeff_laguerre_in_hermite(2, 0) == F(5, 4)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            coeff_laguerre_in_hermite(2, 3)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_oracle(self, n):
        oracle = connection_oracle(laguerre(n), HERMITE)
        closed = [coeff_laguerre_in_hermite(n, k) for k in range(n + 1)]
        assert tuple(closed) == oracle.coefficients


class TestHermiteInLaguerre:
    def test_frozen_examples(self):
        assert coeff_hermite_in_laguerre(0, 0) == 1
        assert coeff_hermite_in_laguerre(1, 0) == 2
        assert coeff_hermite_in_laguerre(1, 1) == -2
        assert [coeff_hermite_in_laguerre(2, m) for m in range(3)] == [6, -16, 8]

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            coeff_hermite_in_laguerre(1, 2)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_oracle_both_parities(self, n):
        oracle = connection_oracle(hermite(n), LAGUERRE)
        closed = [coeff_hermite_in_laguerre(n, m) for m in range(n + 1)]
        assert tuple(closed) == oracle.coefficients


class TestShiftedJacobiInHermite:
    def test_frozen_examples(self):
        assert coeff_shifted_jacobi_in_hermite(0, JacobiParams(F(1, 2), F(7, 3)), 0) == 1
        assert coeff_shifted_jacobi_in_hermite(1, JP00, 0) == -1
        assert coeff_shifted_jacobi_in_hermite(1, JP00, 1) == 1
        oracle = connection_oracle(
            shifted_jacobi(1, JacobiParams(1, 0)), HERMITE
        )
        assert coeff_shifted_jacobi_in_hermite(1, JacobiParams(1, 0), 1) == oracle.coefficients[1]

    def test_vanishing_prefactor_denominator_is_invalid_input(self):
        # (beta + 1)_j vanishes for beta = -1 and j >= 1
        with pytest.raises(InvalidInputError, match="prefactor denominator vanishes"):
            coeff_shifted_jacobi_in_hermite(1, JacobiParams(-6, -1), 1)

    @pytest.mark.parametrize("jp", DEFAULT_JACOBI_SWEEP, ids=str)
    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_oracle(self, n, jp):
        oracle = connection_oracle(shifted_jacobi(n, jp), HERMITE)
        closed = [coeff_shifted_jacobi_in_hermite(n, jp, j) for j in range(n + 1)]
        assert tuple(closed) == oracle.coefficients


class TestHermiteInShiftedJacobi:
    def test_frozen_examples_low_degree(self):
        assert coeff_hermite_in_shifted_jacobi(0, JacobiParams(F(1, 2), F(1, 2)), 0) == 1
        assert coeff_hermite_in_shifted_jacobi(1, JP00, 0) == 2
        assert coeff_hermite_in_shifted_jacobi(1, JP00, 1) == -2
        assert coeff_hermite_in_shifted_jacobi(1, JacobiParams(1, 0), 0) == F(8, 3)

    @pytest.mark.parametrize("jp", DEFAULT_JACOBI_SWEEP, ids=str)
    @pytest.mark.parametrize("n", range(0, 2))
    def test_matches_oracle_up_to_degree_one(self, n, jp):
        oracle = connection_oracle(hermite(n), jacobi_at_one_minus_x_basis(jp))
        closed = [coeff_hermite_in_shifted_jacobi(n, jp, m) for m in range(n + 1)]
        assert tuple(closed) == oracle.coefficients

    def test_known_divergence_from_oracle_at_degree_two(self):
        # the interpreted closed form and the oracle part ways at n = 2, m = 0;
        # the oracle side is the one that reconstructs hermite(2)
        oracle = connection_oracle(hermite(2), jacobi_at_one_minus_x_basis(JP00))
        assert oracle.coefficients == (F(10, 3), -8, F(8, 3))
        assert oracle.reconstruct() == hermite(2)
        closed = [coeff_hermite_in_shifted_jacobi(2, JP00, m) for m in range(3)]
        assert closed[0] == F(22, 3) != oracle.coefficients[0]
        assert closed[1] == oracle.coefficients[1] == -8
        assert closed[2] == oracle.coefficients[2] == F(8, 3)


def test_delta_params():
    assert delta_params(2, 0) == (F(0), F(1, 2))
    assert delta_params(2, -3) == (F(-3, 2), F(-1))
    assert delta_params(1, F(7, 2)) == (F(7, 2),)
    with pytest.raises(InvalidInputError):
        delta_params(0, 1)


class TestClosedFormConnection:
    def test_dispatch(self):
        assert closed_form_connection(LAGUERRE, HERMITE, 2).coefficients == (
            F(5, 4),
            -1,
            F(1, 8),
        )
        result = closed_form_connection(HERMITE, LAGUERRE, 2)
        assert result.coefficients == (6, -16, 8)
        assert result.provenance == "Thm3.2"
        jacobi = shifted_jacobi_basis(JP00)
        assert closed_form_connection(jacobi, HERMITE, 1).provenance == "Thm3.4"
        one_minus_x = jacobi_at_one_minus_x_basis(JP00)
        assert (
            closed_form_connection(HERMITE, one_minus_x, 1).provenance
            == "Thm3.3-interpreted"
        )

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedPairError):
            closed_form_connection(LAGUERRE, shifted_jacobi_basis(JP00), 2)
        with pytest.raises(UnsupportedPairError):
            closed_form_connection(HERMITE, MONOMIAL, 2)

    @pytest.mark.parametrize("theorem", ["3.1", "3.2"])
    def test_triangular_with_nonzero_diagonal(self, theorem):
        source, target = (LAGUERRE, HERMITE) if theorem == "3.1" else (HERMITE, LAGUERRE)
        for n in range(8):
            coeffs = closed_form_connection(source, target, n).coefficients
            assert len(coeffs) == n + 1
            assert coeffs[n] != 0


def test_inverse_pair_small():
    n_max = 8
    a = [[coeff_laguerre_in_hermite(n, k) if k <= n else F(0) for k in range(n_max + 1)]
         for n in range(n_max + 1)]
    b = [[coeff_hermite_in_laguerre(n, k) if k <= n else F(0) for k in range(n_max + 1)]
         for n in range(n_max + 1)]
    for i in range(n_max + 1):
        for j in range(n_max + 1):
            ab = sum(a[i][k] * b[k][j] for k in range(n_max + 1))
            ba = sum(b[i][k] * a[k][j] for k in range(n_max + 1))
            assert ab == ba == (1 if i == j else 0)


class TestVerifyTheorem:
    def test_passing_sweeps(self):
        assert verify_theorem("3.1", 5).verdict == "pass"
        assert verify_theorem("3.2", 5).verdict == "pass"
        assert verify_theorem("3.4", 5).verdict == "pass"
        report = verify_theorem("3.3", 1)
        assert report.verdict == "pass"
        assert all(e.first_mismatch is None for e in report.entries)

    def test_interpreted_form_reports_first_failure(self):
        report = verify_theorem("3.3", 3)
        assert report.verdict == "fail"
        failure = report.first_failure()
        assert (failure.n, failure.alpha, failure.beta, failure.first_mismatch) == (
            2,
            F(0),
            F(0),
            0,
        )
        assert not failure.residual.is_zero
        # entries are ordered by (n, parameter-set index)
        keys = [(e.n, i % len(DEFAULT_JACOBI_SWEEP)) for i, e in enumerate(report.entries)]
        assert keys == sorted(keys)

    def test_construction_errors_recorded_without_aborting(self):
        report = verify_theorem("3.4", 2, (JacobiParams(0, -1),))
        assert len(report.entries) == 3
        assert report.entries[0].match  # degree 0 is fine
        assert report.entries[1].error is not None
        assert report.verdict == "error"  # errors only, no mismatch

    def test_ungraded_source_member_recorded_as_error(self):
        # at alpha = -6, beta = 0 the degree-3 shifted Jacobi member has degree 2
        report = verify_theorem("3.4", 3, (JacobiParams(-6, 0),))
        assert [e.error is None for e in report.entries] == [True, True, True, False]
        assert "not graded at degree 3" in report.entries[3].error
        assert report.verdict == "error"

    def test_mismatch_verdict_wins_over_errors(self):
        # Thm3.3-interpreted: alpha = -1 errors at every n, alpha = 0 mismatches at n = 2
        report = verify_theorem("3.3", 2, (JacobiParams(-1, 0), JacobiParams(0, 0)))
        assert [e.error is None for e in report.entries] == [False, True] * 3
        assert report.verdict == "fail"
        assert report.first_failure() is report.entries[5]

    @settings(deadline=None)
    @given(
        st.sampled_from(["3.3", "3.4"]),
        st.fractions(min_value=-6, max_value=4, max_denominator=3),
        st.fractions(min_value=-6, max_value=4, max_denominator=3),
    )
    def test_degenerate_parameters_raise_or_record_library_errors(self, theorem, alpha, beta):
        jp = JacobiParams(alpha, beta)
        report = verify_theorem(theorem, 4, (jp,))
        assert len(report.entries) == 5
        source, target = (
            (shifted_jacobi_basis(jp), HERMITE)
            if theorem == "3.4"
            else (HERMITE, jacobi_at_one_minus_x_basis(jp))
        )
        for n in range(5):
            try:
                closed_form_connection(source, target, n)
            except PolyConnectError:
                pass

    def test_report_json_schema(self):
        data = verify_theorem("3.2", 2).to_json()
        assert set(data) == {"theorem", "params", "entries", "verdict"}
        assert data["verdict"] == "pass"
        assert data["params"] is None
        for entry in data["entries"]:
            assert {"n", "match", "residual"} <= set(entry)
        degenerate = verify_theorem("3.4", 2, (JacobiParams(0, -1),)).to_json()
        assert degenerate["verdict"] == "error"
        assert "error" in degenerate["entries"][1]

    def test_unknown_theorem(self):
        with pytest.raises(InvalidInputError):
            verify_theorem("9.9", 1)


def test_connection_result_csv_rows():
    rows = closed_form_connection(HERMITE, LAGUERRE, 2).to_csv_rows()
    assert rows == [
        (2, 0, "6", "Thm3.2"),
        (2, 1, "-16", "Thm3.2"),
        (2, 2, "8", "Thm3.2"),
    ]
