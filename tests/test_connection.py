import contextlib
import io
import math
import pickle
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyconnect import (
    BasisId,
    ConnectionResult,
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
    connection_table,
    coeff_hermite_in_laguerre,
    coeff_hermite_in_shifted_jacobi,
    coeff_laguerre_in_hermite,
    coeff_shifted_jacobi_in_hermite,
    connection_oracle,
    hermite,
    laguerre,
    shifted_jacobi,
    verify_theorem,
)
from polyconnect import cli, connection
from polyconnect.connection import _always_graded

JP00 = JacobiParams(0, 0)
TARGETS = [
    MONOMIAL,
    HERMITE,
    LAGUERRE,
    BasisId("shifted-jacobi", JacobiParams(F(1, 2), F(1, 2))),
    BasisId("jacobi-1mx", JacobiParams(1, 2)),
]

rationals = st.fractions(min_value=-6, max_value=4, max_denominator=3)
negative_integers = st.integers(min_value=-6, max_value=-1).map(F)

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
        assert BasisId("shifted-jacobi", JacobiParams(F(1, 2), 2)).to_json() == {
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
        target = BasisId("shifted-jacobi", JacobiParams(-6, 0))
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
        oracle = connection_oracle(hermite(n), BasisId("jacobi-1mx", jp))
        closed = [coeff_hermite_in_shifted_jacobi(n, jp, m) for m in range(n + 1)]
        assert tuple(closed) == oracle.coefficients

    def test_known_divergence_from_oracle_at_degree_two(self):
        # the interpreted closed form and the oracle part ways at n = 2, m = 0;
        # the oracle side is the one that reconstructs hermite(2)
        oracle = connection_oracle(hermite(2), BasisId("jacobi-1mx", JP00))
        assert oracle.coefficients == (F(10, 3), -8, F(8, 3))
        assert oracle.reconstruct() == hermite(2)
        closed = [coeff_hermite_in_shifted_jacobi(2, JP00, m) for m in range(3)]
        assert closed[0] == F(22, 3) != oracle.coefficients[0]
        assert closed[1] == oracle.coefficients[1] == -8
        assert closed[2] == oracle.coefficients[2] == F(8, 3)


class TestCorrectedHermiteInShiftedJacobi:
    """Thm3.3-corrected: the interpreted form with its 4F2 argument -1/4."""

    @pytest.mark.parametrize("jp", [JP00, JacobiParams(F(1, 2), F(1, 2)), JacobiParams(1, 2),
                                    JacobiParams(F(-1, 2), F(1, 3))], ids=str)
    @pytest.mark.parametrize("s", range(7))
    def test_single_term_power_expansion(self, s, jp):
        # x^s = sum_m 2^s (a+1)_s (-s)_m (2m+l) (l)_m / ((a+1)_m (l)_{s+m+1})
        #       * P_m^(a,b)(1-x), the expansion the corrected form sums over j
        def rise(x, i):
            return math.prod((x + r for r in range(i)), start=F(1))

        a, lam = jp.alpha, jp.lam
        coefficients = [
            2**s * rise(a + 1, s) * rise(-s, m) * (2 * m + lam) * rise(lam, m)
            / (rise(a + 1, m) * rise(lam, s + m + 1))
            for m in range(s + 1)
        ]
        target = BasisId("jacobi-1mx", jp)
        expansion = sum(
            (c * basis_poly(target, m) for m, c in enumerate(coefficients)), Poly()
        )
        assert expansion == Poly.monomial(s)
        assert tuple(coefficients) == connection_oracle(Poly.monomial(s), target).coefficients

    def test_literal_values_and_provenance(self):
        target = BasisId("jacobi-1mx", JP00)
        corrected = closed_form_connection(HERMITE, target, 2, "3.3c")
        assert corrected.coefficients == (F(10, 3), -8, F(8, 3))
        assert corrected.provenance == "Thm3.3-corrected"
        assert coeff_hermite_in_shifted_jacobi(2, JP00, 0, -1) == F(10, 3)
        # without an id the pair keeps its first record, the interpreted form
        assert closed_form_connection(HERMITE, target, 2).coefficients[0] == F(22, 3)

    @pytest.mark.parametrize("jp", [JacobiParams(F(-1, 2), F(-1, 2)),
                                    JacobiParams(F(1, 2), F(-3, 2)),
                                    JacobiParams(F(7, 3), F(-10, 3))], ids=str)
    def test_lam_zero_equals_the_table(self, jp):
        # at lam = 0 the m = 0 prefactor (2m+l)/(l+m)_{n+1} is 0/0 with limit 1/(l+1)_n
        target = BasisId("jacobi-1mx", jp)
        for n, row in enumerate(connection_table(HERMITE, target, 12)):
            closed = closed_form_connection(HERMITE, target, n, "3.3c")
            assert closed.coefficients == row.coefficients
        assert verify_theorem("3.3", 1, (jp,)).verdict == "pass"

    def test_argument_sign_is_checked(self):
        for sign in (0, 2, F(1, 2), "1"):
            with pytest.raises(InvalidInputError, match="argument_sign"):
                coeff_hermite_in_shifted_jacobi(1, JP00, 0, sign)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_argument_sign_must_be_the_int_one_or_minus_one(self, sign):
        # equal to 1 or -1, but not the int: each passed, or escaped as a raw TypeError
        with pytest.raises(InvalidInputError, match="argument_sign must be 1 or -1"):
            coeff_hermite_in_shifted_jacobi(4, JacobiParams(F(1, 2), F(1, 3)), 1, sign)

    def test_theorem_id_must_fit_the_pair(self):
        with pytest.raises(UnsupportedPairError):
            closed_form_connection(LAGUERRE, HERMITE, 2, "3.3c")
        for theorem in ("9.9", "2.1", 3.1, ["3.1"]):
            with pytest.raises(InvalidInputError, match="unknown theorem id"):
                closed_form_connection(LAGUERRE, HERMITE, 2, theorem)

    @settings(deadline=None, max_examples=60)
    @given(rationals, rationals)
    def test_agrees_with_the_table(self, alpha, beta):
        # wherever both exist the corrected row equals the table row; the
        # closed form is missing only where the parameters are degenerate
        jp = JacobiParams(alpha, beta)
        target = BasisId("jacobi-1mx", jp)
        regular = _always_graded(target)
        for n, row in enumerate(connection_table(HERMITE, target, 12)):
            try:
                closed = closed_form_connection(HERMITE, target, n, "3.3c")
            except PolyConnectError:
                assert not regular, n
                continue
            if not isinstance(row, PolyConnectError):
                assert closed.coefficients == row.coefficients, n

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(
        st.tuples(negative_integers, rationals),
        st.tuples(rationals, negative_integers),
        st.tuples(rationals, negative_integers).map(lambda t: (t[0], t[1] - 1 - t[0])),
    ))
    def test_degenerate_parameters_pass_or_error(self, params):
        # alpha, beta or lam a negative integer: never a fail, never a raw exception
        report = verify_theorem("3.3c", 6, (JacobiParams(*params),))
        assert report.verdict in ("pass", "error")
        assert report.theorem == "3.3-corrected"

    def test_verified_to_degree_forty(self):
        # the README's status row: 41 degrees over six (alpha, beta), three
        # of them non-symmetric
        params = (*DEFAULT_JACOBI_SWEEP, JacobiParams(F(5, 2), F(-1, 3)), JacobiParams(F(7, 3), 2))
        report = verify_theorem("3.3c", 40, params)
        assert len(report.entries) == 246
        assert report.verdict == "pass"


class TestSourceMemberCheck:
    @settings(deadline=None, max_examples=60)
    @given(rationals, rationals)
    def test_graded_parameters_give_full_degree_members(self, alpha, beta):
        # the premise that lets closed_form_connection skip the member build
        jp = JacobiParams(alpha, beta)
        if not _always_graded(BasisId("shifted-jacobi", jp)):
            return
        for n in range(13):
            assert shifted_jacobi(n, jp).degree == n

    def test_graded_source_member_is_not_built(self, monkeypatch):
        def refuse(basis, k):
            raise AssertionError("source member built")

        monkeypatch.setattr(connection, "basis_poly", refuse)
        for jp in DEFAULT_JACOBI_SWEEP:
            closed_form_connection(BasisId("shifted-jacobi", jp), HERMITE, 6)


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
        jacobi = BasisId("shifted-jacobi", JP00)
        assert closed_form_connection(jacobi, HERMITE, 1).provenance == "Thm3.4"
        one_minus_x = BasisId("jacobi-1mx", JP00)
        assert (
            closed_form_connection(HERMITE, one_minus_x, 1).provenance
            == "Thm3.3-interpreted"
        )

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedPairError):
            closed_form_connection(LAGUERRE, BasisId("shifted-jacobi", JP00), 2)
        with pytest.raises(UnsupportedPairError):
            closed_form_connection(HERMITE, MONOMIAL, 2)

    @pytest.mark.parametrize("theorem", sorted(connection.THEOREMS))
    def test_rows_are_integers_over_one_positive_denominator(self, theorem):
        # the literal entries as (R, d), or the first error: the source
        # member's (its degree check), then the entries'; the last two
        # parameter sets are degenerate
        record = connection.THEOREMS[theorem]
        for jp in (*DEFAULT_JACOBI_SWEEP, JacobiParams(-2, F(1, 3)), JacobiParams(F(1, 2), -3)):
            for n in range(9):
                try:
                    basis_poly(connection.basis(record.source, jp), n)
                    expected = tuple(record.entry(n, jp, k) for k in range(n + 1))
                except PolyConnectError as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        record.row(n, jp)
                    continue
                num, den = record.row(n, jp)
                assert type(den) is int and den > 0
                assert all(type(r) is int for r in num)
                assert tuple(F(r, den) for r in num) == expected

    @pytest.mark.parametrize("theorem", ["3.1", "3.2"])
    def test_triangular_with_nonzero_diagonal(self, theorem):
        source, target = (LAGUERRE, HERMITE) if theorem == "3.1" else (HERMITE, LAGUERRE)
        for n in range(8):
            coeffs = closed_form_connection(source, target, n).coefficients
            assert len(coeffs) == n + 1
            assert coeffs[n] != 0


class _Recorder(io.StringIO):
    """A stdout that records the argument of each write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def _served(argv):
    """The exit code, stdout and stderr of cli.run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


_DEGENERATE = ["connect", "--source", "shifted-jacobi", "--target", "hermite",
               "--alpha=-6", "--beta=-1", "--n", "3", "--method", "closed"]
_REQUESTS = [
    ["poly", "--family", "hermite", "--n", "4"],
    ["poly", "--family", "jacobi-1mx", "--n", "3", "--alpha", "1/2", "--beta", "-1/3",
     "--format", "csv"],
    ["poly", "--family", "hermite", "--n", bytearray(b"2")],  # cannot be hashed
    ["connect", "--source", "hermite", "--target", "laguerre", "--n", "3"],
    ["connect", "--source", "laguerre", "--target", "shifted-jacobi", "--n", "2",
     "--alpha", "1/2", "--beta", "1/3", "--method", "oracle", "--format", "csv"],
    ["table", "--source", "laguerre", "--target", "hermite", "--n-max", "3",
     "--method", "both", "--format", "json"],
    ["table", "--source", "laguerre", "--target", "hermite", "--n-max", "2"],
    ["verify", "--theorem", "3.1", "--n-max", "2"],
    ["verify", "--theorem", "3.3", "--n-max", "2", "--format", "csv"],
    ["verify", "--theorem", "3.4", "--n-max", "3", "--alpha=-6", "--beta=0"],
    ["verify", "--theorem", "2.2", "--cases", "2"],
    _DEGENERATE,
    ["connect", "--source", "hermite", "--target", "laguerre", "--n", "x"],
    ["poly", "--family", "bogus", "--n", "1"],
    ["table", "--source", "hermite"],
    ["connect", "-h"],
    [],
]


class TestResponseMemo:
    """cli.run keeps what a poly, connect or table request wrote with exit 0
    and writes it again for the same argv; verify and exit 2 always run."""

    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_a_hit_writes_what_the_miss_wrote(self, form, monkeypatch):
        argv = ["connect", "--source", "hermite", "--target", "laguerre", "--n", "5",
                "--format", form]
        converted = []
        convert = cli.closed_form_connection
        monkeypatch.setattr(cli, "closed_form_connection",
                            lambda *args: converted.append(args) or convert(*args))
        writes = []
        for _ in range(2):
            recorder = _Recorder()
            monkeypatch.setattr(sys, "stdout", recorder)
            assert cli.run(argv) == 0
            writes.append(recorder.calls)
        assert len(converted) == 1  # the second request converted nothing
        assert writes[0] == writes[1]
        assert len(writes[0]) == (2 if form == "json" else 13) and writes[0][-1].endswith("\n")

    def test_a_degenerate_request_exits_two_each_time(self, monkeypatch):
        converted = []
        convert = cli.closed_form_connection
        monkeypatch.setattr(cli, "closed_form_connection",
                            lambda *args: converted.append(args) or convert(*args))
        first, second = _served(_DEGENERATE), _served(_DEGENERATE)
        assert first == second and first[0] == 2 and first[2].startswith("error:")
        assert len(converted) == 2 and not cli._RESPONSES

    def test_verify_always_runs(self, monkeypatch):
        reports = []
        verify = cli.verify_theorem
        monkeypatch.setattr(cli, "verify_theorem",
                            lambda *args: reports.append(args) or verify(*args))
        argv = ["verify", "--theorem", "3.1", "--n-max", "3"]
        assert _served(argv) == _served(argv)
        assert len(reports) == 2 and not cli._RESPONSES

    def test_an_argv_that_cannot_be_hashed_runs_uncached(self):
        # the lookup fails on the bytearray; parsing then refuses it, each time
        argv = ["poly", "--family", "hermite", "--n", bytearray(b"3")]
        assert _served(argv) == _served(argv) == (
            2, "", "error: argv must be an iterable of str, got the token bytearray(b'3')\n")
        assert not cli._RESPONSES

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.sampled_from(_REQUESTS), max_size=12))
    def test_one_process_serves_what_an_empty_memo_serves(self, requests):
        cli._RESPONSES.clear()
        shared = [_served(argv) for argv in requests]
        alone = []
        for argv in requests:
            cli._RESPONSES.clear()
            alone.append(_served(argv))
        assert shared == alone

    def test_results_keep_their_row_outside_the_fields(self):
        """A public result and one made from an unreduced row of the same
        values hold different rows, and compare, hash, print, pickle and
        render as one."""
        target = BasisId("jacobi-1mx", JacobiParams(F(-1, 2), 1))
        result = closed_form_connection(HERMITE, target, 6, "3.3c")
        plain = ConnectionResult(*(getattr(result, name) for name in result._fields))
        nums, den = plain._row
        unreduced = connection._result(HERMITE, target, 6, ([6 * r for r in nums], 6 * den),
                                       plain.provenance)
        assert unreduced._row != plain._row
        rendered = unreduced.to_json()
        rendered["coefficients"].append("x")  # the caller's own list
        assert unreduced == plain and hash(unreduced) == hash(plain)
        assert repr(unreduced) == repr(plain)
        copies = [pickle.loads(pickle.dumps(r)) for r in (unreduced, plain)]
        assert copies == [plain, plain] and {hash(c) for c in copies} == {hash(plain)}
        assert copies[0]._row == copies[1]._row == plain._row
        assert unreduced.to_json() == plain.to_json() == result.to_json() != rendered
        assert unreduced.reconstruct() == plain.reconstruct() == hermite(6)


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
        # Thm3.3-interpreted: alpha = -1 errors from n = 1, alpha = 0 mismatches at n = 2
        report = verify_theorem("3.3", 2, (JacobiParams(-1, 0), JacobiParams(0, 0)))
        assert [e.error is None for e in report.entries] == [True, True, False, True, False, True]
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
            (BasisId("shifted-jacobi", jp), HERMITE)
            if theorem == "3.4"
            else (HERMITE, BasisId("jacobi-1mx", jp))
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


def test_regular_decides_on_integers_as_the_fraction_comparison_did():
    """_regular reads denominator and numerator; the Fraction form is the
    reference.  The grid makes each of alpha, beta and lam the only negative
    integer somewhere (lam = -1 at alpha = -1/2, beta = -3/2)."""
    grid = [F(-3), F(-2), F(-1), F(0), F(-1, 2), F(-3, 2), F(-5, 3), F(1, 3), F(2)]
    alone = set()
    for alpha in grid:
        for beta in grid:
            jp = JacobiParams(alpha, beta)
            negative = [v < 0 and v.denominator == 1 for v in (jp.alpha, jp.beta, jp.lam)]
            assert connection._regular(jp) is not any(negative)
            if sum(negative) == 1:
                alone.add(negative.index(True))
    assert alone == {0, 1, 2}
