"""The integer kernels against literal Fraction references.

The references below are the term-by-term and operation-by-operation
Fraction computations the kernels replace; they live here only.
"""

import contextlib
import hashlib
import io
import json
import math
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyconnect import (
    HERMITE,
    BasisId,
    ConnectionResult,
    DenominatorPoleError,
    ExpansionParams,
    HypSeries,
    InvalidInputError,
    JacobiParams,
    MONOMIAL,
    NonTerminatingError,
    PoleInParamsError,
    Poly,
    PolyConnectError,
    basis_poly,
    bilinear_lhs,
    coeff_seq,
    connection_oracle,
    evaluate_terminating,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    hermite,
    hermite_bm_sequence,
    jacobi_at_one_minus_x,
    laguerre,
    pochhammer,
    pochhammer_list,
    series_coefficients,
    shifted_jacobi,
    split_even_odd,
    truncation_index,
    ZeroDenominatorParameterError,
)
from polyconnect import connection, rationals as rationals_module
from polyconnect.cli import run
from polyconnect.hypseries import sum_pairs
from polyconnect.rationals import as_rationals, lift, ratio_str

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"

#: The certification commands whose stdout digests bench/digests.json records.
CERTIFY_COMMANDS = {
    "verify-3.1": (["verify", "--theorem", "3.1", "--n-max", "40"], 0),
    "verify-3.2": (["verify", "--theorem", "3.2", "--n-max", "40"], 0),
    "verify-3.4": (["verify", "--theorem", "3.4", "--n-max", "15"], 0),
    "verify-3.3": (["verify", "--theorem", "3.3", "--n-max", "12"], 1),
    "table": (["table", "--source", "laguerre", "--target", "hermite", "--n-max", "40"], 0),
}

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def literal_pochhammer(a, n):
    result = F(1)
    for i in range(n):
        result *= a + i
    return result


def literal_pochhammer_list(params, k):
    return math.prod((literal_pochhammer(a, k) for a in params), start=F(1))


def literal_sum(nums, dens, x):
    k_max = min(-int(a) for a in nums if a.denominator == 1 and a <= 0)
    total = F(0)
    for k in range(k_max + 1):
        term = F(x) ** k / math.factorial(k)
        for a in nums:
            term *= literal_pochhammer(a, k)
        for b in dens:
            term /= literal_pochhammer(b, k)
        total += term
    return total


@st.composite
def terminating_params(draw):
    """Numerators with at least one nonpositive integer, denominators that
    may carry an integer pole one index past the truncation."""
    cut = draw(st.integers(min_value=0, max_value=9))
    nums = [F(-cut)] + draw(st.lists(rationals, max_size=3))
    dens = draw(st.lists(rationals.filter(lambda b: b != 0), max_size=3))
    if draw(st.booleans()):
        dens.append(F(-cut))
    return draw(st.permutations(nums)), dens


def _pole_inside(nums, dens):
    k_max = min(-int(a) for a in nums if a.denominator == 1 and a <= 0)
    return any(b.denominator == 1 and b <= 0 and -b < k_max for b in dens)


@given(terminating_params(), rationals)
def test_evaluate_terminating_matches_literal_sum(params, x):
    nums, dens = params
    series = HypSeries(tuple(nums), tuple(dens), x)
    if _pole_inside(nums, dens):
        with pytest.raises(DenominatorPoleError):
            evaluate_terminating(series)
        return
    assert evaluate_terminating(series) == literal_sum(nums, dens, x)


@given(terminating_params())
def test_series_coefficients_match_literal_terms(params):
    nums, dens = params
    assume(not _pole_inside(nums, dens))
    coeffs = series_coefficients(nums, dens)
    assert len(coeffs) == min(-int(a) for a in nums if a.denominator == 1 and a <= 0) + 1
    for k, c in enumerate(coeffs):
        expected = F(1, math.factorial(k))
        for a in nums:
            expected *= literal_pochhammer(a, k)
        for b in dens:
            expected /= literal_pochhammer(b, k)
        assert c == expected


def _pairs(params):
    return [F(a).as_integer_ratio() for a in params]


def _sum_pairs_value(nums, dens, x):
    a, b = sum_pairs(_pairs(nums), _pairs(dens), *F(x).as_integer_ratio())
    return F(a, b)


def test_pole_one_past_the_cut():
    # (-3)_k cuts at K = 3; the denominator -3 vanishes only from index 4 on
    nums, dens, x = (F(-3), F(1, 2)), (F(-3),), F(2, 3)
    expected = literal_sum(nums, dens, x)
    assert evaluate_terminating(HypSeries(nums, dens, x)) == expected
    assert _sum_pairs_value(nums, dens, x) == expected


@given(terminating_params(), rationals)
def test_sum_pairs_matches_literal_sum(params, x):
    nums, dens = params
    if _pole_inside(nums, dens):
        with pytest.raises(DenominatorPoleError):
            _sum_pairs_value(nums, dens, x)
        return
    assert _sum_pairs_value(nums, dens, x) == literal_sum(nums, dens, x)


@pytest.mark.parametrize(
    "nums, dens",
    [
        ((F(1, 2), F(3)), (F(1),)),  # no nonpositive integer numerator
        ((), ()),
        ((F(-3),), (F(-1),)),  # pole at index 2 <= cut 3
        ((F(-4), F(1, 3)), (F(5, 2), F(0))),  # pole at index 1
    ],
)
def test_sum_pairs_raises_as_evaluate_terminating(nums, dens):
    with pytest.raises((NonTerminatingError, DenominatorPoleError)) as expected:
        evaluate_terminating(HypSeries(nums, dens, F(1, 3)))
    with pytest.raises(PolyConnectError) as got:
        _sum_pairs_value(nums, dens, F(1, 3))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n, k", [(4, 0), (6, 2), (9, 3), (5, 5)])
def test_sum_pairs_reads_unreduced_pairs(n, k):
    # (k - n)/2 and (k + 1 - n)/2 as written in the Thm3.1 coefficient: one of
    # (k - n, 2), (k + 1 - n, 2) is an even numerator over 2, a nonpositive
    # integer though not in lowest terms, and the series is cut there.
    unreduced = sum_pairs(((k - n, 2), (k + 1 - n, 2)), ((k + 1, 2), (k + 2, 2)), 1, 4)
    nums = (F(k - n, 2), F(k + 1 - n, 2))
    dens = (F(k + 1, 2), F(k + 2, 2))
    assert F(*unreduced) == evaluate_terminating(HypSeries(nums, dens, F(1, 4)))


def _scaled(params, scales):
    return [(p * g, q * g) for (p, q), g in zip(_pairs(params), scales)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        terminating_params(),
        st.tuples(st.lists(rationals, max_size=3), st.lists(rationals, max_size=3)),
    ),
    rationals,
    st.data(),
)
def test_sum_pairs_reads_scaled_pairs(params, x, data):
    # every pair (p, q) scaled to (g p, g q), g in 1..4: the reduced series'
    # value, or its error class and message
    nums, dens = params
    scales = st.integers(min_value=1, max_value=4)
    num_pq = _scaled(nums, data.draw(st.lists(scales, min_size=len(nums), max_size=len(nums))))
    den_pq = _scaled(dens, data.draw(st.lists(scales, min_size=len(dens), max_size=len(dens))))
    try:
        expected = evaluate_terminating(HypSeries(nums, dens, x))
    except PolyConnectError as exc:
        with pytest.raises(PolyConnectError) as got:
            sum_pairs(num_pq, den_pq, *x.as_integer_ratio())
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert F(*sum_pairs(num_pq, den_pq, *x.as_integer_ratio())) == expected


def test_sum_pairs_pole_message_prints_the_reduced_value():
    # the denominator (-4, 2) is -2, not -4: its pole is at index 3
    with pytest.raises(DenominatorPoleError) as got:
        sum_pairs(((-3, 1),), ((-4, 2),), 1, 1)
    assert str(got.value) == "denominator parameter -2 vanishes at index 3 <= truncation index 3"


@given(
    st.one_of(rationals, st.integers(min_value=-12, max_value=2).map(F)),
    st.integers(min_value=0, max_value=25),
)
def test_pochhammer_matches_literal_product(a, n):
    assert pochhammer(a, n) == literal_pochhammer(a, n)


def literal_split_even_odd(series):
    nums, dens = series.numerators, series.denominators
    if any(b == 0 for b in dens):
        raise ZeroDenominatorParameterError("cannot split: a denominator parameter is zero")
    arg = F(4) ** (len(nums) - len(dens) - 1) * series.argument**2
    half = F(1, 2)
    even = HypSeries(
        tuple(a * half for a in nums) + tuple((a + 1) * half for a in nums),
        (half,) + tuple(b * half for b in dens) + tuple((b + 1) * half for b in dens),
        arg,
    )
    odd = HypSeries(
        tuple((a + 1) * half for a in nums) + tuple((a + 2) * half for a in nums),
        (F(3, 2),) + tuple((b + 1) * half for b in dens) + tuple((b + 2) * half for b in dens),
        arg,
    )
    prefactor = F(1)
    for a in nums:
        prefactor *= a
    for b in dens:
        prefactor /= b
    return even, prefactor, odd


@settings(max_examples=300)
@given(st.lists(rationals, max_size=4), st.lists(rationals, max_size=4), rationals)
def test_split_even_odd_matches_literal_fraction_body(nums, dens, x):
    series = HypSeries(nums, dens, x)
    assert _result(split_even_odd, series) == _result(literal_split_even_odd, series)


def literal_oracle(p, target):
    """Plain-Fraction back-substitution, one step per degree: every member is
    built, highest degree first, as connection_oracle builds them."""
    degree = 0 if p.is_zero else p.degree
    coefficients = [F(0)] * (degree + 1)
    residual = list(p.coefficients) or [F(0)]
    for k in range(degree, -1, -1):
        member = basis_poly(target, k).coefficients
        c = residual[k] / member[k]
        coefficients[k] = c
        residual = [r - c * m for r, m in zip(residual, member)]
    assert not any(residual)
    return tuple(coefficients)


def _graded(target, k):
    try:
        return basis_poly(target, k).degree == k
    except PolyConnectError:
        return False


@st.composite
def targets(draw):
    family = draw(st.sampled_from(["monomial", "hermite", "laguerre", "shifted-jacobi", "jacobi-1mx"]))
    if family in ("shifted-jacobi", "jacobi-1mx"):
        return BasisId(family, JacobiParams(draw(rationals), draw(rationals)))
    return BasisId(family)


polys = st.lists(rationals, max_size=13).map(Poly)


#: Jacobi parameters with alpha, beta or lam a negative integer, where some
#: member cannot be built or loses its degree.
degenerate_params = st.one_of(
    st.tuples(st.integers(-6, -1).map(F), rationals),
    st.tuples(rationals, st.integers(-6, -1).map(F)),
    st.tuples(rationals, st.integers(-12, -1)).map(lambda t: (t[0], t[1] - 1 - t[0])),
)


@st.composite
def any_targets(draw):
    """All five target families, Jacobi ones with regular or degenerate parameters."""
    target = draw(targets())
    if target.params is not None and draw(st.booleans()):
        return BasisId(target.family, JacobiParams(*draw(degenerate_params)))
    return target


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=26).map(Poly), any_targets())
def test_oracle_reconstructs_and_matches_literal_back_substitution(no_fractions, p, target):
    """Up to degree 25: a row over a positive denominator with the literal's
    coefficients, and a result that rebuilds p, or the literal's error class
    and message.  Once the literal has built (and cached) every member, the
    oracle builds no Fraction."""
    expected = _result(literal_oracle, p, target)
    failed = isinstance(expected[0], type)
    with contextlib.nullcontext() if failed else no_fractions():
        result = _result(connection_oracle, p, target)
    if isinstance(result, ConnectionResult):
        nums, den = result._row
        assert den > 0 and result.reconstruct() == p
        result = tuple(F(r, den) for r in nums)
    assert result == expected


@settings(deadline=None)
@given(st.lists(rationals, max_size=13), targets())
def test_reconstruct_matches_literal_sum(coefficients, target):
    assume(all(_graded(target, k) for k in range(len(coefficients))))
    degree = max(len(coefficients) - 1, 0)  # a degree is never negative, even for no coefficients
    result = ConnectionResult(MONOMIAL, target, degree, tuple(coefficients), "Oracle")
    expected = Poly()
    for k, c in enumerate(coefficients):
        expected = expected + c * basis_poly(target, k)
    assert result.reconstruct() == expected


@given(polys)
def test_integer_form_is_the_coefficients_over_their_lcm(p):
    vector, den = p.integer_form
    assert den == math.lcm(*(c.denominator for c in p.coefficients)) > 0
    assert tuple(F(v, den) for v in vector) == p.coefficients
    assert p.integer_form is p.integer_form


def test_family_member_integer_form_is_built_once():
    assert basis_poly(HERMITE, 7).integer_form is basis_poly(HERMITE, 7).integer_form


#: Coefficient lists with small, wide and zero entries; trailing zeros are
#: appended separately.
coefficient_lists = st.lists(
    st.one_of(rationals, st.fractions(max_denominator=2**70), st.just(F(0))), max_size=12
)
#: Nonzero row scales, negative ones included: a row-born Poly must reduce
#: the row and move the sign to the numerators.
row_scales = st.one_of(st.sampled_from([1, -1, 2, -6]), st.integers(-(2**80), 2**80).filter(bool))


def _row_born(values, scale=1):
    """The Poly of values born through the row path, from their lifted row
    times scale: unreduced, and with a negative denominator for scale < 0."""
    nums, den = lift(values)
    return Poly._from_row([scale * x for x in nums], scale * den)


def _forms(p):
    return (p.coefficients, p.integer_form, p.degree, p.is_zero, p.leading_coefficient,
            p.to_json(), repr(p))


def _row_reads(p):
    """What a Poly serves from its row alone, with no Fraction built."""
    return p.integer_form, p.degree, p.to_json(), repr(p)


@settings(max_examples=300)
@given(coefficient_lists, st.integers(0, 3), row_scales, row_scales)
def test_row_born_poly_equals_fraction_built(no_fractions, values, zeros, scale, other_scale):
    """==, hash and the row reads build no Fraction on either side; then
    every read agrees."""
    values = values + [F(0)] * zeros
    expected, other = Poly(values), Poly(values + [F(1)])
    p, q = _row_born(values, scale), _row_born(values, other_scale)
    with no_fractions():
        assert p == expected and expected == p and p == q and p != other
        assert hash(p) == hash(expected) == hash(q)
        assert _row_reads(p) == _row_reads(expected)
    assert _forms(p) == _forms(expected)
    assert p.integer_form is p.integer_form and expected.integer_form is expected.integer_form


@settings(max_examples=200)
@given(coefficient_lists, row_scales)
def test_coeff_and_leading_coefficient_read_the_row(values, scale):
    """coeff(k) is coefficients[k] inside 0..degree and 0 on either side of
    it; leading_coefficient is the last coefficient, 0 for the zero Poly."""
    p = _row_born(values, scale)
    coefficients = list(p.coefficients)
    zeros = [F(0)] * 2
    assert [p.coeff(k) for k in range(-2, len(coefficients) + 2)] == zeros + coefficients + zeros
    assert p.leading_coefficient == (coefficients[-1] if coefficients else 0)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, st.integers(0, 3), targets())
def test_the_row_is_the_one_form_and_fractions_are_built_on_read(
    no_fractions, values, zeros, target
):
    """Poly(values) holds its reduced, stripped row and builds no Fraction
    until .coefficients is read; a ConnectionResult renders from its row
    with no Fraction built."""
    values = values + [F(0)] * zeros
    p, same = Poly(values), Poly(values)
    result = ConnectionResult(HERMITE, target, len(values), values, "Thm3.2")
    nums, den = p.integer_form
    assert den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1])
    assert [F(x, den) for x in nums] + [F(0)] * (len(values) - len(nums)) == values
    with no_fractions():
        assert p == same and hash(p) == hash(same)
        assert p.degree == (len(nums) - 1 if nums else float("-inf"))
        assert p.to_json() == [str(v) for v in values[:len(nums)]] and repr(p)
        assert result.to_json()["coefficients"] == [str(v) for v in values]
        assert result.to_csv_rows() == [
            (len(values), k, str(v), "Thm3.2") for k, v in enumerate(values)
        ]
    assert p.coefficients == tuple(values[:len(nums)]) and result.coefficients == tuple(values)


#: Integers of every size and sign, zero included.
wire_integers = st.one_of(st.integers(-50, 50), st.integers(-(2**300), 2**300))


@settings(max_examples=500)
@given(wire_integers, wire_integers.map(abs).filter(bool), st.integers(1, 2**90))
def test_ratio_str_is_str_of_the_fraction(num, den, scale):
    """Reduced or not: the pair times a common factor renders the same."""
    assert ratio_str(num, den) == ratio_str(num * scale, den * scale) == str(F(num, den))


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, row_scales, targets())
def test_row_born_connection_result_equals_eager(no_fractions, values, scale, target):
    """A result made from an unreduced row renders from it with no Fraction
    built, and reads, compares, hashes, prints and pickles as one built from
    the Fractions."""
    nums, den = lift(values)
    row = ([abs(scale) * x for x in nums], abs(scale) * den)
    eager = ConnectionResult(HERMITE, target, len(values), tuple(values), "Thm3.2")
    result = connection._result(HERMITE, target, len(values), row, "Thm3.2")
    with no_fractions():
        assert result.to_json() == eager.to_json()
        assert result.to_csv_rows() == eager.to_csv_rows()
    assert result == eager and eager == result and hash(result) == hash(eager)
    assert repr(result) == repr(eager) and pickle.loads(pickle.dumps(result)) == eager
    assert result.coefficients == eager.coefficients


def literal_add(p, q):
    a, b = p.coefficients, q.coefficients
    if len(a) < len(b):
        a, b = b, a
    return Poly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def literal_neg(p):
    return Poly([-c for c in p.coefficients])


def literal_sub(p, q):
    return literal_add(p, literal_neg(q))


def literal_mul(p, other):
    if isinstance(other, Poly):
        if p.is_zero or other.is_zero:
            return Poly()
        out = [F(0)] * (len(p.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(p.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Poly(out)
    return Poly([c * other for c in p.coefficients])


@settings(max_examples=300)
@given(coefficient_lists, coefficient_lists, st.one_of(rationals, st.integers(-9, 9)),
       st.booleans(), st.booleans())
def test_poly_arithmetic_matches_literal_fraction_bodies(a, b, scalar, a_row, b_row):
    """On operands born either way; both forms of each result agree."""
    p = _row_born(a) if a_row else Poly(a)
    q = _row_born(b) if b_row else Poly(b)
    cases = [(p + q, literal_add(p, q)), (p - q, literal_sub(p, q)), (-p, literal_neg(p)),
             (p * q, literal_mul(p, q)), (p * scalar, literal_mul(p, scalar)),
             (scalar * p, literal_mul(p, scalar))]
    for got, expected in cases:
        assert got == expected
        assert (got.integer_form, got.coefficients) == (expected.integer_form, expected.coefficients)


def literal_hermite(n):
    coeffs = [F(0)] * (n + 1)
    nfact = math.factorial(n)
    for k in range(n // 2 + 1):
        m = n - 2 * k
        coeffs[m] = F((-1) ** k * nfact * 2**m, math.factorial(k) * math.factorial(m))
    return Poly(coeffs)


def literal_laguerre(n):
    return Poly(series_coefficients((F(-n),), (F(1),)))


def literal_shifted_jacobi(n, jp):
    rise = pochhammer(jp.beta + 1, n)
    p, d = (-1) ** n * rise.numerator, rise.denominator * math.factorial(n)
    coeffs = series_coefficients((F(-n), n + jp.lam), (jp.beta + 1,))
    return Poly(F(p * c.numerator, d * c.denominator) for c in coeffs)


def literal_jacobi_at_one_minus_x(m, jp):
    rise = pochhammer(jp.alpha + 1, m)
    p, d = rise.numerator, rise.denominator * math.factorial(m)
    coeffs = series_coefficients((F(-m), m + jp.lam), (jp.alpha + 1,))
    return Poly(F(p * c.numerator, d * c.denominator << k) for k, c in enumerate(coeffs))


#: alpha and beta values with alpha, beta or lam a negative integer in many
#: pairs: ungraded members, zero members and series poles.
MEMBER_PARAMS = [F(v) for v in ("-6", "-3", "-5/2", "-2", "-1", "-1/2", "0", "1/2", "1", "7/3")]


def _member(fn, *args):
    """Every read of a member, or its error's class and message."""
    result = _result(fn, *args)
    return _forms(result) if isinstance(result, Poly) else result


def test_members_match_literal_fraction_bodies():
    """Up to degree 14, over regular and degenerate parameters: the same
    Fractions, row, degree and reads, or the same error.  Ungraded members
    are among them."""
    assert shifted_jacobi(3, JacobiParams(-6, 0)).degree == 2
    for n in range(15):
        assert _member(hermite, n) == _member(literal_hermite, n)
        assert _member(laguerre, n) == _member(literal_laguerre, n)
        for alpha in MEMBER_PARAMS:
            for beta in MEMBER_PARAMS:
                jp = JacobiParams(alpha, beta)
                assert _member(shifted_jacobi, n, jp) == _member(literal_shifted_jacobi, n, jp)
                assert (_member(jacobi_at_one_minus_x, n, jp)
                        == _member(literal_jacobi_at_one_minus_x, n, jp))


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(-(10**12), 10**12), st.sampled_from([0, 0, 0, 1, -1])),
             max_size=10),
    st.sampled_from([1, 2, 6, 2**40 * 15]),
    st.integers(1, 60),
    st.integers(1, 60),
)
def test_first_difference_matches_literal_cross_multiplication(entries, shared, a, b):
    """Rows over d = shared a and e = shared b, with equal values t / shared
    except where an entry is bumped."""
    d, e = shared * a, shared * b
    row = ([t * a for t, _ in entries], d)
    other = ([t * b + bump for t, bump in entries], e)
    literal = next((i for i, (r, s) in enumerate(zip(row[0], other[0])) if r * e != s * d), None)
    assert connection._first_difference(row, other) == literal
    assert connection._first_difference(other, row) == literal


def literal_delta(phi):
    return (F(phi) / 2, (F(phi) + 1) / 2)


def literal_laguerre_in_hermite(n, k, jp):
    half = F(1, 2)
    f = evaluate_terminating(
        HypSeries(
            ((k - n) * half, (k + 1 - n) * half),
            ((k + 1) * half, (k + 2) * half),
            F(1, 4),
        )
    )
    return literal_pochhammer(F(-n), k) / (F(2) ** k * math.factorial(k) ** 2) * f


def literal_hermite_in_laguerre(n, m, jp):
    half = F(1, 2)
    f = evaluate_terminating(
        HypSeries(
            (-(n - m) * half, -(n - m - 1) * half),
            (-n * half, -(n - 1) * half),
            F(-1, 4),
        )
    )
    return math.factorial(n) * F(2) ** n * f * literal_pochhammer(F(-n), m) / math.factorial(m)


def literal_shifted_jacobi_in_hermite(n, j, jp):
    half = F(1, 2)
    lam = jp.alpha + jp.beta + 1
    f = evaluate_terminating(
        HypSeries(
            ((j - n) * half, (j + 1 - n) * half, (j + n + lam) * half, (j + n + lam + 1) * half),
            ((j + jp.beta + 1) * half, (j + jp.beta + 2) * half),
            F(1),
        )
    )
    beta_rise = literal_pochhammer(jp.beta + 1, j)
    if beta_rise == 0:
        raise InvalidInputError("a prefactor denominator vanishes")
    prefactor = (
        F((-1) ** (n + j))
        * literal_pochhammer(jp.beta + 1, n)
        * literal_pochhammer(n + lam, j)
        / (math.factorial(n - j) * F(2) ** j * math.factorial(j) * beta_rise)
    )
    return prefactor * f


def literal_hermite_in_shifted_jacobi(n, m, jp):
    lam = jp.alpha + jp.beta + 1
    f = evaluate_terminating(
        HypSeries(
            literal_delta(m - n) + literal_delta(-lam - n - m),
            literal_delta(-jp.alpha - n),
            F(1, 4),
        )
    )
    # (2m+lam)/(lam+m)_{n+1}, which at m = 0 is lam/(lam)_{n+1} = 1/(lam+1)_n, also at lam = 0
    if m:
        lead, rise = 2 * m + lam, literal_pochhammer(lam + m, n + 1)
    else:
        lead, rise = 1, literal_pochhammer(lam + 1, n)
    denominator = literal_pochhammer(jp.alpha + 1, m) * rise
    if denominator == 0:
        raise InvalidInputError("a prefactor denominator vanishes")
    prefactor = (
        literal_pochhammer(F(-n), m)
        * F(4) ** n
        * lead
        * literal_pochhammer(jp.alpha + 1, n)
        / denominator
    )
    return prefactor * f


#: Theorem id -> literal reference, to compare with THEOREMS[id].entry.
CLOSED_FORMS = {
    "3.1": literal_laguerre_in_hermite,
    "3.2": literal_hermite_in_laguerre,
    "3.3": literal_hermite_in_shifted_jacobi,
    "3.4": literal_shifted_jacobi_in_hermite,
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PolyConnectError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(CLOSED_FORMS)),
    st.integers(min_value=0, max_value=14).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
    ),
    rationals,
    rationals,
)
def test_closed_forms_match_literal_fraction_bodies(theorem, nk, alpha, beta):
    """Equal values on regular parameters, the same error type on degenerate ones."""
    n, k = nk
    jp = JacobiParams(alpha, beta)
    entry = connection.THEOREMS[theorem].entry
    assert _outcome(entry, n, jp, k) == _outcome(CLOSED_FORMS[theorem], n, k, jp)


def literal_ismail_32_rhs(a, b, c, z, w):
    a, b = coeff_seq(a), coeff_seq(b)
    c, z, w = F(c), F(z), F(w)
    n_max = max(b, default=-1)
    total = F(0)
    for n in range(n_max + 1):
        inner = F(0)
        for k in range(n + 1):
            ak = a.get(k)
            if not ak:
                continue
            ck = literal_pochhammer(c, k)
            if ck == 0:
                raise PoleInParamsError(f"(c)_{k} = 0 for c = {c}")
            inner += literal_pochhammer(F(-n), k) / ck * ak * w**k
        if inner == 0:
            continue
        middle = F(0)
        for j in range(n_max - n + 1):
            bnj = b.get(n + j)
            if bnj:
                middle += literal_pochhammer(n + c, j) / math.factorial(j) * bnj * z**j
        total += literal_pochhammer(c, n) * (-z) ** n / math.factorial(n) * middle * inner
    return total


def literal_ismail_13_rhs(a, b, ep, z, w):
    a, b = coeff_seq(a), coeff_seq(b)
    z, w = F(z), F(w)
    g, mu, th = ep.gamma, ep.mu, ep.theta
    n_max = max(b, default=-1)
    total = F(0)
    for n in range(n_max + 1):
        inner = F(0)
        for s in range(n + 1):
            a_s = a.get(s)
            if not a_s:
                continue
            div = math.factorial(s) * literal_pochhammer(mu, s) * literal_pochhammer(th, s)
            if div == 0:
                raise PoleInParamsError(f"(mu)_{s} (theta)_{s} = 0 for mu = {mu}, theta = {th}")
            inner += literal_pochhammer(F(-n), s) * literal_pochhammer(n + g, s) / div * a_s * w**s
        if inner == 0:
            continue
        middle = F(0)
        for r in range(n_max - n + 1):
            b_nr = b.get(n + r)
            if not b_nr:
                continue
            div = math.factorial(r) * literal_pochhammer(g + 2 * n + 1, r)
            if div == 0:
                raise PoleInParamsError(f"(gamma+2n+1)_{r} = 0 for gamma = {g}, n = {n}")
            middle += (
                literal_pochhammer(mu, n + r) * literal_pochhammer(th, n + r) / div * b_nr * z**r
            )
        if middle == 0:
            continue
        div = math.factorial(n) * literal_pochhammer(g + n, n)
        if div == 0:
            raise PoleInParamsError(f"(gamma+n)_{n} = 0 for gamma = {g}")
        total += (-z) ** n / div * middle * inner
    return total


def literal_wimp_terminating(n, a, b, c, d, al, be, z, w):
    a, b, c, d, al, be = map(as_rationals, (a, b, c, d, al, be))
    z, w = F(z), F(w)
    lhs = evaluate_terminating(HypSeries((F(-n),) + a + c, b + d, z * w))
    rhs = F(0)
    for k in range(n + 1):
        div = literal_pochhammer_list(b + be, k)
        if div == 0:
            raise PoleInParamsError(f"[b]_{k} [beta]_{k} = 0")
        weight = math.comb(n, k) * literal_pochhammer_list(a + al, k) * z**k / div
        f1 = evaluate_terminating(HypSeries(
            (F(k - n),) + tuple(p + k for p in a + al), tuple(p + k for p in b + be), z
        ))
        f2 = evaluate_terminating(HypSeries((F(-k),) + c + be, d + al, w))
        rhs += weight * f1 * f2
    return lhs, rhs


def literal_wimp_luke_terminating(a, b, cr, d, c, z, w):
    a, b, cr, d = map(as_rationals, (a, b, cr, d))
    c, z, w = F(c), F(z), F(w)
    n_max = truncation_index(a)
    lhs = evaluate_terminating(HypSeries(a + cr, b + d, z * w))
    rhs = F(0)
    for n in range(n_max + 1):
        div = literal_pochhammer_list(b, n) * math.factorial(n)
        if div == 0:
            raise DenominatorPoleError(f"[b]_{n} = 0")
        weight = literal_pochhammer_list(a + (c,), n) * (-z) ** n / div
        f1 = evaluate_terminating(HypSeries(
            (n + c,) + tuple(p + n for p in a), tuple(p + n for p in b), z
        ))
        f2 = evaluate_terminating(HypSeries((F(-n),) + cr, (c,) + d, w))
        rhs += weight * f1 * f2
    return lhs, rhs


def _result(fn, *args):
    """The value, or the error's class and message."""
    try:
        return fn(*args)
    except PolyConnectError as exc:
        return type(exc), str(exc)


#: Rationals, and nonpositive integers that make Pochhammer factors vanish.
pole_params = st.one_of(rationals, st.integers(min_value=-7, max_value=0))
sequences = st.dictionaries(st.integers(min_value=0, max_value=8), rationals, max_size=7)


@settings(max_examples=200, deadline=None)
@given(sequences, sequences, pole_params, rationals, rationals)
def test_plain_rearrangement_matches_literal_fraction_body(a, b, c, z, w):
    assert _result(fields_ismail_32_rhs, a, b, c, z, w) == _result(
        literal_ismail_32_rhs, a, b, c, z, w
    )


@settings(max_examples=200, deadline=None)
@given(sequences, sequences, pole_params, pole_params, pole_params, rationals, rationals)
def test_weighted_rearrangement_matches_literal_fraction_body(a, b, gamma, mu, theta, z, w):
    ep = ExpansionParams(gamma, mu, theta)
    assert _result(fields_ismail_13_rhs, a, b, ep, z, w) == _result(
        literal_ismail_13_rhs, a, b, ep, z, w
    )


@pytest.mark.parametrize(
    "form, a, b, params, message",
    [
        pytest.param("plain", {2: 1}, {2: 1}, -1, "(c)_2 = 0 for c = -1", id="plain-inner"),
        # a_3 sits past the outer range, so (c)_3 = 0 is never divided by
        pytest.param("plain", {0: 1, 3: 1}, {2: 1}, -1, None, id="plain-past-the-outer-range"),
        pytest.param("weighted", {2: 1}, {2: 1}, (1, -1, 1),
                     "(mu)_2 (theta)_2 = 0 for mu = -1, theta = 1", id="weighted-inner"),
        pytest.param("weighted", {0: 1}, {1: 1}, (-1, 1, 1),
                     "(gamma+2n+1)_1 = 0 for gamma = -1, n = 0", id="weighted-middle"),
        # (gamma+1)_2 = 0 at n = 0, where the inner sum is 0: not checked
        pytest.param("weighted", {1: 1}, {2: 1}, (-2, 1, 1), None,
                     id="weighted-middle-at-a-zero-inner-sum"),
        # each pole is reported at the first nonzero entry past the first
        # vanishing factor, not at that factor: c + 1 = 0, and a_2 = 0
        pytest.param("plain", {0: 1, 1: 1, 3: 1}, {3: 1}, -1, "(c)_3 = 0 for c = -1",
                     id="plain-past-a-zero-entry"),
        # theta + 1 = 0 and mu + 2 = 0, and a_2 = 0
        pytest.param("weighted", {1: 1, 3: 1}, {3: 1}, (1, -2, -1),
                     "(mu)_3 (theta)_3 = 0 for mu = -2, theta = -1",
                     id="weighted-inner-past-a-zero-entry"),
        # gamma + 2n + 1 + 2 = 0 at n = 0, and b_2 = 0
        pytest.param("weighted", {0: 1, 1: 1}, {1: 1, 3: 1}, (-3, 1, 1),
                     "(gamma+2n+1)_3 = 0 for gamma = -3, n = 0",
                     id="weighted-middle-past-a-zero-entry"),
        # (gamma+2)_2 = 0 at n = 2, but the inner sum at n is the one at
        # j = -(n+gamma) = 1, whose middle sum meets (gamma+2j+1)_1 = 0 first
        pytest.param("weighted", {0: 1}, {2: 1}, (-3, 1, 1),
                     "(gamma+2n+1)_1 = 0 for gamma = -3, n = 1",
                     id="weighted-outer-preempted-by-middle"),
    ],
)
def test_rearrangement_poles_raise_or_skip_as_literal_bodies(form, a, b, params, message):
    if form == "plain":
        kernel, literal = fields_ismail_32_rhs, literal_ismail_32_rhs
    else:
        kernel, literal, params = fields_ismail_13_rhs, literal_ismail_13_rhs, ExpansionParams(*params)
    got = _result(kernel, a, b, params, 1, 1)
    assert got == _result(literal, a, b, params, 1, 1)
    if message is None:
        assert isinstance(got, F)
    else:
        assert got == (PoleInParamsError, message)


@pytest.mark.parametrize("form", ["plain", "weighted"])
def test_rearrangements_match_literal_bodies_on_hermite_support(form):
    # b supported on 0, 2, ..., 40: sums of 41 outer terms
    x = F(-3, 5)
    if form == "plain":
        a = {m: F(1, math.factorial(m)) for m in range(41)}
        args = (a, hermite_bm_sequence(20), 1, 1, x)
        kernel, literal = fields_ismail_32_rhs, literal_ismail_32_rhs
    else:
        a = {m: math.factorial(m) for m in range(41)}
        args = (a, hermite_bm_sequence(20, with_index_factorial=True), ExpansionParams(), 1, x)
        kernel, literal = fields_ismail_13_rhs, literal_ismail_13_rhs
    assert kernel(*args) == literal(*args) == hermite(40)(x)


#: Wimp parameters: rationals, small integers, and integers written as
#: unreduced strings ("-6/2"), so shifted parameters hit integer poles and cuts.
wimp_params = st.one_of(
    rationals,
    st.integers(min_value=-4, max_value=3),
    st.builds(lambda p, q: f"{p * q}/{q}", st.integers(min_value=-4, max_value=3),
              st.integers(min_value=1, max_value=3)),
)
wimp_lists = st.lists(wimp_params, max_size=2)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5), wimp_lists, wimp_lists, wimp_lists, wimp_lists,
       wimp_lists, wimp_lists, rationals, rationals)
def test_wimp_terminating_matches_literal_fraction_body(n, a, b, c, d, al, be, z, w):
    args = (n, a, b, c, d, al, be, z, w)
    assert _result(fields_wimp_terminating, *args) == _result(literal_wimp_terminating, *args)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=-5, max_value=0), wimp_lists, wimp_lists, wimp_lists, wimp_lists,
       wimp_params, rationals, rationals)
def test_wimp_luke_matches_literal_fraction_body(cut, a, b, cr, d, c, z, w):
    args = ([cut] + a, b, cr, d, c, z, w)
    assert _result(fields_wimp_luke_terminating, *args) == _result(
        literal_wimp_luke_terminating, *args
    )


@pytest.mark.parametrize("a, b, shown", [
    ([], [], ""),
    ([F(1, 2)], [-1], "1/2"),  # the cut is read before any denominator pole
    ([3, "-6/4", F(2, 3)], [], "3, -3/2, 2/3"),
    (["6/2", 1], [F(1, 3)], "3, 1"),
])
def test_wimp_luke_without_a_cut_raises_as_literal_body(a, b, shown):
    args = (a, b, [F(1, 2)], [], 1, F(1, 3), 2)
    expected = (NonTerminatingError, f"no numerator parameter is a nonpositive integer: {shown}")
    assert _result(fields_wimp_luke_terminating, *args) == expected
    assert _result(literal_wimp_luke_terminating, *args) == expected


def _vanishes(a, k):
    """Whether (a)_k = 0: a is an integer in [1 - k, 0]."""
    return a.denominator == 1 and -k < a <= 0


@settings(max_examples=200, deadline=None)
@given(st.lists(wimp_params, max_size=4), st.integers(min_value=0, max_value=6))
def test_pochhammer_list_is_the_literal_product_with_one_call_per_factor(params, k):
    values = as_rationals(params)
    calls = []

    def counting(a, n):
        calls.append(a)
        return pochhammer(a, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationals_module, "pochhammer", counting)
        got = pochhammer_list(params, k)
    assert got == literal_pochhammer_list(values, k)
    assert type(got) is F
    # up to and including the first zero factor
    first_zero = next((i for i, a in enumerate(values) if _vanishes(a, k)), len(values) - 1)
    assert calls == list(values[:first_zero + 1])


@pytest.mark.parametrize("bad", [0.5, "x"], ids=["float", "string"])
def test_pochhammer_list_coerces_every_parameter_before_the_first_zero_factor(bad):
    with pytest.raises(InvalidInputError):
        pochhammer_list([-1, bad], 2)
    with pytest.raises(InvalidInputError):
        pochhammer_list(["-6/2", 1, bad], 4)


def literal_bilinear_lhs(a, b, z, w, with_factorial):
    a, b = coeff_seq(a), coeff_seq(b)
    zw = F(z) * F(w)
    total = F(0)
    for m in a.keys() & b.keys():
        term = a[m] * b[m] * zw**m
        total += term / math.factorial(m) if with_factorial else term
    return total


@settings(max_examples=200, deadline=None)
@given(sequences, sequences, rationals, rationals, st.booleans())
@example({}, {}, F(1, 2), F(3), True)
@example({}, {2: F(1)}, F(1), F(1), False)
@example({0: F(5), 2: F(-1, 3)}, {1: F(7), 3: F(2)}, F(-2), F(1, 3), True)
@example({4: F(1, 2), 5: 0}, {4: F(-3), 5: F(2)}, F(0), F(5), False)
def test_bilinear_lhs_matches_literal_fraction_body(a, b, z, w, with_factorial):
    got = bilinear_lhs(a, b, z, w, with_factorial)
    assert got == literal_bilinear_lhs(a, b, z, w, with_factorial)
    assert type(got) is F


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, "12", 0.5, 0.5), "expected a mapping of index to rational, got None"),
        (({0: 1}, "12", 0.5, 0.5), "expected a mapping of index to rational, got '12'"),
        (({0: 1}, {}, 0.5, 0.25), "not an exact rational: 0.5"),
        (({0: 1}, {}, 1, 0.25), "not an exact rational: 0.25"),
    ],
    ids=["a-first", "then-b", "then-z", "then-w"],
)
@pytest.mark.parametrize("with_factorial", [False, True])
def test_bilinear_lhs_checks_a_then_b_then_the_arguments(args, message, with_factorial):
    with pytest.raises(InvalidInputError) as info:
        bilinear_lhs(*args, with_factorial)
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CERTIFY_COMMANDS))
def test_certify_stdout_matches_recorded_digest(name):
    recorded = json.loads(DIGESTS.read_text())["stdout_sha256"][name]
    argv, code = CERTIFY_COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded
