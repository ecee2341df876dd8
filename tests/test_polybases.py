import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyconnect import (
    BasisId,
    DenominatorPoleError,
    HERMITE,
    InvalidInputError,
    JacobiParams,
    MONOMIAL,
    Poly,
    basis_poly,
    closed_form_connection,
    factorial,
    hermite,
    jacobi_at_one_minus_x,
    laguerre,
    pochhammer,
    series_coefficients,
    shifted_jacobi,
)
from polyconnect import connection


def hermite_by_recurrence(n):
    """Independent construction: H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}."""
    prev, cur = Poly([1]), Poly([0, 2])
    if n == 0:
        return prev
    two_x = Poly([0, 2])
    for k in range(1, n):
        prev, cur = cur, two_x * cur - (2 * k) * prev
    return cur


def hermite_via_1f1(n):
    """Independent construction from the confluent hypergeometric form: even
    degrees 2m are (-1)^m 2^(2m) (1/2)_m 1F1(-m; 1/2; x^2), odd degrees 2m+1
    are (-1)^m 2^(2m+1) (3/2)_m x 1F1(-m; 3/2; x^2)."""
    m, odd = divmod(n, 2)
    den = F(3, 2) if odd else F(1, 2)
    prefactor = (-1) ** m * 2**n * pochhammer(den, m)
    coeffs = [F(0)] * (n + 1)
    for k, c in enumerate(series_coefficients((F(-m),), (den,))):
        coeffs[2 * k + odd] = prefactor * c
    return Poly(coeffs)


class TestPoly:
    def test_normalization_and_degree(self):
        assert Poly([1, 0, 0]).coefficients == (F(1),)
        assert Poly().is_zero
        assert Poly([0, 0]).degree == float("-inf")
        assert Poly([3, 0, F(1, 2)]).degree == 2
        assert Poly([3, 0, F(1, 2)]).leading_coefficient == F(1, 2)
        assert Poly().leading_coefficient == 0

    def test_arithmetic(self):
        p = Poly([1, 2])
        q = Poly([0, -2, 3])
        assert (p + q).coefficients == (F(1), F(0), F(3))
        assert (p - p).is_zero
        assert (p * q).coefficients == (F(0), F(-2), F(-1), F(6))
        assert (F(1, 2) * p).coefficients == (F(1, 2), F(1))
        assert p(F(1, 2)) == 2

    def test_coeff_reads_any_int_index(self):
        p = Poly([1, 2, 3])
        assert [p.coeff(k) for k in (-1, 0, 1, 2, 3)] == [0, 1, 2, 3, 0]
        for k in ("a", 1.5, True, None):
            with pytest.raises(InvalidInputError, match="k must be an integer"):
                p.coeff(k)

    def test_string_is_not_a_coefficient_list(self):
        # a str is iterable, but "12" is not the list [1, 2]
        with pytest.raises(InvalidInputError):
            Poly("12")

    @pytest.mark.parametrize("other", [1, F(1, 2), "x", None])
    def test_subtracting_a_non_poly_is_unsupported_as_adding_one_is(self, other):
        # the message names the operator used, as for +
        name = type(other).__name__
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for -: 'Poly' and '{name}'$"):
            Poly([1]) - other

    def test_json(self):
        p = Poly([0, -12, 0, 8])
        assert p.to_json() == ["0", "-12", "0", "8"]
        assert Poly.from_json(p.to_json()) == p

    def test_monomial(self):
        assert Poly.monomial(3, F(1, 2)).coefficients == (F(0), F(0), F(0), F(1, 2))
        for degree in (-1, 2.5, True):
            with pytest.raises(InvalidInputError):
                Poly.monomial(degree)
        with pytest.raises(InvalidInputError):
            basis_poly(MONOMIAL, 2.5)


def test_laguerre_small():
    assert laguerre(0) == Poly([1])
    assert laguerre(1) == Poly([1, -1])
    assert laguerre(2) == Poly([1, -2, F(1, 2)])


def test_hermite_small():
    assert hermite(0) == Poly([1])
    assert hermite(2) == Poly([-2, 0, 4])
    assert hermite(3) == Poly([0, -12, 0, 8])


def test_hermite_via_1f1_small():
    assert hermite_via_1f1(0) == Poly([1])
    assert hermite_via_1f1(1) == Poly([0, 2])
    assert hermite_via_1f1(2) == Poly([-2, 0, 4])


@pytest.mark.parametrize("n", range(0, 33))
def test_hermite_constructions_agree(n):
    assert hermite(n) == hermite_via_1f1(n) == hermite_by_recurrence(n)


@given(st.integers(min_value=0, max_value=40))
def test_hermite_parity_and_lead(n):
    h = hermite(n)
    assert h.leading_coefficient == 2**n
    flipped = Poly([(-1) ** k * c for k, c in enumerate(h.coefficients)])
    assert flipped == (-1) ** n * h


@given(st.integers(min_value=0, max_value=40))
def test_laguerre_lead(n):
    assert laguerre(n).degree == n
    assert laguerre(n).leading_coefficient == F((-1) ** n) / factorial(n)


def test_shifted_jacobi_small():
    jp = JacobiParams(0, 0)
    assert shifted_jacobi(0, jp) == Poly([1])
    assert shifted_jacobi(1, jp) == Poly([-1, 2])
    with pytest.raises(DenominatorPoleError):
        shifted_jacobi(1, JacobiParams(0, -1))


def test_jacobi_at_one_minus_x_small():
    assert jacobi_at_one_minus_x(0, JacobiParams(F(1), F(7, 3))) == Poly([1])
    assert jacobi_at_one_minus_x(1, JacobiParams(0, 0)) == Poly([1, -1])
    assert jacobi_at_one_minus_x(1, JacobiParams(1, 0)) == Poly([2, F(-3, 2)])
    with pytest.raises(DenominatorPoleError):
        jacobi_at_one_minus_x(2, JacobiParams(-1, 0))


def test_jacobi_params_lambda():
    jp = JacobiParams(F(-1, 2), F(1, 3))
    assert jp.lam == F(5, 6)


#: (p, q, g): the rational p/q, also spelled unreduced as (p g)/(q g)
_spellings = st.tuples(st.integers(-40, 40), st.integers(1, 12), st.integers(1, 6))


def _forms(p, q, g):
    """p/q and every spelling JacobiParams takes of it: unreduced and reduced
    strings, the Fraction and, for an integer value, the int."""
    value = F(p, q)
    forms = [f"{p * g}/{q * g}", str(value), value]
    if value.denominator == 1:
        forms.append(value.numerator)
    return value, forms


@given(_spellings, _spellings)
def test_jacobi_params_agree_however_spelled(x, y):
    """The triple abq is alpha and beta over the lcm of their denominators;
    parameters built from any spelling of the same values are equal, hash as
    the pair of Fractions, read the same fields and lam, print and pickle
    alike, and _regular is the Fraction definition on them."""
    (alpha, alpha_forms), (beta, beta_forms) = _forms(*x), _forms(*y)
    reference = JacobiParams(alpha, beta)
    a, b, q = reference.abq
    assert q == math.lcm(alpha.denominator, beta.denominator)
    assert (F(a, q), F(b, q)) == (alpha, beta)
    for first in alpha_forms:
        for second in beta_forms:
            jp = JacobiParams(first, second)
            assert jp == reference and jp.abq == reference.abq
            assert hash(jp) == hash(reference) == hash((alpha, beta))
            assert (jp.alpha, jp.beta, jp.lam) == (alpha, beta, alpha + beta + 1)
            assert repr(jp) == repr(reference)
            copy = pickle.loads(pickle.dumps(jp))
            assert copy == jp and copy.abq == jp.abq and hash(copy) == hash(jp)
    assert (reference == JacobiParams(beta, alpha)) is (alpha == beta)
    assert reference != JacobiParams(alpha, beta + F(1, q + 1))
    negative = [v < 0 and v.denominator == 1 for v in (alpha, beta, alpha + beta + 1)]
    assert connection._regular(reference) is not any(negative)


def test_equal_parameters_share_one_member_cache_entry():
    """An equal but separate JacobiParams, spelled otherwise, is a cache hit."""
    shifted_jacobi.cache_clear()
    first, second = JacobiParams("1/2", "-1/3"), JacobiParams("2/4", "-2/6")
    assert first is not second
    member = shifted_jacobi(6, first)
    hits = shifted_jacobi.cache_info().hits
    assert shifted_jacobi(6, second) is member
    info = shifted_jacobi.cache_info()
    assert (info.hits, info.currsize) == (hits + 1, 1)


PARAM_SETS = [
    JacobiParams(0, 0),
    JacobiParams(F(1, 2), F(1, 2)),
    JacobiParams(1, 2),
    JacobiParams(F(-1, 2), F(1, 3)),
]


@pytest.mark.parametrize("jp", PARAM_SETS, ids=str)
@pytest.mark.parametrize("n", range(0, 9))
def test_shifted_jacobi_lead_is_last_series_term(n, jp):
    # the k = n term of the defining sum: prefactor * (-n)_n (n+l)_n / ((b+1)_n n!)
    expected = (
        F((-1) ** n)
        * pochhammer(jp.beta + 1, n)
        / factorial(n)
        * pochhammer(F(-n), n)
        * pochhammer(n + jp.lam, n)
        / (pochhammer(jp.beta + 1, n) * factorial(n))
    )
    p = shifted_jacobi(n, jp)
    assert p.degree == n
    assert p.leading_coefficient == expected != 0


@pytest.mark.parametrize("n", range(0, 9))
def test_shifted_jacobi_matches_rescaled_symmetric_jacobi(n):
    # at alpha = beta = 0: R_n(x) = (-1)^n * P_n(1-x) with x replaced by 2x
    jp = JacobiParams(0, 0)
    p = jacobi_at_one_minus_x(n, jp)
    rescaled = Poly(c * 2**k for k, c in enumerate(p.coefficients))
    assert shifted_jacobi(n, jp) == (-1) ** n * rescaled


@pytest.mark.parametrize("member", [
    lambda: hermite(9),
    lambda: laguerre(9),
    lambda: shifted_jacobi(9, JacobiParams(F(1, 2), F(1, 3))),
    lambda: jacobi_at_one_minus_x(9, JacobiParams(F(1, 2), F(1, 3))),
    lambda: Poly.monomial(9, F(2, 3)),
])
def test_each_member_holds_one_row_and_reads_it_without_fractions(member, no_fractions):
    p = member()
    row = Poly._from_row(*p.integer_form)
    assert p.integer_form is p.integer_form
    with no_fractions():
        assert p == row and hash(p) == hash(row) and p.degree == 9
        assert p.to_json() == row.to_json() and repr(p) == repr(row)


def test_degree_guards():
    with pytest.raises(InvalidInputError):
        laguerre(-1)
    with pytest.raises(InvalidInputError):
        hermite(-3)


def test_family_cache_checks_unhashable_arguments_and_keeps_body_type_errors():
    from polyconnect import polybases

    @polybases._cached
    def member(n):
        polybases.check_index(n, "degree")
        raise TypeError("from the body")

    with pytest.raises(InvalidInputError, match="degree must be a nonnegative integer"):
        member([1])
    with pytest.raises(TypeError, match="from the body"):
        member(1)
    for family in (hermite, laguerre, shifted_jacobi, jacobi_at_one_minus_x):
        assert family.cache_info().maxsize is None
    hermite(2)
    assert hermite.cache_info().currsize >= 1


@pytest.mark.parametrize("degree", [2.0, F(2), True])
def test_cached_member_still_rejects_an_equal_degree_that_is_not_an_int(degree):
    jp = JacobiParams(0, 0)
    jacobi = BasisId("shifted-jacobi", jp)
    for convert in (
        lambda n: hermite(n),
        lambda n: shifted_jacobi(n, jp),
        lambda n: jacobi_at_one_minus_x(n, jp),
        # not memoized: checks that must refuse the degree all the same
        lambda n: closed_form_connection(jacobi, HERMITE, n),
        lambda n: connection._oracle_connection(HERMITE, jacobi, n),
    ):
        convert(int(degree))
        with pytest.raises(InvalidInputError, match=r"(degree|n) must be a nonnegative integer"):
            convert(degree)
