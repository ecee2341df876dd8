from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyconnect import (
    DenominatorPoleError,
    InvalidInputError,
    JacobiParams,
    MONOMIAL,
    Poly,
    basis_poly,
    factorial,
    hermite,
    hermite_via_1f1,
    jacobi_at_one_minus_x,
    laguerre,
    pochhammer,
    shifted_jacobi,
)


def hermite_by_recurrence(n):
    """Independent construction: H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}."""
    prev, cur = Poly([1]), Poly([0, 2])
    if n == 0:
        return prev
    two_x = Poly([0, 2])
    for k in range(1, n):
        prev, cur = cur, two_x * cur - (2 * k) * prev
    return cur


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

    def test_stretch_and_scale(self):
        p = Poly([1, 2, 3])
        assert p.stretch(2).coefficients == (F(1), F(0), F(2), F(0), F(3))
        assert p.scale_argument(2).coefficients == (F(1), F(4), F(12))

    @pytest.mark.parametrize("k", [2.5, True])
    def test_stretch_rejects_non_integer_factor(self, k):
        with pytest.raises(InvalidInputError):
            Poly([1, 2]).stretch(k)

    def test_string_is_not_a_coefficient_list(self):
        # a str is iterable, but "12" is not the list [1, 2]
        with pytest.raises(InvalidInputError):
            Poly("12")

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
    rescaled = jacobi_at_one_minus_x(n, jp).scale_argument(2)
    assert shifted_jacobi(n, jp) == (-1) ** n * rescaled


def test_degree_guards():
    with pytest.raises(InvalidInputError):
        laguerre(-1)
    with pytest.raises(InvalidInputError):
        hermite(-3)
