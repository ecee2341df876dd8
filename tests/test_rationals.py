import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyconnect import (
    InvalidInputError,
    as_rational,
    factorial,
    parse_rational,
    pochhammer,
    pochhammer_list,
    rational_to_str,
)
from polyconnect.rationals import lift, rising

small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def test_pochhammer_base_cases():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(3, 4) == 360  # 3*4*5*6
    assert pochhammer(-2, 3) == 0  # the factor (a+2) vanishes


def test_pochhammer_list():
    assert pochhammer_list([], 5) == 1
    assert pochhammer_list([1, 1], 2) == 4
    assert pochhammer_list([-1, Fraction(1, 2)], 2) == 0


@given(st.lists(small_rationals, max_size=8))
def test_lift_is_the_values_over_their_lcm(values):
    ints, den = lift(values)
    assert den == math.lcm(*(v.denominator for v in values)) > 0
    assert all(type(i) is int for i in ints)
    assert [Fraction(i, den) for i in ints] == values


@given(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=12),
    st.data(),
)
def test_rising_is_the_literal_product(p, q, n, data):
    literal = Fraction(1)
    for i in range(n):
        literal *= Fraction(p, q) + i
    assert Fraction(rising(p, q, 0, n), q**n) == literal
    j = data.draw(st.integers(min_value=0, max_value=n))
    assert rising(p, q, 0, j) * rising(p, q, j, n) == rising(p, q, 0, n)


def test_factorial_binomial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    with pytest.raises(InvalidInputError):
        factorial(-1)
    with pytest.raises(InvalidInputError):
        pochhammer(1, -2)


@given(small_rationals, st.integers(min_value=0, max_value=30))
def test_pochhammer_recurrence(a, n):
    assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
def test_pochhammer_positive_integer_is_factorial_ratio(a, n):
    assert pochhammer(a, n) == factorial(a + n - 1) / factorial(a - 1)


@given(
    st.lists(small_rationals, max_size=4),
    st.integers(min_value=0, max_value=15),
)
def test_pochhammer_list_zero_iff_nonpositive_integer_in_window(params, k):
    hit = any(
        a.denominator == 1 and -(k - 1) <= a <= 0 for a in params
    )
    assert (pochhammer_list(params, k) == 0) == (hit and k > 0)


@pytest.mark.parametrize(
    "params, k, message",
    [
        ([1], True, "k must be a nonnegative integer, got True"),
        ([1], -1, "k must be a nonnegative integer, got -1"),
        ([1], 2.0, "k must be a nonnegative integer, got 2.0"),
        ([1], "2", "k must be a nonnegative integer, got '2'"),
        # k is checked before any parameter
        ([0.5], -1, "k must be a nonnegative integer, got -1"),
        ([1, 0.5], 2, "not an exact rational: 0.5"),
        (["1/2", "1/x"], 2, "malformed rational '1/x': expected 'p/q' or 'n'"),
        # every parameter is coerced before the first zero factor ends the product
        ([0, "1/x"], 2, "malformed rational '1/x': expected 'p/q' or 'n'"),
    ],
    ids=["k-bool", "k-negative", "k-float", "k-string", "k-first", "float", "malformed",
         "malformed-past-a-zero"],
)
def test_pochhammer_list_rejects_bad_input_with_its_message(params, k, message):
    with pytest.raises(InvalidInputError) as caught:
        pochhammer_list(params, k)
    assert str(caught.value) == message


def test_rational_to_str_compact():
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_to_str(Fraction(-5, 2)) == "-5/2"


def test_parse_rational():
    assert parse_rational("7") == 7
    assert parse_rational("-5/2") == Fraction(-5, 2)
    assert parse_rational("3/1") == 3
    assert parse_rational(" 6/4 ") == Fraction(3, 2)
    for bad in ("1.5", "a", "5/0", "1/-2", ""):
        with pytest.raises(InvalidInputError):
            parse_rational(bad)


@given(small_rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(f"{q.numerator}/{q.denominator}") == q
    assert parse_rational(rational_to_str(q)) == q


def test_as_rational_rejects_floats():
    with pytest.raises(InvalidInputError):
        as_rational(0.5)
    with pytest.raises(InvalidInputError):
        as_rational(True)
