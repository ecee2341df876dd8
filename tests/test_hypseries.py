import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyconnect import (
    DenominatorPoleError,
    HypSeries,
    InvalidInputError,
    NonTerminatingError,
    ZeroDenominatorParameterError,
    evaluate_terminating,
    split_even_odd,
    truncation_index,
)

SAMPLE_ARGS = (F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(1, 4), F(-1, 4))


def test_truncation_index():
    assert truncation_index((F(-3), F(1, 2))) == 3
    assert truncation_index((F(-1), F(-1, 2))) == 1
    assert truncation_index((F(0), F(5))) == 0
    with pytest.raises(NonTerminatingError):
        truncation_index((F(1, 2),))


def test_evaluate_basic():
    s = HypSeries((F(-1), F(-1, 2)), (F(1, 2), F(1)), F(1, 4))
    assert evaluate_terminating(s) == F(5, 4)


def test_evaluate_truncation_policy_tolerates_pole_past_cut():
    # the integer denominator parameter -1 vanishes only from index 2 on,
    # one past the truncation index of this series
    s = HypSeries((F(-1), F(-1, 2)), (F(-1), F(-1, 2)), F(-1, 4))
    assert evaluate_terminating(s) == F(3, 4)


def test_evaluate_zero_numerator_parameter_gives_one():
    s = HypSeries((F(0), F(7, 2)), (F(5),), F(-3, 7))
    assert evaluate_terminating(s) == 1


def test_evaluate_errors():
    with pytest.raises(NonTerminatingError):
        evaluate_terminating(HypSeries((F(1, 2),), (F(1),), F(1)))
    with pytest.raises(DenominatorPoleError):
        evaluate_terminating(HypSeries((F(-3),), (F(-1),), F(1)))


@pytest.mark.parametrize(
    "nums, dens", [("12", (F(3),)), ((F(-1),), "3"), ("12", "3")]
)
def test_string_is_not_a_parameter_list(nums, dens):
    # a str is iterable, but "12" is not the numerator list (1, 2)
    with pytest.raises(InvalidInputError):
        HypSeries(nums, dens, 1)


def test_evaluate_at_zero_argument_is_one():
    for nums, dens in [
        ((F(-4), F(3, 2)), (F(1), F(5, 2))),
        ((F(-1),), ()),
        ((F(0), F(9)), (F(-7),)),
    ]:
        assert evaluate_terminating(HypSeries(nums, dens, F(0))) == 1


@given(
    st.permutations([F(-3), F(1, 2), F(5, 2)]),
    st.permutations([F(1), F(3, 2)]),
    st.sampled_from(SAMPLE_ARGS),
)
def test_parameter_order_never_changes_value(nums, dens, arg):
    base = evaluate_terminating(
        HypSeries((F(-3), F(1, 2), F(5, 2)), (F(1), F(3, 2)), arg)
    )
    assert evaluate_terminating(HypSeries(tuple(nums), tuple(dens), arg)) == base


def _split_value(series):
    even, prefactor, odd = split_even_odd(series)
    value = evaluate_terminating(even)
    if prefactor and series.argument:
        value += prefactor * series.argument * evaluate_terminating(odd)
    return value


def test_split_even_odd_laguerre_shape():
    # 1F1(-2; 1; x): even part 1 + x^2/2, odd contribution -2x
    for x in SAMPLE_ARGS:
        s = HypSeries((F(-2),), (F(1),), x)
        even, prefactor, odd = split_even_odd(s)
        assert prefactor == -2
        assert evaluate_terminating(even) == 1 + x**2 / 2
        if x:
            assert prefactor * x * evaluate_terminating(odd) == -2 * x
        assert _split_value(s) == evaluate_terminating(s) == 1 - 2 * x + x**2 / 2


def test_split_even_odd_degree_one():
    for x in SAMPLE_ARGS:
        s = HypSeries((F(-1),), (F(1),), x)
        assert _split_value(s) == 1 - x


def test_split_all_zero_numerators():
    s = HypSeries((F(0), F(0)), (F(1),), F(1, 2))
    even, prefactor, odd = split_even_odd(s)
    assert prefactor == 0
    assert evaluate_terminating(even) == 1


def test_split_series_shapes():
    s = HypSeries((F(-2), F(3)), (F(1), F(5, 2)), F(1, 2))
    even, prefactor, odd = split_even_odd(s)
    # argument 4^(p-q-1) x^2 with p = q = 2
    assert even.argument == odd.argument == F(1, 4) * F(1, 4)
    assert even.numerators == (F(-1), F(3, 2), F(-1, 2), F(2))
    assert even.denominators == (F(1, 2), F(1, 2), F(5, 4), F(1), F(7, 4))
    assert odd.numerators == (F(-1, 2), F(2), F(0), F(5, 2))
    assert odd.denominators == (F(3, 2), F(1), F(7, 4), F(3, 2), F(9, 4))
    assert prefactor == F(-6) / F(5, 2)


def test_split_zero_denominator_parameter_rejected():
    with pytest.raises(ZeroDenominatorParameterError):
        split_even_odd(HypSeries((F(-1),), (F(0),), F(1)))


def test_split_identity_on_fixed_grid():
    cases = [
        ((F(-3),), (F(2),)),
        ((F(-4), F(1, 2)), (F(1),)),
        ((F(-2), F(5, 2)), (F(3, 2), F(1))),
        ((F(-5), F(-1, 2), F(2)), (F(1), F(7, 3))),
    ]
    for nums, dens in cases:
        for x in SAMPLE_ARGS:
            s = HypSeries(nums, dens, x)
            assert _split_value(s) == evaluate_terminating(s)


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(st.lists(_rationals, max_size=3), st.lists(_rationals.filter(bool), max_size=3), _rationals)
def test_split_halves_are_the_series_the_public_constructor_builds(nums, dens, x):
    even, _, odd = split_even_odd(HypSeries(nums, dens, x))
    for half in (even, odd):
        public = HypSeries(half.numerators, half.denominators, half.argument)
        assert half == public and hash(half) == hash(public) and repr(half) == repr(public)
        for twin in (copy.copy(half), copy.deepcopy(half), pickle.loads(pickle.dumps(half))):
            assert twin == public and hash(twin) == hash(public)
