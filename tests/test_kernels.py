"""The integer kernels against literal Fraction references.

The references below are the term-by-term and operation-by-operation
Fraction computations the kernels replace; they live here only.
"""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyconnect import (
    BasisId,
    ConnectionResult,
    DenominatorPoleError,
    HypSeries,
    JacobiParams,
    MONOMIAL,
    Poly,
    PolyConnectError,
    basis_poly,
    connection_oracle,
    evaluate_terminating,
    pochhammer,
    series_coefficients,
)
from polyconnect.cli import run

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


def test_pole_one_past_the_cut():
    # (-3)_k cuts at K = 3; the denominator -3 vanishes only from index 4 on
    series = HypSeries((F(-3), F(1, 2)), (F(-3),), F(2, 3))
    assert evaluate_terminating(series) == literal_sum((F(-3), F(1, 2)), (F(-3),), F(2, 3))


@given(
    st.one_of(rationals, st.integers(min_value=-12, max_value=2).map(F)),
    st.integers(min_value=0, max_value=25),
)
def test_pochhammer_matches_literal_product(a, n):
    assert pochhammer(a, n) == literal_pochhammer(a, n)


def literal_oracle(p, target):
    """Fraction back-substitution through Poly arithmetic, one step per degree."""
    degree = 0 if p.is_zero else p.degree
    coefficients = [F(0)] * (degree + 1)
    residual = p
    for k in range(degree, -1, -1):
        member = basis_poly(target, k)
        c = residual.coeff(k) / member.coeff(k)
        coefficients[k] = c
        residual = residual - c * member
    assert residual.is_zero
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


@settings(max_examples=150, deadline=None)
@given(polys, targets())
def test_oracle_reconstructs_and_matches_literal_back_substitution(p, target):
    degree = 0 if p.is_zero else p.degree
    if not all(_graded(target, k) for k in range(degree + 1)):
        with pytest.raises(PolyConnectError):
            connection_oracle(p, target)
        return
    result = connection_oracle(p, target)
    assert result.reconstruct() == p
    assert result.coefficients == literal_oracle(p, target)


@settings(deadline=None)
@given(st.lists(rationals, max_size=13), targets())
def test_reconstruct_matches_literal_sum(coefficients, target):
    assume(all(_graded(target, k) for k in range(len(coefficients))))
    result = ConnectionResult(MONOMIAL, target, len(coefficients) - 1, tuple(coefficients), "Oracle")
    expected = Poly()
    for k, c in enumerate(coefficients):
        expected = expected + c * basis_poly(target, k)
    assert result.reconstruct() == expected


@pytest.mark.parametrize("name", sorted(CERTIFY_COMMANDS))
def test_certify_stdout_matches_recorded_digest(name):
    recorded = json.loads(DIGESTS.read_text())["stdout_sha256"][name]
    argv, code = CERTIFY_COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded
