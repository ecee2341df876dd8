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
    binomial,
    coeff_seq,
    coeff_hermite_in_laguerre,
    coeff_hermite_in_shifted_jacobi,
    coeff_laguerre_in_hermite,
    coeff_shifted_jacobi_in_hermite,
    connection_oracle,
    evaluate_terminating,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    hermite,
    hermite_bm_sequence,
    pochhammer,
    pochhammer_list,
    series_coefficients,
    truncation_index,
)
from polyconnect.cli import run
from polyconnect.hypseries import sum_pairs
from polyconnect.rationals import as_rationals

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
def test_sum_pairs_reduces_unreduced_pairs(n, k):
    # (k - n)/2 and (k + 1 - n)/2 as written in the Thm3.1 coefficient: one of
    # (k - n, 2), (k + 1 - n, 2) is an even numerator over 2, a nonpositive
    # integer only once reduced, and without it the series has no cut.
    unreduced = sum_pairs(((k - n, 2), (k + 1 - n, 2)), ((k + 1, 2), (k + 2, 2)), 1, 4)
    nums = (F(k - n, 2), F(k + 1 - n, 2))
    dens = (F(k + 1, 2), F(k + 2, 2))
    assert F(*unreduced) == evaluate_terminating(HypSeries(nums, dens, F(1, 4)))


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


@given(polys)
def test_integer_form_is_the_coefficients_over_their_lcm(p):
    vector, den = p.integer_form
    assert den == math.lcm(*(c.denominator for c in p.coefficients)) > 0
    assert tuple(F(v, den) for v in vector) == p.coefficients
    assert p.integer_form is p.integer_form


def test_family_member_integer_form_is_built_once():
    assert basis_poly(HERMITE, 7).integer_form is basis_poly(HERMITE, 7).integer_form


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
    denominator = literal_pochhammer(jp.alpha + 1, m) * literal_pochhammer(lam + m, n + 1)
    if denominator == 0:
        raise InvalidInputError("a prefactor denominator vanishes")
    prefactor = (
        literal_pochhammer(F(-n), m)
        * F(4) ** n
        * (2 * m + lam)
        * literal_pochhammer(jp.alpha + 1, n)
        / denominator
    )
    return prefactor * f


CLOSED_FORMS = {
    "3.1": (lambda n, k, jp: coeff_laguerre_in_hermite(n, k), literal_laguerre_in_hermite),
    "3.2": (lambda n, k, jp: coeff_hermite_in_laguerre(n, k), literal_hermite_in_laguerre),
    "3.3": (lambda n, k, jp: coeff_hermite_in_shifted_jacobi(n, jp, k),
            literal_hermite_in_shifted_jacobi),
    "3.4": (lambda n, k, jp: coeff_shifted_jacobi_in_hermite(n, jp, k),
            literal_shifted_jacobi_in_hermite),
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
    kernel, literal = CLOSED_FORMS[theorem]
    assert _outcome(kernel, n, k, jp) == _outcome(literal, n, k, jp)


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
        div = pochhammer_list(b, k) * pochhammer_list(be, k)
        if div == 0:
            raise PoleInParamsError(f"[b]_{k} [beta]_{k} = 0")
        weight = binomial(n, k) * pochhammer_list(a, k) * pochhammer_list(al, k) * z**k / div
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
        div = pochhammer_list(b, n) * math.factorial(n)
        if div == 0:
            raise DenominatorPoleError(f"[b]_{n} = 0")
        weight = pochhammer_list(a, n) * literal_pochhammer(c, n) * (-z) ** n / div
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
        ("plain", {2: 1}, {2: 1}, -1, "(c)_2 = 0 for c = -1"),
        # a_3 sits past the outer range, so (c)_3 = 0 is never divided by
        ("plain", {0: 1, 3: 1}, {2: 1}, -1, None),
        ("weighted", {2: 1}, {2: 1}, (1, -1, 1), "(mu)_2 (theta)_2 = 0 for mu = -1, theta = 1"),
        ("weighted", {0: 1}, {1: 1}, (-1, 1, 1), "(gamma+2n+1)_1 = 0 for gamma = -1, n = 0"),
        # (gamma+1)_2 = 0 at n = 0, where the inner sum is 0: not checked
        ("weighted", {1: 1}, {2: 1}, (-2, 1, 1), None),
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


@pytest.mark.parametrize("name", sorted(CERTIFY_COMMANDS))
def test_certify_stdout_matches_recorded_digest(name):
    recorded = json.loads(DIGESTS.read_text())["stdout_sha256"][name]
    argv, code = CERTIFY_COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded
