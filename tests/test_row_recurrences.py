"""Proofs of the recurrences in k behind the Thm3.1, Thm3.2 and Thm3.4 rows.

closed_form_connection builds these rows by recurrences along the row
(connection._laguerre_in_hermite_row, _hermite_in_laguerre_row and
_shifted_jacobi_in_hermite_row).  Thm3.4 has its own proof, at the end of
this docstring.  Each entry of a Thm3.1 or Thm3.2 row is a terminating sum
of a hypergeometric term,

    c_{n,k} = sum_{j=0}^{J} t(n, k, j),    J = floor((n - k) / 2),

and each row satisfies sum_{i=0}^{3} p_i(n, k) c_{n,k+i} = 0 for k < n, with
c_{n,k} = 0 for k > n.  The proof is Zeilberger's creative telescoping
(Petkovsek, Wilf, Zeilberger, A = B, 1996, ch. 6): a certificate G(n, k, j),
itself a ratio of factorials, with

    sum_i p_i t(n, k+i, j) = G(n, k, j+1) - G(n, k, j)                  (*)

for 0 <= j <= J.  Summed over j, (*) telescopes to G(n, k, J+1) - G(n, k, 0),
and both boundary terms vanish.  Every term below is a ratio of factorials
with 1/m! = 0 for m < 0, as in the sums themselves.

Derivation.  The operators were guessed by fitting an order-3 ansatz with
polynomial coefficients to exact rows.  sympy's gosper_term, applied to
f(j) = sum_i p_i t(n, k+i, j), returns R with G = R f; for Thm3.1

    R = -4j(2j+k+2)(2j+k+3) / D,
    D = 16j^3 + 16j^2 k + 36j^2 + 4jk^2 + 16jk + 4jn + 22j - k^2 + 2kn - k
        - n^2 + n,

and f / t = (n+1) D / (8 (k+2j+1)(k+2j+2)(k+2j+3)), so D cancels and
G = -(n+1) j t / (2(k+2j+1)).  For Thm3.2 a rational ansatz for G / t, fitted
to the partial sums G(j) = sum_{i<j} f(i), gives G = -2j(n-2j+1)(n-2j+2) t /
((k+1)(k+2)); there f / t = D' / (2(k+1)(k+2)) with the cubic
D' = 16j^3 - 16j^2 n - 20j^2 + 4jk + 4jn^2 + 8jn + 10j + k^2 - 2kn + k
+ n^2 - n, so Gosper's form is R = -4j(n-2j+1)(n-2j+2) / D'.  Written out,
both certificates are ratios of factorials (CERTIFIED below).

The proof is in three checks, all in exact rationals:

1. Where every factorial argument is nonnegative, (*) divided by t(n, k, j)
   is a rational function of (n, k, j).  The quotients are

       Thm3.1: t(n,k+i,j)/t = (-1/2)^i (n-k-2j)^(i) / ((k+1)_i (k+2j+1)_i),
               G(j)/t = -(n+1) j / (2(k+2j+1)),
               G(j+1)/t = -(n+1)(n-k-2j)(n-k-2j-1) / (8 (k+2j+1)_3);
       Thm3.2: t(n,k+i,j)/t = (-1)^i (n-k-2j)^(i) / (k+1)_i,
               G(j)/t = -2j(n-2j+1)(n-2j+2) / ((k+1)(k+2)),
               G(j+1)/t = (n-k-2j)(n-k-2j-1) / (2(k+1)(k+2)),

   with x^(i) the falling and (x)_i the rising factorial.  Times
   8 (k+1)_3 (k+2j+1)_3 (Thm3.1) or 2 (k+1)_3 (Thm3.2), none zero there, the
   quotient is a polynomial of total degree at most 8.  It vanishes on a
   9 x 9 x 9 grid of such points, so it is identically zero.
2. On the edge of the support, where n - k - 2j < 3, the quotients above
   still give the true values: t(n, k+i, j) and G(n, k, j+1) vanish exactly
   where the falling factorial (n-k-2j)^(i) or (n-k-2j)(n-k-2j-1) does, and
   no denominator vanishes for k, j >= 0.  So (*) holds for every
   0 <= j <= J; it is also checked directly for every n <= 30.
3. G(n, k, 0) = 0 because G carries 1/(j-1)!, and G(n, k, J+1) = 0 because it
   carries 1/(n-k-2j-2)!; checked for every n <= 40.

p_0(n, k) is a nonzero multiple of n - k, so for k < n the recurrence and
c_{n,n} fix c_{n,k}.  The library runs the same recurrence on N_k, a
rescaling of c_{n,k} (see the row functions' docstrings); its rows satisfy
the certified recurrence and equal the literal series for every n <= 80.

Thm3.4.  With b = beta, l = lam and F(m) = (-n)_m (n+l)_m / ((b+1)_m 2^m),
the row is c_{n,j} = K G(j) / j! with G(j) = sum_i F(j+2i) / i! and
K = (-1)^n (b+1)_n / n!, and the claim is, for 0 <= j < n,

    D(j) = 2(j+b+1) G(j+1) - 2(2j+l+2) G(j+2) + 4 G(j+3) - 4 G(j+4)
           - (j-n)(j+n+l) G(j) = 0.

Let L_i be the i-th term of D(j), each G(j+s) written as sum_i F(j+s+2i)/i!.
With m = j + 2i,

    A_i = [2(m+b+1) F(m+1) - (m-n)(m+n+l) F(m)] / i!,
    W_i = [2(2j+l+2i) F(m) - 4 F(m+1) + 4 F(m+2)] / (i-1)!,   W_0 = 0,

the identity L_i = A_i + W_i - W_{i+1} holds for any values F(m): times i!
it is linear in F(m), ..., F(m+4), with coefficients polynomial in
(n, j, i, b, l) of degree at most 2 in each, so it holds once it holds on a
3^5 grid for each of the five unit vectors.  A_i = 0 because F obeys the
first-order recurrence 2(m+b+1) F(m+1) = (m-n)(m+n+l) F(m).  F(m) = 0 for
m > n, so summed over 0 <= i <= I = floor((n-j)/2), beyond which every term
vanishes, D(j) = W_0 - W_{I+1} = 0.  (j-n)(j+n+l) is nonzero for j < n
unless lam is a negative integer, where Theorem.row evaluates the entries.

Thm3.3.  Both rows (_hermite_in_jacobi_row) are not a recurrence but the
entry-by-entry closed form written over one denominator.  The last two
tests, each run for Thm3.3, Thm3.3-corrected and Thm3.4, check that on
regular parameters the fast rows equal the literal entries
(THEOREMS[id].entry), over d > 0, and that on degenerate ones Theorem.row,
the one fallback, keeps the entries' values and errors, a Jacobi source
member's first.

Only the standard library, pytest and hypothesis are used here.
"""

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from polyconnect import (
    HERMITE,
    LAGUERRE,
    BasisId,
    JacobiParams,
    PolyConnectError,
    basis_poly,
    closed_form_connection,
)
from polyconnect import connection


def _factorials(sign: int, power_of_two: int, top: Sequence[int], bottom: Sequence[int]):
    """sign 2^power_of_two prod(m! for m in top) / prod(m! for m in bottom),
    with 1/m! = 0 for m < 0; a negative m in top never occurs here."""
    if any(m < 0 for m in bottom):
        return Fraction(0)
    if any(m < 0 for m in top):
        raise ValueError(f"factorial of a negative integer in {top}")
    num = sign * math.prod(math.factorial(m) for m in top)
    den = math.prod(math.factorial(m) for m in bottom)
    return Fraction(num, den) * Fraction(2) ** power_of_two


class Certified(NamedTuple):
    """One row recurrence: the summand, the operator and the certificate."""

    term: Callable[[int, int, int], Fraction]  # t(n, k, j)
    operator: Callable[[int, int], tuple]  # (p_0, p_1, p_2, p_3) at (n, k)
    certificate: Callable[[int, int, int], Fraction]  # G(n, k, j)


CERTIFIED = {
    "3.1": Certified(
        lambda n, k, j: _factorials(
            (-1) ** k, -k - 2 * j, [n], [k, n - k - 2 * j, k + 2 * j, j]
        ),
        lambda n, k: (
            Fraction(n - k, 4),
            Fraction((k + 1) ** 2, 2),
            Fraction(-(k + 1) * (k + 2), 2),
            Fraction((k + 1) * (k + 2) * (k + 3)),
        ),
        lambda n, k, j: _factorials(
            (-1) ** (k + 1), -k - 1 - 2 * j, [n + 1], [k, n - k - 2 * j, k + 2 * j + 1, j - 1]
        ),
    ),
    "3.2": Certified(
        lambda n, k, j: _factorials(
            (-1) ** (k + j), n - 2 * j, [n, n - 2 * j], [k, n - k - 2 * j, j]
        ),
        lambda n, k: (
            Fraction(n - k),
            Fraction(3 * k + 3 - 2 * n),
            Fraction(2 * n - 11 - 6 * k, 2),
            Fraction(k + 3),
        ),
        lambda n, k, j: _factorials(
            (-1) ** (k + j + 1), n - 2 * j + 1, [n, n - 2 * j + 2], [k + 2, n - k - 2 * j, j - 1]
        ),
    ),
}
THEOREM_IDS = sorted(CERTIFIED)


def _telescoping_defect(c: Certified, n: int, k: int, j: int) -> Fraction:
    """sum_i p_i t(n, k+i, j) - G(n, k, j+1) + G(n, k, j): zero where (*) holds."""
    lhs = sum(p * c.term(n, k + i, j) for i, p in enumerate(c.operator(n, k)))
    return lhs - c.certificate(n, k, j + 1) + c.certificate(n, k, j)


def _support(n: int, k: int) -> range:
    return range((n - k) // 2 + 1)


def _row(theorem: str, n: int, jp=None) -> tuple:
    """THEOREMS[theorem].row(n, jp), integers R over d > 0, as the
    Fractions R_k / d."""
    num, den = connection.THEOREMS[theorem].row(n, jp)
    assert den > 0
    return tuple(Fraction(r, den) for r in num)


def _entries(theorem: str, n: int, jp=None):
    """THEOREMS[theorem].entry at k = 0..n, the literal series, or the class
    and message of the first error: a Jacobi source member's (its degree is
    checked first), then the entries'."""
    record = connection.THEOREMS[theorem]
    try:
        if jp is not None:
            basis_poly(connection.basis(record.source, jp), n)
        return tuple(record.entry(n, jp, k) for k in range(n + 1))
    except PolyConnectError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_terms_sum_to_the_literal_coefficients(theorem):
    c = CERTIFIED[theorem]
    for n in range(21):
        entries = _entries(theorem, n)
        for k in range(n + 1):
            assert sum(c.term(n, k, j) for j in _support(n, k)) == entries[k], (n, k)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_certificate_is_a_rational_identity(theorem):
    # check 1: the quotient by t, a polynomial of degree <= 8 once cleared,
    # vanishes on 9 values of each variable, all far inside the support
    c = CERTIFIED[theorem]
    points = 0
    for n in range(40, 49):
        for k in range(9):
            for j in range(1, 10):
                assert n - k - 3 - 2 * (j + 1) >= 0  # every factorial argument >= 0
                t = c.term(n, k, j)
                assert t != 0
                assert _telescoping_defect(c, n, k, j) / t == 0, (n, k, j)
                points += 1
    assert points == 9**3


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_certificate_holds_up_to_the_edge_of_the_support(theorem):
    # check 2: every instance, the k + i > n and n - k - 2j < 3 edges included
    c = CERTIFIED[theorem]
    for n in range(31):
        for k in range(n + 1):
            for j in _support(n, k):
                assert _telescoping_defect(c, n, k, j) == 0, (n, k, j)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_boundary_terms_vanish(theorem):
    # check 3
    c = CERTIFIED[theorem]
    for n in range(41):
        for k in range(n + 1):
            assert c.certificate(n, k, 0) == 0
            assert c.certificate(n, k, (n - k) // 2 + 1) == 0


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_rows_satisfy_the_certified_recurrence(theorem):
    c = CERTIFIED[theorem]
    for n in range(41):
        row = _row(theorem, n) + (0, 0, 0)
        assert row[n] == connection.THEOREMS[theorem].entry(n, None, n)
        for k in range(n):
            p = c.operator(n, k)
            assert p[0] != 0
            assert sum(p[i] * row[k + i] for i in range(4)) == 0, (n, k)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_rows_equal_the_literal_series(theorem):
    for n in range(81):
        assert _row(theorem, n) == _entries(theorem, n), n


@pytest.mark.parametrize("source, target", [
    (LAGUERRE, HERMITE),
    (HERMITE, LAGUERRE),
    (BasisId("shifted-jacobi", JacobiParams(Fraction(1, 2), Fraction(1, 3))), HERMITE),
])
def test_recurrence_rows_never_sum_a_series(monkeypatch, source, target):
    def refuse(*args):
        raise AssertionError("sum_pairs called for a recurrence row")

    monkeypatch.setattr(connection, "sum_pairs", refuse)
    for n in range(30):
        result = closed_form_connection(source, target, n)
        assert len(result.coefficients) == n + 1
        assert all(type(c) is Fraction for c in result.coefficients)


# Thm3.4: (beta, lam) pairs, lam = 0 included, none a negative integer
JACOBI_BL = [
    (Fraction(0), Fraction(1)),
    (Fraction(1, 3), Fraction(11, 6)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(2), Fraction(4)),
    (Fraction(5, 7), Fraction(3, 14)),
    (Fraction(-2, 5), Fraction(-26, 15)),
]


def _rising(x: Fraction, m: int) -> Fraction:
    return math.prod((x + i for i in range(m)), start=Fraction(1))


def _thm34_f(n: int, b: Fraction, lam: Fraction) -> Callable[[int], Fraction]:
    """m -> F(m) = (-n)_m (n+l)_m / ((b+1)_m 2^m)."""
    return lambda m: _rising(Fraction(-n), m) * _rising(n + lam, m) / (
        _rising(b + 1, m) * 2**m
    )


def _thm34_l(f, n, j, i, b, lam):
    """i! L_i, the i-th term of D(j) times i!."""
    m = j + 2 * i
    return (2 * (j + b + 1) * f(m + 1) - 2 * (2 * j + lam + 2) * f(m + 2) + 4 * f(m + 3)
            - 4 * f(m + 4) - (j - n) * (j + n + lam) * f(m))


def _thm34_a(f, n, j, i, b, lam):
    """i! A_i."""
    m = j + 2 * i
    return 2 * (m + b + 1) * f(m + 1) - (m - n) * (m + n + lam) * f(m)


def _thm34_w(f, j, i, lam):
    """(i-1)! W_i, so that i! W_i = i * this and i! W_{i+1} = _thm34_w(f, j, i+1, lam)."""
    m = j + 2 * i
    return 2 * (2 * j + lam + 2 * i) * f(m) - 4 * f(m + 1) + 4 * f(m + 2)


def _thm34_defect(f, n, j, i, b, lam):
    """i! (L_i - A_i - W_i + W_{i+1}): zero where the term-wise identity holds."""
    return (_thm34_l(f, n, j, i, b, lam) - _thm34_a(f, n, j, i, b, lam)
            - i * _thm34_w(f, j, i, lam) + _thm34_w(f, j, i + 1, lam))


def test_thm34_terms_sum_to_the_literal_coefficients():
    for b, lam in JACOBI_BL:
        jp = JacobiParams(lam - b - 1, b)
        for n in range(17):
            f = _thm34_f(n, b, lam)
            k = (-1) ** n * _rising(b + 1, n) / math.factorial(n)
            entries = _entries("3.4", n, jp)
            for j in range(n + 1):
                g = sum(f(j + 2 * i) / math.factorial(i) for i in range((n - j) // 2 + 1))
                assert k * g / math.factorial(j) == entries[j]


def test_thm34_termwise_identity_holds_for_any_values():
    # linear in F(m..m+4) with coefficients of degree <= 2 in each of
    # (n, j, i, b, l): zero on a 3^5 grid for each unit vector, so zero
    grid = (Fraction(-3, 2), Fraction(1, 3), Fraction(5))
    points = 0
    for n, j, i in ((n, j, i) for n in (7, 11, 20) for j in (0, 2, 5) for i in (0, 1, 4)):
        for b in grid:
            for lam in grid:
                for s in range(5):
                    def unit(m, at=j + 2 * i + s):
                        return Fraction(m == at)
                    assert _thm34_defect(unit, n, j, i, b, lam) == 0, (n, j, i, b, lam, s)
                    points += 1
    assert points == 3**5 * 5


def test_thm34_summand_obeys_its_first_order_recurrence():
    # A_i = 0: every m, past the support (m > n, where F vanishes) included
    for b, lam in JACOBI_BL:
        for n in range(13):
            f = _thm34_f(n, b, lam)
            for m in range(n + 6):
                assert _thm34_a(f, n, m, 0, b, lam) == 0, (b, lam, n, m)
                assert (f(m) == 0) == (m > n)


def test_thm34_identity_and_boundary_terms():
    # every instance for n <= 12: L_i = A_i + W_i - W_{i+1}, W_{I+1} = 0,
    # so the terms of D(j) sum to zero
    for b, lam in JACOBI_BL:
        for n in range(13):
            f = _thm34_f(n, b, lam)
            for j in range(n):
                top = (n - j) // 2
                for i in range(top + 1):
                    assert _thm34_defect(f, n, j, i, b, lam) == 0, (b, lam, n, j, i)
                assert _thm34_w(f, j, top + 1, lam) == 0
                assert sum(_thm34_l(f, n, j, i, b, lam) / math.factorial(i)
                           for i in range(top + 1)) == 0


def test_thm34_rows_satisfy_the_recurrence_and_equal_the_literal_series():
    for b, lam in JACOBI_BL:
        jp = JacobiParams(lam - b - 1, b)
        k = 1
        for n in range(41):
            if n:
                k *= -(b + n) / n  # K = (-1)^n (b+1)_n / n!
            row = _row("3.4", n, jp)
            assert row == _entries("3.4", n, jp)
            g = [math.factorial(j) * c / k for j, c in enumerate(row)] + [0] * 4
            for j in range(n):
                assert (j - n) * (j + n + lam) * g[j] == (
                    2 * (j + b + 1) * g[j + 1] - 2 * (2 * j + lam + 2) * g[j + 2]
                    + 4 * g[j + 3] - 4 * g[j + 4]
                ), (b, lam, n, j)


_rationals = st.fractions(min_value=-6, max_value=4, max_denominator=4)
#: (alpha, beta) with alpha, beta or lam a negative integer.
_degenerate = st.one_of(
    st.tuples(st.integers(-6, -1).map(Fraction), _rationals),
    st.tuples(_rationals, st.integers(-6, -1).map(Fraction)),
    st.tuples(_rationals, st.integers(-6, -1)).map(lambda t: (t[0], t[1] - 1 - t[0])),
)


#: The fractional parts of the fractions with denominator at most 4.
_PARTS = sorted({Fraction(p, q) for q in range(1, 5) for p in range(q)})


def _off_poles(lo: int, hi: int, *shifts: Fraction):
    """The fractions x in [lo, hi] with denominator at most 4 such that
    neither x nor any x + c (c in shifts) is a negative integer, drawn by
    construction: x = i + f for a fractional part f, with the integer i
    bounded below wherever f + c is an integer (c = 0 included)."""
    bounds = {}
    for f in _PARTS:
        lows = [-int(f + c) for c in (0, *shifts) if (f + c).denominator == 1]
        low, high = max([math.ceil(lo - f), *lows]), math.floor(hi - f)
        if low <= high:
            bounds[f] = low, high
    return st.sampled_from(sorted(bounds)).flatmap(
        lambda f: st.integers(*bounds[f]).map(lambda i: i + f))


def _with_beta(alpha: Fraction):
    """(alpha, beta) for a beta in [-6, 4] with beta and lam = beta + alpha + 1
    no negative integer."""
    return _off_poles(-6, 4, alpha + 1).map(lambda beta: (alpha, beta))


def _with_negative_lam(alpha: Fraction):
    """(alpha, lam - 1 - alpha) for a lam in [-6, -1], not an integer, with
    beta = lam - 1 - alpha no negative integer."""
    return _off_poles(-6, -1, -1 - alpha).map(lambda lam: (alpha, lam - 1 - alpha))


#: Regular (alpha, beta), by construction: alpha not a negative integer, then
#: beta with neither beta nor lam one.  Alpha in [-6, 4], or in [-6, -1], then
#: beta in [-6, 4]; a negative non-integer lam; or lam = 0.
_regular = st.one_of(
    _off_poles(-6, 4).flatmap(_with_beta),
    _off_poles(-6, -1).flatmap(_with_beta),  # alpha < -1
    _off_poles(-6, 4).flatmap(_with_negative_lam),
    st.tuples(st.integers(-6, 3), st.sampled_from(_PARTS[1:])).map(  # lam = 0
        lambda t: (t[0] + t[1], -1 - t[0] - t[1])),
)
#: Theorem -> the largest n drawn for its regular rows.
_N_MAX = {"3.3": 30, "3.3c": 30, "3.4": 40}


def _fast_rows_property(theorem: str):
    """The property that theorem's fast rows equal its entry rows, for
    regular parameters and n drawn within _N_MAX[theorem]; nothing drawn is
    filtered out."""
    @settings(max_examples=100, deadline=None)
    @given(_regular, st.integers(min_value=0, max_value=_N_MAX[theorem]))
    @example((Fraction(-3, 2), Fraction(1, 3)), 12)  # a negative raw denominator
    @example((Fraction(1, 2), Fraction(-3, 2)), 12)  # lam = 0
    def fast_rows_equal_the_entry_rows(params, n):
        jp = JacobiParams(*params)
        assert connection._regular(jp)
        assert _row(theorem, n, jp) == _entries(theorem, n, jp)

    return fast_rows_equal_the_entry_rows


_FAST_ROWS = {theorem: _fast_rows_property(theorem) for theorem in _N_MAX}


@pytest.mark.parametrize("theorem", sorted(_N_MAX))
def test_fast_rows_equal_the_entry_rows(theorem):
    _FAST_ROWS[theorem]()


@pytest.mark.parametrize("theorem", sorted(_N_MAX))
@settings(max_examples=80, deadline=None)
@given(_degenerate, st.integers(min_value=0, max_value=12))
def test_degenerate_rows_keep_the_entry_values_and_errors(theorem, params, n):
    jp = JacobiParams(*params)
    assert not connection._regular(jp)
    record = connection.THEOREMS[theorem]
    source, target = connection.basis(record.source, jp), connection.basis(record.target, jp)
    try:
        got = closed_form_connection(source, target, n, theorem).coefficients
    except PolyConnectError as exc:
        got = type(exc), str(exc)
    assert got == _entries(theorem, n, jp)
