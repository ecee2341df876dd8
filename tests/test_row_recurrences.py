"""Proofs of the recurrences in k behind the Thm3.1 and Thm3.2 rows.

closed_form_connection builds these two rows by recurrences along the row
(connection._laguerre_in_hermite_row and _hermite_in_laguerre_row).  Each
entry of a row is a terminating sum of a hypergeometric term,

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

Only the standard library, pytest and hypothesis are used here.
"""

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import pytest

from polyconnect import (
    HERMITE,
    LAGUERRE,
    closed_form_connection,
    coeff_hermite_in_laguerre,
    coeff_laguerre_in_hermite,
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

    coefficient: Callable[[int, int], Fraction]  # the literal coeff_*, c_{n,k}
    term: Callable[[int, int, int], Fraction]  # t(n, k, j)
    operator: Callable[[int, int], tuple]  # (p_0, p_1, p_2, p_3) at (n, k)
    certificate: Callable[[int, int, int], Fraction]  # G(n, k, j)


CERTIFIED = {
    "3.1": Certified(
        coeff_laguerre_in_hermite,
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
        coeff_hermite_in_laguerre,
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


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_terms_sum_to_the_literal_coefficients(theorem):
    c = CERTIFIED[theorem]
    for n in range(21):
        for k in range(n + 1):
            assert sum(c.term(n, k, j) for j in _support(n, k)) == c.coefficient(n, k), (n, k)


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
        row = connection.THEOREMS[theorem].row(n, None) + (0, 0, 0)
        assert row[n] == c.coefficient(n, n)
        for k in range(n):
            p = c.operator(n, k)
            assert p[0] != 0
            assert sum(p[i] * row[k + i] for i in range(4)) == 0, (n, k)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_rows_equal_the_literal_series(theorem):
    c = CERTIFIED[theorem]
    for n in range(81):
        row = connection.THEOREMS[theorem].row(n, None)
        assert row == tuple(c.coefficient(n, k) for k in range(n + 1)), n


@pytest.mark.parametrize("source, target", [(LAGUERRE, HERMITE), (HERMITE, LAGUERRE)])
def test_recurrence_rows_never_sum_a_series(monkeypatch, source, target):
    def refuse(*args):
        raise AssertionError("sum_pairs called for a recurrence row")

    monkeypatch.setattr(connection, "sum_pairs", refuse)
    for n in range(30):
        result = closed_form_connection(source, target, n)
        assert len(result.coefficients) == n + 1
        assert all(type(c) is Fraction for c in result.coefficients)
