"""The classical polynomial families, built exactly in the monomial basis.

Normalizations:
  * laguerre(n):  1F1(-n; 1; x), leading coefficient (-1)^n / n!
  * hermite(n):   physicists' normalization, leading coefficient 2^n
  * shifted_jacobi(n, jp):       ((-1)^n (b+1)_n / n!) 2F1(-n, n+l; b+1; x)
  * jacobi_at_one_minus_x(m, jp): ((a+1)_m / m!) 2F1(-m, m+l; a+1; x/2),
    the standard Jacobi polynomial evaluated at 1-x,
with a = jp.alpha, b = jp.beta, l = a + b + 1 throughout.  The Jacobi
families build their series parameters from the integer triple jp.abq, one
Fraction each, with no Fraction arithmetic.

Every member is held as an integer row, which is all the oracle reads (see
Poly); its Fractions are built only where they are read.  hermite and
laguerre build their rows in integers directly.
"""

import math
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import zip_longest
from typing import Iterable, Union

from .errors import InvalidInputError, PolyConnectError
from .hypseries import series_coefficients
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    check_index,
    check_instance,
    lift,
    past_limit,
    pochhammer,
    ratio_str,
    shown,
)
from .records import Frozen


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are ascending by degree with trailing zeros stripped; the
    zero polynomial has none and degree -inf.  The one form held is the
    reduced row (integer_form, a connection.Row), which every constructor
    sets once; coefficients, coeff and leading_coefficient build their
    Fractions from the row on each read.  Immutable and hashable.
    """

    __slots__ = ("_integer_form",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        self._set(*lift(as_rationals(coefficients)))

    @staticmethod
    def _from_row(nums: Iterable[int], den: int) -> "Poly":
        """The Poly nums / den, den != 0, without coercing any entry."""
        poly = Poly.__new__(Poly)
        poly._set(nums, den)
        return poly

    def _set(self, nums: Iterable[int], den: int) -> None:
        """Hold nums / den as the row: trailing zeros stripped, the sign moved
        to the numerators, one gcd; no Fraction built."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            den, nums = den // g, [x // g for x in nums]
        self._integer_form = (tuple(nums), den)

    @staticmethod
    def monomial(degree: int, coefficient: RationalLike = 1) -> "Poly":
        check_index(degree, "monomial degree")
        p, q = as_rational(coefficient).as_integer_ratio()
        return Poly._from_row([0] * degree + [p], q)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        nums, den = self._integer_form
        return tuple(Fraction(x, den) for x in nums)

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(vector, den): integer coefficients over the lcm d > 0 of the
        coefficient denominators, so coefficients[i] == vector[i] / d."""
        return self._integer_form

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def degree(self):
        """Exact degree; -inf for zero."""
        nums = self._integer_form[0]
        return len(nums) - 1 if nums else float("-inf")

    @property
    def leading_coefficient(self) -> Fraction:
        nums, den = self._integer_form
        return Fraction(nums[-1], den) if nums else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        """The coefficient of x^k; 0 for any k outside 0..degree."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise InvalidInputError(f"k must be an integer, got {shown(k)}")
        nums, den = self._integer_form
        return Fraction(nums[k], den) if 0 <= k < len(nums) else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        (a, d), (b, e) = self.integer_form, other.integer_form
        den = math.lcm(d, e)
        f, g = den // d, den // e
        return Poly._from_row([f * x + g * y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __neg__(self) -> "Poly":
        nums, den = self.integer_form
        return Poly._from_row([-x for x in nums], den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", RationalLike]) -> "Poly":
        a, d = self.integer_form
        if isinstance(other, Poly):
            b, e = other.integer_form
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Poly._from_row(out, d * e)
        p, q = as_rational(other).as_integer_ratio()
        return Poly._from_row([p * x for x in a], d * q)

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._integer_form == other._integer_form

    def __hash__(self):
        return hash(self._integer_form)

    def __repr__(self):
        try:
            return f"Poly([{', '.join(self.to_json())}])"
        except PolyConnectError:  # past the digit limit, as records.Record.__repr__
            return past_limit(self)

    def to_json(self) -> list[str]:
        """JSON form: array of rational strings, ascending degree."""
        nums, den = self._integer_form
        return [ratio_str(x, den) for x in nums]

    @staticmethod
    def from_json(data: list[str]) -> "Poly":
        if not isinstance(data, (list, tuple)):
            raise InvalidInputError(f"polynomial JSON must be an array, got {shown(data)}")
        return Poly(data)


class JacobiParams(Frozen):
    """Jacobi parameter pair, held as its two Fractions and as one integer
    triple abq = (a, b, q): alpha = a/q and beta = b/q over q > 0, the lcm of
    their denominators.  The derived value lam = alpha + beta + 1 is
    (a + b + q)/q, built on read; the library reads abq.

    Family members are cached by (degree, params), so the hash is taken once,
    here, and equality compares the triples."""

    _fields = ("alpha", "beta")
    __slots__ = ("alpha", "beta", "abq", "_hash")

    def __init__(self, alpha: RationalLike, beta: RationalLike):
        alpha, beta = as_rational(alpha), as_rational(beta)
        (a, p), (b, r) = alpha.as_integer_ratio(), beta.as_integer_ratio()
        q = math.lcm(p, r)
        self._fill(alpha, beta, (a * (q // p), b * (q // r), q), hash((alpha, beta)))

    @property
    def lam(self) -> Fraction:
        a, b, q = self.abq
        return Fraction(a + b + q, q)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.abq == other.abq

    def __hash__(self):
        return self._hash


def _cached(body):
    """lru_cache(body), at one more call per cached hit: the per-process,
    unbounded memo of the family members.  basis_poly and the closed forms'
    source checks read it; connection's member tables hold the rows of the
    members it keeps and come back here only on a miss.  Where
    the cache raises TypeError, body runs uncached: its checks raise
    InvalidInputError for an argument the cache cannot hash (no valid one is
    unhashable), and a TypeError of body's own is raised again.  Keys are
    typed, so a degree equal to a cached one but not an int (2.0,
    Fraction(2), True) is checked too.  An error is never cached: a call that
    raised runs body again.  cache_clear() empties the memo."""
    cached = lru_cache(maxsize=None, typed=True)(body)

    @wraps(body)
    def member(*args, **kwargs):
        try:
            return cached(*args, **kwargs)
        except TypeError:
            pass
        return body(*args, **kwargs)

    member.cache_info, member.cache_clear = cached.cache_info, cached.cache_clear
    return member


@_cached
def laguerre(n: int) -> Poly:
    """Laguerre polynomial, the terminating sum of (-n)_k x^k / (k! k!), as
    an integer row over n!: R_k = (-1)^k C(n, k) n!/k!, and R_(k+1) is
    -R_k (n-k) / (k+1)^2, exactly."""
    check_index(n, "degree")
    den = math.factorial(n)
    row, term = [0] * (n + 1), den
    for k in range(n + 1):
        row[k] = term
        term = -term * (n - k) // ((k + 1) * (k + 1))
    return Poly._from_row(row, den)


@_cached
def hermite(n: int) -> Poly:
    """Hermite polynomial from the explicit sum
    n! * sum_k (-1)^k (2x)^(n-2k) / (k!(n-2k)!), an integer row: the term
    of x^m, m = n - 2k, times -m(m-1) / (4(k+1)) is the term of x^(m-2)."""
    check_index(n, "degree")
    row, term = [0] * (n + 1), 1 << n
    for k in range(n // 2 + 1):
        m = n - 2 * k
        row[m] = term
        term = -term * m * (m - 1) // (4 * (k + 1))
    return Poly._from_row(row, 1)


@_cached
def shifted_jacobi(n: int, jp: JacobiParams) -> Poly:
    """Shifted Jacobi polynomial ((-1)^n (beta+1)_n / n!) 2F1(-n, n+lam; beta+1; x)."""
    check_index(n, "degree")
    check_instance(jp, JacobiParams)
    a, b, q = jp.abq
    shift, upper = Fraction(b + q, q), Fraction(n * q + a + b + q, q)  # beta + 1, n + lam
    rise = pochhammer(shift, n)
    p, d = (-1) ** n * rise.numerator, rise.denominator * math.factorial(n)
    coeffs, e = lift(series_coefficients((Fraction(-n), upper), (shift,)))
    return Poly._from_row([p * c for c in coeffs], d * e)


@_cached
def jacobi_at_one_minus_x(m: int, jp: JacobiParams) -> Poly:
    """The standard Jacobi polynomial evaluated at 1-x, as a polynomial in x:
    the lifted series list R / e, R_k times p 2^(K-k), over d e 2^K."""
    check_index(m, "degree")
    check_instance(jp, JacobiParams)
    a, b, q = jp.abq
    shift, upper = Fraction(a + q, q), Fraction(m * q + a + b + q, q)  # alpha + 1, m + lam
    rise = pochhammer(shift, m)
    p, d = rise.numerator, rise.denominator * math.factorial(m)
    coeffs, e = lift(series_coefficients((Fraction(-m), upper), (shift,)))
    top = len(coeffs) - 1
    return Poly._from_row([p * c << top - k for k, c in enumerate(coeffs)], d * e << top)
