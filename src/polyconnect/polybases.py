"""The classical polynomial families, built exactly in the monomial basis.

Normalizations:
  * laguerre(n):  1F1(-n; 1; x), leading coefficient (-1)^n / n!
  * hermite(n):   physicists' normalization, leading coefficient 2^n
  * shifted_jacobi(n, jp):       ((-1)^n (b+1)_n / n!) 2F1(-n, n+l; b+1; x)
  * jacobi_at_one_minus_x(m, jp): ((a+1)_m / m!) 2F1(-m, m+l; a+1; x/2),
    the standard Jacobi polynomial evaluated at 1-x,
with a = jp.alpha, b = jp.beta, l = a + b + 1 throughout.
"""

import math
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Optional, Union

from .errors import InvalidInputError
from .hypseries import series_coefficients
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    check_index,
    check_instance,
    lift,
    pochhammer,
    rational_to_str,
)
from .records import Frozen


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros stripped;
    the zero polynomial stores nothing and reports degree -inf.  Instances
    are immutable and hashable; the integer form is built on first use and
    kept, so a cached family member is lifted once per process.
    """

    __slots__ = ("_coeffs", "_integer_form")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = list(as_rationals(coefficients))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)
        self._integer_form: Optional[tuple[tuple[int, ...], int]] = None

    @staticmethod
    def monomial(degree: int, coefficient: RationalLike = 1) -> "Poly":
        check_index(degree, "monomial degree")
        return Poly([Fraction(0)] * degree + [as_rational(coefficient)])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(vector, den): integer coefficients over the lcm d > 0 of the
        coefficient denominators, so coefficients[i] == vector[i] / d."""
        if self._integer_form is None:
            self._integer_form = lift(self._coeffs)
        return self._integer_form

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Exact degree; -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    @property
    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        """The coefficient of x^k; 0 for any k outside 0..degree."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise InvalidInputError(f"k must be an integer, got {k!r}")
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        total = Fraction(0)
        for c in reversed(self._coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", RationalLike]) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Poly(out)
        scalar = as_rational(other)
        return Poly([c * scalar for c in self._coeffs])

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Poly([{', '.join(rational_to_str(c) for c in self._coeffs)}])"

    def to_json(self) -> list[str]:
        """JSON form: array of rational strings, ascending degree."""
        return [rational_to_str(c) for c in self._coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "Poly":
        if not isinstance(data, (list, tuple)):
            raise InvalidInputError(f"polynomial JSON must be an array, got {data!r}")
        return Poly(data)


class JacobiParams(Frozen):
    """Jacobi parameter pair; ``lam`` is the derived value alpha + beta + 1.

    Family members are cached by (degree, params), so the hash is taken once,
    here, and equality compares the two fields directly."""

    _fields = ("alpha", "beta")
    __slots__ = ("alpha", "beta", "lam", "_hash")

    def __init__(self, alpha: RationalLike, beta: RationalLike):
        alpha, beta = as_rational(alpha), as_rational(beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lam", alpha + beta + 1)
        object.__setattr__(self, "_hash", hash((alpha, beta)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return self._hash


def _cached(body):
    """lru_cache(body), at one more call per cached hit: the per-process,
    unbounded memo of the family members here and of the per-degree
    conversions in connection (closed_form_connection, _oracle_connection).
    Where the cache raises TypeError, body runs uncached: its checks raise
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
    """Laguerre polynomial, the terminating sum of (-n)_k x^k / (k! k!)."""
    check_index(n, "degree")
    return Poly(series_coefficients((Fraction(-n),), (Fraction(1),)))


@_cached
def hermite(n: int) -> Poly:
    """Hermite polynomial from the explicit sum
    n! * sum_k (-1)^k (2x)^(n-2k) / (k!(n-2k)!)."""
    check_index(n, "degree")
    coeffs = [Fraction(0)] * (n + 1)
    nfact = math.factorial(n)
    for k in range(n // 2 + 1):
        m = n - 2 * k
        coeffs[m] = Fraction(
            (-1) ** k * nfact * 2**m, math.factorial(k) * math.factorial(m)
        )
    return Poly(coeffs)


@_cached
def shifted_jacobi(n: int, jp: JacobiParams) -> Poly:
    """Shifted Jacobi polynomial ((-1)^n (beta+1)_n / n!) 2F1(-n, n+lam; beta+1; x)."""
    check_index(n, "degree")
    check_instance(jp, JacobiParams)
    rise = pochhammer(jp.beta + 1, n)
    p, d = (-1) ** n * rise.numerator, rise.denominator * math.factorial(n)
    coeffs = series_coefficients((Fraction(-n), n + jp.lam), (jp.beta + 1,))
    return Poly(Fraction(p * c.numerator, d * c.denominator) for c in coeffs)


@_cached
def jacobi_at_one_minus_x(m: int, jp: JacobiParams) -> Poly:
    """The standard Jacobi polynomial evaluated at 1-x, as a polynomial in x."""
    check_index(m, "degree")
    check_instance(jp, JacobiParams)
    rise = pochhammer(jp.alpha + 1, m)
    p, d = rise.numerator, rise.denominator * math.factorial(m)
    coeffs = series_coefficients((Fraction(-m), m + jp.lam), (jp.alpha + 1,))
    return Poly(
        Fraction(p * c.numerator, d * c.denominator << k) for k, c in enumerate(coeffs)
    )
