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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

from .errors import InvalidInputError
from .hypseries import series_coefficients
from .rationals import (
    RationalLike,
    as_rational,
    check_index,
    factorial,
    pochhammer,
    rational_to_str,
)


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with trailing zeros stripped;
    the zero polynomial stores nothing and reports degree -inf.  Instances
    are immutable and hashable; the integer form is built on first use and
    kept, so a cached family member is lifted once per process.
    """

    __slots__ = ("_coeffs", "_integer_form")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        if isinstance(coefficients, str):
            raise InvalidInputError(
                f"expected a sequence of coefficients, got the string {coefficients!r}"
            )
        coeffs = [as_rational(c) for c in coefficients]
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
            ratios = [c.as_integer_ratio() for c in self._coeffs]
            den = math.lcm(*(d for _, d in ratios))
            self._integer_form = tuple(n * (den // d) for n, d in ratios), den
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

    def stretch(self, k: int) -> "Poly":
        """Substitute x -> x^k (spreads coefficient i to index k*i)."""
        if check_index(k, "stretch factor") < 1:
            raise InvalidInputError(f"stretch factor must be >= 1, got {k}")
        out = [Fraction(0)] * (k * max(len(self._coeffs) - 1, 0) + 1)
        for i, c in enumerate(self._coeffs):
            out[k * i] = c
        return Poly(out)

    def scale_argument(self, c: RationalLike) -> "Poly":
        """Substitute x -> c*x."""
        c = as_rational(c)
        power = Fraction(1)
        out = []
        for coeff in self._coeffs:
            out.append(coeff * power)
            power *= c
        return Poly(out)

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


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameter pair; ``lam`` is the derived value alpha + beta + 1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        object.__setattr__(self, "beta", as_rational(self.beta))

    @property
    def lam(self) -> Fraction:
        return self.alpha + self.beta + 1


@lru_cache(maxsize=None)
def laguerre(n: int) -> Poly:
    """Laguerre polynomial, the terminating sum of (-n)_k x^k / (k! k!)."""
    check_index(n, "degree")
    return Poly(series_coefficients((Fraction(-n),), (Fraction(1),)))


@lru_cache(maxsize=None)
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


def hermite_via_1f1(n: int) -> Poly:
    """Hermite polynomial rebuilt from its confluent hypergeometric form.

    Even degrees 2m use (-1)^m 2^(2m) (1/2)_m 1F1(-m; 1/2; x^2); odd degrees
    2m+1 use (-1)^m 2^(2m+1) (3/2)_m x 1F1(-m; 3/2; x^2).  Must agree with
    hermite(n) coefficient for coefficient.
    """
    check_index(n, "degree")
    m, odd = divmod(n, 2)
    den = Fraction(3, 2) if odd else Fraction(1, 2)
    body = Poly(series_coefficients((Fraction(-m),), (den,))).stretch(2)
    if odd:
        body = Poly.monomial(1) * body
    prefactor = Fraction((-1) ** m * 2**n) * pochhammer(den, m)
    return prefactor * body


@lru_cache(maxsize=None)
def shifted_jacobi(n: int, jp: JacobiParams) -> Poly:
    """Shifted Jacobi polynomial ((-1)^n (beta+1)_n / n!) 2F1(-n, n+lam; beta+1; x)."""
    check_index(n, "degree")
    prefactor = Fraction((-1) ** n) * pochhammer(jp.beta + 1, n) / factorial(n)
    coeffs = series_coefficients((Fraction(-n), n + jp.lam), (jp.beta + 1,))
    return prefactor * Poly(coeffs)


@lru_cache(maxsize=None)
def jacobi_at_one_minus_x(m: int, jp: JacobiParams) -> Poly:
    """The standard Jacobi polynomial evaluated at 1-x, as a polynomial in x."""
    check_index(m, "degree")
    prefactor = pochhammer(jp.alpha + 1, m) / factorial(m)
    coeffs = series_coefficients((Fraction(-m), m + jp.lam), (jp.alpha + 1,))
    half = Fraction(1, 2)
    return prefactor * Poly(c * half**k for k, c in enumerate(coeffs))
