"""Terminating generalized hypergeometric series over exact rationals.

A series descriptor holds numerator parameters [a_1..a_p], denominator
parameters [b_1..b_q] and a rational argument x, and stands for the sum

    sum_{k>=0}  (a_1)_k ... (a_p)_k / ((b_1)_k ... (b_q)_k)  *  x^k / k!

Only terminating instances are evaluated: some a_i must be a nonpositive
integer.  The sum is cut at the first index K where a numerator Pochhammer
factor vanishes; every later term carries that zero factor, so the cut loses
nothing.  A denominator parameter that is itself a nonpositive integer is
tolerated as long as its pole lies strictly past K.  Several closed-form
connection coefficients (the ones with denominator parameters -N/2 and
-(N-1)/2) rely on exactly this allowance, with the pole sitting one index
past the truncation.

The kernels work on integers: a term ratio is a ratio of two integers once
every parameter is written p/q, and a sum is carried as an integer over one
common denominator.  A Fraction, and so a gcd reduction, is built only for
each value returned: one per coefficient in series_coefficients, one per
series in evaluate_terminating.  series_coefficients also checks termination
and poles on those integer pairs, once per parameter.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DenominatorPoleError,
    NonTerminatingError,
    ZeroDenominatorParameterError,
)
from .rationals import RationalLike, as_rational, is_nonpositive_integer, rational_to_str

#: An ordered tuple of rational parameters.  Order is preserved as given;
#: it matters for reporting, never for the value.
ParamList = tuple[Fraction, ...]


def _coerce_params(params: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(as_rational(a) for a in params)


@dataclass(frozen=True)
class HypSeries:
    """Descriptor for a generalized hypergeometric series."""

    numerators: tuple[Fraction, ...]
    denominators: tuple[Fraction, ...]
    argument: Fraction

    def __post_init__(self):
        object.__setattr__(self, "numerators", _coerce_params(self.numerators))
        object.__setattr__(self, "denominators", _coerce_params(self.denominators))
        object.__setattr__(self, "argument", as_rational(self.argument))

    @property
    def is_terminating(self) -> bool:
        return termination_index(self.numerators) is not None


class EvenOddSplit(NamedTuple):
    even: HypSeries
    odd_prefactor: Fraction
    odd: HypSeries


def termination_index(params: Sequence[RationalLike]) -> Optional[int]:
    """Last index K whose Pochhammer product over the list is nonzero, or None.

    For a nonpositive integer a the factor (a)_k vanishes from k = -a + 1 on,
    so K = min(-a_i) over the nonpositive integer parameters; a sum weighted
    by the product loses nothing when cut at K.  None means no parameter is a
    nonpositive integer (the product never vanishes).
    """
    hits = [-int(as_rational(a)) for a in params if is_nonpositive_integer(a)]
    return min(hits) if hits else None


def truncation_index(series: HypSeries) -> int:
    """The index K of the last term of a terminating series."""
    k = termination_index(series.numerators)
    if k is None:
        raise NonTerminatingError(
            "no numerator parameter is a nonpositive integer: "
            + ", ".join(rational_to_str(a) for a in series.numerators)
        )
    return k


def series_coefficients(
    numerators: Iterable[RationalLike], denominators: Iterable[RationalLike]
) -> tuple[Fraction, ...]:
    """Term coefficients [a_p]_k / ([b_q]_k k!) for k = 0..K of a terminating series.

    The value of the series is sum(coeff[k] * x^k); polynomial constructors
    reuse the same list with substituted arguments.  Raises NonTerminating if
    no numerator parameter is a nonpositive integer, DenominatorPole if some
    denominator parameter b has -b < K.

    With every parameter written p/q, the term ratio
    prod(a + k) / (prod(b + k) (k + 1)) is the integer ratio

        prod(p_a + k q_a) prod(q_b)  /  (prod(p_b + k q_b) prod(q_a) (k + 1)),

    so each coefficient is the previous numerator and denominator times two
    integers, reduced once, into its Fraction.  Termination and poles are
    read off the same (p, q) pairs: a parameter is a nonpositive integer
    exactly when q == 1 and p <= 0.
    """
    nums = _coerce_params(numerators)
    num_pq = [a.as_integer_ratio() for a in nums]
    den_pq = [b.as_integer_ratio() for b in _coerce_params(denominators)]
    cuts = [-p for p, q in num_pq if q == 1 and p <= 0]
    if not cuts:
        raise NonTerminatingError(
            "no numerator parameter is a nonpositive integer: "
            + ", ".join(rational_to_str(a) for a in nums)
        )
    k_max = min(cuts)
    for p, q in den_pq:
        if q == 1 and p <= 0 and -p < k_max:
            raise DenominatorPoleError(
                f"denominator parameter {p} vanishes at index "
                f"{-p + 1} <= truncation index {k_max}"
            )
    num_scale = math.prod(q for _, q in den_pq)
    den_scale = math.prod(q for _, q in num_pq)
    coeffs = [Fraction(1)]
    num = den = 1
    # Ratio recurrence, hard-capped at k_max so a 0/0 ratio is never formed.
    for k in range(k_max):
        u, v = num_scale, den_scale * (k + 1)
        for p, q in num_pq:
            u *= p + k * q
        for p, q in den_pq:
            v *= p + k * q
        term = Fraction(num * u, den * v)
        num, den = term.as_integer_ratio()
        coeffs.append(term)
    return tuple(coeffs)


def evaluate_terminating(series: HypSeries) -> Fraction:
    """Exact value of a terminating series under the first-zero truncation policy.

    The coefficients c_k come from series_coefficients; the sum of c_k x^k is
    taken by backward Horner in integers, over the lcm d of the coefficient
    denominators times x's denominator to the power K, and reduced once, into
    the returned Fraction.
    """
    coeffs = series_coefficients(series.numerators, series.denominators)
    x_num, x_den = series.argument.as_integer_ratio()
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    total, power = 0, 1
    for n, d in reversed(ratios):
        total = total * x_num + n * (den // d) * power
        power *= x_den
    return Fraction(total, den * x_den ** (len(coeffs) - 1))


def split_even_odd(series: HypSeries) -> EvenOddSplit:
    """Split a series into its even- and odd-index parts.

    Both parts are series in the squared argument scaled by 4^(p-q-1): the
    even part has numerators [a/2] + [(a+1)/2] and denominators
    [1/2] + [b/2] + [(b+1)/2]; the odd part has numerators
    [(a+1)/2] + [(a+2)/2] and denominators [3/2] + [(b+1)/2] + [(b+2)/2].
    The original value is  even + prefactor * x * odd  with
    prefactor = prod(a_i)/prod(b_i), which is why every b_i must be nonzero.
    """
    nums, dens = series.numerators, series.denominators
    for b in dens:
        if b == 0:
            raise ZeroDenominatorParameterError(
                "cannot split: a denominator parameter is zero"
            )
    p, q = len(nums), len(dens)
    arg = Fraction(4) ** (p - q - 1) * series.argument**2
    half = Fraction(1, 2)
    even = HypSeries(
        tuple(a * half for a in nums) + tuple((a + 1) * half for a in nums),
        (half,) + tuple(b * half for b in dens) + tuple((b + 1) * half for b in dens),
        arg,
    )
    odd = HypSeries(
        tuple((a + 1) * half for a in nums) + tuple((a + 2) * half for a in nums),
        (Fraction(3, 2),)
        + tuple((b + 1) * half for b in dens)
        + tuple((b + 2) * half for b in dens),
        arg,
    )
    prefactor = Fraction(1)
    for a in nums:
        prefactor *= a
    for b in dens:
        prefactor /= b
    return EvenOddSplit(even, prefactor, odd)


def series_to_json(series: HypSeries) -> dict:
    return {
        "num": [rational_to_str(a) for a in series.numerators],
        "den": [rational_to_str(b) for b in series.denominators],
        "arg": rational_to_str(series.argument),
    }


def series_from_json(data: dict) -> HypSeries:
    return HypSeries(tuple(data["num"]), tuple(data["den"]), data["arg"])
