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
every parameter is written p/q.  Both kernels read the cut and the poles off
those (p, q) pairs in one helper, _cut, so they raise the same errors in the
same order.

* series_coefficients returns the term coefficients, one Fraction (and so
  one gcd) each; the family constructors need the list itself.
* sum_pairs takes the parameters as (p, q) pairs and the argument as an
  integer pair, and returns the value as an integer pair (a, b) without
  building a Fraction or reducing anything: a backward nested sum over the
  term ratios.  Its clients fold (a, b) into their own integer factors and
  reduce once: the closed-form connection coefficients, with their
  prefactor, and the right sides of the Fields-Wimp expansions
  (expansions.fields_wimp_terminating and fields_wimp_luke_terminating),
  with each term's weight.

evaluate_terminating keeps its path through series_coefficients (the
coefficient list, lifted to integers over one denominator by rationals.lift,
then one integer Horner pass and one Fraction), although sum_pairs would
take the same value with less work: the benchmark's traced identity sweeps
count series evaluations at series_coefficients, through this module's
global, and the Fields-Wimp left sides and the even/odd split sweep are
the calls left for it to count.

Parameter lists are coerced by rationals.as_rationals: a string or a
non-iterable raises InvalidInputError.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DenominatorPoleError,
    InvalidInputError,
    NonTerminatingError,
    ZeroDenominatorParameterError,
)
from .rationals import RationalLike, as_rational, as_rationals, lift, rational_to_str

#: An ordered tuple of rational parameters.  Order is preserved as given;
#: it matters for reporting, never for the value.
ParamList = tuple[Fraction, ...]


@dataclass(frozen=True)
class HypSeries:
    """Descriptor for a generalized hypergeometric series."""

    numerators: tuple[Fraction, ...]
    denominators: tuple[Fraction, ...]
    argument: Fraction

    def __post_init__(self):
        object.__setattr__(self, "numerators", as_rationals(self.numerators))
        object.__setattr__(self, "denominators", as_rationals(self.denominators))
        object.__setattr__(self, "argument", as_rational(self.argument))


class EvenOddSplit(NamedTuple):
    even: HypSeries
    odd_prefactor: Fraction
    odd: HypSeries


def truncation_index(numerators: Iterable[RationalLike]) -> int:
    """Last index K whose Pochhammer product over the numerator parameters
    is nonzero: the index of the last term of a terminating series.

    For a nonpositive integer a the factor (a)_k vanishes from k = -a + 1 on,
    so K = min(-a_i) over the nonpositive integer parameters; a sum weighted
    by the product loses nothing when cut at K.  Raises NonTerminating if no
    parameter is a nonpositive integer (the product never vanishes).
    """
    return _cut([a.as_integer_ratio() for a in as_rationals(numerators)], ())


def _cut(num_pq: Sequence[tuple[int, int]], den_pq: Sequence[tuple[int, int]]) -> int:
    """The truncation index K of the numerator pairs, checked against the
    denominator pairs: raises NonTerminating if no numerator is a nonpositive
    integer, DenominatorPole if some denominator b has -b < K.  Pairs are in
    lowest terms with q > 0, so p/q is a nonpositive integer exactly when
    q == 1 and p <= 0."""
    cuts = [-p for p, q in num_pq if q == 1 and p <= 0]
    if not cuts:
        raise NonTerminatingError(
            "no numerator parameter is a nonpositive integer: "
            + ", ".join(rational_to_str(Fraction(p, q)) for p, q in num_pq)
        )
    k_max = min(cuts)
    for p, q in den_pq:
        if q == 1 and p <= 0 and -p < k_max:
            raise DenominatorPoleError(
                f"denominator parameter {p} vanishes at index "
                f"{-p + 1} <= truncation index {k_max}"
            )
    return k_max


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
    integers, reduced once, into its Fraction.
    """
    num_pq = [a.as_integer_ratio() for a in as_rationals(numerators)]
    den_pq = [b.as_integer_ratio() for b in as_rationals(denominators)]
    k_max = _cut(num_pq, den_pq)
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


def _lowest_terms(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for p, q in pairs:
        g = math.gcd(p, q)
        out.append((p // g, q // g))
    return out


def sum_pairs(
    num_pq: Iterable[tuple[int, int]],
    den_pq: Iterable[tuple[int, int]],
    x_num: int,
    x_den: int,
) -> tuple[int, int]:
    """Value (a, b) of the terminating series with parameters p/q given as
    integer pairs (p, q), q > 0, and argument x_num/x_den, x_den > 0, so the
    value is a/b.

    The pairs are brought to lowest terms first, so (-4, 2) is read as the
    nonpositive integer -2 and its cut is found.  The cut and the pole check
    are those of series_coefficients (_cut), with the same errors.  With
    u_k/v_k the term ratio of series_coefficients times x, the sum is nested
    backward,

        T_K = 1,    T_k = 1 + (u_k/v_k) T_(k+1),    value = T_0,

    with T = a/b carried unreduced: a, b <- b v + u a, b v.  b may be
    negative; it is never zero, since v_k vanishes only for a denominator
    pole at or before the cut, which _cut rejects.
    """
    num_pq, den_pq = _lowest_terms(num_pq), _lowest_terms(den_pq)
    k_max = _cut(num_pq, den_pq)
    num_scale = x_num * math.prod(q for _, q in den_pq)
    den_scale = x_den * math.prod(q for _, q in num_pq)
    a = b = 1
    for k in range(k_max - 1, -1, -1):
        u, v = num_scale, den_scale * (k + 1)
        for p, q in num_pq:
            u *= p + k * q
        for p, q in den_pq:
            v *= p + k * q
        a, b = b * v + u * a, b * v
    return a, b


def evaluate_terminating(series: HypSeries) -> Fraction:
    """Exact value of a terminating series under the first-zero truncation policy.

    The coefficients c_k come from series_coefficients and are lifted to
    integers over one denominator d (rationals.lift); the sum of c_k x^k is
    taken by backward Horner in integers, over d times x's denominator to the
    power K, and reduced once, into the returned Fraction.
    """
    coeffs, den = lift(series_coefficients(series.numerators, series.denominators))
    x_num, x_den = series.argument.as_integer_ratio()
    total, power = 0, 1
    for c in reversed(coeffs):
        total = total * x_num + c * power
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
    fields = data if isinstance(data, dict) else {}
    num, den = fields.get("num"), fields.get("den")
    if not (isinstance(num, (list, tuple)) and isinstance(den, (list, tuple)) and "arg" in fields):
        raise InvalidInputError(f"series JSON needs num and den arrays and arg, got {data!r}")
    return HypSeries(tuple(num), tuple(den), fields["arg"])
