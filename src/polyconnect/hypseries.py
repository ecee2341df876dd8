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
every parameter is written p/q, in lowest terms or not.  Both kernels read
the cut and the poles off those (p, q) pairs in one helper, _cut, so they
raise the same errors in the same order, in one plain loop over each list
that also takes the products of the q's scaling each term ratio.

* series_coefficients returns the term coefficients, one Fraction each:
  laguerre keeps the list, the Jacobi constructors lift it to one row.
* sum_pairs takes the parameters as (p, q) pairs, such as the halves
  (k - n, 2) the closed forms write, and the argument as an integer pair,
  neither need be reduced, and returns the value as an integer pair (a, b)
  without building a Fraction or reducing anything: a backward nested sum
  over the term ratios.  Its clients fold (a, b) into their own integer
  factors and reduce once: the closed-form connection coefficients, with
  their prefactor, and both sides of the Fields-Wimp expansion
  (expansions.fields_wimp_terminating and fields_wimp_luke_terminating),
  the left side at the product argument zw passed as the pair
  (zn wn, zd wd), the right side with each term's weight.

evaluate_terminating keeps its path through series_coefficients (the
coefficient list, lifted to integers over one denominator by rationals.lift,
then one integer Horner pass and one Fraction), although sum_pairs would
take the same value with less work: the benchmark's traced identity sweeps
count series evaluations at series_coefficients, through this module's
global, and the even/odd split sweep is the only one left for it to count.
That sweep composes even + prefactor x odd from integer ratios.

Parameter lists are coerced by rationals.as_rationals: a string or a
non-iterable raises InvalidInputError.  The one exception is split_even_odd,
whose halves are canonical Fractions by construction: it builds each
half-list once, from the parameters' (p, q) pairs, and both parts are born
through HypSeries._from_fractions, which stores them as given.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DenominatorPoleError,
    NonTerminatingError,
    ZeroDenominatorParameterError,
)
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    check_instance,
    lift,
    ratio_str,
)
from .records import Frozen

#: An ordered tuple of rational parameters.  Order is preserved as given;
#: it matters for reporting, never for the value.
ParamList = tuple[Fraction, ...]
Pairs = Sequence[tuple[int, int]]

_ONE, _HALF, _THREE_HALVES = Fraction(1), Fraction(1, 2), Fraction(3, 2)


class HypSeries(Frozen):
    """Descriptor for a generalized hypergeometric series."""

    _fields = ("numerators", "denominators", "argument")
    __slots__ = _fields

    def __init__(
        self,
        numerators: Iterable[RationalLike],
        denominators: Iterable[RationalLike],
        argument: RationalLike,
    ):
        self._fill(as_rationals(numerators), as_rationals(denominators), as_rational(argument))

    @staticmethod
    def _from_fractions(
        numerators: ParamList, denominators: ParamList, argument: Fraction
    ) -> "HypSeries":
        """The series whose parameters are already tuples of Fractions and
        whose argument is a Fraction, stored as given: no as_rationals."""
        return HypSeries.__new__(HypSeries)._fill(numerators, denominators, argument)


def truncation_index(numerators: Iterable[RationalLike]) -> int:
    """Last index K whose Pochhammer product over the numerator parameters
    is nonzero: the index of the last term of a terminating series.

    For a nonpositive integer a the factor (a)_k vanishes from k = -a + 1 on,
    so K = min(-a_i) over the nonpositive integer parameters; a sum weighted
    by the product loses nothing when cut at K.  Raises NonTerminating if no
    parameter is a nonpositive integer (the product never vanishes).
    """
    return _cut([a.as_integer_ratio() for a in as_rationals(numerators)], ())[0]


def _cut(num_pq: Pairs, den_pq: Pairs) -> tuple[int, int, int]:
    """(K, prod of the denominators' q, prod of the numerators' q), with K the
    truncation index of the numerator pairs, checked against the denominator
    pairs: raises NonTerminating if no numerator is a nonpositive integer,
    DenominatorPole if some denominator b has -b < K.  A pair (p, q) has
    q > 0 but need not be in lowest terms: p/q is a nonpositive integer
    exactly when p <= 0 and q divides p, and its value is p // q, which the
    messages print.  One plain loop over each list."""
    k_max, num_scale, den_scale = -1, 1, 1
    for p, q in num_pq:
        den_scale *= q
        if p <= 0 and p % q == 0 and (k_max < 0 or -(p // q) < k_max):
            k_max = -(p // q)
    if k_max < 0:
        raise NonTerminatingError(
            "no numerator parameter is a nonpositive integer: "
            + ", ".join(ratio_str(p, q) for p, q in num_pq)
        )
    for p, q in den_pq:
        num_scale *= q
        if p <= 0 and p % q == 0 and -(p // q) < k_max:
            raise DenominatorPoleError(
                f"denominator parameter {p // q} vanishes at index "
                f"{1 - p // q} <= truncation index {k_max}"
            )
    return k_max, num_scale, den_scale


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
    k_max, num_scale, den_scale = _cut(num_pq, den_pq)
    coeffs = [_ONE]
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


def sum_pairs(num_pq: Pairs, den_pq: Pairs, x_num: int, x_den: int) -> tuple[int, int]:
    """Value (a, b) of the terminating series with parameters p/q given as
    integer pairs (p, q), q > 0, and argument x_num/x_den, x_den > 0, so the
    value is a/b.

    The pairs need not be in lowest terms: (-4, 2) is read as the
    nonpositive integer -2, and its cut is found.  The cut and the pole check
    are those of series_coefficients (_cut), with the same errors.  A pair
    scaled by g scales both sides of its term ratio by g, so the value does
    not change, only the size of a and b.  With u_k/v_k the term ratio of
    series_coefficients times x, the sum is nested backward,

        T_K = 1,    T_k = 1 + (u_k/v_k) T_(k+1),    value = T_0,

    with T = a/b carried unreduced: a, b <- b v + u a, b v.  b may be
    negative; it is never zero, since v_k vanishes only for a denominator
    pole at or before the cut, which _cut rejects.
    """
    k_max, num_scale, den_scale = _cut(num_pq, den_pq)
    num_scale, den_scale = x_num * num_scale, x_den * den_scale
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
    check_instance(series, HypSeries)
    coeffs, den = lift(series_coefficients(series.numerators, series.denominators))
    x_num, x_den = series.argument.as_integer_ratio()
    total, power = 0, 1
    for c in reversed(coeffs):
        total = total * x_num + c * power
        power *= x_den
    return Fraction(total, den * x_den ** (len(coeffs) - 1))


def split_even_odd(series: HypSeries) -> tuple[HypSeries, Fraction, HypSeries]:
    """Split a series into its even- and odd-index parts: (even, prefactor, odd).

    Both parts are series in the squared argument scaled by 4^(p-q-1): the
    even part has numerators [a/2] + [(a+1)/2] and denominators
    [1/2] + [b/2] + [(b+1)/2]; the odd part has numerators
    [(a+1)/2] + [(a+2)/2] and denominators [3/2] + [(b+1)/2] + [(b+2)/2].
    The original value is  even + prefactor * x * odd  with
    prefactor = prod(a_i)/prod(b_i), which is why every b_i must be nonzero.
    Each of the six half-lists is built once, [(a+1)/2] and [(b+1)/2]
    serving both parts: with a parameter written p/q, (p/q + j)/2 is the one
    Fraction (p + j q)/(2 q).  Both parts are born through
    HypSeries._from_fractions, without the public constructor's coercion;
    the prefactor, taken in the loop that checks the b_i, and the argument
    are one integer ratio each.
    """
    check_instance(series, HypSeries)
    num_pq = [a.as_integer_ratio() for a in series.numerators]
    den_pq = [b.as_integer_ratio() for b in series.denominators]
    pre_num = pre_den = 1
    for p, q in num_pq:
        pre_num, pre_den = pre_num * p, pre_den * q
    for p, q in den_pq:
        if not p:
            raise ZeroDenominatorParameterError("cannot split: a denominator parameter is zero")
        pre_num, pre_den = pre_num * q, pre_den * p
    a0, a1, a2 = ([Fraction(p + j * q, 2 * q) for p, q in num_pq] for j in range(3))
    b0, b1, b2 = ([Fraction(p + j * q, 2 * q) for p, q in den_pq] for j in range(3))
    x_num, x_den = series.argument.as_integer_ratio()
    shift = 2 * (len(num_pq) - len(den_pq) - 1)
    if shift >= 0:
        arg = Fraction(x_num * x_num << shift, x_den * x_den)
    else:
        arg = Fraction(x_num * x_num, x_den * x_den << -shift)
    even = HypSeries._from_fractions((*a0, *a1), (_HALF, *b0, *b1), arg)
    odd = HypSeries._from_fractions((*a1, *a2), (_THREE_HALVES, *b1, *b2), arg)
    return even, Fraction(pre_num, pre_den), odd
