"""Bilinear series expansions, instantiated so that every identity is a
finite, exactly checkable equation.

Two families of rearrangement identities are implemented.  The first family
rewrites a bilinear sum over two coefficient sequences a_m, b_m:

  weighted by m!:
    sum_m a_m b_m (zw)^m / m!
      = sum_n (-z)^n / (n! (g+n)_n)
        * sum_r (mu)_{n+r} (th)_{n+r} / (r! (g+2n+1)_r) * b_{n+r} z^r
        * sum_{s<=n} (-n)_s (n+g)_s / (s! (mu)_s (th)_s) * a_s w^s

  plain:
    sum_m a_m b_m (zw)^m
      = sum_n (c)_n (-z)^n / n!
        * sum_j (n+c)_j / j! * b_{n+j} z^j
        * sum_{k<=n} (-n)_k / (c)_k * a_k w^k

Both become finite once the sequences have finite support, since b truncates
the outer and middle sums.

The second family expands a hypergeometric series of a product argument zw
into products of series in z and in w separately; the intrinsically
terminating variant keyed by a -n numerator parameter is
``fields_wimp_terminating`` and the variant made finite by a nonpositive
integer numerator parameter is ``fields_wimp_luke_terminating``.  Each
returns both sides so a counterexample is observable rather than masked.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DenominatorPoleError, InvalidInputError, PoleInParamsError
from .hypseries import HypSeries, evaluate_terminating, truncation_index
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    binomial,
    check_index,
    factorial,
    pochhammer,
    pochhammer_list,
    rational_to_str,
)

#: Finite-support coefficient sequence: mapping from nonnegative index to a
#: rational value; absent indices mean 0.
CoeffSeq = Mapping[int, Fraction]


def coeff_seq(data: Mapping[int, RationalLike]) -> dict[int, Fraction]:
    """Normalize a finite-support sequence: coerce values, drop zeros."""
    out = {}
    for index, value in data.items():
        check_index(index, "sequence index")
        v = as_rational(value)
        if v:
            out[index] = v
    return out


def delta_seq(index: int, value: RationalLike = 1) -> dict[int, Fraction]:
    """The sequence supported on a single index."""
    return coeff_seq({index: value})


def coeff_seq_to_json(seq: CoeffSeq) -> dict:
    return {str(i): rational_to_str(v) for i, v in sorted(coeff_seq(seq).items())}


def coeff_seq_from_json(data: Mapping[str, str]) -> dict[int, Fraction]:
    try:
        seq = {int(i): v for i, v in data.items()}
    except (AttributeError, TypeError, ValueError):
        raise InvalidInputError(f"malformed coefficient sequence JSON {data!r}") from None
    return coeff_seq(seq)


def _max_support(seq: CoeffSeq) -> int:
    """Largest index with a nonzero value, or -1 for the all-zero sequence."""
    indices = [i for i, v in seq.items() if v]
    return max(indices) if indices else -1


@dataclass(frozen=True)
class ExpansionParams:
    """Free parameters gamma, mu, theta of the m!-weighted bilinear expansion
    (the plain one takes its c as an argument).  Pole freedom over the
    touched index ranges is checked lazily."""

    gamma: Fraction = Fraction(1)
    mu: Fraction = Fraction(1)
    theta: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("gamma", "mu", "theta"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))


def bilinear_lhs(
    a: CoeffSeq,
    b: CoeffSeq,
    z: RationalLike,
    w: RationalLike,
    with_factorial: bool,
) -> Fraction:
    """Direct side of the bilinear identities: sum of a_m b_m (zw)^m, divided
    by m! when with_factorial is set."""
    a, b = coeff_seq(a), coeff_seq(b)
    z, w = as_rational(z), as_rational(w)
    zw = z * w
    total = Fraction(0)
    for m in sorted(a.keys() & b.keys()):
        term = a[m] * b[m] * zw**m
        if with_factorial:
            term /= factorial(m)
        total += term
    return total


def fields_ismail_32_rhs(
    a: CoeffSeq,
    b: CoeffSeq,
    c: RationalLike,
    z: RationalLike,
    w: RationalLike,
) -> Fraction:
    """Rearranged side of the plain bilinear identity (no m! weight).

    Requires (c)_k nonzero wherever a_k is nonzero; zero terms never touch
    their divisors, so only genuinely used poles raise.
    """
    a, b = coeff_seq(a), coeff_seq(b)
    c, z, w = as_rational(c), as_rational(z), as_rational(w)
    n_max = _max_support(b)
    total = Fraction(0)
    for n in range(n_max + 1):
        inner = Fraction(0)
        for k in range(n + 1):
            ak = a.get(k)
            if not ak:
                continue
            ck = pochhammer(c, k)
            if ck == 0:
                raise PoleInParamsError(f"(c)_{k} = 0 for c = {rational_to_str(c)}")
            inner += pochhammer(Fraction(-n), k) / ck * ak * w**k
        if inner == 0:
            continue
        middle = Fraction(0)
        for j in range(n_max - n + 1):
            bnj = b.get(n + j)
            if bnj:
                middle += pochhammer(n + c, j) / factorial(j) * bnj * z**j
        total += pochhammer(c, n) * (-z) ** n / factorial(n) * middle * inner
    return total


def fields_ismail_13_rhs(
    a: CoeffSeq,
    b: CoeffSeq,
    ep: ExpansionParams,
    z: RationalLike,
    w: RationalLike,
) -> Fraction:
    """Rearranged side of the m!-weighted bilinear identity.

    Divides by (g+n)_n, (g+2n+1)_r, (mu)_s and (th)_s only for terms whose
    sequence entries are nonzero; a vanishing divisor that is actually
    touched raises PoleInParams.
    """
    a, b = coeff_seq(a), coeff_seq(b)
    z, w = as_rational(z), as_rational(w)
    g, mu, th = ep.gamma, ep.mu, ep.theta
    n_max = _max_support(b)
    total = Fraction(0)
    for n in range(n_max + 1):
        inner = Fraction(0)
        for s in range(n + 1):
            a_s = a.get(s)
            if not a_s:
                continue
            div = factorial(s) * pochhammer(mu, s) * pochhammer(th, s)
            if div == 0:
                raise PoleInParamsError(
                    f"(mu)_{s} (theta)_{s} = 0 for mu = {rational_to_str(mu)}, "
                    f"theta = {rational_to_str(th)}"
                )
            inner += (
                pochhammer(Fraction(-n), s) * pochhammer(n + g, s) / div * a_s * w**s
            )
        if inner == 0:
            continue
        middle = Fraction(0)
        for r in range(n_max - n + 1):
            b_nr = b.get(n + r)
            if not b_nr:
                continue
            div = factorial(r) * pochhammer(g + 2 * n + 1, r)
            if div == 0:
                raise PoleInParamsError(
                    f"(gamma+2n+1)_{r} = 0 for gamma = {rational_to_str(g)}, n = {n}"
                )
            middle += pochhammer(mu, n + r) * pochhammer(th, n + r) / div * b_nr * z**r
        if middle == 0:
            continue
        div = factorial(n) * pochhammer(g + n, n)
        if div == 0:
            raise PoleInParamsError(
                f"(gamma+n)_{n} = 0 for gamma = {rational_to_str(g)}"
            )
        total += (-z) ** n / div * middle * inner
    return total


def _shift(params: Sequence[Fraction], k: int) -> tuple[Fraction, ...]:
    return tuple(p + k for p in params)


def fields_wimp_terminating(
    n: int,
    a_list: Iterable[RationalLike],
    b_list: Iterable[RationalLike],
    c_list: Iterable[RationalLike],
    d_list: Iterable[RationalLike],
    alpha_list: Iterable[RationalLike],
    beta_list: Iterable[RationalLike],
    z: RationalLike,
    w: RationalLike,
) -> tuple[Fraction, Fraction]:
    """Product-argument expansion keyed by the -n numerator parameter.

    Left side: F(-n, [a], [c]; [b], [d]; zw).  Right side: sum over k <= n of
    C(n,k) [a]_k [al]_k z^k / ([b]_k [be]_k) times F(k-n, [k+a], [k+al];
    [k+b], [k+be]; z) times F(-k, [c], [be]; [d], [al]; w).  The free lists
    [al], [be] may be anything pole-free; both sides are returned.
    """
    check_index(n, "n")
    a, b, c, d, al, be = map(as_rationals, (a_list, b_list, c_list, d_list, alpha_list, beta_list))
    z, w = as_rational(z), as_rational(w)

    lhs = evaluate_terminating(HypSeries((Fraction(-n),) + a + c, b + d, z * w))
    rhs = Fraction(0)
    for k in range(n + 1):
        div = pochhammer_list(b, k) * pochhammer_list(be, k)
        if div == 0:
            raise PoleInParamsError(f"[b]_{k} [beta]_{k} = 0")
        weight = binomial(n, k) * pochhammer_list(a, k) * pochhammer_list(al, k) * z**k / div
        f1 = evaluate_terminating(
            HypSeries((Fraction(k - n),) + _shift(a, k) + _shift(al, k), _shift(b, k) + _shift(be, k), z)
        )
        f2 = evaluate_terminating(HypSeries((Fraction(-k),) + c + be, d + al, w))
        rhs += weight * f1 * f2
    return lhs, rhs


def fields_wimp_luke_terminating(
    a_list: Iterable[RationalLike],
    b_list: Iterable[RationalLike],
    c_list: Iterable[RationalLike],
    d_list: Iterable[RationalLike],
    c: RationalLike,
    z: RationalLike,
    w: RationalLike,
) -> tuple[Fraction, Fraction]:
    """Product-argument expansion made finite by a nonpositive integer in [a].

    Left side: F([a], [c_r]; [b], [d]; zw).  Right side: sum over n of
    [a]_n (c)_n (-z)^n / ([b]_n n!) times F(n+c, [n+a]; [n+b]; z) times
    F(-n, [c_r]; c, [d]; w).  The extra first parameter of the middle series
    is the scalar n+c (the undefined slot in the source display, validated by
    tests).  Both sides are returned.
    """
    a, b, cr, d = map(as_rationals, (a_list, b_list, c_list, d_list))
    c = as_rational(c)
    z, w = as_rational(z), as_rational(w)

    n_max = truncation_index(a)
    lhs = evaluate_terminating(HypSeries(a + cr, b + d, z * w))
    rhs = Fraction(0)
    for n in range(n_max + 1):
        div = pochhammer_list(b, n) * factorial(n)
        if div == 0:
            raise DenominatorPoleError(f"[b]_{n} = 0")
        weight = pochhammer_list(a, n) * pochhammer(c, n) * (-z) ** n / div
        f1 = evaluate_terminating(HypSeries((n + c,) + _shift(a, n), _shift(b, n), z))
        f2 = evaluate_terminating(HypSeries((Fraction(-n),) + cr, (c,) + d, w))
        rhs += weight * f1 * f2
    return lhs, rhs


def hermite_bm_sequence(p: int, with_index_factorial: bool = False) -> dict[int, Fraction]:
    """The even-support sequence whose bilinear sum rebuilds the degree-2p
    Hermite polynomial:

        b_m = (-1)^((2p-m)/2) 2^m (2p)! / ((2p-m)/2)!   for m in {2p, 2p-2, ..., 0}

    paired with a_m = 1/m! in the plain bilinear form.  With
    with_index_factorial an extra m! divides each value, the variant paired
    with a_m = m! in the weighted form.
    """
    check_index(p, "p")
    out = {}
    for k in range(p + 1):
        m = 2 * p - 2 * k
        value = Fraction((-1) ** k * 2**m) * factorial(2 * p) / factorial(k)
        if with_index_factorial:
            value /= factorial(m)
        out[m] = value
    return out


def hermite_in_laguerre_via_bilinear(p: int) -> tuple[Fraction, ...]:
    """Laguerre expansion coefficients of the degree-2p Hermite polynomial,
    obtained by regrouping the plain bilinear expansion by its outer index.

    With a_k = 1/k! and c = 1 the inner k-sum is the degree-n Laguerre
    polynomial, so the coefficient of Laguerre member n collapses to
    (-1)^n sum_j (n+1)_j / j! * b_{n+j} over the sequence's support.  Must
    agree with the brute-force oracle on hermite(2p).
    """
    b = hermite_bm_sequence(p)
    coeffs = []
    for n in range(2 * p + 1):
        acc = Fraction(0)
        for j in range(2 * p - n + 1):
            bnj = b.get(n + j)
            if bnj:
                acc += pochhammer(Fraction(n + 1), j) / factorial(j) * bnj
        coeffs.append(Fraction((-1) ** n) * acc)
    return tuple(coeffs)
