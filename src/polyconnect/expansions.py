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

The second family, the Fields-Wimp expansion (Math. Comp. 15, 1961) of a
series of product argument zw into series in z times series in w, is summed
by one routine, _fields_wimp.  ``fields_wimp_terminating`` is made finite by
a -n numerator parameter; ``fields_wimp_luke_terminating`` is Luke's form,
Fields-Wimp with alpha = (c) and beta = (), made finite by a nonpositive
integer in [a].  Each returns both sides, so a counterexample shows.

Both bilinear sides and every right side are taken in integers and reduced
once, into the returned Fraction.  The bilinear ones lift a and b to one
denominator each (_lifted).  The left side adds a_m b_m (zw)^m, over m! when
weighted, across the common support; the right sides write each Pochhammer
factor as rationals.rising on its (p, q) pair and nest the inner and middle
sums backward over their term ratios (_nest).  Both Fields-Wimp sides take
their series from hypseries.sum_pairs, and each right-side term, weight and
both series, is one integer pair.  Terms are added over the lcm of their
denominators (_add), which grows with the support, never as the product of
every term's denominator.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DenominatorPoleError, InvalidInputError, PoleInParamsError, PolyConnectError
from .hypseries import sum_pairs, truncation_index
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    check_index,
    check_instance,
    factorial,
    lift,
    pochhammer_list,
    rational_to_str,
    rising,
    shown,
)
from .records import Frozen

#: Finite-support coefficient sequence: mapping from nonnegative index to a
#: rational value; absent indices mean 0.
CoeffSeq = Mapping[int, Fraction]
Params = tuple[Fraction, ...]


def coeff_seq(data: Mapping[int, RationalLike]) -> dict[int, Fraction]:
    """Normalize a finite-support sequence: coerce values, drop zeros.  A
    non-mapping raises InvalidInputError."""
    if not isinstance(data, Mapping):
        raise InvalidInputError(f"expected a mapping of index to rational, got {shown(data)}")
    out = {}
    for index, value in data.items():
        check_index(index, "sequence index")
        v = as_rational(value)
        if v:
            out[index] = v
    return out


def delta_seq(index: int, value: RationalLike = 1) -> dict[int, Fraction]:
    """The sequence supported on a single index."""
    return coeff_seq({check_index(index, "sequence index"): value})


def coeff_seq_to_json(seq: CoeffSeq) -> dict:
    return {rational_to_str(i): rational_to_str(v) for i, v in sorted(coeff_seq(seq).items())}


class ExpansionParams(Frozen):
    """Free parameters gamma, mu, theta of the m!-weighted bilinear expansion
    (the plain one takes its c as an argument).  Pole freedom over the
    touched index ranges is checked lazily."""

    _fields = ("gamma", "mu", "theta")
    __slots__ = _fields

    def __init__(
        self,
        gamma: RationalLike = Fraction(1),
        mu: RationalLike = Fraction(1),
        theta: RationalLike = Fraction(1),
    ):
        self._fill(as_rational(gamma), as_rational(mu), as_rational(theta))


def bilinear_lhs(
    a: CoeffSeq, b: CoeffSeq, z: RationalLike, w: RationalLike, with_factorial: bool
) -> Fraction:
    """Direct side of the bilinear identities: sum of a_m b_m (zw)^m, divided
    by m! when with_factorial is set."""
    (A, da), (B, db) = _lifted(a), _lifted(b)
    (zn, zd), (wn, wd) = (as_rational(v).as_integer_ratio() for v in (z, w))
    num, den = 0, 1
    for m in A.keys() & B.keys():
        weight = math.factorial(m) if with_factorial else 1
        num, den = _add(num, den, A[m] * B[m] * (zn * wn) ** m, (zd * wd) ** m * weight)
    return Fraction(num, den * da * db)


def _lifted(seq: Mapping[int, RationalLike]) -> tuple[dict[int, int], int]:
    """coeff_seq(seq) as integers over one denominator (rationals.lift)."""
    seq = coeff_seq(seq)
    ints, den = lift(seq.values())
    return dict(zip(seq, ints)), den


def _nest(
    coeffs: Sequence[int],
    ratios: Sequence[tuple[int, int]],
    pole: Optional[Callable[[int], str]] = None,
) -> tuple[int, int]:
    """(x, y) with x/y = c_0 + (u_0/v_0) (c_1 + (u_1/v_1) (c_2 + ...)) up to the
    last nonzero c_k, nested backward as in hypseries.sum_pairs; y is the product
    of the v_k used.  The first nonzero c_k past a zero v_i divides by it and
    raises PoleInParams(pole(k)); without pole, no v_i may vanish."""
    top = max((k for k, c in enumerate(coeffs) if c), default=0)
    vanish = pole and next((i for i in range(top) if not ratios[i][1]), None)
    if vanish is not None:
        raise PoleInParamsError(pole(next(k for k in range(vanish + 1, top + 1) if coeffs[k])))
    x, y = coeffs[top], 1
    for k in range(top - 1, -1, -1):
        u, v = ratios[k]
        x, y = coeffs[k] * y * v + u * x, y * v
    return x, y


def _add(num: int, den: int, t: int, d: int) -> tuple[int, int]:
    """num/den + t/d over the lcm of den and d, unreduced: the sum's
    denominator grows by what each term brings, not by its whole d."""
    g = math.gcd(den, d)
    return num * (d // g) + t * (den // g), den // g * d


def fields_ismail_32_rhs(
    a: CoeffSeq, b: CoeffSeq, c: RationalLike, z: RationalLike, w: RationalLike
) -> Fraction:
    """Rearranged side of the plain bilinear identity (no m! weight).

    Requires (c)_k nonzero wherever a_k is nonzero; zero terms never touch
    their divisors, so only genuinely used poles raise.
    """
    (A, da), (B, db) = _lifted(a), _lifted(b)
    (p, q), (zn, zd), (wn, wd) = (as_rational(v).as_integer_ratio() for v in (c, z, w))
    n_max = max(B, default=-1)
    num, den = 0, 1
    for n in range(n_max + 1):
        # sum_k (-n)_k / (c)_k a_k w^k
        x, y = _nest([A.get(k, 0) for k in range(n + 1)],
                     [((k - n) * q * wn, (p + k * q) * wd) for k in range(n)],
                     lambda k: f"(c)_{k} = 0 for c = {rational_to_str(c)}")
        if not x:
            continue
        # sum_j (n+c)_j / j! b_{n+j} z^j, over m = n + j
        mid, mid_den = _nest([B.get(m, 0) for m in range(n, n_max + 1)],
                             [((p + m * q) * zn, (m - n + 1) * q * zd) for m in range(n, n_max)])
        # times (c)_n (-z)^n / n!
        num, den = _add(num, den, rising(p, q, 0, n) * (-zn) ** n * mid * x,
                        (q * zd) ** n * math.factorial(n) * mid_den * y)
    return Fraction(num, den * da * db)


def fields_ismail_13_rhs(
    a: CoeffSeq, b: CoeffSeq, ep: ExpansionParams, z: RationalLike, w: RationalLike
) -> Fraction:
    """Rearranged side of the m!-weighted bilinear identity.

    Divides by (g+n)_n, (g+2n+1)_r, (mu)_s and (th)_s only for terms whose
    sequence entries are nonzero; a vanishing divisor that is actually
    touched raises PoleInParams.  (g+2n+1)_r is checked only where the inner
    sum is nonzero, (g+n)_n only where the middle one is too.
    """
    check_instance(ep, ExpansionParams)
    (A, da), (B, db) = _lifted(a), _lifted(b)
    (zn, zd), (wn, wd) = (as_rational(v).as_integer_ratio() for v in (z, w))
    (pg, qg), (pm, qm), (pt, qt) = (v.as_integer_ratio() for v in (ep.gamma, ep.mu, ep.theta))
    n_max = max(B, default=-1)
    num, den = 0, 1
    for n in range(n_max + 1):
        # sum_s (-n)_s (n+g)_s / (s! (mu)_s (th)_s) a_s w^s
        x, y = _nest([A.get(s, 0) for s in range(n + 1)],
                     [((s - n) * (pg + (n + s) * qg) * qm * qt * wn,
                       (s + 1) * (pm + s * qm) * (pt + s * qt) * qg * wd) for s in range(n)],
                     lambda s: f"(mu)_{s} (theta)_{s} = 0 for mu = {rational_to_str(ep.mu)}, "
                               f"theta = {rational_to_str(ep.theta)}")
        if not x:
            continue
        # (mu)_n (th)_n sum_r (mu+n)_r (th+n)_r / (r! (g+2n+1)_r) b_{n+r} z^r, over m = n + r
        mid, mid_den = _nest(
            [B.get(m, 0) for m in range(n, n_max + 1)],
            [((pm + m * qm) * (pt + m * qt) * qg * zn,
              (m - n + 1) * (pg + (n + m + 1) * qg) * qm * qt * zd) for m in range(n, n_max)],
            lambda r: f"(gamma+2n+1)_{r} = 0 for gamma = {rational_to_str(ep.gamma)}, n = {n}",
        )
        head = rising(pm, qm, 0, n) * rising(pt, qt, 0, n)
        if not (head and mid):
            continue
        rise = rising(pg, qg, n, 2 * n)
        if not rise:
            raise PoleInParamsError(f"(gamma+n)_{n} = 0 for gamma = {rational_to_str(ep.gamma)}")
        # times (-z)^n / (n! (g+n)_n)
        num, den = _add(num, den, (-zn * qg) ** n * head * mid * x,
                        (zd * qm * qt) ** n * math.factorial(n) * rise * mid_den * y)
    return Fraction(num, den * da * db)


def _pairs(params: Iterable[Union[int, Fraction]]) -> list[tuple[int, int]]:
    """The parameters as integer (p, q) pairs for sum_pairs."""
    return [v.as_integer_ratio() for v in params]


def _fields_wimp(
    top: int, P: Params, Q: Params, R: Params, S: Params,
    z: tuple[int, int], w: tuple[int, int], pole: Callable[[int], PolyConnectError],
) -> Fraction:
    """Right side of the Fields-Wimp expansion of F(A, C; B, D; zw) with
    P = A + al, Q = B + be, R = C + be and S = D + al, for any pole-free al
    and be: the sum over k <= top of [P]_k (-z)^k / ([Q]_k k!) times
    F(k+P; k+Q; z) F(-k, R; S; w), with z and w given as integer pairs
    (numerator, denominator > 0).  Raises pole(k) at the first k with
    [Q]_k = 0.  The weights [P]_k and [Q]_k come from pochhammer_list, where
    the benchmark's traced runs count them.  The parameters are taken as
    integer pairs once; at each k the weight's two products, (-z)^k, k! and
    both series values make one integer pair, added with _add."""
    (zn, zd), (wn, wd) = z, w
    Pp, Qp, Rp, Sp = map(_pairs, (P, Q, R, S))
    num, den = 0, 1
    for k in range(top + 1):
        div = pochhammer_list(Q, k)
        if div == 0:
            raise pole(k)
        rise = pochhammer_list(P, k)
        p1, q1 = sum_pairs([(p + k * q, q) for p, q in Pp], [(p + k * q, q) for p, q in Qp], zn, zd)
        p2, q2 = sum_pairs([(-k, 1)] + Rp, Sp, wn, wd)
        num, den = _add(num, den, rise.numerator * div.denominator * (-zn) ** k * p1 * p2,
                        rise.denominator * div.numerator * zd**k * math.factorial(k) * q1 * q2)
    return Fraction(num, den)


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
    z, w = (as_rational(v).as_integer_ratio() for v in (z, w))
    a = (Fraction(-n),) + a
    lhs = Fraction(*sum_pairs(_pairs(a + c), _pairs(b + d), z[0] * w[0], z[1] * w[1]))
    # C(n,k) z^k = (-n)_k (-z)^k / k!
    return lhs, _fields_wimp(n, a + al, b + be, c + be, d + al, z, w,
                             lambda k: PoleInParamsError(f"[b]_{k} [beta]_{k} = 0"))


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
    z, w = (as_rational(v).as_integer_ratio() for v in (z, w))
    top = truncation_index(a)
    lhs = Fraction(*sum_pairs(_pairs(a + cr), _pairs(b + d), z[0] * w[0], z[1] * w[1]))
    return lhs, _fields_wimp(top, (c,) + a, b, cr, (c,) + d, z, w,
                             lambda n: DenominatorPoleError(f"[b]_{n} = 0"))


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
    B, _ = _lifted(hermite_bm_sequence(p))
    coeffs = []
    for n in range(2 * p + 1):
        # the plain form's middle sum at c = z = 1, over m = n + j
        x, y = _nest([B.get(m, 0) for m in range(n, 2 * p + 1)],
                     [(m + 1, m - n + 1) for m in range(n, 2 * p)])
        coeffs.append(Fraction((-1) ** n * x, y))
    return tuple(coeffs)
