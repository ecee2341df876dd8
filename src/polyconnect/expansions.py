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

Each public call checks its inputs once, then works in integers and reduces
once, into the Fraction it returns.  The bilinear sides lift a and b to one
denominator each in the one checking pass of a sequence (_lifted, shared by
coeff_seq).  The left side adds a_m b_m (zw)^m, over m! when weighted, across
the common support.  A right side runs n once over dense lists of the lifted
a and b, carrying its outer prefactor as a running product, and sums the
inner and middle series at each n by Horner's scheme backward over integer
term ratios made in the loop.  The Fields-Wimp sides take their parameters
as (p, q) pairs once and their series from hypseries.sum_pairs; each
right-side term is one integer pair.  Terms are added over the lcm of their
denominators (_add), never over their product.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import DenominatorPoleError, InvalidInputError, PoleInParamsError, PolyConnectError
from .hypseries import sum_pairs, truncation_index
from .rationals import (
    RationalLike,
    as_rational,
    as_rationals,
    check_index,
    check_instance,
    factorial,
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
    non-mapping raises InvalidInputError.  The check is _lifted's."""
    ints, den = _lifted(data)
    return {index: Fraction(v, den) for index, v in ints.items()}


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
    """(ints, den): seq's nonzero entries as integers over den, the lcm of
    their denominators.  The one check of a sequence, in one pass, raising
    InvalidInputError at the first bad entry or for a non-mapping."""
    if not isinstance(seq, Mapping):
        raise InvalidInputError(f"expected a mapping of index to rational, got {shown(seq)}")
    ratios, den = [], 1
    for index, value in seq.items():
        check_index(index, "sequence index")
        p, q = as_rational(value).as_integer_ratio()
        if p:
            ratios.append((index, p, q))
            if den % q:
                den = den // math.gcd(den, q) * q
    return {index: p * (den // q) for index, p, q in ratios}, den


def _add(num: int, den: int, t: int, d: int) -> tuple[int, int]:
    """num/den + t/d over the lcm of den and d, unreduced: the sum's
    denominator grows by what each term brings, not by its whole d."""
    g = math.gcd(den, d)
    return num * (d // g) + t * (den // g), den // g * d


def _plain_middle(B: list[int], n: int, p: int, q: int, zn: int, zd: int) -> tuple[int, int]:
    """(x, y) with x/y = sum_j (n+c)_j / j! b_{n+j} z^j, c = p/q and z = zn/zd,
    over m = n + j to the end of the dense list B (its last entry nonzero):
    Horner's scheme backward over the term ratios; y is their denominators'
    product, never 0."""
    x, y, qz = B[-1], 1, q * zd
    for m in range(len(B) - 2, n - 1, -1):
        v = (m - n + 1) * qz
        x, y = B[m] * y * v + (p + m * q) * zn * x, y * v
    return x, y


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
    A, B = [A.get(k, 0) for k in range(n_max + 1)], [B.get(m, 0) for m in range(n_max + 1)]
    # (c)_k = 0 for every k past cut: only at a nonpositive integer c
    cut, qw = -p if q == 1 and p <= 0 else n_max, q * wn
    num, den = 0, 1
    head, head_den = 1, 1  # (c)_n (-z)^n / n!
    for n in range(n_max + 1):
        if A[n] and n > cut:
            raise PoleInParamsError(f"(c)_{n} = 0 for c = {rational_to_str(c)}")
        if n <= cut:
            # sum_k (-n)_k / (c)_k a_k w^k
            x, y = A[n], 1
            for k in range(n - 1, -1, -1):
                v = (p + k * q) * wd
                x, y = A[k] * y * v + (k - n) * qw * x, y * v
            if x:
                mid, mid_den = _plain_middle(B, n, p, q, zn, zd)
                num, den = _add(num, den, head * mid * x, head_den * mid_den * y)
        head, head_den = head * (p + n * q) * -zn, head_den * (n + 1) * q * zd
    return Fraction(num, den * da * db)


def fields_ismail_13_rhs(
    a: CoeffSeq, b: CoeffSeq, ep: ExpansionParams, z: RationalLike, w: RationalLike
) -> Fraction:
    """Rearranged side of the m!-weighted bilinear identity.

    Divides by (g+n)_n, (g+2n+1)_r, (mu)_s and (th)_s only for terms whose
    sequence entries are nonzero; a vanishing divisor that is actually
    touched raises PoleInParams.  (g+2n+1)_r is checked only where the inner
    sum is nonzero.  No input reaches the (g+n)_n = 0 raise, kept so that no
    ZeroDivisionError escapes: g is then an integer in [1 - 2n, -n], and the
    inner sum at n is the one at j = -(n+g) < n, where (g+2j+1)_r = 0 raises.
    """
    check_instance(ep, ExpansionParams)
    (A, da), (B, db) = _lifted(a), _lifted(b)
    (zn, zd), (wn, wd) = (as_rational(v).as_integer_ratio() for v in (z, w))
    (pg, qg), (pm, qm), (pt, qt) = (v.as_integer_ratio() for v in (ep.gamma, ep.mu, ep.theta))
    n_max = max(B, default=-1)
    A, B = [A.get(s, 0) for s in range(n_max + 1)], [B.get(m, 0) for m in range(n_max + 1)]
    # (mu+s)(th+s) qm qt, and (mu)_s (th)_s = 0 for every s past cut
    mt = [(pm + s * qm) * (pt + s * qt) for s in range(n_max + 1)]
    cut = mt.index(0) if 0 in mt else n_max
    gw, gz, mtw, mtz = qg * wd, qg * zn, qm * qt * wn, qm * qt * zd
    num, den = 0, 1
    head, head_den = 1, 1  # (mu)_n (th)_n (-z)^n qg^n / n!; qg^n / rise = 1 / (g+n)_n
    for n in range(n_max + 1):
        if A[n] and n > cut:
            raise PoleInParamsError(f"(mu)_{n} (theta)_{n} = 0 for mu = {rational_to_str(ep.mu)}, "
                                    f"theta = {rational_to_str(ep.theta)}")
        # sum_s (-n)_s (n+g)_s / (s! (mu)_s (th)_s) a_s w^s, where a_s = 0 for cut < s <= n
        x, y = A[min(n, cut)], 1
        for s in range(min(n, cut) - 1, -1, -1):
            v = (s + 1) * mt[s] * gw
            x, y = A[s] * y * v + (s - n) * (pg + (n + s) * qg) * mtw * x, y * v
        # (g+2n+1)_r = 0 for r past -g-2n-1; b_{n_max} is nonzero
        if x and qg == 1 and n <= -pg - n - 1 < n_max:
            r = next(m for m in range(-pg - n, n_max + 1) if B[m]) - n
            raise PoleInParamsError(
                f"(gamma+2n+1)_{r} = 0 for gamma = {rational_to_str(ep.gamma)}, n = {n}")
        if x and n <= cut:
            # sum_r (mu+n)_r (th+n)_r / (r! (g+2n+1)_r) b_{n+r} z^r, over m = n + r
            mid, mid_den = B[-1], 1
            for m in range(n_max - 1, n - 1, -1):
                v = (m - n + 1) * (pg + (n + m + 1) * qg) * mtz
                mid, mid_den = B[m] * mid_den * v + mt[m] * gz * mid, mid_den * v
            if mid:
                rise = rising(pg, qg, n, 2 * n)
                if not rise:
                    raise PoleInParamsError(
                        f"(gamma+n)_{n} = 0 for gamma = {rational_to_str(ep.gamma)}")
                num, den = _add(num, den, head * mid * x, head_den * rise * mid_den * y)
        head, head_den = -head * gz * mt[n], head_den * (n + 1) * mtz
    return Fraction(num, den * da * db)


def _pairs(params: Iterable[Union[int, Fraction]]) -> list[tuple[int, int]]:
    """The parameters as integer (p, q) pairs for sum_pairs."""
    return [v.as_integer_ratio() for v in params]


def _fields_wimp(
    top: int, P: Params, Q: Params, pairs: tuple[list[tuple[int, int]], ...],
    z: tuple[int, int], w: tuple[int, int], pole: Callable[[int], PolyConnectError],
) -> Fraction:
    """Right side of the Fields-Wimp expansion of F(A, C; B, D; zw) with
    P = A + al, Q = B + be, R = C + be and S = D + al, for any pole-free al
    and be: the sum over k <= top of [P]_k (-z)^k / ([Q]_k k!) times
    F(k+P; k+Q; z) F(-k, R; S; w), given the (p, q) pairs of P, Q, R and S
    and z and w as integer pairs.  Raises pole(k) at the first k with
    [Q]_k = 0.  The weights [P]_k and [Q]_k come from pochhammer_list, where
    the benchmark's traced runs count them, each read once as an integer
    ratio; (-z)^k and zd^k k! are running products.  At each k they and both
    series values make one integer pair, added with _add."""
    (zn, zd), (wn, wd) = z, w
    Pp, Qp, Rp, Sp = pairs
    num, den, zk, zk_den = 0, 1, 1, 1  # zk / zk_den = (-z)^k / k!
    for k in range(top + 1):
        dn, dd = pochhammer_list(Q, k).as_integer_ratio()
        if not dn:
            raise pole(k)
        rn, rd = pochhammer_list(P, k).as_integer_ratio()
        p1, q1 = sum_pairs([(p + k * q, q) for p, q in Pp], [(p + k * q, q) for p, q in Qp], zn, zd)
        p2, q2 = sum_pairs([(-k, 1)] + Rp, Sp, wn, wd)
        num, den = _add(num, den, rn * dd * zk * p1 * p2, rd * dn * zk_den * q1 * q2)
        zk, zk_den = -zk * zn, zk_den * zd * (k + 1)
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
    z, w = as_rational(z).as_integer_ratio(), as_rational(w).as_integer_ratio()
    a = (Fraction(-n),) + a
    ap, bp, cp, dp, alp, bep = map(_pairs, (a, b, c, d, al, be))
    lhs = Fraction(*sum_pairs(ap + cp, bp + dp, z[0] * w[0], z[1] * w[1]))
    # C(n,k) z^k = (-n)_k (-z)^k / k!
    return lhs, _fields_wimp(n, a + al, b + be, (ap + alp, bp + bep, cp + bep, dp + alp), z, w,
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
    z, w = as_rational(z).as_integer_ratio(), as_rational(w).as_integer_ratio()
    top = truncation_index(a)
    ap, bp, crp, dp, cp = map(_pairs, (a, b, cr, d, (c,)))
    lhs = Fraction(*sum_pairs(ap + crp, bp + dp, z[0] * w[0], z[1] * w[1]))
    return lhs, _fields_wimp(top, (c,) + a, b, (cp + ap, bp, crp, cp + dp), z, w,
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
    B = [B.get(m, 0) for m in range(2 * p + 1)]
    # the plain form's middle sums at c = z = 1
    sums = [_plain_middle(B, n, 1, 1, 1, 1) for n in range(2 * p + 1)]
    return tuple(Fraction((-1) ** n * x, y) for n, (x, y) in enumerate(sums))
