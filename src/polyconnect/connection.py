"""Connection coefficients between polynomial bases, closed form and oracle.

The connection problem asks for the coefficients c_nk expanding a degree-n
member of one graded polynomial family in another family:

    P_n(x) = sum_{k=0}^{n} c_nk Q_k(x).

Four directed pairs have closed-form coefficients here, one ``THEOREMS``
record each, tagged with a formula identifier (Thm3.1, Thm3.2,
Thm3.3-interpreted, Thm3.4).  Every closed form is shadowed by two exact
conversions that use no closed form:

* ``connection_oracle(p, target)``, the brute-force conversion of one
  polynomial through the monomial basis, O(n^2) per degree;
* ``connection_table(source, target, n_max)``, the rows of every degree at
  once for any pair of ``FAMILIES``, by the recurrence scheme of H. E.
  Salzer (Comm. ACM 16, 1973).  Each family entry carries its three-term
  recurrence d_k x p_k = a_k p_{k+1} + b_k p_k + c_k p_{k-1} as integers,
  polynomial in k and the Jacobi parameters' numerators, so row n+1 is an
  O(n) combination of rows n and n-1 and a whole table costs O(N^2)
  instead of O(N^3).  Rows are integer vectors over one denominator,
  reduced by one gcd per row.  When alpha, beta or alpha + beta + 1 is a
  negative integer (the only case in which a member can fail to be built
  or a_k or d_k vanish), every row is ``connection_oracle`` on its member
  instead, or the error that call raises.

``verify_theorem`` compares each closed-form row with its table row.  Equal
rows match with a zero residual, and verify builds no member for them
(``closed_form_connection`` still checks a Jacobi source member's degree).
Only a row that differs runs ``connection_oracle`` on the source member,
which must agree with the table, and then ``ConnectionResult.reconstruct``
for the exact residual, so a "fail" verdict rests on two independent
methods wherever the recurrence built the row (a degenerate row already is
the oracle's).  The CLI's ``table --method oracle|both`` reads the table
too; ``connect`` and ``connection_oracle`` convert one degree as before.

The certify path computes on integers and builds one Fraction per value it
returns.  A closed-form coefficient c_nk is an integer prefactor numerator
and denominator times a terminating 2F2 or 4F2 series.  Its parameters are
written as integer pairs (p, q), such as (k - n, 2) for (k - n)/2, and
hypseries.sum_pairs returns the series value as an unreduced integer pair
(a, b); the coefficient is Fraction(prefactor numerator * a, prefactor
denominator * b), one gcd in all.  The oracle and reconstruction work on the
members' integer forms (rationals.lift), which the cached family members
compute once per process; verify compares closed forms with the table's
integer rows by cross-multiplication.

The Thm3.3 coefficient formula is a repaired reading of a typographically
defective display (its expansion sum is restored over m = 0..n).  It is
validated by hand only for n <= 1; oracle sweeps show it fails from n = 2
on, so its report, not the closed form, is authoritative there.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import InvalidInputError, PolyConnectError, UnsupportedPairError
from .hypseries import sum_pairs
from .polybases import (
    JacobiParams,
    Poly,
    hermite,
    jacobi_at_one_minus_x,
    laguerre,
    shifted_jacobi,
)
from .rationals import (
    RationalLike,
    as_rational,
    check_index,
    lift,
    rational_to_str,
    rising,
)


def _jacobi_recurrence(k: int, jp: JacobiParams) -> tuple[int, int, int, int]:
    """(a, b, c, d) with d y P_k(y) = a P_{k+1} + b P_k + c P_{k-1} for the
    standard Jacobi polynomials P_k = P_k^(alpha,beta), in integers.

    With l = alpha + beta + 1 and s = 2k + l, DLMF 18.9.2 reads

        (s-1)s(s+1) y P_k = 2(k+1)(k+l)(s-1) P_{k+1} + s(beta^2-alpha^2) P_k
                            + 2(k+alpha)(k+beta)(s+1) P_{k-1}.

    At k = 0 it is (s-1)s times (l+1) y P_0 = 2 P_1 + (beta-alpha) P_0, which
    is returned instead, never all zero.  a, b, lam and s below hold q times
    alpha, beta, l and s, with q the common denominator of alpha and beta.
    """
    (a, b), q = lift((jp.alpha, jp.beta))
    lam = a + b + q
    if k == 0:
        return 2 * q, b - a, 0, lam + q
    s = 2 * k * q + lam
    return (
        2 * (k + 1) * (k * q + lam) * (s - q) * q,
        s * (b * b - a * a),
        2 * (k * q + a) * (k * q + b) * (s + q),
        (s - q) * s * (s + q),
    )


def _shifted_jacobi_recurrence(k: int, jp: JacobiParams) -> tuple[int, int, int, int]:
    """shifted_jacobi(k) is P_k(2x - 1), so y = 2x - 1."""
    a, b, c, d = _jacobi_recurrence(k, jp)
    return a, b + d, c, 2 * d


def _jacobi_at_one_minus_x_recurrence(k: int, jp: JacobiParams) -> tuple[int, int, int, int]:
    """jacobi_at_one_minus_x(k) is P_k(1 - x), so y = 1 - x."""
    a, b, c, d = _jacobi_recurrence(k, jp)
    return -a, d - b, -c, d


class Family(NamedTuple):
    """A graded polynomial family.

    member(k, jp) is its degree-k member for Jacobi parameters jp (None for
    the families without parameters).  recurrence(k, jp) is the integer
    quadruple (a, b, c, d) with

        d x p_k = a p_{k+1} + b p_k + c p_{k-1},

    an identity on every member that can be built, with no coefficient ever
    singular.  a or d vanishes only where lam is a negative integer (see
    _always_graded).
    """

    member: Callable[[int, Optional[JacobiParams]], Poly]
    recurrence: Callable[[int, Optional[JacobiParams]], tuple[int, int, int, int]]


#: Family name -> record.  The member lambdas look each constructor up when
#: called, not when the table is built.
FAMILIES = {
    "hermite": Family(lambda k, jp: hermite(k), lambda k, jp: (1, 0, 2 * k, 2)),
    "laguerre": Family(lambda k, jp: laguerre(k), lambda k, jp: (-k - 1, 2 * k + 1, -k, 1)),
    "shifted-jacobi": Family(lambda k, jp: shifted_jacobi(k, jp), _shifted_jacobi_recurrence),
    "jacobi-1mx": Family(
        lambda k, jp: jacobi_at_one_minus_x(k, jp), _jacobi_at_one_minus_x_recurrence
    ),
    "monomial": Family(lambda k, jp: Poly.monomial(k), lambda k, jp: (1, 0, 0, 1)),
}
JACOBI_FAMILIES = ("shifted-jacobi", "jacobi-1mx")

PROVENANCE_ORACLE = "Oracle"

#: Default (alpha, beta) sweep: symmetric, half-integer, integer-shift and
#: negative-alpha cases, all pole-free for the degrees in scope.
DEFAULT_JACOBI_SWEEP = (
    JacobiParams(Fraction(0), Fraction(0)),
    JacobiParams(Fraction(1, 2), Fraction(1, 2)),
    JacobiParams(Fraction(1), Fraction(2)),
    JacobiParams(Fraction(-1, 2), Fraction(1, 3)),
)


@dataclass(frozen=True)
class BasisId:
    """Tagged identifier of a graded polynomial family."""

    family: str
    params: Optional[JacobiParams] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown basis family {self.family!r}")
        if self.family in JACOBI_FAMILIES and self.params is None:
            raise InvalidInputError(f"{self.family} basis requires Jacobi parameters")
        if self.family not in JACOBI_FAMILIES and self.params is not None:
            raise InvalidInputError(f"{self.family} basis takes no parameters")

    def to_json(self) -> dict:
        out = {"family": self.family}
        if self.params is not None:
            out["alpha"] = rational_to_str(self.params.alpha)
            out["beta"] = rational_to_str(self.params.beta)
        return out


MONOMIAL = BasisId("monomial")
HERMITE = BasisId("hermite")
LAGUERRE = BasisId("laguerre")


def shifted_jacobi_basis(jp: JacobiParams) -> BasisId:
    return BasisId("shifted-jacobi", jp)


def jacobi_at_one_minus_x_basis(jp: JacobiParams) -> BasisId:
    return BasisId("jacobi-1mx", jp)


def basis(family: str, jp: Optional[JacobiParams]) -> BasisId:
    """The basis of a family, with jp attached only if the family takes it."""
    return BasisId(family, jp if family in JACOBI_FAMILIES else None)


def basis_poly(basis: BasisId, k: int) -> Poly:
    """The degree-k member of a basis family; it must have degree exactly k."""
    member = FAMILIES[basis.family].member(k, basis.params)
    if len(member.coefficients) != k + 1:
        raise InvalidInputError(f"{basis.family} family is not graded at degree {k}")
    return member


@dataclass(frozen=True)
class ConnectionResult:
    """Coefficient list expanding a degree-n source member in a target family.

    coefficients[k] multiplies the target's degree-k member; provenance names
    the closed form used, or "Oracle" for the brute-force conversion.
    """

    source: BasisId
    target: BasisId
    degree: int
    coefficients: tuple[Fraction, ...]
    provenance: str

    def reconstruct(self) -> Poly:
        """Sum of coefficients[k] * target member k.

        With member k in integer form M_k / e_k, the term c_k M_k / e_k is the
        integer vector M_k times the scalar c_k / e_k.  The scalars are lifted
        over one denominator d, so the sum is one integer vector over d,
        reduced once per output coefficient.
        """
        members = [
            basis_poly(self.target, k).integer_form if c else ((), 1)
            for k, c in enumerate(self.coefficients)
        ]
        scales, den = lift(Fraction(c, e) for c, (_, e) in zip(self.coefficients, members))
        total = [0] * len(members)
        for scale, (member, _) in zip(scales, members):
            for i, m in enumerate(member):
                total[i] += scale * m
        return Poly(Fraction(t, den) for t in total)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "degree": self.degree,
            "coefficients": [rational_to_str(c) for c in self.coefficients],
            "provenance": self.provenance,
        }

    def to_csv_rows(self) -> list[tuple]:
        """Rows for the "n,k,coefficient,provenance" table."""
        return [
            (self.degree, k, rational_to_str(c), self.provenance)
            for k, c in enumerate(self.coefficients)
        ]


def connection_oracle(p: Poly, target: BasisId) -> ConnectionResult:
    """Brute-force basis conversion by fraction-free triangular back-substitution.

    The residual is an integer vector R over one common denominator d, so
    p = R/d at the start.  Working down from degree(p), with the target's
    degree-k member in integer form M = m/e, the coefficient is
    c_k = R[k] e / (d m[k]), the one Fraction built per coefficient.  The
    update R/d - c_k M stays in integers (after Bareiss, Math. Comp. 22, 1968):

        R <- m[k] R - R[k] m,    d <- m[k] d,

    followed by one multi-argument gcd reduction of (d, R).  The final
    residual is exactly zero by construction, and checked to be.
    """
    degree = 0 if p.is_zero else p.degree
    residual, den = p.integer_form
    residual = residual or (0,)
    coefficients = [Fraction(0)] * (degree + 1)
    for k in range(degree, -1, -1):
        member = basis_poly(target, k)
        top = residual[k]
        if not top:
            continue
        m, e = member.integer_form
        lead = m[k]
        coefficients[k] = Fraction(top * e, den * lead)
        residual = [r * lead - top * mi for r, mi in zip(residual, m)]
        den *= lead
        g = math.gcd(den, *residual)
        residual = [r // g for r in residual]
        den //= g
    if any(residual):
        raise PolyConnectError("oracle back-substitution left a nonzero residual")
    return ConnectionResult(
        source=MONOMIAL,
        target=target,
        degree=degree,
        coefficients=tuple(coefficients),
        provenance=PROVENANCE_ORACLE,
    )


def _always_graded(*bases: BasisId) -> bool:
    """Whether every member of each basis exists and has full degree: true
    for the families without parameters, and for the Jacobi families unless
    alpha, beta or lam is a negative integer.  Only then can a member's
    series meet a pole, its leading coefficient (k + lam)_k / k! vanish, or
    a recurrence's a or d vanish (see Family)."""
    return not any(
        v < 0 and v.denominator == 1
        for b in bases
        if b.params is not None
        for v in (b.params.alpha, b.params.beta, b.params.lam)
    )


def connection_table(
    source: BasisId, target: BasisId, n_max: int
) -> Iterator[Union[ConnectionResult, PolyConnectError]]:
    """Connection rows of source degrees 0..n_max in the target family, built
    one after another from three-term recurrences (Salzer, Comm. ACM 16, 1973)
    unless the Jacobi parameters are degenerate (see _table_rows).

    Yields, for each degree n in order, the ConnectionResult that
    connection_oracle(basis_poly(source, n), target) returns (with this
    source and the "Oracle" provenance), or the PolyConnectError that call
    raises: the source member's error first, else that of the highest
    target member of degree <= n that cannot be built.  A degree's error
    does not end the table.  Rows are computed only as they are asked for.
    """
    check_index(n_max, "n_max")

    def results():
        for n, row in enumerate(_table_rows(source, target, n_max)):
            if isinstance(row, PolyConnectError):
                yield row
                continue
            num, den = row
            yield ConnectionResult(
                source=source,
                target=target,
                degree=n,
                coefficients=tuple(Fraction(r, den) for r in num),
                provenance=PROVENANCE_ORACLE,
            )

    return results()


def _row_equals(coefficients: Sequence[Fraction], row: tuple[Sequence[int], int]) -> bool:
    """Whether coefficients equal the integer row (R, d), entry for entry."""
    num, den = row
    return len(coefficients) == len(num) and all(
        c.numerator * den == r * c.denominator for c, r in zip(coefficients, num)
    )


def _table_rows(source: BasisId, target: BasisId, n_max: int):
    """The rows behind connection_table, each an integer vector R over one
    denominator d > 0 (the row is R/d), or the error of that degree.

    Where either family may have a member that cannot be built (see
    _always_graded), each row is connection_oracle(basis_poly(source, n),
    target) or the error that call raises.  Otherwise, with d x p_n =
    a p_{n+1} + b p_n + c p_{n-1} for the source and X the multiplication by
    x written in the target basis (an O(n) map, one triple per target
    member), row n+1 is

        (d X row_n - b row_n - c row_{n-1}) / a,

    so a table costs O(N^2) operations instead of the O(N^3) of converting
    every member.  Row 0 is [1]: every family's degree-0 member is 1.  In
    this branch every a != 0 and every d != 0: by DLMF 18.9.2 either needs
    lam to be a negative integer.
    """
    if not _always_graded(source, target):
        for n in range(n_max + 1):
            try:
                oracle = connection_oracle(basis_poly(source, n), target)
            except PolyConnectError as exc:
                yield exc
            else:
                yield lift(oracle.coefficients)
        return
    source_rec = FAMILIES[source.family].recurrence
    target_rec = FAMILIES[target.family].recurrence
    x_rec, x_den = [], 1  # X as integer triples over x_den
    row, prev = ([1], 1), ([], 1)
    yield row
    for n in range(1, n_max + 1):  # X reaches the target member of degree n - 1
        x_rec, x_den = _extend_x(x_rec, x_den, target_rec(n - 1, target.params))
        row, prev = _next_row(x_rec, x_den, source_rec(n - 1, source.params), row, prev), row
        yield row


def _extend_x(x_rec: list, x_den: int, quad: tuple[int, int, int, int]) -> tuple[list, int]:
    """Append the triple (a, b, c)/d of the target's quadruple to X =
    x_rec / x_den; the common denominator grows to the lcm, and the earlier
    triples are rescaled when it does."""
    a, b, c, d = quad
    common = math.lcm(x_den, d)
    if common != x_den:
        f = common // x_den
        x_rec = [tuple(t * f for t in triple) for triple in x_rec]
    f = common // d
    x_rec.append((a * f, b * f, c * f))
    return x_rec, common


def _next_row(x_rec, x_den, quad, row, prev):
    """Row n+1 = (d X row_n - b row_n - c row_{n-1}) / a in integers, for the
    source quadruple (a, b, c, d).

    With row_n = R/e, row_{n-1} = S/f, m = lcm(e, f) and X = X'/L, row n+1 is

        (d (m/e) X'R - L b (m/e) R - L c (m/f) S) / (L m a),

    reduced by one gcd.  The row denominators mostly divide one another, so
    the multipliers stay small.
    """
    (r_num, e), (s_num, f) = row, prev
    a, b, c, d = quad
    m = math.lcm(e, f)
    xr = [0] * (len(r_num) + 1)
    for j, r in enumerate(r_num):
        if r:
            up, diag, down = x_rec[j]
            xr[j + 1] += up * r
            xr[j] += diag * r
            if j:
                xr[j - 1] += down * r
    u, v, w = d * (m // e), x_den * b * (m // e), x_den * c * (m // f)
    num = [u * t for t in xr] if u != 1 else xr
    if v:
        for j, r in enumerate(r_num):
            num[j] -= v * r
    if w:
        for j, t in enumerate(s_num):
            num[j] -= w * t
    den = x_den * m * a
    if den < 0:
        den, num = -den, [-t for t in num]
    k = math.gcd(den, *num)
    return [t // k for t in num], den // k


def _delta_pairs(r: int, p: int, q: int) -> list[tuple[int, int]]:
    """delta_params(r, p/q) as (numerator, denominator) pairs, not reduced."""
    return [(p + j * q, r * q) for j in range(r)]


def delta_params(r: int, phi: RationalLike) -> tuple[Fraction, ...]:
    """The parameter list [phi/r, (phi+1)/r, ..., (phi+r-1)/r]."""
    if check_index(r, "r") < 1:
        raise InvalidInputError(f"r must be a positive integer, got {r!r}")
    return tuple(Fraction(*pq) for pq in _delta_pairs(r, *as_rational(phi).as_integer_ratio()))


def _check_pair(n: int, k: int, n_name: str, k_name: str) -> None:
    check_index(n, n_name)
    check_index(k, k_name)
    if k > n:
        raise InvalidInputError(f"{k_name} must not exceed {n_name}, got {k} > {n}")


def _check_prefactor_denominator(den: int) -> None:
    if den == 0:
        raise InvalidInputError(
            "degenerate Jacobi parameters: a prefactor denominator vanishes"
        )


def coeff_laguerre_in_hermite(n: int, k: int) -> Fraction:
    """Coefficient of the degree-k Hermite member in the Laguerre expansion:

        (-n)_k / (2^k k! k!) * 2F2((k-n)/2, (k+1-n)/2; (k+1)/2, (k+2)/2; 1/4).

    The 2F2 terminates because exactly one of (k-n)/2, (k+1-n)/2 is a
    nonpositive integer.  The prefactor is (-1)^k n!/(n-k)! over
    2^k k! k!, in integers.
    """
    _check_pair(n, k, "n", "k")
    a, b = sum_pairs(((k - n, 2), (k + 1 - n, 2)), ((k + 1, 2), (k + 2, 2)), 1, 4)
    num = (-1) ** k * math.perm(n, k) * a
    den = (math.factorial(k) ** 2 << k) * b
    return Fraction(num, den)


def coeff_hermite_in_laguerre(n: int, m: int) -> Fraction:
    """Coefficient of the degree-m Laguerre member in the Hermite expansion:

        n! 2^n * 2F2(-(n-m)/2, -(n-m-1)/2; -n/2, -(n-1)/2; -1/4) * (-n)_m / m!.

    The 2F2's integer denominator parameter pole sits strictly past the
    truncation index, which the evaluator's policy tolerates.  The prefactor
    is the integer (-1)^m 2^n n! C(n, m).
    """
    _check_pair(n, m, "n", "m")
    a, b = sum_pairs(((m - n, 2), (m + 1 - n, 2)), ((-n, 2), (1 - n, 2)), -1, 4)
    num = (-1) ** m * (math.factorial(n) * math.comb(n, m) << n) * a
    return Fraction(num, b)


def coeff_shifted_jacobi_in_hermite(n: int, jp: JacobiParams, j: int) -> Fraction:
    """Coefficient of the degree-j Hermite member in the shifted Jacobi expansion:

        (-1)^n (-1)^j (b+1)_n (n+l)_j / ((n-j)! 2^j j! (b+1)_j)
        * 4F2((j-n)/2, (j+1-n)/2, (j+n+l)/2, (j+n+l+1)/2; (j+b+1)/2, (j+b+2)/2; 1)

    with b = jp.beta and l = jp.lam.  With b + 1 = bp/bq and l = lp/lq, the
    ratio (b+1)_n / (b+1)_j is the integer product of bp + i bq over j <= i < n,
    over bq^(n-j), and (n+l)_j is the product of n lq + lp + i lq over lq^j.
    """
    _check_pair(n, j, "n", "j")
    lp, lq = jp.lam.as_integer_ratio()
    bp, bq = jp.beta.as_integer_ratio()
    bp += bq
    a, b = sum_pairs(
        _delta_pairs(2, j - n, 1) + _delta_pairs(2, (j + n) * lq + lp, lq),
        _delta_pairs(2, j * bq + bp, bq),
        1,
        1,
    )
    _check_prefactor_denominator(rising(bp, bq, 0, j))
    num = (-1) ** (n + j) * rising(bp, bq, j, n) * rising(n * lq + lp, lq, 0, j)
    den = bq ** (n - j) * lq**j * (math.factorial(n - j) * math.factorial(j) << j)
    return Fraction(num * a, den * b)


def coeff_hermite_in_shifted_jacobi(n: int, jp: JacobiParams, m: int) -> Fraction:
    """Interpreted closed form for the Hermite expansion in Jacobi-at-1-x members:

        (-n)_m 4^n (2m+l) (a+1)_n / ((a+1)_m (l+m)_{n+1})
        * 4F2(D(2, m-n), D(2, -l-n-m); D(2, -a-n); 1/4)

    with a = jp.alpha, l = jp.lam and D = delta_params.  The target member is
    jacobi_at_one_minus_x(m, jp).  Only validated against the oracle for
    n <= 1; verify_theorem("3.3", ...) reports where the two disagree.  With
    a + 1 = ap/aq and l = lp/lq, the prefactor is (-1)^m n!/(n-m)! 4^n
    (2m lq + lp) lq^n times the product of ap + i aq over m <= i < n, over
    aq^(n-m) times the product of lp + (m + i) lq over 0 <= i <= n.
    """
    _check_pair(n, m, "n", "m")
    lp, lq = jp.lam.as_integer_ratio()
    ap, aq = jp.alpha.as_integer_ratio()
    a, b = sum_pairs(
        _delta_pairs(2, m - n, 1) + _delta_pairs(2, -lp - (n + m) * lq, lq),
        _delta_pairs(2, -ap - n * aq, aq),
        1,
        4,
    )
    ap += aq
    rise = rising(lp + m * lq, lq, 0, n + 1)
    _check_prefactor_denominator(rising(ap, aq, 0, m) * rise)
    num = (-1) ** m * math.perm(n, m) * (2 * m * lq + lp) * lq**n * rising(ap, aq, m, n)
    den = aq ** (n - m) * rise
    return Fraction((num << 2 * n) * a, den * b)


@dataclass(frozen=True)
class Theorem:
    """One closed form: source family -> target family, coefficient(n, k, jp)
    of the degree-k target member, and the provenance tag of its results."""

    id: str
    source: str
    target: str
    coefficient: Callable[[int, int, Optional[JacobiParams]], Fraction]
    provenance: str

    @property
    def needs_params(self) -> bool:
        return self.source in JACOBI_FAMILIES or self.target in JACOBI_FAMILIES


#: Theorem id -> record.  The lambdas look each coefficient function up when
#: called, not when the table is built.
THEOREMS = {
    t.id: t
    for t in (
        Theorem("3.1", "laguerre", "hermite",
                lambda n, k, jp: coeff_laguerre_in_hermite(n, k), "Thm3.1"),
        Theorem("3.2", "hermite", "laguerre",
                lambda n, k, jp: coeff_hermite_in_laguerre(n, k), "Thm3.2"),
        Theorem("3.3", "hermite", "jacobi-1mx",
                lambda n, k, jp: coeff_hermite_in_shifted_jacobi(n, jp, k), "Thm3.3-interpreted"),
        Theorem("3.4", "shifted-jacobi", "hermite",
                lambda n, k, jp: coeff_shifted_jacobi_in_hermite(n, jp, k), "Thm3.4"),
    )
}


def closed_form_connection(source: BasisId, target: BasisId, n: int) -> ConnectionResult:
    """Full closed-form coefficient list for one of the THEOREMS pairs.

    A parameterised source family is checked to be graded at degree n; the
    families without parameters always are.
    """
    check_index(n, "n")
    for theorem in THEOREMS.values():
        if (theorem.source, theorem.target) == (source.family, target.family):
            break
    else:
        raise UnsupportedPairError(f"no closed form for {source.family} -> {target.family}")
    if source.params is not None:
        basis_poly(source, n)
    jp = source.params or target.params
    return ConnectionResult(
        source=source,
        target=target,
        degree=n,
        coefficients=tuple(theorem.coefficient(n, k, jp) for k in range(n + 1)),
        provenance=theorem.provenance,
    )


@dataclass
class VerificationEntry:
    """One verified instance: residual of the closed-form reconstruction plus
    the first index (if any) where the closed form and the oracle disagree."""

    n: int
    match: bool
    residual: Poly
    first_mismatch: Optional[int] = None
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    error: Optional[str] = None

    def to_json(self) -> dict:
        out = {"n": self.n}
        if self.alpha is not None:
            out["alpha"] = rational_to_str(self.alpha)
            out["beta"] = rational_to_str(self.beta)
        out["match"] = self.match
        out["first_mismatch"] = self.first_mismatch
        out["residual"] = self.residual.to_json()
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    """Sweep result for one formula.

    The verdict is "fail" if some entry without an error did not reconstruct
    its source polynomial (a real mismatch); otherwise "error" if some entry
    could not be built (degenerate parameters); otherwise "pass".
    """

    theorem: str
    params: Optional[tuple[JacobiParams, ...]]
    entries: list[VerificationEntry] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        failure = self.first_failure()
        if failure is None:
            return "pass"
        return "fail" if failure.error is None else "error"

    def first_failure(self) -> Optional[VerificationEntry]:
        """The entry behind the verdict: the first mismatch among the entries
        without an error, else the first entry with an error, else None."""
        for entry in self.entries:
            if entry.error is None and not entry.match:
                return entry
        return next((e for e in self.entries if e.error is not None), None)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": None
            if self.params is None
            else [
                {"alpha": rational_to_str(jp.alpha), "beta": rational_to_str(jp.beta)}
                for jp in self.params
            ],
            "entries": [e.to_json() for e in self.entries],
            "verdict": self.verdict,
        }


def verify_theorem(
    theorem: str,
    n_max: int,
    param_sets: Optional[Sequence[JacobiParams]] = None,
) -> VerificationReport:
    """Certify a closed-form connection against the connection table.

    For each degree n <= n_max (and each parameter set for the Jacobi
    formulas) the closed-form row is compared with row n of the connection
    table.  Equal rows match with a zero residual: the table row rebuilds the
    source member exactly, so the closed form does too.  Otherwise the entry
    records the exact residual of the closed form's reconstruction and the
    first index at which it disagrees with the table row, which
    connection_oracle must confirm first where the recurrence built it: a
    "fail" rests on two independent conversions except with degenerate
    parameters, where the row is the oracle's (see _table_rows).
    Construction errors are recorded per entry without aborting the sweep:
    the source member's, then the closed form's, then the table row's.
    Entries are ordered by (n, parameter-set index).  Empty param_sets, any
    for a theorem without Jacobi parameters, or any that are not a sequence
    of JacobiParams raise InvalidInputError.
    """
    record = THEOREMS.get(theorem)
    if record is None:
        raise InvalidInputError(f"unknown theorem id {theorem!r}")
    check_index(n_max, "n_max")
    sets: tuple[Optional[JacobiParams], ...] = (None,)
    if record.needs_params:
        try:
            sets = tuple(param_sets if param_sets is not None else DEFAULT_JACOBI_SWEEP)
        except TypeError:
            sets = (param_sets,)
        if not sets:
            raise InvalidInputError(f"theorem {theorem} needs at least one Jacobi parameter set")
        for jp in sets:
            if not isinstance(jp, JacobiParams):
                raise InvalidInputError(f"param_sets must hold JacobiParams, got {jp!r}")
    elif param_sets is not None:
        raise InvalidInputError(f"theorem {theorem} takes no Jacobi parameters")
    report = VerificationReport(
        theorem=record.provenance.removeprefix("Thm"),
        params=tuple(s for s in sets if s is not None) if record.needs_params else None,
    )
    tables = {}
    for n in range(n_max + 1):
        for i, jp in enumerate(sets):
            entry = VerificationEntry(
                n=n,
                match=False,
                residual=Poly(),
                alpha=None if jp is None else jp.alpha,
                beta=None if jp is None else jp.beta,
            )
            try:
                source, target = basis(record.source, jp), basis(record.target, jp)
                if i not in tables:
                    tables[i] = _table_rows(source, target, n_max)
                # drawn first so the table keeps step with n, but a row's
                # error is raised only after the closed form's own errors
                row = next(tables[i])
                closed = closed_form_connection(source, target, n)
                if isinstance(row, PolyConnectError):
                    raise row
                if _row_equals(closed.coefficients, row):
                    entry.match = True
                else:
                    _check_mismatch(entry, closed, row, source, target)
            except PolyConnectError as exc:
                entry.error = str(exc)
            report.entries.append(entry)
    return report


def _check_mismatch(
    entry: VerificationEntry,
    closed: ConnectionResult,
    row: tuple[Sequence[int], int],
    source: BasisId,
    target: BasisId,
) -> None:
    """Fill in an entry whose closed form differs from its table row.

    Where the recurrence built the row, the oracle converts the source member
    again, independently; the two must agree before the closed form is
    blamed.  A degenerate row already is the oracle's and is not converted
    again.  The residual is the closed form's reconstruction minus the
    source member.
    """
    source_poly = basis_poly(source, entry.n)
    if _always_graded(source, target):
        oracle = connection_oracle(source_poly, target)
        if not _row_equals(oracle.coefficients, row):
            raise PolyConnectError(
                f"connection table and oracle disagree at degree {entry.n}"
            )
    rebuilt = closed.reconstruct()
    entry.match = rebuilt == source_poly
    if not entry.match:
        entry.residual = rebuilt - source_poly
    num, den = row
    entry.first_mismatch = next(
        k for k, (c, r) in enumerate(zip(closed.coefficients, num)) if c != Fraction(r, den)
    )
