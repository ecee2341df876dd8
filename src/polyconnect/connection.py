"""Connection coefficients between polynomial bases, closed form and oracle.

The connection problem asks for the coefficients c_nk expanding a degree-n
member of one graded polynomial family in another family:

    P_n(x) = sum_{k=0}^{n} c_nk Q_k(x).

Four directed pairs have closed-form coefficients here, in five
``THEOREMS`` records, each tagged with a formula identifier (Thm3.1, Thm3.2,
Thm3.3-interpreted, Thm3.3-corrected, Thm3.4).  Every closed form is
shadowed by two exact conversions that use no closed form:

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

Every row c_{n,0..n} has one format, ``Row``: integers R over one denominator
d > 0, with c_{n,k} = R[k] / d.  A THEOREMS record holds a theorem's literal
coefficient entry(n, jp, k), a public coeff_* function, and its fast row;
Theorem.row(n, jp) returns the Row.  The fast Thm3.1, Thm3.2 and Thm3.4 rows
come from integer recurrences in k (of order 3, 3 and 4) run backward from
k = n in O(n) steps, over 2^n n!, 1 and q^n 2^n n!;
tests/test_row_recurrences.py proves them.  Both fast Thm3.3 rows come from
one O(n^2) integer pass, the 4F2 of every entry over one denominator
(_hermite_in_jacobi_row).  Where a member can fail to be built (_regular
false), Theorem.row checks a Jacobi source member's degree and lifts the
entries instead.  The coeff_* functions keep the literal series: a coefficient
is an integer prefactor times a terminating series whose parameters are
integer pairs (p, q) for p/q, not reduced, and hypseries.sum_pairs returns
its value as an unreduced pair (a, b).  A ConnectionResult holds its row,
renders it straight to strings (rationals.ratio_str) and builds Fractions
from it only where its coefficients are read, afresh on each read.

``verify_theorem`` compares each closed-form row with its table row in
integers, R_i e == S_i d.  Equal rows match with a zero residual, and verify
builds no member and no ConnectionResult for them (a Jacobi source member
is built only for degenerate parameters, to check its degree).  Only a row
that differs runs ``connection_oracle`` on the source member, which must
agree with the table, and then ``ConnectionResult.reconstruct`` for the
exact residual, so a "fail" verdict rests on two independent methods
wherever the recurrence built the row (a degenerate row already is the
oracle's).  The CLI's ``table --method oracle|both`` reads the table too;
``connect`` and ``connection_oracle`` convert one degree.  The oracle and
reconstruction work on integer rows (Poly.integer_form, the one form every
Poly holds); the oracle's result is a row too.  Every call converts
afresh: a process serving repeated CLI requests keeps their responses
instead (cli.run).

The Thm3.3 coefficient formula is a repaired reading of a typographically
defective display (its expansion sum is restored over m = 0..n).  It is
validated by hand only for n <= 1; oracle sweeps show it fails from n = 2
on, so its report, not the closed form, is authoritative there.  The same
formula with its 4F2 argument -1/4 instead of 1/4 agrees with the oracle
(Thm3.3-corrected, theorem id "3.3c"; see coeff_hermite_in_shifted_jacobi).
"""

import math
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
    as_rationals,
    check_index,
    check_instance,
    lift,
    ratio_str,
    rational_to_str,
    rising,
    shown,
)
from .records import Frozen, Record

#: A connection row c_{n,0..n} in the one row format: integers R over one
#: denominator d > 0, with c_{n,k} = R[k] / d.
Row = tuple[Sequence[int], int]


def _jacobi_recurrence(k: int, jp: JacobiParams) -> tuple[int, int, int, int]:
    """(a, b, c, d) with d y P_k(y) = a P_{k+1} + b P_k + c P_{k-1} for the
    standard Jacobi polynomials P_k = P_k^(alpha,beta), in integers.

    With l = alpha + beta + 1 and s = 2k + l, DLMF 18.9.2 reads

        (s-1)s(s+1) y P_k = 2(k+1)(k+l)(s-1) P_{k+1} + s(beta^2-alpha^2) P_k
                            + 2(k+alpha)(k+beta)(s+1) P_{k-1}.

    At k = 0 it is (s-1)s times (l+1) y P_0 = 2 P_1 + (beta-alpha) P_0, which
    is returned instead, never all zero.  a, b, lam and s below hold q times
    alpha, beta, l and s, with q the common denominator of alpha and beta
    (jp.abq).
    """
    a, b, q = jp.abq
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


class BasisId(Frozen):
    """Tagged identifier of a graded polynomial family: a FAMILIES name, with
    JacobiParams exactly for the JACOBI_FAMILIES."""

    _fields = ("family", "params")
    __slots__ = _fields

    def __init__(self, family: str, params: Optional[JacobiParams] = None):
        if not isinstance(family, str) or family not in FAMILIES:
            raise InvalidInputError(f"unknown basis family {shown(family)}")
        if family in JACOBI_FAMILIES:
            if params is None:
                raise InvalidInputError(f"{family} basis requires Jacobi parameters")
            check_instance(params, JacobiParams)
        elif params is not None:
            raise InvalidInputError(f"{family} basis takes no parameters")
        self._fill(family, params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family == other.family and self.params == other.params

    def __hash__(self):
        return hash((self.family, self.params))

    def to_json(self) -> dict:
        out = {"family": self.family}
        if self.params is not None:
            a, b, q = self.params.abq
            out["alpha"], out["beta"] = ratio_str(a, q), ratio_str(b, q)
        return out


MONOMIAL = BasisId("monomial")
HERMITE = BasisId("hermite")
LAGUERRE = BasisId("laguerre")


def basis(family: str, jp: Optional[JacobiParams]) -> BasisId:
    """The basis of a family, with jp attached only if the family takes it."""
    return BasisId(family, jp if family in JACOBI_FAMILIES else None)


def basis_poly(basis: BasisId, k: int) -> Poly:
    """The degree-k member of a basis family; it must have degree exactly k."""
    member = FAMILIES[check_instance(basis, BasisId).family].member
    return _graded(member(k, basis.params), basis.family, k)


def _graded(member: Poly, family: str, k: int) -> Poly:
    """member, the degree-k member of family, if it has degree exactly k."""
    if len(member.integer_form[0]) != k + 1:
        raise InvalidInputError(f"{family} family is not graded at degree {k}")
    return member


class ConnectionResult(Frozen):
    """Coefficient list expanding a degree-n source member in a target family.

    coefficients[k] multiplies the target's degree-k member; provenance names
    the closed form used, or "Oracle" for the brute-force conversion.  The
    constructor checks source, target, degree and provenance and coerces the
    coefficients (rationals.as_rationals).  As in Poly, the one form held
    is the Row (R, d): the constructor lifts the coefficients into it once,
    and to_json, to_csv_rows and reconstruct read it.  coefficients builds
    the Fraction tuple from the row on each read.  The row is outside the
    fields: equality, hash, repr and pickling read coefficients.
    """

    _fields = ("source", "target", "degree", "coefficients", "provenance")
    __slots__ = ("source", "target", "degree", "_row", "provenance")

    def __init__(
        self,
        source: BasisId,
        target: BasisId,
        degree: int,
        coefficients: tuple[Fraction, ...],
        provenance: str,
    ):
        check_instance(source, BasisId)
        check_instance(target, BasisId)
        check_index(degree, "degree")
        check_instance(provenance, str)
        self._fill(source, target, degree, lift(as_rationals(coefficients)), provenance)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        nums, den = self._row
        return tuple(Fraction(r, den) for r in nums)

    def _strings(self) -> list[str]:
        """The coefficients' wire strings, rendered from the row."""
        nums, den = self._row
        return [ratio_str(r, den) for r in nums]

    def reconstruct(self) -> Poly:
        """Sum of coefficients[k] * target member k.

        The coefficients are the row c_k = C_k / d.  With member k in integer
        form M_k / e_k and E the lcm of the e_k, the term c_k M_k / e_k is the
        integer vector M_k times C_k (E / e_k), over d E.  So the sum is one
        integer vector over d E, reduced by one gcd into the row of the Poly
        returned.  The target's member function is looked up once.
        """
        nums, den = self._row
        family, params = self.target.family, self.target.params
        member = FAMILIES[family].member
        members = [
            _graded(member(k, params), family, k).integer_form if c else ((), 1)
            for k, c in enumerate(nums)
        ]
        common = math.lcm(*(e for _, e in members))
        total = [0] * len(members)
        for c, (member, e) in zip(nums, members):
            scale = c * (common // e)
            for i, m in enumerate(member):
                total[i] += scale * m
        return Poly._from_row(total, den * common)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "degree": self.degree,
            "coefficients": self._strings(),
            "provenance": self.provenance,
        }

    def to_csv_rows(self) -> list[tuple]:
        """Rows for the "n,k,coefficient,provenance" table."""
        return [(self.degree, k, text, self.provenance) for k, text in enumerate(self._strings())]


def _result(source: BasisId, target: BasisId, n: int, row: Row, provenance: str):
    """The ConnectionResult of a degree-n row (R, d), d > 0, reduced or not,
    held as it is: born without the constructor's checks and coercion."""
    return ConnectionResult.__new__(ConnectionResult)._fill(source, target, n, row, provenance)


def _first_difference(row: Row, other: Row) -> Optional[int]:
    """The first index at which two integer rows (R, d) and (S, e) of one
    degree differ, or None: R_i (e/g) != S_i (d/g) for g = gcd(d, e), where
    one side's multiplier is often 1."""
    (num, d), (other_num, e) = row, other
    g = math.gcd(d, e)
    d, e = d // g, e // g
    return next((i for i, (r, s) in enumerate(zip(num, other_num)) if r * e != s * d), None)


def connection_oracle(p: Poly, target: BasisId) -> ConnectionResult:
    """Brute-force basis conversion by fraction-free triangular back-substitution.

    The residual is an integer vector R over one common denominator d, so
    p = R/d at the start.  Working down from degree(p), with the target's
    degree-k member in integer form M = m/e, the coefficient is
    c_k = R[k] e / (d m[k]).  The update R/d - c_k M stays in integers (after
    Bareiss, Math. Comp. 22, 1968), with g = gcd(m[k], R[k]) the one scalar
    reduction per step:

        R <- (m[k]/g) R - (R[k]/g) m,    d <- (m[k]/g) d.

    So d is the starting denominator times the product of the m[k]/g, and the
    residual grows with it; there is no gcd over the whole vector.  Members
    whose leading numerator is +-1 (laguerre, monomial) never grow d; hermite
    grows it by at most 2^k per step.  The final residual is exactly zero by
    construction, and checked to be.  The result is a Row: with d_k the d
    after step k, c_k = (R[k]/g) e / d_k, and the final d_0 is d_k times the
    m[j]/g of the later steps j < k, so c_k is (R[k]/g) e (d_0/d_k) over |d_0|.
    Every target member of degree <= degree(p) is built and checked, in that
    order, through one lookup of the target's member function.
    """
    check_instance(p, Poly)
    family, params = check_instance(target, BasisId).family, target.params
    member = FAMILIES[family].member
    degree = 0 if p.is_zero else p.degree
    residual, den = p.integer_form
    residual = residual or (0,)
    coefficients, leads = [0] * (degree + 1), [1] * (degree + 1)
    for k in range(degree, -1, -1):
        m, e = _graded(member(k, params), family, k).integer_form
        top = residual[k]
        if not top:
            continue
        lead = m[k]
        g = math.gcd(lead, top)
        lead, top = lead // g, top // g
        coefficients[k], leads[k] = top * e, lead
        residual = [r * lead - top * mi for r, mi in zip(residual, m)]
        den *= lead
    if any(residual):
        raise PolyConnectError("oracle back-substitution left a nonzero residual")
    scale = -1 if den < 0 else 1  # d_0 / d_k, signed, for k = 0, 1, ...
    for k, lead in enumerate(leads):
        coefficients[k] *= scale
        scale *= lead
    return _result(MONOMIAL, target, degree, (coefficients, abs(den)), PROVENANCE_ORACLE)


def _oracle_connection(source: BasisId, target: BasisId, n: int) -> ConnectionResult:
    """connection_oracle(basis_poly(source, n), target), labelled with source:
    the oracle conversion of one degree that connect serves."""
    oracle = connection_oracle(basis_poly(source, n), target)
    return _result(source, target, n, oracle._row, oracle.provenance)


def _regular(jp: JacobiParams) -> bool:
    """Whether none of alpha, beta and lam is a negative integer, decided on
    the triple: with jp.abq = (a, b, q) they are a/q, b/q and (a + b + q)/q."""
    a, b, q = jp.abq
    return not any(v < 0 and v % q == 0 for v in (a, b, a + b + q))


def _always_graded(*bases: BasisId) -> bool:
    """Whether every member of each basis exists and has full degree: true
    for the families without parameters, and for the Jacobi families with
    _regular parameters.  Only otherwise can a member's series meet a pole,
    its leading coefficient (k + lam)_k / k! vanish, or a recurrence's a or
    d vanish (see Family)."""
    return all(b.params is None or _regular(b.params) for b in bases)


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
    check_instance(source, BasisId)
    check_instance(target, BasisId)
    return (
        row if isinstance(row, PolyConnectError)
        else _result(source, target, n, row, PROVENANCE_ORACLE)
        for n, row in enumerate(_table_rows(source, target, n_max))
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
                row = connection_oracle(basis_poly(source, n), target)._row
            except PolyConnectError as exc:
                row = exc
            yield row
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
    """The parameters D(r, p/q) = [p/q/r, (p/q+1)/r, ..., (p/q+r-1)/r] as
    (numerator, denominator) pairs, as sum_pairs reads them: (p + j q, r q),
    in lowest terms or not."""
    return [(p + j * q, r * q) for j in range(r)]


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

    with b = jp.beta and l = jp.lam.  With b + 1 = bp/bq and l = lp/lq (both
    over q of jp.abq), the ratio (b+1)_n / (b+1)_j is the integer product of
    bp + i bq over j <= i < n, over bq^(n-j), and (n+l)_j is the product of
    n lq + lp + i lq over lq^j.
    """
    _check_pair(n, j, "n", "j")
    a, b, q = check_instance(jp, JacobiParams).abq
    lp, lq, bp, bq = a + b + q, q, b + q, q
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


def _alpha_lam(jp: JacobiParams) -> tuple[int, int, int, int]:
    """(ap, aq, lp, lq) with alpha = ap/aq and lam = lp/lq in lowest terms,
    read from jp.abq: the Thm3.3 integers grow with aq and lq."""
    a, b, q = jp.abq
    g, h = math.gcd(a, q), math.gcd(a + b + q, q)
    return a // g, q // g, (a + b + q) // h, q // h


def coeff_hermite_in_shifted_jacobi(
    n: int, jp: JacobiParams, m: int, argument_sign: int = 1
) -> Fraction:
    """Closed form for the Hermite expansion in Jacobi-at-1-x members:

        (-n)_m 4^n (2m+l) (a+1)_n / ((a+1)_m (l+m)_{n+1})
        * 4F2(D(2, m-n), D(2, -l-n-m); D(2, -a-n); argument_sign / 4)

    with a = jp.alpha, l = jp.lam and D(2, x) = [x/2, (x+1)/2].  The target member is
    jacobi_at_one_minus_x(m, jp).  With a + 1 = ap/aq and l = lp/lq
    (_alpha_lam), the prefactor is (-1)^m n!/(n-m)! 4^n (2m lq + lp) lq^n
    times the product of ap + i aq over m <= i < n, over aq^(n-m) times the
    product of lp + (m + i) lq over 0 <= i <= n.

    argument_sign = 1 gives the interpreted display, Thm3.3-interpreted:
    it holds only for n <= 1, and verify_theorem("3.3", ...) reports where
    it disagrees with the oracle.  argument_sign = -1 gives Thm3.3-corrected,
    which agrees with the oracle, derived as follows.  H_n(x) =
    sum_j n! (-1)^j (2x)^(n-2j) / (j! (n-2j)!), and with y = 1 - x the power
    x^s = 2^s ((1-y)/2)^s has the single-term expansion

        x^s = sum_m 2^s (a+1)_s (-s)_m (2m+l) (l)_m / ((a+1)_m (l)_{s+m+1})
                    P_m^(a,b)(y).

    Summing over j with s = n - 2j, the term ratio in j is

        -(1/4) (j+(m-n)/2)(j+(m-n+1)/2)(j+(-l-n-m)/2)(j+(1-l-n-m)/2)
        / ((j+1)(j+(-a-n)/2)(j+(1-a-n)/2)),

    the interpreted 4F2 at -1/4; the prefactor is the j = 0 term.
    """
    _check_pair(n, m, "n", "m")
    if type(argument_sign) is not int or argument_sign not in (1, -1):
        raise InvalidInputError(f"argument_sign must be 1 or -1, got {shown(argument_sign)}")
    ap, aq, lp, lq = _alpha_lam(check_instance(jp, JacobiParams))
    a, b = sum_pairs(
        _delta_pairs(2, m - n, 1) + _delta_pairs(2, -lp - (n + m) * lq, lq),
        _delta_pairs(2, -ap - n * aq, aq),
        argument_sign,
        4,
    )
    ap += aq
    if m:
        lead, rise = 2 * m * lq + lp, rising(lp + m * lq, lq, 0, n + 1)
    else:  # (2m+l)/(l+m)_{n+1} is l/(l)_{n+1} = 1/(l+1)_n, also at l = 0
        lead, rise = 1, rising(lp + lq, lq, 0, n)
    _check_prefactor_denominator(rising(ap, aq, 0, m) * rise)
    num = (-1) ** m * math.perm(n, m) * lead * lq**n * rising(ap, aq, m, n)
    den = aq ** (n - m) * rise
    return Fraction((num << 2 * n) * a, den * b)


def _hermite_in_jacobi_row(n: int, jp: JacobiParams, argument_sign: int) -> Row:
    """The Thm3.3 row c_{n,0..n} (coeff_hermite_in_shifted_jacobi at
    argument_sign s) in one integer pass, O(n^2) small-integer steps.

    With [x/2]_j [(x+1)/2]_j = (x)_{2j} / 4^j, the 4F2's term j is

        (m-n)_{2j} (-l-n-m)_{2j} / ((-a-n)_{2j} j!) (s/16)^j,

    and its denominator does not depend on m.  With a = ap/aq, l = lp/lq
    (_alpha_lam) and v_j = 16^j lq^(2j) aq^(2j) (-a-n)_{2j} j!, the 4F2 is
    S_m / Q for Q = v_J, J = floor(n/2), and the integer
    S_m = sum_j (s aq^2)^j N_j (v_J / v_j),
    with N_j = lq^(2j) (m-n)_{2j} (-l-n-m)_{2j}, by Horner in j.  The
    prefactor's integer denominator aq^(n-m) prod_{k=m..m+n} (lp + k lq)
    divides aq^n prod_{k=1..2n} (lp + k lq) for m >= 1, as does that of its
    m = 0 limit 1/(l+1)_n.  So the row is over d = aq^n Q prod_{k=1..2n}
    (lp + k lq), its sign made positive.  No factor vanishes for _regular
    parameters, where this equals the entry-by-entry form; Theorem.row takes
    the others entry by entry.
    """
    ap, aq, lp, lq = _alpha_lam(jp)
    ratio = [1] * (n // 2 + 1)  # ratio[j] = v_J / v_j
    for j in range(n // 2 - 1, -1, -1):
        i = n - 2 * j
        ratio[j] = ratio[j + 1] * 16 * lq * lq * (j + 1) * (ap + i * aq) * (ap + (i - 1) * aq)
    f = [lp + k * lq for k in range(2 * n + 1)]
    back = [1] * (n + 1)  # back[m] = prod_{m<i<=n} (ap + i aq) f_{n+i}
    for m in range(n - 1, -1, -1):
        back[m] = back[m + 1] * (ap + (m + 1) * aq) * f[n + m + 1]
    step, row, front = argument_sign * aq * aq, [], lq**n << 2 * n
    for m in range(n + 1):  # front = (-1)^m n!/(n-m)! aq^m prod_{0<k<m} f_k 4^n lq^n
        top = (n - m) // 2
        total = ratio[top]
        for j in range(top - 1, -1, -1):  # N_{j+1} / N_j = v (v+1) u (u-lq)
            u, v = lp + (n + m - 2 * j) * lq, m - n + 2 * j
            total = ratio[j] + step * v * (v + 1) * u * (u - lq) * total
        row.append(front * (f[2 * m] if m else 1) * back[m] * total)
        front *= (m - n) * aq * (f[m] if m else 1)
    den = aq**n * ratio[0] * math.prod(f[1:])
    return (row, den) if den > 0 else ([-r for r in row], -den)


def _laguerre_in_hermite_row(n: int) -> Row:
    """The Thm3.1 row c_{n,0..n} (coeff_laguerre_in_hermite) by a recurrence
    in k, O(n) integer steps instead of an O(n)-term series per entry.

    c_{n,k} is the sum over j of t(n,k,j) = (-1)^k n! / (2^k k! (n-k-2j)!
    (k+2j)! j! 4^j).  Zeilberger's algorithm (Petkovsek, Wilf, Zeilberger,
    A = B, 1996, ch. 6) gives

        (n-k)/4 c_k + (k+1)^2/2 c_{k+1} - (k+1)(k+2)/2 c_{k+2}
            + (k+1)(k+2)(k+3) c_{k+3} = 0,

    with c_k = 0 for k > n, certified by G(j) = -(n+1) j t(n,k,j) / (2(k+2j+1))
    (tests/test_row_recurrences.py checks the certificate).  With
    c_k = (-1)^k N_k / (2^n k! (n-k)!) it is the integer recurrence

        N_k = 2(k+1) N_{k+1} + 2(n-k-1) N_{k+2} + 4(n-k-1)(n-k-2) N_{k+3},

    run backward from N_n = 1 (c_{n,n} = (-1)^n / (2^n n!)); the leading
    coefficient (n-k)/4 never vanishes for k < n.
    """
    big = [0] * (n + 4)
    big[n] = 1
    for k in range(n - 1, -1, -1):
        r = n - k - 1
        big[k] = 2 * (k + 1) * big[k + 1] + 2 * r * big[k + 2] + 4 * r * (r - 1) * big[k + 3]
    return [(-1) ** k * math.comb(n, k) * big[k] for k in range(n + 1)], math.factorial(n) << n


def _hermite_in_laguerre_row(n: int) -> Row:
    """The Thm3.2 row c_{n,0..n} (coeff_hermite_in_laguerre) by a recurrence
    in k, O(n) integer steps instead of an O(n)-term series per entry.

    c_{n,k} is the sum over j of t(n,k,j) = (-1)^(k+j) 2^(n-2j) n! (n-2j)! /
    (k! (n-k-2j)! j!).  Zeilberger's algorithm gives

        (n-k) c_k + (3k+3-2n) c_{k+1} + (2n-11-6k)/2 c_{k+2} + (k+3) c_{k+3} = 0,

    with c_k = 0 for k > n, certified by G(j) = -2j (n-2j+1)(n-2j+2)
    t(n,k,j) / ((k+1)(k+2)).  With c_k = (-1)^n 2^k n! N_k / (n-k)! it is the
    integer recurrence

        N_k = -[2(3k+3-2n) N_{k+1} + 2(2n-11-6k)(n-k-1) N_{k+2}
                + 8(k+3)(n-k-1)(n-k-2) N_{k+3}],

    run backward from N_n = 1 (c_{n,n} = (-1)^n 2^n n!).  Every entry is an
    integer.
    """
    big = [0] * (n + 4)
    big[n] = 1
    for k in range(n - 1, -1, -1):
        r = n - k - 1
        big[k] = -(
            2 * (3 * k + 3 - 2 * n) * big[k + 1]
            + 2 * (2 * n - 11 - 6 * k) * r * big[k + 2]
            + 8 * (k + 3) * r * (r - 1) * big[k + 3]
        )
    sign = -1 if n % 2 else 1
    return [sign * math.perm(n, k) * big[k] << k for k in range(n + 1)], 1


def _shifted_jacobi_in_hermite_row(n: int, jp: JacobiParams) -> Row:
    """The Thm3.4 row c_{n,0..n} (coeff_shifted_jacobi_in_hermite) by a
    recurrence in j, O(n) integer steps instead of an O(n)-term series per
    entry.

    With b = beta, l = lam and F(m) = (-n)_m (n+l)_m / ((b+1)_m 2^m), the
    expansion x^m = m!/2^m sum_i H_{m-2i} / (i! (m-2i)!) gives c_{n,j} =
    K G(j) / j! with G(j) = sum_i F(j+2i) / i! and K = (-1)^n (b+1)_n / n!.
    F obeys 2(m+b+1) F(m+1) = (m-n)(m+n+l) F(m); summed against 1/i! it
    becomes, for 0 <= j < n and with G(j) = 0 for j > n,

        (j-n)(j+n+l) G(j) = 2(j+b+1) G(j+1) - 2(2j+l+2) G(j+2)
                            + 4 G(j+3) - 4 G(j+4),

    of order 4 (tests/test_row_recurrences.py checks it term by term).  With
    b = B/q and l = L/q over one denominator q, e_i = (i-n)((i+n)q + L) and
    P_j = e_j ... e_{n-1}, G(j) = G(n) N_j / P_j for the integers

        N_j = 2((j+1)q+B) N_{j+1} - e_{j+1} [2((2j+2)q+L) N_{j+2}
              - 4q e_{j+2} (N_{j+3} - e_{j+3} N_{j+4})],

    run backward from N_n = 1.  K G(n) = (n+l)_n / 2^n, and P_j is
    (-1)^(n-j) (n-j)! q^(n-j) (n+j+l)_{n-j}, so

        c_{n,j} = (-1)^(n-j) C(n, j) q^j (n+l)_j N_j / (q^n 2^n n!).

    e_j vanishes for some j < n only where lam is a negative integer, and
    F's denominator (b+1)_m only where beta is; Theorem.row takes such
    parameters, and a negative integer alpha, entry by entry.
    """
    a, b, q = jp.abq
    lam = a + b + q
    e = [(i - n) * ((i + n) * q + lam) for i in range(n + 3)]
    big = [0] * (n + 5)
    big[n] = 1
    for j in range(n - 1, -1, -1):
        big[j] = 2 * ((j + 1) * q + b) * big[j + 1] - e[j + 1] * (
            2 * ((2 * j + 2) * q + lam) * big[j + 2]
            - 4 * q * e[j + 2] * (big[j + 3] - e[j + 3] * big[j + 4])
        )
    row, top = [], 1  # top = q^j (n+l)_j
    for j in range(n + 1):
        row.append((-1) ** (n - j) * math.comb(n, j) * top * big[j])
        top *= (n + j) * q + lam
    return row, math.factorial(n) * q**n << n


class Theorem(Frozen):
    """One closed form: source family -> target family, entry(n, jp, k) its
    literal coefficient c_{n,k} (a coeff_* call), fast(n, jp) the Row of
    c_{n,0..n} for _regular parameters or none, and the provenance tag of
    its results."""

    _fields = ("id", "source", "target", "entry", "fast", "provenance")
    __slots__ = _fields

    def __init__(
        self,
        id: str,
        source: str,
        target: str,
        entry: Callable[[int, Optional[JacobiParams], int], Fraction],
        fast: Callable[[int, Optional[JacobiParams]], Row],
        provenance: str,
    ):
        self._fill(id, source, target, entry, fast, provenance)

    @property
    def needs_params(self) -> bool:
        return self.source in JACOBI_FAMILIES or self.target in JACOBI_FAMILIES

    def row(self, n: int, jp: Optional[JacobiParams]) -> Row:
        """The Row of c_{n,0..n}: the fast row for _regular parameters or none.
        Otherwise a Jacobi source member is built first, to check that it has
        degree n, then the entries one by one, lifted over the lcm of their
        denominators; the first error raised is the row's."""
        if jp is None or _regular(jp):
            return self.fast(n, jp)
        if self.source in JACOBI_FAMILIES:
            basis_poly(BasisId(self.source, jp), n)
        return lift(self.entry(n, jp, k) for k in range(n + 1))


#: Theorem id -> record.  The lambdas only adapt each coeff_* and row
#: function to the entry(n, jp, k) and fast(n, jp) signatures.
THEOREMS = {
    t.id: t
    for t in (
        Theorem("3.1", "laguerre", "hermite", lambda n, jp, k: coeff_laguerre_in_hermite(n, k),
                lambda n, jp: _laguerre_in_hermite_row(n), "Thm3.1"),
        Theorem("3.2", "hermite", "laguerre", lambda n, jp, k: coeff_hermite_in_laguerre(n, k),
                lambda n, jp: _hermite_in_laguerre_row(n), "Thm3.2"),
        Theorem("3.3", "hermite", "jacobi-1mx",
                lambda n, jp, k: coeff_hermite_in_shifted_jacobi(n, jp, k, 1),
                lambda n, jp: _hermite_in_jacobi_row(n, jp, 1), "Thm3.3-interpreted"),
        Theorem("3.3c", "hermite", "jacobi-1mx",
                lambda n, jp, k: coeff_hermite_in_shifted_jacobi(n, jp, k, -1),
                lambda n, jp: _hermite_in_jacobi_row(n, jp, -1), "Thm3.3-corrected"),
        Theorem("3.4", "shifted-jacobi", "hermite",
                coeff_shifted_jacobi_in_hermite, _shifted_jacobi_in_hermite_row, "Thm3.4"),
    )
}


def _theorem(theorem: object) -> Theorem:
    """The THEOREMS record with this id; anything else is InvalidInputError."""
    record = THEOREMS.get(theorem) if isinstance(theorem, str) else None
    if record is None:
        raise InvalidInputError(f"unknown theorem id {shown(theorem)}")
    return record


def closed_form_connection(
    source: BasisId, target: BasisId, n: int, theorem: Optional[str] = None
) -> ConnectionResult:
    """Full closed-form coefficient list for one of the THEOREMS pairs: the
    record with id theorem, which must convert this pair, or by default the
    first record for the pair (so hermite -> jacobi-1mx is Thm3.3-interpreted
    unless "3.3c" is asked for).  Theorem.row builds the row, and takes
    degenerate parameters entry by entry."""
    check_index(n, "n")
    check_instance(source, BasisId)
    check_instance(target, BasisId)
    records = THEOREMS.values() if theorem is None else (_theorem(theorem),)
    for record in records:
        if (record.source, record.target) == (source.family, target.family):
            break
    else:
        pair = f"{source.family} -> {target.family}"
        raise UnsupportedPairError(f"no closed form for {pair}" if theorem is None else (
            f"theorem {theorem} converts {record.source} -> {record.target}, not {pair}"))
    row = record.row(n, source.params or target.params)
    return _result(source, target, n, row, record.provenance)


class VerificationEntry(Record):
    """One verified instance: residual of the closed-form reconstruction plus
    the first index (if any) where the closed form and the oracle disagree."""

    _fields = ("n", "match", "residual", "first_mismatch", "alpha", "beta", "error")
    __slots__ = _fields

    def __init__(
        self,
        n: int,
        match: bool,
        residual: Poly,
        first_mismatch: Optional[int] = None,
        alpha: Optional[Fraction] = None,
        beta: Optional[Fraction] = None,
        error: Optional[str] = None,
    ):
        self.n, self.match, self.residual = n, match, residual
        self.first_mismatch, self.alpha, self.beta, self.error = first_mismatch, alpha, beta, error

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


class VerificationReport(Record):
    """Sweep result for one formula, entries a new list unless given.

    The verdict is "fail" if some entry without an error did not reconstruct
    its source polynomial (a real mismatch); otherwise "error" if some entry
    could not be built (degenerate parameters); otherwise "pass".
    """

    _fields = ("theorem", "params", "entries")
    __slots__ = _fields

    def __init__(
        self,
        theorem: str,
        params: Optional[tuple[JacobiParams, ...]],
        entries: Optional[list[VerificationEntry]] = None,
    ):
        self.theorem, self.params = theorem, params
        self.entries = [] if entries is None else entries

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
    record = _theorem(theorem)
    check_index(n_max, "n_max")
    sets: tuple[Optional[JacobiParams], ...] = (None,)
    if record.needs_params:
        try:
            sets = tuple(param_sets if param_sets is not None else DEFAULT_JACOBI_SWEEP)
        except TypeError:
            raise InvalidInputError(
                f"param_sets must hold JacobiParams, got {shown(param_sets)}"
            ) from None
        if not sets:
            raise InvalidInputError(f"theorem {theorem} needs at least one Jacobi parameter set")
        for jp in sets:
            if not isinstance(jp, JacobiParams):
                raise InvalidInputError(f"param_sets must hold JacobiParams, got {shown(jp)}")
    elif param_sets is not None:
        raise InvalidInputError(f"theorem {theorem} takes no Jacobi parameters")
    report = VerificationReport(
        theorem=record.provenance.removeprefix("Thm"),
        params=sets if record.needs_params else None,
    )
    bases = [(jp, basis(record.source, jp), basis(record.target, jp)) for jp in sets]
    tables = [_table_rows(source, target, n_max) for _, source, target in bases]
    zero = Poly()  # immutable: every entry starts from this one residual
    for n in range(n_max + 1):
        for (jp, source, target), table in zip(bases, tables):
            entry = VerificationEntry(
                n=n,
                match=False,
                residual=zero,
                alpha=None if jp is None else jp.alpha,
                beta=None if jp is None else jp.beta,
            )
            try:
                # drawn first so the table keeps step with n, but a row's
                # error is raised only after the closed form's own errors
                row = next(table)
                closed = record.row(n, jp)
                if isinstance(row, PolyConnectError):
                    raise row
                first = _first_difference(closed, row)
                if first is None:
                    entry.match = True
                else:
                    result = _result(source, target, n, closed, record.provenance)
                    _check_mismatch(entry, result, row, first)
            except PolyConnectError as exc:
                entry.error = str(exc)
            report.entries.append(entry)
    return report


def _check_mismatch(
    entry: VerificationEntry, closed: ConnectionResult, row: Row, first_mismatch: int
) -> None:
    """Fill in an entry whose closed form differs from its table row, first
    at index first_mismatch.

    Where the recurrence built the row, the oracle converts the source member
    again, independently; the two must agree before the closed form is
    blamed.  A degenerate row already is the oracle's and is not converted
    again.  The residual is the closed form's reconstruction minus the
    source member.
    """
    source_poly = basis_poly(closed.source, entry.n)
    if _always_graded(closed.source, closed.target):
        oracle = connection_oracle(source_poly, closed.target)
        if _first_difference(oracle._row, row) is not None:
            raise PolyConnectError(
                f"connection table and oracle disagree at degree {entry.n}"
            )
    rebuilt = closed.reconstruct()
    entry.match = rebuilt == source_poly
    if not entry.match:
        entry.residual = rebuilt - source_poly
    entry.first_mismatch = first_mismatch
