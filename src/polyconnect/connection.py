"""Connection coefficients between polynomial bases, closed form and oracle.

The connection problem asks for the coefficients c_nk expanding a degree-n
member of one graded polynomial family in another family:

    P_n(x) = sum_{k=0}^{n} c_nk Q_k(x).

Four directed pairs have closed-form coefficients here, one ``THEOREMS``
record each, tagged with a formula identifier (Thm3.1, Thm3.2,
Thm3.3-interpreted, Thm3.4).  Every closed form is shadowed by
``connection_oracle``, an independent brute-force conversion through the
monomial basis.  ``verify_theorem`` reconstructs the source polynomial from
each closed form, records exact residuals, and reports entrywise
disagreements with the oracle instead of silently preferring either side.

The certify path computes on integers and builds one Fraction per value it
returns.  A closed-form coefficient c_nk is an integer prefactor numerator
and denominator times a terminating 2F2 or 4F2 series.  Its parameters are
written as integer pairs (p, q), such as (k - n, 2) for (k - n)/2, and
hypseries.sum_pairs returns the series value as an unreduced integer pair
(a, b); the coefficient is Fraction(prefactor numerator * a, prefactor
denominator * b), one gcd in all.  The oracle and reconstruction work on the
members' integer forms (Poly.integer_form), which the cached family members
compute once per process.

The Thm3.3 coefficient formula is a repaired reading of a typographically
defective display (its expansion sum is restored over m = 0..n).  It is
validated by hand only for n <= 1; oracle sweeps show it fails from n = 2
on, so its report, not the closed form, is authoritative there.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

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
    rational_to_str,
)

#: Family name -> its degree-k member for Jacobi parameters jp (None for the
#: families without parameters).  The lambdas look each constructor up when
#: called, not when the table is built.
FAMILIES = {
    "hermite": lambda k, jp: hermite(k),
    "laguerre": lambda k, jp: laguerre(k),
    "shifted-jacobi": lambda k, jp: shifted_jacobi(k, jp),
    "jacobi-1mx": lambda k, jp: jacobi_at_one_minus_x(k, jp),
    "monomial": lambda k, jp: Poly.monomial(k),
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
    member = FAMILIES[basis.family](k, basis.params)
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

        Each term c_k M_k is an integer vector over the denominator of c_k
        times that of the member's integer form; the sum is one integer vector
        over the lcm of those denominators, reduced once per output coefficient.
        """
        total, den = [], 1
        for k, c in enumerate(self.coefficients):
            if c:
                member, member_den = basis_poly(self.target, k).integer_form
                num, term_den = c.as_integer_ratio()
                term_den *= member_den
                common = math.lcm(den, term_den)
                if common != den:
                    total = [t * (common // den) for t in total]
                    den = common
                total += [0] * (len(member) - len(total))
                scale = num * (common // term_den)
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


def _rising(p: int, q: int, start: int, stop: int) -> int:
    """prod(p + i*q for start <= i < stop): the integer numerator of
    (p/q + start)_(stop - start) over q**(stop - start)."""
    return math.prod(p + i * q for i in range(start, stop))


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
    _check_prefactor_denominator(_rising(bp, bq, 0, j))
    num = (-1) ** (n + j) * _rising(bp, bq, j, n) * _rising(n * lq + lp, lq, 0, j)
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
    rise = _rising(lp + m * lq, lq, 0, n + 1)
    _check_prefactor_denominator(_rising(ap, aq, 0, m) * rise)
    num = (-1) ** m * math.perm(n, m) * (2 * m * lq + lp) * lq**n * _rising(ap, aq, m, n)
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
    """Certify a closed-form connection against reconstruction and the oracle.

    For each degree n <= n_max (and each parameter set for the Jacobi
    formulas) the closed-form coefficients are used to rebuild the source
    polynomial; the entry records the exact residual and the first index at
    which the closed form disagrees with the oracle.  Construction errors are
    recorded per entry without aborting the sweep.  Entries are ordered by
    (n, parameter-set index).
    """
    record = THEOREMS.get(theorem)
    if record is None:
        raise InvalidInputError(f"unknown theorem id {theorem!r}")
    check_index(n_max, "n_max")
    sets: tuple[Optional[JacobiParams], ...] = (None,)
    if record.needs_params:
        sets = tuple(param_sets if param_sets is not None else DEFAULT_JACOBI_SWEEP)
    report = VerificationReport(
        theorem=record.provenance.removeprefix("Thm"),
        params=tuple(s for s in sets if s is not None) if record.needs_params else None,
    )
    for n in range(n_max + 1):
        for jp in sets:
            entry = VerificationEntry(
                n=n,
                match=False,
                residual=Poly(),
                alpha=None if jp is None else jp.alpha,
                beta=None if jp is None else jp.beta,
            )
            try:
                source, target = basis(record.source, jp), basis(record.target, jp)
                source_poly = basis_poly(source, n)
                closed = closed_form_connection(source, target, n)
                oracle = connection_oracle(source_poly, target)
                rebuilt = closed.reconstruct()
                entry.match = rebuilt == source_poly
                if not entry.match:
                    entry.residual = rebuilt - source_poly
                for k in range(n + 1):
                    if closed.coefficients[k] != oracle.coefficients[k]:
                        entry.first_mismatch = k
                        break
            except PolyConnectError as exc:
                entry.error = str(exc)
            report.entries.append(entry)
    return report
