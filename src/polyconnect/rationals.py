"""Exact rational scalars and the factorial-type primitives built on them.

Every scalar in this library is an arbitrary-precision ``fractions.Fraction``,
which is always kept in canonical form (positive denominator, fully reduced).
Nothing here ever rounds.  ratio_str is the one wire form of a rational, so
an integer row's entries reach stdout without a Fraction being built;
shown is the one form of a rejected value in an error message, and
past_limit that of a value past the int-to-string digit limit.
"""

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidInputError, PolyConnectError

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or rational string to an exact Fraction.

    Floats are rejected outright: admitting them would smuggle rounding into
    a library whose entire point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError(f"not an exact rational: {shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidInputError(f"not an exact rational: {shown(value)}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string "n" into a Fraction."""
    if not isinstance(text, str):
        raise InvalidInputError(f"expected a rational string, got {shown(text)}")
    match = _RATIONAL_RE.fullmatch(text.strip())
    try:
        if not match:
            raise ValueError
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError:  # also more digits than int() reads, sys.get_int_max_str_digits()
        raise InvalidInputError(f"malformed rational {text!r}: expected 'p/q' or 'n'") from None
    if q == 0:
        raise InvalidInputError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def ratio_str(num: int, den: int) -> str:
    """The wire form of num/den, den > 0, reduced by one gcd: bare "n" when
    den divides num, else "p/q"; str(Fraction(num, den)) without the Fraction.

    An integer longer than the interpreter's int-to-string digit limit
    (sys.get_int_max_str_digits) raises PolyConnectError, not str's
    ValueError: every big integer reaches the wire through here."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:
        raise PolyConnectError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, the "
            "interpreter's int-to-string limit; raise it with PYTHONINTMAXSTRDIGITS"
        ) from None


def rational_to_str(value: RationalLike) -> str:
    """Compact wire form: bare "n" when the denominator is 1, else "p/q"."""
    return ratio_str(*as_rational(value).as_integer_ratio())


def shown(value: object) -> str:
    """A rejected value as an error message shows it: its repr, or, where
    that repr passes the int-to-string digit limit and raises ValueError,
    past_limit(value)."""
    try:
        return repr(value)
    except ValueError:
        return past_limit(value)


def past_limit(value: object) -> str:
    """The text "<TYPE past the int-to-string digit limit>", with no memory
    address: how messages and reprs show a value str cannot render."""
    return f"<{type(value).__name__} past the int-to-string digit limit>"


def check_index(value: int, name: str) -> int:
    """Return value if it is a nonnegative int (bool excluded), else raise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidInputError(f"{name} must be a nonnegative integer, got {shown(value)}")
    return value


def check_instance(value: object, cls: type):
    """Return value if it is an instance of cls, else raise InvalidInputError."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"expected {cls.__name__}, got {shown(value)}")
    return value


def as_rationals(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Coerce each item with as_rational.  A string ("12" would read as
    [1, 2]) or a non-iterable raises InvalidInputError."""
    if isinstance(values, str):
        raise InvalidInputError(f"expected a sequence of rationals, got the string {values!r}")
    try:
        items = map(as_rational, values)
    except TypeError:
        raise InvalidInputError(f"expected a sequence of rationals, got {shown(values)}") from None
    return tuple(items)


def lift(values: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, den): the values as integers over den > 0, the lcm of their
    denominators, so values[i] == ints[i] / den.  ((), 1) for no values."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return tuple(n * (den // d) for n, d in ratios), den


def rising(p: int, q: int, start: int, stop: int) -> int:
    """prod(p + i*q for start <= i < stop), q > 0: the integer numerator of
    (p/q + start)_(stop - start) over q**(stop - start)."""
    return math.prod(range(p + start * q, p + stop * q, q))


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Rising factorial a*(a+1)*...*(a+n-1), with the empty product equal to 1.

    Computed literally, so a nonpositive integer ``a`` yields 0 once n
    passes -a (the gamma-ratio form is undefined there).  With a = p/q the
    product is the integer rising(p, q, 0, n) over q**n, reduced once.
    """
    check_index(n, "n")
    p, q = as_rational(a).as_integer_ratio()
    return Fraction(rising(p, q, 0, n), q**n)


def pochhammer_list(params: Iterable[RationalLike], k: int) -> Fraction:
    """Product of pochhammer(a, k) over a parameter list; 1 for the empty list.

    Every parameter is coerced first; pochhammer is then called once per
    parameter up to the first zero factor.  Each factor is read once, as its
    integer ratio, and the numerators and denominators are multiplied as
    integers and reduced once, into the returned Fraction."""
    check_index(k, "k")
    num = den = 1
    for a in as_rationals(params):
        p, q = pochhammer(a, k).as_integer_ratio()
        if not p:
            return Fraction(0)
        num, den = num * p, den * q
    return Fraction(num, den)


def factorial(n: int) -> Fraction:
    check_index(n, "n")
    return Fraction(math.factorial(n))

