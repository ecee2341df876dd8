"""Seeded randomized sweeps over the exact series identities.

Each sweep draws random instances from the documented sample pools, skips
draws that violate a precondition (non-terminating part, pole in range),
and keeps going until the requested number of valid cases has been checked.
Identical seeds give identical case sequences.  Entries record the exact
residual lhs - rhs, "0" for a match and otherwise its wire form
(rational_to_str), taken only then, and the drawn inputs as the draw
returned them, unrendered; a sweep passes only if every residual is zero.
"""

import random
from fractions import Fraction

from .errors import InvalidInputError, PolyConnectError
from .expansions import (
    bilinear_lhs,
    delta_seq,
    ExpansionParams,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
)
from .hypseries import HypSeries, evaluate_terminating, split_even_odd
from .rationals import check_index, rational_to_str, shown

_F = Fraction

_SPLIT_ARGS = (_F(0), _F(1, 2), _F(-1, 2), _F(1), _F(-1), _F(1, 4), _F(-1, 4))
_SPLIT_NUMERATORS = (
    _F(1), _F(2), _F(-2), _F(1, 2), _F(-1, 2), _F(5, 2), _F(-3, 2), _F(7, 3), _F(3),
)
_SPLIT_DENOMINATORS = (
    _F(1, 2), _F(1), _F(3, 2), _F(2), _F(3), _F(7, 3), _F(-1, 2), _F(-3, 2),
    _F(5, 2), _F(-1), _F(-2),
)

_SEQ_VALUES = (_F(1), _F(-1), _F(2), _F(-2), _F(1, 2), _F(-1, 2), _F(3), _F(1, 3), _F(5, 2))
_ZW_POOL = (_F(1), _F(-1), _F(1, 2), _F(-1, 2), _F(1, 4))
_C_POOL = (_F(1, 2), _F(1), _F(2), _F(7, 3))
_GMT_POOL = (_F(1), _F(2), _F(3), _F(1, 2), _F(3, 2), _F(5, 2), _F(7, 3))

_WIMP_NUM_POOL = (_F(1), _F(-1), _F(2), _F(1, 2), _F(-1, 2), _F(5, 2), _F(-2), _F(7, 3))
_WIMP_DEN_POOL = (_F(1, 2), _F(1), _F(3, 2), _F(2), _F(5, 2), _F(7, 3), _F(3))
_WIMP_ARG_POOL = (_F(1), _F(-1), _F(1, 2), _F(-1, 2), _F(1, 4), _F(-1, 4))


#: Draws allowed per requested case before a sweep gives up.
MAX_DRAWS_PER_CASE = 100


def _sweep(cases: int, seed: int, draw) -> list[dict]:
    """Entries for ``cases`` draws of ``draw(rng, index) -> (lhs, rhs, case)``
    from one seeded rng, skipping draws that raise PolyConnectError; raises
    PolyConnectError after cases * MAX_DRAWS_PER_CASE draws.  A residual is
    "0" when lhs == rhs and is taken as rational_to_str(lhs - rhs) only for a
    mismatch.  Each entry's case is the dict the draw returned, holding the
    drawn objects themselves (the first bilinear draws hold the dicts of
    _FIXED_SEQ_PAIRS): read them, never mutate them.  The seed must be an
    int of any sign, not a bool (random.Random would seed None from the OS)."""
    check_index(cases, "cases")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidInputError(f"seed must be an integer, got {shown(seed)}")
    rng = random.Random(seed)
    entries = []
    for _ in range(cases * MAX_DRAWS_PER_CASE):
        if len(entries) == cases:
            break
        try:
            lhs, rhs, case = draw(rng, len(entries))
        except PolyConnectError:
            continue
        match = lhs == rhs
        entries.append({
            "n": len(entries),
            "match": match,
            "residual": "0" if match else rational_to_str(lhs - rhs),
            "case": case,
        })
    if len(entries) < cases:
        raise PolyConnectError(
            f"sweep kept {len(entries)} of {cases} cases in {cases * MAX_DRAWS_PER_CASE} draws"
        )
    return entries


def _draw_even_odd_split(rng: random.Random, index: int):
    p = rng.randint(1, 3)
    q = rng.randint(0, 3)
    nums = [_F(-rng.randint(0, 4))] + [rng.choice(_SPLIT_NUMERATORS) for _ in range(p - 1)]
    rng.shuffle(nums)
    dens = [rng.choice(_SPLIT_DENOMINATORS) for _ in range(q)]
    series = HypSeries(tuple(nums), tuple(dens), rng.choice(_SPLIT_ARGS))
    lhs = evaluate_terminating(series)
    even, prefactor, odd = split_even_odd(series)
    rhs = evaluate_terminating(even)
    if prefactor and series.argument:
        en, ed = rhs.as_integer_ratio()
        on, od = evaluate_terminating(odd).as_integer_ratio()
        (pn, pd), (xn, xd) = prefactor.as_integer_ratio(), series.argument.as_integer_ratio()
        rhs = _F(en * pd * xd * od + pn * xn * on * ed, ed * pd * xd * od)
    return lhs, rhs, {"num": series.numerators, "den": series.denominators, "arg": series.argument}


def sweep_even_odd_split(cases: int = 200, seed: int = 0) -> list[dict]:
    """Terminating series vs the sum of its even/odd parts, exact equality."""
    return _sweep(cases, seed, _draw_even_odd_split)


def _random_seq(rng: random.Random) -> dict[int, Fraction]:
    support = [i for i in range(8) if rng.random() < 0.5]
    return {i: rng.choice(_SEQ_VALUES) for i in support}


#: Degenerate sequence pairs checked first by the bilinear sweeps; they
#: consume no draws from the rng.
_FIXED_SEQ_PAIRS = (
    ({}, {}), (delta_seq(0), delta_seq(0)), (delta_seq(1), delta_seq(1)),
    ({}, delta_seq(3)), (delta_seq(2), {}),
)


def _seq_pair(rng: random.Random, index: int):
    if index < len(_FIXED_SEQ_PAIRS):
        return _FIXED_SEQ_PAIRS[index]
    return _random_seq(rng), _random_seq(rng)


def _draw_bilinear_plain(rng: random.Random, index: int):
    a, b = _seq_pair(rng, index)
    z, w = rng.choice(_ZW_POOL), rng.choice(_ZW_POOL)
    c = rng.choice(_C_POOL)
    lhs = bilinear_lhs(a, b, z, w, with_factorial=False)
    rhs = fields_ismail_32_rhs(a, b, c, z, w)
    return lhs, rhs, {"a": a, "b": b, "c": c, "z": z, "w": w}


def sweep_bilinear_plain(cases: int = 200, seed: int = 0) -> list[dict]:
    """Plain bilinear sum vs its rearranged triple sum."""
    return _sweep(cases, seed, _draw_bilinear_plain)


def _draw_bilinear_weighted(rng: random.Random, index: int):
    a, b = _seq_pair(rng, index)
    z, w = rng.choice(_ZW_POOL), rng.choice(_ZW_POOL)
    ep = ExpansionParams(
        gamma=rng.choice(_GMT_POOL), mu=rng.choice(_GMT_POOL), theta=rng.choice(_GMT_POOL)
    )
    lhs = bilinear_lhs(a, b, z, w, with_factorial=True)
    rhs = fields_ismail_13_rhs(a, b, ep, z, w)
    return lhs, rhs, {"a": a, "b": b, "gamma": ep.gamma, "mu": ep.mu, "theta": ep.theta,
                      "z": z, "w": w}


def sweep_bilinear_weighted(cases: int = 200, seed: int = 0) -> list[dict]:
    """m!-weighted bilinear sum vs its rearranged triple sum."""
    return _sweep(cases, seed, _draw_bilinear_weighted)


def _random_list(rng: random.Random, pool, max_len: int = 2):
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def _draw_wimp_terminating(rng: random.Random, index: int):
    n = rng.randint(0, 4)
    a = _random_list(rng, _WIMP_NUM_POOL)
    c = _random_list(rng, _WIMP_NUM_POOL)
    b = _random_list(rng, _WIMP_DEN_POOL)
    d = _random_list(rng, _WIMP_DEN_POOL)
    al = _random_list(rng, _WIMP_DEN_POOL)
    be = _random_list(rng, _WIMP_DEN_POOL)
    z, w = rng.choice(_WIMP_ARG_POOL), rng.choice(_WIMP_ARG_POOL)
    lhs, rhs = fields_wimp_terminating(n, a, b, c, d, al, be, z, w)
    return lhs, rhs, {"n": n, "a": a, "b": b, "c": c, "d": d, "alpha": al, "beta": be,
                      "z": z, "w": w}


def sweep_wimp_terminating(cases: int = 200, seed: int = 0) -> list[dict]:
    """Terminating product-argument expansion, both sides exact."""
    return _sweep(cases, seed, _draw_wimp_terminating)


def _draw_luke_terminating(rng: random.Random, index: int):
    a = (_F(-rng.randint(0, 4)),) + _random_list(rng, _WIMP_NUM_POOL, 1)
    b = _random_list(rng, _WIMP_DEN_POOL, 1)
    cr = _random_list(rng, _WIMP_NUM_POOL, 1)
    d = _random_list(rng, _WIMP_DEN_POOL, 1)
    c = rng.choice(_WIMP_DEN_POOL)
    z, w = rng.choice(_WIMP_ARG_POOL), rng.choice(_WIMP_ARG_POOL)
    lhs, rhs = fields_wimp_luke_terminating(a, b, cr, d, c, z, w)
    return lhs, rhs, {"a": a, "b": b, "c_list": cr, "d": d, "c": c, "z": z, "w": w}


def sweep_luke_terminating(cases: int = 100, seed: int = 0) -> list[dict]:
    """Nonpositive-integer-keyed product-argument expansion, both sides exact."""
    return _sweep(cases, seed, _draw_luke_terminating)


#: Lemma id -> sweep callable, as exposed by the command-line verify command.
LEMMA_SWEEPS = {
    "2.1": lambda cases, seed: (
        sweep_bilinear_weighted(cases, seed) + sweep_bilinear_plain(cases, seed + 1)
    ),
    "2.2": lambda cases, seed: (
        sweep_wimp_terminating(cases, seed) + sweep_luke_terminating(max(cases // 2, 1), seed + 1)
    ),
    "2.3": sweep_even_odd_split,
}
