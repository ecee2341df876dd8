import hashlib
import json
from fractions import Fraction as F

import pytest

from polyconnect import (
    DenominatorPoleError,
    ExpansionParams,
    InvalidInputError,
    LAGUERRE,
    NonTerminatingError,
    PoleInParamsError,
    PolyConnectError,
    bilinear_lhs,
    coeff_seq,
    coeff_seq_to_json,
    connection_oracle,
    delta_seq,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    hermite,
    hermite_bm_sequence,
    hermite_in_laguerre_via_bilinear,
)
from polyconnect import sweeps
from polyconnect.sweeps import (
    sweep_bilinear_plain,
    sweep_bilinear_weighted,
    sweep_even_odd_split,
    sweep_luke_terminating,
    sweep_wimp_terminating,
)

D0 = delta_seq(0)
D1 = delta_seq(1)
D01 = coeff_seq({0: 1, 1: 1})


class TestBilinearLhs:
    def test_examples(self):
        assert bilinear_lhs(D0, D0, F(7, 3), F(-4), with_factorial=False) == 1
        assert bilinear_lhs(D01, D01, 1, 1, with_factorial=False) == 2
        assert bilinear_lhs(D1, D1, 1, 1, with_factorial=True) == 1

    def test_support_intersection(self):
        assert bilinear_lhs({0: F(5)}, {1: F(7)}, 1, 1, with_factorial=False) == 0


class TestPlainRearrangement:
    def test_examples(self):
        assert fields_ismail_32_rhs(D01, D01, 2, 1, 1) == 2
        assert fields_ismail_32_rhs(D0, D0, F(1, 2), F(-1), F(1, 4)) == 1
        assert fields_ismail_32_rhs(D1, D1, 3, 1, 1) == 1
        assert fields_ismail_32_rhs(D1, D1, 3, 1, 1) == bilinear_lhs(
            D1, D1, 1, 1, with_factorial=False
        )

    def test_pole_raised_only_when_touched(self):
        # (c)_2 = 0 for c = -1, and index 2 of a is genuinely used
        with pytest.raises(PoleInParamsError):
            fields_ismail_32_rhs(delta_seq(2), delta_seq(2), -1, 1, 1)
        # same c, but a is supported below the pole: no divisor vanishes
        assert fields_ismail_32_rhs(D0, D0, -1, 1, 1) == 1


class TestWeightedRearrangement:
    def test_examples(self):
        ep = ExpansionParams(gamma=2, mu=F(1, 2), theta=F(7, 3))
        assert fields_ismail_13_rhs(D0, D0, ep, F(1, 2), F(-1)) == 1
        ep = ExpansionParams(gamma=1, mu=2, theta=3)
        assert fields_ismail_13_rhs(D1, D1, ep, 1, 1) == 1
        assert fields_ismail_13_rhs(D01, {}, ep, 1, 1) == 0

    def test_matches_lhs_on_fixed_cases(self):
        a = coeff_seq({0: F(1, 2), 2: -2, 3: F(1, 3)})
        b = coeff_seq({1: 1, 2: F(5, 2), 3: -1})
        ep = ExpansionParams(gamma=F(3, 2), mu=1, theta=F(5, 2))
        for z, w in [(1, 1), (F(-1, 2), F(1, 4)), (1, F(-1))]:
            assert fields_ismail_13_rhs(a, b, ep, z, w) == bilinear_lhs(
                a, b, z, w, with_factorial=True
            )

    def test_pole_raised_only_when_touched(self):
        # (gamma+2n+1)_r = (0)_1 vanishes at the r = 1 term, touched via b_1
        ep = ExpansionParams(gamma=-1, mu=1, theta=1)
        with pytest.raises(PoleInParamsError):
            fields_ismail_13_rhs(D0, D1, ep, 1, 1)
        # same gamma, but nothing reaches the vanishing divisor
        assert fields_ismail_13_rhs(D0, D0, ep, 1, 1) == 1


class TestWimpTerminating:
    def test_examples(self):
        lhs, rhs = fields_wimp_terminating(1, [], [], [], [], [], [], F(1, 2), F(1, 2))
        assert lhs == rhs == F(3, 4)
        lhs, rhs = fields_wimp_terminating(0, [2], [F(1, 2)], [], [], [], [], 1, -1)
        assert lhs == rhs == 1
        lhs, rhs = fields_wimp_terminating(2, [], [], [], [], [], [], 1, 1)
        assert lhs == rhs == 0

    def test_free_parameter_lists_cancel(self):
        base = fields_wimp_terminating(3, [F(1, 2)], [2], [1], [F(5, 2)], [], [], F(1, 2), F(-1, 2))
        decorated = fields_wimp_terminating(
            3, [F(1, 2)], [2], [1], [F(5, 2)], [F(7, 3)], [F(3, 2)], F(1, 2), F(-1, 2)
        )
        assert base[0] == base[1] == decorated[0] == decorated[1]

    def test_invalid_n(self):
        with pytest.raises(InvalidInputError):
            fields_wimp_terminating(-1, [], [], [], [], [], [], 1, 1)

    def test_loop_runs_to_n_past_the_vanishing_weight(self):
        # the weight [alpha]_k = (-1)_k vanishes at k = 2, but the loop still
        # reaches k = 2, where F(-2; -1; w) has its pole inside its range
        message = "^denominator parameter -1 vanishes at index 2 <= truncation index 2$"
        with pytest.raises(DenominatorPoleError, match=message):
            fields_wimp_terminating(2, [], [], [], [], [-1], [], F(1, 2), F(-1, 3))


class TestLukeTerminating:
    def test_worked_instance(self):
        lhs, rhs = fields_wimp_luke_terminating([-1], [], [], [], 3, F(1, 2), F(1, 2))
        assert lhs == rhs == F(3, 4)

    def test_zero_parameter(self):
        lhs, rhs = fields_wimp_luke_terminating([0], [], [], [], F(1, 2), 1, -1)
        assert lhs == rhs == 1

    def test_product_argument_one(self):
        lhs, rhs = fields_wimp_luke_terminating([-1], [], [], [], 3, 1, 1)
        assert lhs == rhs == 0

    def test_requires_nonpositive_integer(self):
        with pytest.raises(NonTerminatingError, match="^no numerator parameter is a nonpositive integer: 1/2$"):
            fields_wimp_luke_terminating([F(1, 2)], [], [], [], 1, 1, 1)


class TestHermiteBmSequence:
    def test_examples(self):
        assert hermite_bm_sequence(0) == {0: F(1)}
        assert hermite_bm_sequence(1) == {2: F(8), 0: F(-2)}
        assert 1 not in hermite_bm_sequence(1)
        assert hermite_bm_sequence(1, with_index_factorial=True) == {2: F(4), 0: F(-2)}

    def test_plain_bilinear_sum_rebuilds_hermite(self):
        for p in range(5):
            b = hermite_bm_sequence(p)
            a = coeff_seq({m: F(1) / F(fact) for m, fact in _factorials(2 * p)})
            for x in (F(1, 2), F(-1), F(2)):
                assert bilinear_lhs(a, b, 1, x, with_factorial=False) == hermite(2 * p)(x)

    def test_rearranged_sum_equals_hermite_value(self):
        p = 3
        b = hermite_bm_sequence(p)
        a = coeff_seq({m: F(1) / F(fact) for m, fact in _factorials(2 * p)})
        for x in (F(1, 2), F(-1)):
            assert fields_ismail_32_rhs(a, b, 1, 1, x) == hermite(2 * p)(x)


def _factorials(n_max):
    fact = 1
    for m in range(n_max + 1):
        if m:
            fact *= m
        yield m, fact


@pytest.mark.parametrize("p", range(0, 4))
def test_bilinear_route_matches_oracle(p):
    route = hermite_in_laguerre_via_bilinear(p)
    oracle = connection_oracle(hermite(2 * p), LAGUERRE)
    assert route == oracle.coefficients


def test_coeff_seq_json():
    seq = coeff_seq({2: F(8), 0: F(-1, 2)})
    data = coeff_seq_to_json(seq)
    assert data == {"0": "-1/2", "2": "8"}


def test_coeff_seq_drops_zeros_and_validates():
    assert coeff_seq({0: 0, 3: F(1, 2)}) == {3: F(1, 2)}
    with pytest.raises(InvalidInputError):
        coeff_seq({-1: 1})


@pytest.mark.parametrize(
    "sweep",
    [
        sweep_even_odd_split,
        sweep_bilinear_plain,
        sweep_bilinear_weighted,
        sweep_wimp_terminating,
        sweep_luke_terminating,
    ],
    ids=lambda f: f.__name__,
)
def test_sweeps_pass_and_are_deterministic(sweep):
    first = sweep(40, seed=11)
    assert len(first) == 40
    assert all(e["match"] for e in first), next(e for e in first if not e["match"])
    assert sweep(40, seed=11) == first
    # the keys the CLI reads, and the drawn case
    assert all(set(entry) == {"n", "match", "residual", "case"} for entry in first)


#: sha256 of json.dumps (str for a Fraction) of the first 20 entries' case
#: dicts at seed 0, in order: pins their keys, key order and values, which no
#: CLI digest covers.
_CASE_DIGESTS = {
    sweep_even_odd_split: "45a8809f650736d5e15c755fe11f277d99ad4c12c121108ce96994e1b1a6f6ae",
    sweep_bilinear_plain: "46452d19ba3a94fe91982537a3b784dc10ebdab1099fbf0102f286bde8a2b438",
    sweep_bilinear_weighted: "ceeb40db9266031a3e976910fec3e925a395fa51447323f63984b1fb88046dbc",
    sweep_wimp_terminating: "33432d3d3d88171f3a6ae999b8e65869663850854314212d12421b450864320c",
    sweep_luke_terminating: "9cb036ed3e0af1b6b192d7228891da4db403f98ae49ecf333e2f11e7902f1500",
}


@pytest.mark.parametrize("sweep", list(_CASE_DIGESTS), ids=lambda f: f.__name__)
def test_sweep_cases_match_recorded_digest(sweep):
    cases = [entry["case"] for entry in sweep(20, seed=0)]
    text = json.dumps(cases, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == _CASE_DIGESTS[sweep]


def test_sweep_renders_a_residual_only_for_a_mismatch():
    """A mismatch keeps its residual lhs - rhs; equal values of different
    types match with residual "0".  Each entry holds the drawn case itself."""
    drawn = [(F(1, 2), F(1, 3), {"x": F(1, 2)}), (1, F(1), {"n": 1}),
             (F(-2, 3), F(-2, 3), {"seq": {2: F(1, 3), 0: F(-2)}})]
    draws = iter(drawn)
    entries = sweeps._sweep(3, 0, lambda rng, index: next(draws))
    assert [(e["match"], e["residual"]) for e in entries] == [
        (False, "1/6"), (True, "0"), (True, "0")]
    assert all(e["case"] is case for e, (_, _, case) in zip(entries, drawn))


def test_sweep_caps_draws_and_validates_cases():
    draws = []

    def failing(rng, index):
        draws.append(index)
        raise PolyConnectError("precondition violated")

    with pytest.raises(PolyConnectError, match="kept 0 of 3 cases"):
        sweeps._sweep(3, 0, failing)
    assert len(draws) == 3 * sweeps.MAX_DRAWS_PER_CASE
    for cases in (2.5, -1, True):
        with pytest.raises(InvalidInputError):
            sweeps._sweep(cases, 0, failing)
    for seed in (None, [1], 1.5, "3", True):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            sweeps._sweep(3, seed, failing)
    assert len(draws) == 3 * sweeps.MAX_DRAWS_PER_CASE
    assert sweeps._sweep(1, -7, lambda rng, index: (1, 1, {}))[0]["match"]
    with pytest.raises(InvalidInputError):
        sweep_bilinear_plain(2.5)
