"""Library-wide contract checks: malformed outside input raises
InvalidInputError, the CLI exits 0, 1 or 2 with at most a one-line error,
and no check in the library depends on ``assert`` (``python -O`` strips
those)."""

import ast
import contextlib
import inspect
import io
import sys
from collections.abc import Iterator
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import polyconnect
from polyconnect import (
    HERMITE,
    LAGUERRE,
    BasisId,
    ConnectionResult,
    ExpansionParams,
    HypSeries,
    InvalidInputError,
    JacobiParams,
    Poly,
    PolyConnectError,
    UnsupportedPairError,
    basis_poly,
    bilinear_lhs,
    coeff_hermite_in_shifted_jacobi,
    coeff_seq,
    coeff_shifted_jacobi_in_hermite,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    jacobi_at_one_minus_x,
    parse_rational,
    pochhammer_list,
    series_coefficients,
    shifted_jacobi,
    truncation_index,
    verify_theorem,
)
from polyconnect import cli, sweeps
from polyconnect.connection import FAMILIES, THEOREMS, basis
from polyconnect.sweeps import LEMMA_SWEEPS


@pytest.mark.parametrize(
    "reader, data",
    [
        (Poly.from_json, 5),
        (Poly.from_json, "12"),
    ],
    ids=["poly-int", "poly-string"],
)
def test_json_readers_raise_invalid_input(reader, data):
    with pytest.raises(InvalidInputError):
        reader(data)


@pytest.mark.parametrize("bad", [None, 5, "12"], ids=["none", "int", "string"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: HypSeries(v, (), 1),
        truncation_index,
        lambda v: series_coefficients(v, ()),
        Poly,
        lambda v: pochhammer_list(v, 2),
        lambda v: fields_wimp_terminating(2, v, (), (), (), (), (), 1, 1),
        lambda v: fields_wimp_luke_terminating(v, (), (), (), 1, 1, 1),
    ],
    ids=["HypSeries", "truncation_index", "series_coefficients", "Poly",
         "pochhammer_list", "fields_wimp_terminating", "fields_wimp_luke_terminating"],
)
def test_rational_lists_reject_strings_and_non_iterables(call, bad):
    with pytest.raises(InvalidInputError, match="expected a sequence of rationals"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coeff_seq(5),
        lambda: coeff_seq("12"),
        lambda: coeff_seq(None),
        lambda: fields_ismail_32_rhs([1, 2], {0: 1}, 1, 1, 1),
        lambda: fields_ismail_32_rhs({0: 1}, "12", 1, 1, 1),
        lambda: bilinear_lhs(None, {0: 1}, 1, 1, True),
        lambda: fields_ismail_13_rhs({0: 1}, {0: 1}, None, 1, 1),
        lambda: fields_ismail_13_rhs({0: 1}, {0: 1}, (1, 1, 1), 1, 1),
    ],
    ids=["seq-int", "seq-string", "seq-none", "plain-list", "plain-string", "lhs-none",
         "weighted-params-none", "weighted-params-tuple"],
)
def test_bilinear_forms_reject_non_mappings_and_bad_params(call):
    with pytest.raises(InvalidInputError, match="expected"):
        call()


#: The three bilinear sides, called on sequences a and b.
BILINEAR_SIDES = {
    "lhs": lambda a, b: bilinear_lhs(a, b, 1, 1, True),
    "plain": lambda a, b: fields_ismail_32_rhs(a, b, 1, 1, 1),
    "weighted": lambda a, b: fields_ismail_13_rhs(a, b, ExpansionParams(), 1, 1),
}


@pytest.mark.parametrize("side", sorted(BILINEAR_SIDES))
@pytest.mark.parametrize(
    "a, b, message",
    [
        ([(0, 1)], {0: 1}, "expected a mapping of index to rational, got [(0, 1)]"),
        ({0: 1}, "12", "expected a mapping of index to rational, got '12'"),
        ({0: 1, True: 1}, {0: 1}, "sequence index must be a nonnegative integer, got True"),
        ({0: 1}, {2: 1, -1: 1}, "sequence index must be a nonnegative integer, got -1"),
        ({0: 1, 1: 0.5}, {0: 1}, "not an exact rational: 0.5"),
        # the first bad entry in iteration order, its index before its value
        ({0: 0, 3: 0.5, -1: 1}, {0: 1}, "not an exact rational: 0.5"),
        ({-2: 0.5}, {0: 1}, "sequence index must be a nonnegative integer, got -2"),
        ({-2: 0}, {0: 1}, "sequence index must be a nonnegative integer, got -2"),
        # a is checked before b
        ({0: 0.25}, {-1: 1}, "not an exact rational: 0.25"),
    ],
    ids=["a-list", "b-string", "index-bool", "index-negative", "value-float", "first-in-order",
         "index-before-value", "zero-value-index", "a-before-b"],
)
def test_bilinear_sides_raise_at_the_first_bad_entry(side, a, b, message):
    with pytest.raises(InvalidInputError) as caught:
        BILINEAR_SIDES[side](a, b)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "param_sets",
    [5, [(1, 2)], "ab", [None], JacobiParams(0, 0)],
    ids=["int", "tuple-item", "string", "none-item", "bare-record"],
)
def test_verify_theorem_rejects_param_sets_that_are_not_jacobi_params(param_sets):
    with pytest.raises(InvalidInputError, match="param_sets must hold JacobiParams"):
        verify_theorem("3.3", 3, param_sets)


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_an_explicit_theorem_given_another_pair_names_its_own_pair(theorem):
    """Not "no closed form for" the pair asked for, which is false where
    another theorem converts it (3.2 given laguerre -> hermite, Thm3.1's)."""
    record = THEOREMS[theorem]
    jp = JacobiParams(F(1, 2), F(1, 3))
    with pytest.raises(UnsupportedPairError) as caught:
        polyconnect.closed_form_connection(
            basis(record.target, jp), basis(record.source, jp), 3, theorem
        )
    assert str(caught.value) == (
        f"theorem {theorem} converts {record.source} -> {record.target},"
        f" not {record.target} -> {record.source}"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_rational(3),
        lambda: parse_rational(None),
        lambda: shifted_jacobi(2, (0, 0)),
        lambda: jacobi_at_one_minus_x(2, (0, 0)),
        lambda: coeff_shifted_jacobi_in_hermite(3, (0, 0), 1),
        lambda: coeff_hermite_in_shifted_jacobi(3, (0, 0), 1),
        lambda: BasisId(["hermite"]),
        lambda: BasisId(3),
        lambda: BasisId("jacobi-1mx", (0, 0)),
        lambda: basis_poly(BasisId("shifted-jacobi", 0), 2),
    ],
    ids=["parse-int", "parse-none", "shifted-jacobi-tuple", "jacobi-1mx-tuple",
         "coeff-3.4-tuple", "coeff-3.3-tuple", "basis-list", "basis-int", "basis-tuple-params",
         "basis-int-params"],
)
def test_wrong_argument_types_raise_invalid_input(call):
    with pytest.raises(InvalidInputError, match="expected|unknown basis family"):
        call()


def test_only_records_writes_past_the_frozen_guard():
    """Frozen._fill is the one place a Frozen record's slots are set."""
    package = Path(polyconnect.__file__).resolve().parent
    found = sorted({
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    })
    assert found == ["records.py"]


def test_library_has_no_assert_statements():
    package = Path(polyconnect.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_JACOBI = ["--alpha", "--beta"]


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


_family = _mostly(st.sampled_from(list(FAMILIES)), st.just("bogus"))
#: More digits than int() reads by default (sys.get_int_max_str_digits()).
_HUGE = "9" * 4301
_degree = _mostly(st.integers(0, 6).map(str), st.sampled_from(["-1", "x", "--", _HUGE]))
_rational = _mostly(
    st.fractions(min_value=-7, max_value=4, max_denominator=4).map(str),
    st.sampled_from(["x", "", "1/0", " 2 ", "+1/2", "--", _HUGE, f"1/{_HUGE}"]),
)
#: Each CLI option with values to draw, mostly good or degenerate, some malformed.
_OPTION_VALUES = {
    "--family": _family,
    "--source": _family,
    "--target": _family,
    "--n": _degree,
    "--n-max": _degree,
    "--alpha": _rational,
    "--beta": _rational,
    "--theorem": _mostly(st.sampled_from([*THEOREMS, *LEMMA_SWEEPS]), st.just("9.9")),
    "--cases": _mostly(st.integers(1, 5).map(str), st.just("0")),
    "--seed": st.integers(-3, 3).map(str),
    "--method": _mostly(st.sampled_from(["closed", "oracle", "both"]), st.just("x")),
    "--format": _mostly(st.sampled_from(["json", "csv"]), st.just("x")),
}


@st.composite
def _cli_argv(draw):
    """A command with degrees <= 6 and --cases <= 5; --alpha and --beta
    mostly together or not at all."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    names = [name for name in cli._COMMANDS[command][2]
             if name not in _JACOBI and draw(_mostly(st.just(True), st.just(False)))]
    names += draw(_mostly(st.sampled_from([[], _JACOBI]), st.just(["--alpha"])))
    argv = [command]
    for name in draw(st.permutations(names)):
        value = draw(_OPTION_VALUES[name])
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return argv + draw(_mostly(st.just([]), st.sampled_from([["-h"], ["--"], ["x"], ["--seed"]])))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(_cli_argv())
@example(["poly", "--family", "jacobi-1mx", "--n", "1", "--alpha", _HUGE, "--beta", "0"])
def test_cli_exits_0_1_or_2_with_a_one_line_error(argv):
    rc, _, err = _run_captured(argv)
    assert rc in (0, 1, 2)
    assert err == "" or _one_error_line(err)


_ARGV = ["poly", "--family", "hermite", "--n", "3"]


@pytest.mark.parametrize("position", [0, 1, 4], ids=["command", "option", "value"])
@pytest.mark.parametrize("spoil", [
    lambda token: 3,
    lambda token: token.encode(),
    lambda token: bytearray(token.encode()),
    lambda token: None,
], ids=["int", "bytes", "bytearray", "none"])
def test_cli_argv_tokens_that_are_not_strings_exit_2(spoil, position):
    """A bytes token spelling a good one is refused like an int or None."""
    argv = list(_ARGV)
    argv[position] = spoil(argv[position])
    assert _run_captured(_ARGV)[0] == 0  # the good argv, now kept by the response memo
    rc, out, err = _run_captured(argv)
    assert (rc, out) == (2, "") and _one_error_line(err)
    assert f"token {argv[position]!r}" in err


@pytest.mark.parametrize("argv", [None, 5, iter([b"poly"])], ids=["none", "int", "bytes-iterator"])
def test_cli_argv_that_is_not_an_iterable_of_strings_exits_2(argv):
    rc, out, err = _run_captured(argv)
    assert (rc, out) == (2, "") and _one_error_line(err)
    assert not cli._RESPONSES


@pytest.mark.parametrize("argv", [
    ["poly", "--family", "laguerre", "--n", "400"],
    ["poly", "--family", "laguerre", "--n", "400", "--format", "csv"],
    ["connect", "--source", "laguerre", "--target", "hermite", "--n", "400", "--method", "closed"],
], ids=["poly-json", "poly-csv", "connect-closed"])
def test_coefficients_past_the_int_to_string_limit_exit_2(argv):
    """Degree 400 Laguerre coefficients carry 400! (869 digits)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out, err = _run_captured(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out) == (2, "") and _one_error_line(err)
    assert "640" in err and "PYTHONINTMAXSTRDIGITS" in err
    assert not cli._RESPONSES


def test_reprs_past_the_int_to_string_limit_show_the_type():
    """A repr never raises: where a coefficient passes the digit limit, Poly
    and every record show their type as rationals.shown does, with no memory
    address; inside it they print the coefficients."""
    member = polyconnect.laguerre(400)
    result = polyconnect.closed_form_connection(LAGUERRE, HERMITE, 400)
    inside = repr(member), repr(result)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        past = repr(member), repr(result)
    finally:
        sys.set_int_max_str_digits(limit)
    assert past == ("<Poly past the int-to-string digit limit>",
                    "<ConnectionResult past the int-to-string digit limit>")
    assert inside == (f"Poly([{', '.join(map(str, member.coefficients))}])",
                      "ConnectionResult(source=BasisId(family='laguerre', params=None), "
                      "target=BasisId(family='hermite', params=None), degree=400, "
                      f"coefficients={result.coefficients!r}, provenance='Thm3.1')")


#: More digits (701) than the 640 the tests below let int-to-string read.
_BIG = 10**700


@pytest.fixture
def digit_limit_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [["poly", _BIG], _BIG], ids=["token", "argv"])
def test_cli_argv_past_the_int_to_string_limit_exits_2(argv, digit_limit_640):
    rc, out, err = _run_captured(argv)
    assert (rc, out) == (2, "") and _one_error_line(err)
    assert "<int past the int-to-string digit limit>" in err
    assert not cli._RESPONSES


@pytest.mark.parametrize("call", [
    lambda: polyconnect.hermite(-_BIG),
    lambda: polyconnect.connection_oracle(_BIG, HERMITE),
    lambda: Poly([1]).coeff(F(_BIG, 3)),
    lambda: Poly.from_json(_BIG),
    lambda: polyconnect.as_rational([_BIG]),
    lambda: parse_rational(_BIG),
    lambda: polyconnect.rationals.as_rationals(_BIG),
    lambda: coeff_seq(_BIG),
    lambda: BasisId(_BIG),
    lambda: coeff_hermite_in_shifted_jacobi(1, JacobiParams(0, 0), 0, _BIG),
    lambda: verify_theorem(_BIG, 1),
    lambda: verify_theorem("3.4", 1, _BIG),
    lambda: verify_theorem("3.4", 1, [_BIG]),
    lambda: polyconnect.connection_oracle(polyconnect.laguerre(400), polyconnect.laguerre(400)),
    lambda: verify_theorem("3.4", 2, [polyconnect.laguerre(400)]),
], ids=["check-index", "check-instance", "poly-coeff", "poly-json", "as-rational",
        "parse-rational", "as-rationals", "coeff-seq", "basis-id", "argument-sign",
        "theorem-id", "param-sets", "param-set", "oracle-poly-target", "param-set-poly"])
def test_messages_show_values_past_the_int_to_string_limit(call, digit_limit_640):
    """A rejected value whose repr passes the limit is shown by its type."""
    with pytest.raises(InvalidInputError, match=r"<\w+ past the int-to-string digit limit>"):
        call()


@pytest.mark.parametrize("call", [
    lambda: polyconnect.coeff_seq_to_json({0: _BIG}),
    lambda: polyconnect.coeff_seq_to_json({_BIG: 1}),
    lambda: sweeps._sweep(1, 0, lambda rng, index: (F(_BIG, 3), 0, {})),
], ids=["sequence-value", "sequence-index", "sweep-residual"])
def test_values_rendered_past_the_int_to_string_limit_raise(call, digit_limit_640):
    with pytest.raises(PolyConnectError, match="PYTHONINTMAXSTRDIGITS"):
        call()


#: Every public callable but the exception classes.
_PUBLIC_CALLABLES = [
    name for name, obj in ((name, getattr(polyconnect, name)) for name in polyconnect.__all__)
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
]
#: Small ints (as degrees they keep each call cheap), rationals, library
#: values (so a call gets past its first type check), strings (some of them
#: valid ids and rationals), bools, floats and None, and flat lists and
#: dicts of them.
_scalars = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([F(-3, 2), F(-1, 2), F(1, 3), F(1, 2), F(5, 2)]),
    st.sampled_from([JacobiParams(F(1, 2), F(1, 3)), HERMITE, LAGUERRE, Poly([1, 2])]),
    st.sampled_from(["1/2", "-2", "3.1", "hermite", "laguerre", "jacobi-1mx"]),
    st.text(max_size=3),
    st.booleans(),
    st.floats(),
    st.none(),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.integers(-1, 6) | st.text(max_size=2), _scalars, max_size=3),
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: polyconnect.basis_poly(0, 0),
        lambda: polyconnect.closed_form_connection(0, 0, 0),
        lambda: polyconnect.connection_oracle(0, 0),
        lambda: list(polyconnect.connection_table(0, 0, 1)),
        lambda: polyconnect.evaluate_terminating(0),
        lambda: polyconnect.split_even_odd(0),
        lambda: polyconnect.delta_seq([1]),
        lambda: polyconnect.hermite([1]),
        lambda: polyconnect.laguerre([1]),
        lambda: polyconnect.shifted_jacobi(0, [1]),
        lambda: polyconnect.jacobi_at_one_minus_x(0, [1]),
    ],
    ids=["basis_poly", "closed_form_connection", "connection_oracle", "connection_table",
         "evaluate_terminating", "split_even_odd", "delta_seq", "hermite", "laguerre",
         "shifted_jacobi", "jacobi_at_one_minus_x"],
)
def test_wrong_types_that_escaped_as_raw_errors_raise_invalid_input(call):
    """Each raised AttributeError or TypeError before it was checked."""
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("coefficients", [(1.5,), ("x",), None], ids=["float", "string", "none"])
def test_connection_result_coerces_its_coefficients(coefficients):
    """Coefficients that are not exact rationals are refused when the result
    is made, not met later as a float in reconstruct or a raw AttributeError
    or TypeError from reconstruct or to_csv_rows."""
    with pytest.raises(InvalidInputError):
        ConnectionResult(HERMITE, HERMITE, 0, coefficients, "p")
    result = ConnectionResult(HERMITE, HERMITE, 1, [1, "-1/2"], "p")
    assert result.coefficients == (F(1), F(-1, 2))
    assert result.to_csv_rows() == [(1, 0, "1", "p"), (1, 1, "-1/2", "p")]


@pytest.mark.parametrize(
    "args",
    [
        ("hermite", LAGUERRE, 1, (1, 2), "p"),
        (HERMITE, None, 1, (1, 2), "p"),
        (HERMITE, LAGUERRE, -1, (1, 2), "p"),
        (HERMITE, LAGUERRE, "2", (1, 2), "p"),
        (HERMITE, LAGUERRE, True, (1, 2), "p"),
        (HERMITE, LAGUERRE, 1, (1, 2), None),
    ],
    ids=["source-str", "target-none", "degree-negative", "degree-str", "degree-bool",
         "provenance-none"],
)
def test_connection_result_checks_its_fields(args):
    """A source or target that is not a BasisId, a degree that is not a
    nonnegative int and a provenance that is not a str are refused when the
    result is made, not met later as a raw AttributeError from to_json or
    written as they are into the JSON and CSV."""
    with pytest.raises(InvalidInputError):
        ConnectionResult(*args)


@pytest.mark.parametrize("name", _PUBLIC_CALLABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_public_callable_returns_or_raises_polyconnect_error(name, data):
    fn = getattr(polyconnect, name)
    params = inspect.signature(fn).parameters.values()
    required = sum(p.default is p.empty for p in params)
    args = data.draw(st.lists(_values, min_size=required, max_size=len(params)))
    try:
        result = fn(*args)
        if isinstance(result, Iterator):
            list(result)
    except PolyConnectError:
        pass
