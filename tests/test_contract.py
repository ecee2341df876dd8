"""Library-wide contract checks: malformed outside input raises
InvalidInputError, and no check in the library depends on ``assert``
(``python -O`` strips those)."""

import ast
from pathlib import Path

import pytest

import polyconnect
from polyconnect import (
    HypSeries,
    InvalidInputError,
    Poly,
    bilinear_lhs,
    coeff_seq,
    coeff_seq_from_json,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    pochhammer_list,
    series_coefficients,
    series_from_json,
    truncation_index,
    verify_theorem,
)


@pytest.mark.parametrize(
    "reader, data",
    [
        (coeff_seq_from_json, {"x": "1"}),
        (coeff_seq_from_json, ["1"]),
        (series_from_json, {}),
        (series_from_json, {"num": "12", "den": [], "arg": "1"}),
        (series_from_json, 5),
        (Poly.from_json, 5),
        (Poly.from_json, "12"),
    ],
    ids=["seq-key", "seq-array", "series-empty", "series-string", "series-int",
         "poly-int", "poly-string"],
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


@pytest.mark.parametrize(
    "param_sets", [5, [(1, 2)], "ab", [None]], ids=["int", "tuple-item", "string", "none-item"]
)
def test_verify_theorem_rejects_param_sets_that_are_not_jacobi_params(param_sets):
    with pytest.raises(InvalidInputError, match="param_sets must hold JacobiParams"):
        verify_theorem("3.3", 3, param_sets)


def test_library_has_no_assert_statements():
    package = Path(polyconnect.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
