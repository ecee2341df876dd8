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
    coeff_seq_from_json,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    pochhammer_list,
    series_coefficients,
    series_from_json,
    truncation_index,
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


def test_library_has_no_assert_statements():
    package = Path(polyconnect.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
