"""Library-wide contract checks: malformed outside input raises
InvalidInputError, and no check in the library depends on ``assert``
(``python -O`` strips those)."""

import ast
from pathlib import Path

import pytest

import polyconnect
from polyconnect import InvalidInputError, Poly, coeff_seq_from_json, series_from_json


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


def test_library_has_no_assert_statements():
    package = Path(polyconnect.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
