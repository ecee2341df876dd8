"""The package namespace, loaded name by name on first use, and the value
records of polyconnect.records: what each public name is, and how each
record constructs, compares, hashes, prints and refuses changes."""

import copy
import importlib
import subprocess
import sys
from fractions import Fraction

import pytest

import polyconnect
from polyconnect import (
    BasisId,
    ConnectionResult,
    ExpansionParams,
    HypSeries,
    JacobiParams,
    Poly,
    VerificationEntry,
    VerificationReport,
)
from polyconnect.connection import THEOREMS, Theorem

#: Submodule -> the public names it defines.
_PUBLIC = {
    "errors": [
        "DenominatorPoleError", "InvalidInputError", "NonTerminatingError", "PoleInParamsError",
        "PolyConnectError", "UnsupportedPairError", "ZeroDenominatorParameterError",
    ],
    "rationals": [
        "as_rational", "factorial", "parse_rational", "pochhammer", "pochhammer_list",
        "rational_to_str",
    ],
    "hypseries": [
        "HypSeries", "evaluate_terminating", "series_coefficients", "split_even_odd",
        "truncation_index",
    ],
    "polybases": [
        "JacobiParams", "Poly", "hermite", "jacobi_at_one_minus_x", "laguerre", "shifted_jacobi",
    ],
    "connection": [
        "BasisId", "ConnectionResult", "DEFAULT_JACOBI_SWEEP", "HERMITE", "LAGUERRE", "MONOMIAL",
        "VerificationEntry", "VerificationReport", "basis_poly", "closed_form_connection",
        "coeff_hermite_in_laguerre", "coeff_hermite_in_shifted_jacobi",
        "coeff_laguerre_in_hermite", "coeff_shifted_jacobi_in_hermite", "connection_oracle",
        "connection_table", "verify_theorem",
    ],
    "expansions": [
        "ExpansionParams", "bilinear_lhs", "coeff_seq", "coeff_seq_to_json", "delta_seq",
        "fields_ismail_13_rhs", "fields_ismail_32_rhs", "fields_wimp_luke_terminating",
        "fields_wimp_terminating", "hermite_bm_sequence", "hermite_in_laguerre_via_bilinear",
    ],
}


def test_all_lists_the_52_public_names():
    names = sorted(name for names in _PUBLIC.values() for name in names)
    assert len(names) == 52
    assert polyconnect.__all__ == names


@pytest.mark.parametrize(
    "home, name", [(home, name) for home, names in _PUBLIC.items() for name in names]
)
def test_public_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"polyconnect.{home}")
    assert getattr(polyconnect, name) is getattr(module, name)


def test_dir_and_star_import_list_every_public_name():
    assert set(polyconnect.__all__) <= set(dir(polyconnect))
    namespace = {}
    exec("from polyconnect import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(polyconnect.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polyconnect.no_such_name
    assert not hasattr(polyconnect, "check_instance")  # defined in rationals, not public


def test_import_loads_no_submodule_until_a_name_is_used():
    code = """
import sys
import polyconnect
before = sorted(m for m in sys.modules if m.startswith("polyconnect."))
polyconnect.hermite
print(before, sorted(m for m in sys.modules if m.startswith("polyconnect.")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == (
        "[] ['polyconnect.errors', 'polyconnect.hypseries', 'polyconnect.polybases',"
        " 'polyconnect.rationals', 'polyconnect.records']\n"
    )


_F = Fraction
_JP = JacobiParams(_F(1, 2), _F(-1, 3))
_JP_REPR = "JacobiParams(alpha=Fraction(1, 2), beta=Fraction(-1, 3))"
_THM31 = THEOREMS["3.1"]
_ENTRY_REPR = (
    "VerificationEntry(n=2, match=False, residual=Poly([1]), first_mismatch=0,"
    " alpha=Fraction(1, 2), beta=Fraction(-1, 3), error=None)"
)

#: class -> (a constructor call, an equal call, an unequal call, the first's
#: repr, its field values in order)
_RECORDS = {
    JacobiParams: (
        lambda: JacobiParams(_F(1, 2), "-1/3"),
        lambda: JacobiParams(alpha=_F(1, 2), beta=_F(-1, 3)),
        lambda: JacobiParams(_F(1, 2), _F(1, 3)),
        _JP_REPR,
        (_F(1, 2), _F(-1, 3)),
    ),
    HypSeries: (
        lambda: HypSeries([-2, "1/2"], (3,), "1/4"),
        lambda: HypSeries(numerators=(_F(-2), _F(1, 2)), denominators=[_F(3)], argument=_F(1, 4)),
        lambda: HypSeries([-2, "1/2"], (3,), 1),
        "HypSeries(numerators=(Fraction(-2, 1), Fraction(1, 2)), denominators=(Fraction(3, 1),),"
        " argument=Fraction(1, 4))",
        ((_F(-2), _F(1, 2)), (_F(3),), _F(1, 4)),
    ),
    BasisId: (
        lambda: BasisId("shifted-jacobi", _JP),
        lambda: BasisId(family="shifted-jacobi", params=JacobiParams(_F(1, 2), _F(-1, 3))),
        lambda: BasisId("jacobi-1mx", _JP),
        f"BasisId(family='shifted-jacobi', params={_JP_REPR})",
        ("shifted-jacobi", _JP),
    ),
    ConnectionResult: (
        lambda: ConnectionResult(BasisId("hermite"), BasisId("laguerre"), 1, (_F(2),), "Thm3.2"),
        lambda: ConnectionResult(source=BasisId("hermite"), target=BasisId("laguerre"), degree=1,
                                 coefficients=(_F(2),), provenance="Thm3.2"),
        lambda: ConnectionResult(BasisId("hermite"), BasisId("laguerre"), 1, (_F(2),), "Oracle"),
        "ConnectionResult(source=BasisId(family='hermite', params=None),"
        " target=BasisId(family='laguerre', params=None), degree=1,"
        " coefficients=(Fraction(2, 1),), provenance='Thm3.2')",
        (BasisId("hermite"), BasisId("laguerre"), 1, (_F(2),), "Thm3.2"),
    ),
    Theorem: (
        lambda: Theorem("3.1", "laguerre", "hermite", _THM31.entry, _THM31.fast, "Thm3.1"),
        lambda: Theorem(id="3.1", source="laguerre", target="hermite", entry=_THM31.entry,
                        fast=_THM31.fast, provenance="Thm3.1"),
        lambda: Theorem("3.1", "laguerre", "hermite", _THM31.entry, lambda n, jp: (), "Thm3.1"),
        f"Theorem(id='3.1', source='laguerre', target='hermite', entry={_THM31.entry!r},"
        f" fast={_THM31.fast!r}, provenance='Thm3.1')",
        ("3.1", "laguerre", "hermite", _THM31.entry, _THM31.fast, "Thm3.1"),
    ),
    ExpansionParams: (
        lambda: ExpansionParams(1, "2", _F(3)),
        lambda: ExpansionParams(gamma=_F(1), mu=_F(2), theta=3),
        lambda: ExpansionParams(),
        "ExpansionParams(gamma=Fraction(1, 1), mu=Fraction(2, 1), theta=Fraction(3, 1))",
        (_F(1), _F(2), _F(3)),
    ),
    VerificationEntry: (
        lambda: VerificationEntry(2, False, Poly([1]), 0, _F(1, 2), _F(-1, 3)),
        lambda: VerificationEntry(n=2, match=False, residual=Poly([1]), first_mismatch=0,
                                  alpha=_F(1, 2), beta=_F(-1, 3), error=None),
        lambda: VerificationEntry(2, False, Poly([1]), 0, _F(1, 2), _F(-1, 3), "boom"),
        _ENTRY_REPR,
        (2, False, Poly([1]), 0, _F(1, 2), _F(-1, 3), None),
    ),
    VerificationReport: (
        lambda: VerificationReport("3.4", (_JP,), [VerificationEntry(2, False, Poly([1]), 0,
                                                                     _F(1, 2), _F(-1, 3))]),
        lambda: VerificationReport(theorem="3.4", params=(_JP,), entries=[
            VerificationEntry(2, False, Poly([1]), 0, _F(1, 2), _F(-1, 3))]),
        lambda: VerificationReport("3.4", (_JP,)),
        f"VerificationReport(theorem='3.4', params=({_JP_REPR},), entries=[{_ENTRY_REPR}])",
        ("3.4", (_JP,), [VerificationEntry(2, False, Poly([1]), 0, _F(1, 2), _F(-1, 3))]),
    ),
}
_FROZEN = (JacobiParams, HypSeries, BasisId, ConnectionResult, Theorem, ExpansionParams)
_FIELDS = {cls: spec[4] for cls, spec in _RECORDS.items()}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_record_constructs_compares_and_prints_like_a_dataclass(cls):
    make, same, other, text, values = _RECORDS[cls]
    record = make()
    assert tuple(getattr(record, name) for name in cls._fields) == values
    assert record == same() and not record != same()
    assert record != other()
    assert repr(record) == text
    assert copy.deepcopy(record) == record
    # equal only to its own class: never to the tuple of its fields
    assert record.__eq__(values) is NotImplemented
    assert record != values and values != record


@pytest.mark.parametrize("cls", _FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_record_hashes_by_value_and_refuses_changes(cls):
    make, same, other = _RECORDS[cls][:3]
    record = make()
    assert hash(record) == hash(same()) == hash(_FIELDS[cls])
    assert len({record, same(), other()}) == 2
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in cls._fields) == _FIELDS[cls]


@pytest.mark.parametrize("cls", [VerificationEntry, VerificationReport], ids=lambda cls: cls.__name__)
def test_mutable_record_is_unhashable_and_assignable(cls):
    record = _RECORDS[cls][0]()
    with pytest.raises(TypeError):
        hash(record)
    setattr(record, cls._fields[0], 7)
    assert getattr(record, cls._fields[0]) == 7


def test_record_defaults():
    assert JacobiParams(1, 2).lam == 4
    assert BasisId("hermite").params is None
    assert ExpansionParams() == ExpansionParams(1, 1, 1)
    entry = VerificationEntry(0, True, Poly())
    assert (entry.first_mismatch, entry.alpha, entry.beta, entry.error) == (None,) * 4
    first, second = VerificationReport("3.1", None), VerificationReport("3.1", None)
    assert first.entries == [] and first.entries is not second.entries
