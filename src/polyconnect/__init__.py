"""polyconnect: exact connection coefficients between classical orthogonal
polynomial families, certified against a brute-force conversion oracle.

Everything is computed in arbitrary-precision rational arithmetic; there is
no floating-point path anywhere, so every identity check is an exact
equality.

The public names are loaded on first use (PEP 562): ``import polyconnect``
imports no submodule, and each CLI command imports only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.
_HOMES = {
    **dict.fromkeys((
        "DenominatorPoleError", "InvalidInputError", "NonTerminatingError",
        "PoleInParamsError", "PolyConnectError", "UnsupportedPairError",
        "ZeroDenominatorParameterError",
    ), "errors"),
    **dict.fromkeys((
        "as_rational", "factorial", "parse_rational", "pochhammer", "pochhammer_list",
        "rational_to_str",
    ), "rationals"),
    **dict.fromkeys((
        "HypSeries", "evaluate_terminating", "series_coefficients", "split_even_odd",
        "truncation_index",
    ), "hypseries"),
    **dict.fromkeys((
        "JacobiParams", "Poly", "hermite", "jacobi_at_one_minus_x", "laguerre",
        "shifted_jacobi",
    ), "polybases"),
    **dict.fromkeys((
        "BasisId", "ConnectionResult", "DEFAULT_JACOBI_SWEEP", "HERMITE", "LAGUERRE",
        "MONOMIAL", "VerificationEntry", "VerificationReport", "basis_poly",
        "closed_form_connection", "coeff_hermite_in_laguerre",
        "coeff_hermite_in_shifted_jacobi", "coeff_laguerre_in_hermite",
        "coeff_shifted_jacobi_in_hermite", "connection_oracle", "connection_table",
        "verify_theorem",
    ), "connection"),
    **dict.fromkeys((
        "ExpansionParams", "bilinear_lhs", "coeff_seq", "coeff_seq_to_json", "delta_seq",
        "fields_ismail_13_rhs", "fields_ismail_32_rhs", "fields_wimp_luke_terminating",
        "fields_wimp_terminating", "hermite_bm_sequence", "hermite_in_laguerre_via_bilinear",
    ), "expansions"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import a public name's submodule the first time the name is used."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
