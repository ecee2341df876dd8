"""polyconnect: exact connection coefficients between classical orthogonal
polynomial families, certified against a brute-force conversion oracle.

Everything is computed in arbitrary-precision rational arithmetic; there is
no floating-point path anywhere, so every identity check is an exact
equality.
"""

import types as _types

from .errors import (
    DenominatorPoleError,
    InvalidInputError,
    NonTerminatingError,
    PoleInParamsError,
    PolyConnectError,
    UnsupportedPairError,
    ZeroDenominatorParameterError,
)
from .rationals import (
    as_rational,
    binomial,
    factorial,
    parse_rational,
    pochhammer,
    pochhammer_list,
    rational_to_str,
)
from .hypseries import (
    HypSeries,
    evaluate_terminating,
    series_coefficients,
    series_to_json,
    split_even_odd,
    truncation_index,
)
from .polybases import (
    JacobiParams,
    Poly,
    hermite,
    jacobi_at_one_minus_x,
    laguerre,
    shifted_jacobi,
)
from .connection import (
    BasisId,
    ConnectionResult,
    DEFAULT_JACOBI_SWEEP,
    HERMITE,
    LAGUERRE,
    MONOMIAL,
    VerificationEntry,
    VerificationReport,
    basis_poly,
    closed_form_connection,
    coeff_hermite_in_laguerre,
    coeff_hermite_in_shifted_jacobi,
    coeff_laguerre_in_hermite,
    coeff_shifted_jacobi_in_hermite,
    connection_oracle,
    connection_table,
    jacobi_at_one_minus_x_basis,
    verify_theorem,
)
from .expansions import (
    ExpansionParams,
    bilinear_lhs,
    coeff_seq,
    coeff_seq_to_json,
    delta_seq,
    fields_ismail_13_rhs,
    fields_ismail_32_rhs,
    fields_wimp_luke_terminating,
    fields_wimp_terminating,
    hermite_bm_sequence,
    hermite_in_laguerre_via_bilinear,
)

__version__ = "1.0.0"

#: The public names: everything imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
