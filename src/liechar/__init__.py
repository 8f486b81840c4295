"""Intrinsic characteristic invariants of local Lie groups.

Two computational lanes share one set of conventions:

* exact rational Lie-algebra invariants: structure constants, Killing
  form, solvability/nilpotency/semisimplicity, odd trace forms, and
  Chevalley-Eilenberg cohomology with trivial coefficients;
* finite-difference chart geometry: frame-field splittings, connection
  coefficients, torsion and curvature tensors, the obstruction 1-form,
  local adjoint maps and their log-determinant primitive.
"""

from .algebra import LieAlgebra, ValidationReport, lie_algebra
from .catalog import CatalogEntry, get, list_entries, list_names
from .cohomology import (
    BETTI_DIM_CAP,
    STATUS_EXACT,
    STATUS_NONZERO_CLASS,
    STATUS_ZERO,
    betti,
    betti_table,
    class_report,
    differential_matrix,
    is_closed,
    is_exact,
)
from .fileformat import AlgebraFileError, parse_algebra, serialize_algebra
from .forms import AlternatingForm, trace_form, w1_character, w3_killing
from .geometry import (
    ConnectionSample,
    Curve,
    CurvatureSample,
    FrameField,
    LocalAlgebraError,
    LocalGroupMultiplication,
    Splitting,
    ad_e,
    automorphy_check,
    frame_from_multiplication,
    gamma,
    gamma_from_splitting,
    invariant_field,
    local_algebra,
    log_det_ad_primitive_check,
    one_parameter_curve,
    r1,
    r2,
    r_full,
    structure_functions,
    torsion,
    tr_r2,
    w_form,
)
from .jets import (
    Chart,
    Form1J1T,
    J1TSection,
    algebraic_bracket,
    delta_one_form,
    lie_derivative,
    pairing,
    prolong,
    spencer_bracket,
    spencer_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraFileError",
    "AlternatingForm",
    "BETTI_DIM_CAP",
    "CatalogEntry",
    "Chart",
    "ConnectionSample",
    "Curve",
    "CurvatureSample",
    "Form1J1T",
    "FrameField",
    "J1TSection",
    "LieAlgebra",
    "LocalAlgebraError",
    "LocalGroupMultiplication",
    "STATUS_EXACT",
    "STATUS_NONZERO_CLASS",
    "STATUS_ZERO",
    "Splitting",
    "ValidationReport",
    "ad_e",
    "algebraic_bracket",
    "automorphy_check",
    "betti",
    "betti_table",
    "class_report",
    "delta_one_form",
    "differential_matrix",
    "frame_from_multiplication",
    "gamma",
    "gamma_from_splitting",
    "get",
    "invariant_field",
    "is_closed",
    "is_exact",
    "lie_algebra",
    "lie_derivative",
    "list_entries",
    "list_names",
    "local_algebra",
    "log_det_ad_primitive_check",
    "one_parameter_curve",
    "pairing",
    "parse_algebra",
    "prolong",
    "r1",
    "r2",
    "r_full",
    "serialize_algebra",
    "spencer_bracket",
    "spencer_operator",
    "structure_functions",
    "torsion",
    "tr_r2",
    "trace_form",
    "w1_character",
    "w3_killing",
    "w_form",
]
