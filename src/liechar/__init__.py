"""Intrinsic characteristic invariants of local Lie groups.

Two computational lanes share one set of conventions:

* exact rational Lie-algebra invariants: structure constants, Killing
  form, solvability/nilpotency/semisimplicity, odd trace forms, and
  Chevalley-Eilenberg cohomology with trivial coefficients;
* finite-difference chart geometry: frame-field splittings, connection
  coefficients, torsion and curvature tensors, the obstruction 1-form,
  local adjoint maps and their log-determinant primitive.

The exact lane is imported with the package; the finite-difference lane
(geometry, jets, verify and numpy) is imported when one of its names is
first used.
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
    cochain_complex,
    differential_matrix,
    is_closed,
    is_exact,
)
from .fileformat import AlgebraFileError, parse_algebra, serialize_algebra
from .forms import AlternatingForm, trace_form, w1_character, w3_killing

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
    "cochain_complex",
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

# The finite-difference lane needs numpy, so its names (every name in
# __all__ not imported above) load on first use (PEP 562): the first one
# asked for imports geometry, jets and verify together, and importing
# liechar or running an exact-lane command does not.
_FD_MODULES = ("geometry", "jets", "verify")
_FD_NAMES = frozenset(__all__) - set(globals())


def __getattr__(name: str):
    from importlib import import_module

    if name not in _FD_NAMES and name not in _FD_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [import_module(f"{__name__}.{module}") for module in _FD_MODULES]
    globals().update({attr: next(getattr(m, attr) for m in modules if hasattr(m, attr)) for attr in _FD_NAMES})
    return globals()[name]
