"""Intrinsic characteristic invariants of local Lie groups.

Two computational lanes share one set of conventions:

* exact rational Lie-algebra invariants: structure constants, Killing
  form, solvability/nilpotency/semisimplicity, odd trace forms, and
  Chevalley-Eilenberg cohomology with trivial coefficients;
* finite-difference chart geometry: frame-field splittings, connection
  coefficients, torsion and curvature tensors, the obstruction 1-form,
  local adjoint maps and their log-determinant primitive.

Importing the package imports none of its modules. The first use of a
public name loads the lane that defines it: an exact name loads the exact
modules (algebra, catalog, cohomology, fileformat, forms) without numpy,
and a finite-difference name loads the exact lane and then geometry, jets
and verify with numpy. Submodules imported directly, such as
`liechar.catalog` or `liechar.geometry`, load only what they import.
"""

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

# The PEP 562 hook loads lanes whole and in order, so a finite-difference
# name loads the exact lane first; only the second lane needs numpy. The
# exact module names are not hooked: `from liechar import catalog` imports
# that submodule alone.
_LANES = (("algebra", "catalog", "cohomology", "fileformat", "forms"), ("geometry", "jets", "verify"))


def __getattr__(name: str):
    from importlib import import_module

    if name not in __all__ and name not in _LANES[-1]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for lane in _LANES:
        modules = [import_module(f"{__name__}.{module}") for module in lane]
        for attr in __all__:
            owner = next((m for m in modules if hasattr(m, attr)), None)
            if owner is not None and attr not in namespace:
                namespace[attr] = getattr(owner, attr)
        if name in namespace:
            return namespace[name]
