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

The validated records of both lanes (LieAlgebra, AlternatingForm, Chart,
FrameField, LocalGroupMultiplication) derive from _Record, defined here
because every process imports this file and the base needs neither lane.
"""

__version__ = "0.1.0"

__all__ = [
    "AlgebraFileError",
    "AlternatingForm",
    "BETTI_DIM_CAP",
    "CatalogEntry",
    "Chart",
    "ConnectionSample",
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


class _Record:
    """Read-only value record. Its fields are the names its class annotates,
    in order, which __init__ stores with object.__setattr__ (a field may
    instead be computed on first read). == (same class only), hash and repr
    read those fields and nothing else, so caches may sit beside them; an
    array field compares by value."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # an array (anything with tolist) compares by value, as nested lists
        values = [[x.tolist() if hasattr(x, "tolist") else x for x in r._fields()] for r in (self, other)]
        return values[0] == values[1]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"{type(self).__name__}({fields})"


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
