"""Built-in example algebras, frame fields, and local multiplications.

Every entry is hand-verified: algebras pass the Jacobi validation, frames
meet the invertibility bound on their chart lattice, multiplications
satisfy the identity laws. The names are stable identifiers used by the
command line interface.

Each entry is built and validated at most once per process, on its first
lookup, and every later lookup returns the same shared object. Callers
must not change a payload; derive a new object instead.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from functools import cache, partial
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    import numpy as np

    from .algebra import LieAlgebra
    from .geometry import FrameField, LocalGroupMultiplication

# Each builder imports the modules of its kind when it builds: algebras the
# exact algebra module, frames and multiplications numpy and the
# finite-difference modules. So importing the catalog, or listing it, loads
# neither lane.
Payload = Union["LieAlgebra", "FrameField", "LocalGroupMultiplication"]

ABELIAN_MAX_DIM = 6

KINDS = ("algebra", "frame", "multiplication")


class CatalogEntry(NamedTuple):
    name: str
    kind: str
    payload: Payload
    note: str


def _algebra(dim: int, brackets: dict[tuple[int, int, int], int], names: tuple[str, ...] = ()) -> LieAlgebra:
    from .algebra import lie_algebra

    return lie_algebra(dim, brackets, names=names)


def _frame(lower: tuple[float, ...], upper: tuple[float, ...], matrix: Callable) -> FrameField:
    from .geometry import FrameField
    from .jets import Chart

    return FrameField(chart=Chart(lower=lower, upper=upper), matrix=matrix)


def _multiplication(
    lower: tuple[float, ...], upper: tuple[float, ...], multiply: Callable, identity: tuple[float, ...]
) -> LocalGroupMultiplication:
    import numpy as np

    from .geometry import LocalGroupMultiplication
    from .jets import Chart

    chart = Chart(lower=lower, upper=upper)
    return LocalGroupMultiplication(chart=chart, multiply=multiply, identity=np.array(identity))


def _unit_box(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return (-1.0,) * n, (1.0,) * n


# first coordinate kept away from 0 so 1/x1 frames stay invertible
_HALFPLANE = ((0.5, -1.0), (2.5, 1.0))


def _identity_matrix(n: int, x: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))


def _scaled_identity(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return x[..., 0, None, None] * np.eye(2)


def _lower_triangular(x: np.ndarray, diagonal: float | np.ndarray, below: np.ndarray) -> np.ndarray:
    import numpy as np

    a = np.zeros(x.shape[:-1] + (2, 2))
    a[..., 0, 0] = a[..., 1, 1] = diagonal
    a[..., 1, 0] = below
    return a


def _unipotent_sin(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return _lower_triangular(x, 1.0, np.sin(x[..., 1]))


def _borel_matrix(x: np.ndarray) -> np.ndarray:
    return _lower_triangular(x, x[..., 0], -x[..., 1])


def _affine_multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    import numpy as np

    a, b = p[..., 0], p[..., 1]
    c, d = q[..., 0], q[..., 1]
    return np.stack([a * c, a * d + b], axis=-1)


def _borel_sl2_multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    import numpy as np

    a1, b1 = p[..., 0], p[..., 1]
    a2, b2 = q[..., 0], q[..., 1]
    return np.stack([a1 * a2, a1 * b2 + b1 / a2], axis=-1)


_SL2 = {(1, 2, 1): -2, (1, 3, 2): 1, (2, 3, 3): -2}

# The only place an entry is declared: (kind, name) -> (note, build), where
# build() returns the payload. list_names() prints the keys as "kind:name".
_TABLE: dict[tuple[str, str], tuple[str, Callable[[], Payload]]] = {
    ("algebra", "heisenberg3"): (
        "nilpotent 3-dimensional algebra [p, q] = z with central z",
        partial(_algebra, 3, {(1, 2, 3): 1}, names=("p", "q", "z")),
    ),
    ("algebra", "affine1"): (
        "affine transformations of the line, [t, s] = s; solvable, not unimodular",
        partial(_algebra, 2, {(1, 2, 2): 1}, names=("t", "s")),
    ),
    ("algebra", "borel_sl2"): (
        "upper-triangular traceless 2x2 matrices, basis (h, x) with [h, x] = 2x",
        partial(_algebra, 2, {(1, 2, 2): 2}, names=("h", "x")),
    ),
    ("algebra", "sl2"): (
        "traceless 2x2 matrices in the (X, H, Y) basis: [H,X]=2X, [X,Y]=H, [H,Y]=-2Y",
        partial(_algebra, 3, _SL2, names=("X", "H", "Y")),
    ),
    ("algebra", "so3"): (
        "rotation algebra, orthogonal basis with [A,C] = B and [B,C] = -A",
        partial(_algebra, 3, {(1, 2, 3): -1, (1, 3, 2): 1, (2, 3, 1): -1}, names=("A", "B", "C")),
    ),
    ("algebra", "sl2_plus_abelian2"): (
        "direct sum of sl2 with a 2-dimensional center; reductive, not semisimple",
        partial(_algebra, 5, _SL2, names=("X", "H", "Y", "u", "v")),
    ),
    ("frame", "affine_halfplane"): (
        "A(x) = x1 * identity on {x1 > 0}; left-translation frame of the affine group",
        partial(_frame, *_HALFPLANE, _scaled_identity),
    ),
    ("frame", "unipotent_sin"): (
        "lower unipotent frame with entry sin(x2); its invariant fields do not close",
        partial(_frame, (0.2, 0.2), (1.2, 1.2), _unipotent_sin),
    ),
    ("frame", "borel_frame"): (
        "left-translation frame of the Borel group in coordinates (a, b), a > 0",
        partial(_frame, *_HALFPLANE, _borel_matrix),
    ),
    ("multiplication", "affine_group"): (
        "x -> ax + b maps composed as (a,b)(c,d) = (ac, ad + b), identity (1, 0)",
        partial(_multiplication, *_HALFPLANE, _affine_multiply, (1.0, 0.0)),
    ),
    ("multiplication", "borel_sl2_group"): (
        "upper-triangular (a, b; 0, 1/a) matrices, a > 0, in the coordinates (a, b)",
        partial(_multiplication, *_HALFPLANE, _borel_sl2_multiply, (1.0, 0.0)),
    ),
}
for _n in range(1, ABELIAN_MAX_DIM + 1):
    _TABLE["algebra", f"abelian({_n})"] = (
        f"{_n}-dimensional algebra with all brackets zero",
        partial(_algebra, _n, {}),
    )
    _TABLE["frame", f"identity({_n})"] = (
        f"constant identity frame on the unit box in dimension {_n}",
        partial(_frame, *_unit_box(_n), partial(_identity_matrix, _n)),
    )
    _TABLE["multiplication", f"abelian({_n})"] = (
        f"vector addition on the unit box in dimension {_n}",
        partial(_multiplication, *_unit_box(_n), operator.add, (0.0,) * _n),
    )


@cache
def _entry(kind: str, name: str) -> CatalogEntry:
    # a build that raises is not cached, so it raises again on the next lookup
    note, build = _TABLE[kind, name]
    return CatalogEntry(name=name, kind=kind, payload=build(), note=note)


def get(name: str, kind: str | None = None) -> CatalogEntry:
    """Fetch an entry by name; ambiguous names resolve algebra first.

    Accepts the 'kind:name' form produced by list_names().
    """
    if kind is None and ":" in name:
        prefix, rest = name.split(":", 1)
        if prefix in KINDS:
            kind, name = prefix, rest
    for candidate in (kind,) if kind is not None else KINDS:
        if candidate not in KINDS:
            raise KeyError(f"unknown catalog kind {candidate!r}")
        if (candidate, name) in _TABLE:
            return _entry(candidate, name)
    where = f" of kind {kind!r}" if kind else ""
    raise KeyError(f"no catalog entry named {name!r}{where}")


def list_entries() -> list[CatalogEntry]:
    """Every entry, sorted by (kind, name); each is the shared object get() returns."""
    return [_entry(*key) for key in sorted(_TABLE)]


def list_names() -> list[str]:
    return [f"{kind}:{name}" for kind, name in sorted(_TABLE)]
