"""Built-in example algebras, frame fields, and local multiplications.

Every entry is hand-verified: algebras pass the Jacobi validation, frames
meet the invertibility bound on their chart lattice, multiplications
satisfy the identity laws. The names are stable identifiers used by the
command line interface.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Union

from .algebra import LieAlgebra, lie_algebra

if TYPE_CHECKING:
    from .geometry import FrameField, LocalGroupMultiplication
    from .jets import Chart

# Frame and multiplication builders import numpy and the finite-difference
# modules when they build, so that importing the catalog (and the exact
# lane through it) does not.
Payload = Union[LieAlgebra, "FrameField", "LocalGroupMultiplication"]

ABELIAN_MAX_DIM = 6

KINDS = ("algebra", "frame", "multiplication")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    payload: Payload
    note: str


def _unit_box(n: int, h: float = 1e-3) -> Chart:
    from .jets import Chart

    return Chart(lower=tuple([-1.0] * n), upper=tuple([1.0] * n), h=h)


def _halfplane_box(h: float = 1e-3) -> Chart:
    from .jets import Chart

    # first coordinate kept away from 0 so 1/x1 frames stay invertible
    return Chart(lower=(0.5, -1.0), upper=(2.5, 1.0), h=h)


def _abelian_algebra(n: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"abelian({n})",
        kind="algebra",
        payload=lie_algebra(n, {}),
        note=f"{n}-dimensional algebra with all brackets zero",
    )


def _heisenberg3() -> CatalogEntry:
    return CatalogEntry(
        name="heisenberg3",
        kind="algebra",
        payload=lie_algebra(3, {(1, 2, 3): 1}, names=("p", "q", "z")),
        note="nilpotent 3-dimensional algebra [p, q] = z with central z",
    )


def _affine1() -> CatalogEntry:
    return CatalogEntry(
        name="affine1",
        kind="algebra",
        payload=lie_algebra(2, {(1, 2, 2): 1}, names=("t", "s")),
        note="affine transformations of the line, [t, s] = s; solvable, not unimodular",
    )


def _borel_sl2() -> CatalogEntry:
    return CatalogEntry(
        name="borel_sl2",
        kind="algebra",
        payload=lie_algebra(2, {(1, 2, 2): 2}, names=("h", "x")),
        note="upper-triangular traceless 2x2 matrices, basis (h, x) with [h, x] = 2x",
    )


def _sl2() -> CatalogEntry:
    return CatalogEntry(
        name="sl2",
        kind="algebra",
        payload=lie_algebra(
            3,
            {(1, 2, 1): -2, (1, 3, 2): 1, (2, 3, 3): -2},
            names=("X", "H", "Y"),
        ),
        note="traceless 2x2 matrices in the (X, H, Y) basis: [H,X]=2X, [X,Y]=H, [H,Y]=-2Y",
    )


def _so3() -> CatalogEntry:
    return CatalogEntry(
        name="so3",
        kind="algebra",
        payload=lie_algebra(
            3,
            {(1, 2, 3): -1, (1, 3, 2): 1, (2, 3, 1): -1},
            names=("A", "B", "C"),
        ),
        note="rotation algebra, orthogonal basis with [A,C] = B and [B,C] = -A",
    )


def _sl2_plus_abelian2() -> CatalogEntry:
    return CatalogEntry(
        name="sl2_plus_abelian2",
        kind="algebra",
        payload=lie_algebra(
            5,
            {(1, 2, 1): -2, (1, 3, 2): 1, (2, 3, 3): -2},
            names=("X", "H", "Y", "u", "v"),
        ),
        note="direct sum of sl2 with a 2-dimensional center; reductive, not semisimple",
    )


def _identity_frame(n: int) -> CatalogEntry:
    import numpy as np

    from .geometry import FrameField

    eye = np.eye(n)
    return CatalogEntry(
        name=f"identity({n})",
        kind="frame",
        payload=FrameField(chart=_unit_box(n), matrix=lambda x: np.broadcast_to(eye, x.shape[:-1] + (n, n))),
        note=f"constant identity frame on the unit box in dimension {n}",
    )


def _affine_halfplane() -> CatalogEntry:
    import numpy as np

    from .geometry import FrameField

    def matrix(x: np.ndarray) -> np.ndarray:
        return x[..., 0, None, None] * np.eye(2)

    return CatalogEntry(
        name="affine_halfplane",
        kind="frame",
        payload=FrameField(chart=_halfplane_box(), matrix=matrix),
        note="A(x) = x1 * identity on {x1 > 0}; left-translation frame of the affine group",
    )


def _unipotent_sin() -> CatalogEntry:
    import numpy as np

    from .geometry import FrameField
    from .jets import Chart

    def matrix(x: np.ndarray) -> np.ndarray:
        a = np.zeros(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = a[..., 1, 1] = 1.0
        a[..., 1, 0] = np.sin(x[..., 1])
        return a

    return CatalogEntry(
        name="unipotent_sin",
        kind="frame",
        payload=FrameField(
            chart=Chart(lower=(0.2, 0.2), upper=(1.2, 1.2)),
            matrix=matrix,
        ),
        note="lower unipotent frame with entry sin(x2); its invariant fields do not close",
    )


def _borel_frame() -> CatalogEntry:
    import numpy as np

    from .geometry import FrameField

    def matrix(x: np.ndarray) -> np.ndarray:
        a = np.zeros(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = a[..., 1, 1] = x[..., 0]
        a[..., 1, 0] = -x[..., 1]
        return a

    return CatalogEntry(
        name="borel_frame",
        kind="frame",
        payload=FrameField(chart=_halfplane_box(), matrix=matrix),
        note="left-translation frame of the Borel group in coordinates (a, b), a > 0",
    )


def _abelian_multiplication(n: int) -> CatalogEntry:
    import numpy as np

    from .geometry import LocalGroupMultiplication

    return CatalogEntry(
        name=f"abelian({n})",
        kind="multiplication",
        payload=LocalGroupMultiplication(
            chart=_unit_box(n),
            multiply=lambda a, b: a + b,
            identity=np.zeros(n),
        ),
        note=f"vector addition on the unit box in dimension {n}",
    )


def _affine_group() -> CatalogEntry:
    import numpy as np

    from .geometry import LocalGroupMultiplication

    def multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        a, b = p[..., 0], p[..., 1]
        c, d = q[..., 0], q[..., 1]
        return np.stack([a * c, a * d + b], axis=-1)

    return CatalogEntry(
        name="affine_group",
        kind="multiplication",
        payload=LocalGroupMultiplication(chart=_halfplane_box(), multiply=multiply, identity=np.array([1.0, 0.0])),
        note="x -> ax + b maps composed as (a,b)(c,d) = (ac, ad + b), identity (1, 0)",
    )


def _borel_sl2_group() -> CatalogEntry:
    import numpy as np

    from .geometry import LocalGroupMultiplication

    def multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        a1, b1 = p[..., 0], p[..., 1]
        a2, b2 = q[..., 0], q[..., 1]
        return np.stack([a1 * a2, a1 * b2 + b1 / a2], axis=-1)

    return CatalogEntry(
        name="borel_sl2_group",
        kind="multiplication",
        payload=LocalGroupMultiplication(chart=_halfplane_box(), multiply=multiply, identity=np.array([1.0, 0.0])),
        note="upper-triangular (a, b; 0, 1/a) matrices, a > 0, in the coordinates (a, b)",
    )


# Every entry, keyed by (kind, name); list_names() prints them as "kind:name".
_TABLE: dict[tuple[str, str], Callable[[], CatalogEntry]] = {
    ("algebra", "heisenberg3"): _heisenberg3,
    ("algebra", "affine1"): _affine1,
    ("algebra", "borel_sl2"): _borel_sl2,
    ("algebra", "sl2"): _sl2,
    ("algebra", "so3"): _so3,
    ("algebra", "sl2_plus_abelian2"): _sl2_plus_abelian2,
    ("frame", "affine_halfplane"): _affine_halfplane,
    ("frame", "unipotent_sin"): _unipotent_sin,
    ("frame", "borel_frame"): _borel_frame,
    ("multiplication", "affine_group"): _affine_group,
    ("multiplication", "borel_sl2_group"): _borel_sl2_group,
    **{("algebra", f"abelian({n})"): partial(_abelian_algebra, n) for n in range(1, ABELIAN_MAX_DIM + 1)},
    **{("frame", f"identity({n})"): partial(_identity_frame, n) for n in range(1, ABELIAN_MAX_DIM + 1)},
    **{("multiplication", f"abelian({n})"): partial(_abelian_multiplication, n) for n in range(1, ABELIAN_MAX_DIM + 1)},
}


def get(name: str, kind: str | None = None) -> CatalogEntry:
    """Fetch an entry by name; ambiguous names resolve algebra first.

    Accepts the 'kind:name' form produced by list_names().
    """
    if kind is None and ":" in name:
        prefix, rest = name.split(":", 1)
        if prefix in KINDS:
            kind, name = prefix, rest
    kinds = (kind,) if kind is not None else KINDS
    for candidate in kinds:
        if candidate not in KINDS:
            raise KeyError(f"unknown catalog kind {candidate!r}")
        builder = _TABLE.get((candidate, name))
        if builder is not None:
            return builder()
    where = f" of kind {kind!r}" if kind else ""
    raise KeyError(f"no catalog entry named {name!r}{where}")


def list_entries() -> list[CatalogEntry]:
    """Every entry, built afresh, sorted by (kind, name)."""
    return [_TABLE[key]() for key in sorted(_TABLE)]


def list_names() -> list[str]:
    return [f"{kind}:{name}" for kind, name in sorted(_TABLE)]
