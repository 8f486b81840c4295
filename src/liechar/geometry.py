"""Splittings from frame fields: connection, torsion, curvatures, the
obstruction 1-form, invariant fields, pointwise Lie algebras, local group
multiplications and their adjoint maps.

A frame field A(x) generates the splitting eps(x, y) = A(y) A(x)^{-1}.
Connection coefficients are stored as

    gamma[k, j, i] = Gamma_{kj}^i = (d_k A . A^{-1})[i, j]

so the first index is the derivative index and the component index i sits
last. Curvature tensors keep the alternated pair in front:

    r1[r, j, k, i] = [d_r Gamma_{jk}^i + Gamma_{rk}^a Gamma_{ja}^i] - (r <-> j)
    r2[r, j, k, i] = [d_r Gamma_{kj}^i + Gamma_{kr}^a Gamma_{aj}^i] - (r <-> j)

Alternation is a plain difference, no factor 1/2. The two-point curvature
r_full[k, j, i] alternates the pair (k, j) of

    d eps^i_j / dx^k + (d eps^i_j / dy^a) eps^a_k.

Points are batched: a frame matrix maps (..., n) points to (..., n, n)
arrays, a multiplication maps broadcastable (..., n) pairs to (..., n),
and the point functions below take one point or a stack of points (such
as Chart.lattice(p)) and put the same leading axes on every result,
per-point magnitudes and residuals included.

Every derivative of the frame is a central difference read from one
stencil: A is evaluated once at x, at x +- h e_k and at (x +- h e_r) +- h e_k,
and inverted only at x and x +- h e_r. Gamma, its derivative, r1, r2,
torsion, w, dw, the r2 trace, r_full and the structure functions are all
read from those arrays; gamma_from_splitting stays an independent route
through jets.jacobian, which `verify --suite geometry` certifies against
the stencil's gamma on every catalog frame. Each curvature expression is
written once, as a stencil method: r1_full() and r2_full() give r1 and r2
before alternation, two_point(other) gives r_full's expression at
(x, other.x) with its terms, and curvature(full) turns r1_full() or
r2_full() into the scaled CurvatureSample. The point functions,
bracket_defect_residual and curvature_sweep all call these. One driver,
_lattice_maxima, covers every lattice pass (record validation, the sweep,
local_algebra and log_det_ad_primitive_check): on
chart.lattice(points_per_axis), whose size the Chart decides and checks
before anything is built, it hands blocks of SWEEP_BLOCK_POINTS points and
their mirrors (the same positions of the reversed lattice) to a function
that returns the block's maxima. The sweep's r_full pairs a block with its mirror, whose stencil
needs A only at its points and their first neighbours. The log-det check
reads L at x +- h e_k for its log-determinants from the stencil of its w.

A sweep block holds the stencil's A arrays and Gamma throughout, dGamma
from r1 to the dw = tr r2 residual, and one full curvature tensor at a
time: r1 and r2 are alternated one r-slice at a time for their maxima, so
at most about 2 n^4 + 4 n^3 floats a point are alive. dGamma and dw are
dropped before the two-point stage, which adds only A at the mirror's
stencil and n^3 arrays.

FrameField and LocalGroupMultiplication derive from the package's _Record,
as Chart does: __init__ stores the fields and calls __post_init__, which
validates the callable through _lattice_maxima. The other records are
typing.NamedTuples, so geometry does not import dataclasses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import cached_property, partial, reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _Record
from .jets import (
    Chart,
    Form1J1T,
    J1TSection,
    VectorField,
    constant_field,
    jacobian,
    spencer_bracket,
    vector_field_bracket,
)

if TYPE_CHECKING:
    from .algebra import LieAlgebra

# Frames must stay invertible: |det A| on the sample lattice.
DET_FLOOR = 1e-6

# Pure matrix identities (no finite differences) must hold to this.
EXACT_TOL = 1e-12

# Rounded structure constants keep denominators up to this.
DENOMINATOR_CAP = 64

# |det Ad_e - 1| up to this counts as det Ad_e = 1.
AUTOMORPHY_TOL = 1e-6

# Every lattice computation builds the stencil of at most this many points
# at a time, so its memory follows the block, not the lattice. The time per
# point is flat from 128-point blocks up (identity(6) at --lattice 4), and
# 625 keeps the default dimension-4 lattice (5**4 points) one block; a
# curvature run on identity(6) peaks at 50 MB at --lattice 4 and 5 alike.
SWEEP_BLOCK_POINTS = 625


def sup_norm(arr: np.ndarray) -> float:
    a = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def point_sup(arr: np.ndarray, value_ndim: int) -> np.ndarray:
    """Sup norm of each point's value: max |arr| over the last value_ndim axes."""
    return np.abs(arr).max(axis=tuple(range(-value_ndim, 0)))


def _local_scale(*magnitudes) -> np.ndarray:
    """max(1, magnitudes...), elementwise over per-point magnitudes."""
    return reduce(np.maximum, magnitudes, 1.0)


def fd_tolerance(h: float, *magnitudes):
    """Zero test threshold for an O(h^2) finite-difference quantity; per
    point when the magnitudes are per-point arrays."""
    return 10.0 * h * h * _local_scale(*magnitudes)


def _batched(fn: Callable, shape: tuple[int, ...], label: str, *args: np.ndarray) -> np.ndarray:
    """fn(*args) on the chart lattice, required to follow the batched contract."""
    wanted = f"{label} must map (P, n) point stacks to {'(P, n, n)' if len(shape) == 3 else '(P, n)'} arrays"
    try:
        out = fn(*args)
    except (IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{wanted}; on the {shape[0]}-point lattice it raised {exc!r}") from exc
    if np.shape(out) != shape:
        raise ValueError(f"{wanted}; on the lattice it returned shape {np.shape(out)}, not {shape}")
    return out


class FrameField(_Record):
    """Invertible-matrix-valued map A on a chart, batched: matrix maps
    (..., n) points to (..., n, n) float arrays. Validated on the chart's
    default lattice, chart.lattice(), and refused with it from dimension 15
    on, where even 2 points per axis are over CURVATURE_LATTICE_CAP."""

    chart: Chart
    matrix: Callable[[np.ndarray], np.ndarray]

    def __init__(self, chart: Chart, matrix: Callable[[np.ndarray], np.ndarray]) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Refuse A unless it is batched, finite and |det A| >= DET_FLOOR on
        the default lattice, evaluated a block at a time."""

        def block_maxima(x: np.ndarray, _mirror: np.ndarray) -> dict[str, float]:
            values = _batched(self.matrix, (len(x),) + 2 * (self.chart.dim,), "frame matrix", x)
            if not np.isfinite(values).all():
                raise ValueError("frame matrix is not finite on the chart lattice")
            return {"minus_det": -np.abs(np.linalg.det(values)).min()}  # its maximum is the least |det A|

        worst = -_lattice_maxima(self.chart, None, block_maxima)["minus_det"]
        if worst < DET_FLOOR:
            raise ValueError(f"frame determinant falls to {worst:.3e} on the chart lattice")

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.matrix(x))


class Splitting(NamedTuple):
    """Two-point matrix eps(x, y) = A(y) A(x)^{-1} generated by a frame."""

    frame: FrameField

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.frame.matrix(y) @ self.frame.inverse(x)

    def cocycle_residual(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
        return sup_norm(self(y, z) @ self(x, y) - self(x, z))

    def identity_residual(self, x: np.ndarray) -> float:
        return sup_norm(self(x, x) - np.eye(self.frame.chart.dim))


class ConnectionSample(NamedTuple):
    """Connection coefficients at a point or a point stack;
    gamma[..., k, j, i] = Gamma_{kj}^i."""

    gamma: np.ndarray

    @property
    def scale(self) -> np.ndarray:
        """max(1, |gamma|) per point."""
        return _local_scale(point_sup(self.gamma, 3))


class CurvatureSample(NamedTuple):
    """A curvature tensor at a point (or point pair, for r_full), or at each
    point of a stack.

    scale is the per-point sup norm of the expression before alternation,
    the natural local magnitude for an is-this-zero tolerance.
    """

    tensor: np.ndarray
    scale: np.ndarray

    @property
    def max_abs(self) -> np.ndarray:
        """Sup norm of the tensor per point."""
        return point_sup(self.tensor, self.tensor.ndim - np.ndim(self.scale))


def _central(pairs, h: float, axis: int) -> np.ndarray:
    """Central differences from pairs (f(x + h e_k), f(x - h e_k)), stacked at axis."""
    return np.stack([(plus - minus) / (2 * h) for plus, minus in pairs], axis=axis)


def _gamma_from(shifted_a, inverse: np.ndarray, h: float) -> np.ndarray:
    """gamma[..., k, j, i] from A at x +- h e_k and A(x)^{-1}."""
    # m[..., k, i, j] = (d_k A . A^{-1})[i, j]
    m = _central(shifted_a, h, axis=-3) @ inverse[..., None, :, :]
    return m.swapaxes(-1, -2)


def _w_from(g: np.ndarray) -> np.ndarray:
    """w_i = Gamma_{ia}^a - Gamma_{ai}^a."""
    return np.einsum("...iaa->...i", g) - np.einsum("...aia->...i", g)


def _alternate(t: np.ndarray, axis: int) -> np.ndarray:
    """t minus t with the axes (axis, axis + 1) swapped."""
    return t - t.swapaxes(axis, axis + 1)


class _Stencil:
    """The frame on the central-difference stencil of a point or a point stack x.

    Every value is computed on first use and then kept: A and A^{-1} at x
    and at x +- h e_k (4n n^2 floats a point), Gamma and w at x, and
    `derivatives`, dGamma (n^4 floats a point) with dw. The derivatives come
    from one pass over r that evaluates A at (x +- h e_r) +- h e_k, holds one
    pair Gamma(x +- h e_r) at a time and drops it once its difference is
    written into dGamma. Those points are built from x +- h e_r, never merged
    with x, so every value is bitwise the one jets.jacobian applied twice
    would give. r1_full() and r2_full() build a fresh n^4 tensor on each
    call; a caller that reads neither dGamma nor dw again deletes
    `derivatives` to drop both.
    """

    def __init__(self, matrix: Callable[[np.ndarray], np.ndarray], h: float, x: np.ndarray):
        self.matrix = matrix
        self.x = x
        self.h = h
        self.steps = h * np.eye(x.shape[-1])  # row k is h e_k

    @cached_property
    def a(self) -> np.ndarray:
        return self.matrix(self.x)

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.a)

    @cached_property
    def shifted_a(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(A(x + h e_k), A(x - h e_k)) for each k."""
        return [(self.matrix(self.x + s), self.matrix(self.x - s)) for s in self.steps]

    @cached_property
    def shifted_inverse(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.linalg.inv(plus), np.linalg.inv(minus)) for plus, minus in self.shifted_a]

    @cached_property
    def gamma(self) -> np.ndarray:
        return _gamma_from(self.shifted_a, self.inverse, self.h)

    @cached_property
    def w(self) -> np.ndarray:
        return _w_from(self.gamma)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(dGamma, dw) from one pass over r that holds one pair
        Gamma(x +- h e_r) at a time and writes its central difference in place."""
        matrix, h, steps = self.matrix, self.h, self.steps
        n = len(steps)
        dgamma = np.empty(self.x.shape[:-1] + (n, n, n, n))
        d_w = np.empty(self.x.shape[:-1] + (n, n))

        def at(y: np.ndarray, inverse: np.ndarray) -> np.ndarray:
            return _gamma_from(((matrix(y + s), matrix(y - s)) for s in steps), inverse, h)

        for r, (s, (inverse_plus, inverse_minus)) in enumerate(zip(steps, self.shifted_inverse)):
            plus, minus = at(self.x + s, inverse_plus), at(self.x - s, inverse_minus)
            d_r = dgamma[..., r, :, :, :]
            np.subtract(plus, minus, out=d_r)
            d_r /= 2 * h
            d_w[..., r, :] = (_w_from(plus) - _w_from(minus)) / (2 * h)
        return dgamma, _alternate(d_w, -2)

    @property
    def dgamma(self) -> np.ndarray:
        """dg[..., r, k, j, i] = d_r Gamma_{kj}^i."""
        return self.derivatives[0]

    @property
    def dw(self) -> np.ndarray:
        """dw[..., r, j] = d_r w_j - d_j w_r."""
        return self.derivatives[1]

    def r1_full(self) -> np.ndarray:
        """F[..., r, j, k, i] = d_r Gamma_{jk}^i + Gamma_{rk}^a Gamma_{ja}^i, r1 before alternation."""
        g, dgamma = self.gamma, self.dgamma  # dGamma first, so its pass runs before the einsum output exists
        full = np.einsum("...rka,...jai->...rjki", g, g)
        full += dgamma
        return full

    def r2_full(self) -> np.ndarray:
        """F[..., r, j, k, i] = d_r Gamma_{kj}^i + Gamma_{kr}^a Gamma_{aj}^i, r2 before alternation."""
        g, dgamma = self.gamma, self.dgamma
        full = np.einsum("...kra,...aji->...rjki", g, g)
        full += dgamma.swapaxes(-3, -2)
        return full

    def curvature(self, full: np.ndarray) -> CurvatureSample:
        """The scaled sample of r1_full() or r2_full()."""
        # the FD error of the dG term tracks the local derivative magnitudes,
        # not the (possibly cancelling) value of the expression itself
        scale = _local_scale(point_sup(full, 4), point_sup(self.dgamma, 4), point_sup(self.gamma, 3) ** 2)
        return CurvatureSample(tensor=_alternate(full, -4), scale=scale)

    def two_point(self, other: _Stencil) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The two-point curvature at (x, y) = (self.x, other.x) before
        alternation, with its terms (d_x, d_y, eps_xy): A and A^{-1} at x and
        x +- h e_k, A at y and y +- h e_k."""
        a_y, inverse, h = other.a, self.inverse, self.h
        eps_xy = a_y @ inverse
        d_x = _central([(a_y @ plus, a_y @ minus) for plus, minus in self.shifted_inverse], h, axis=-3)
        d_y = _central([(plus @ inverse, minus @ inverse) for plus, minus in other.shifted_a], h, axis=-3)
        # full[..., k, j, i] = d eps^i_j/dx^k + (d eps^i_j/dy^a) eps^a_k
        full = d_x.swapaxes(-1, -2) + np.einsum("...aij,...ak->...kji", d_y, eps_xy)
        return full, (d_x, d_y, eps_xy)


def _stencil(frame: FrameField, x: np.ndarray) -> _Stencil:
    """The stencil of x, refused when a point lies within 2h of the boundary."""
    frame.chart.require_interior(x)
    return _Stencil(frame.matrix, frame.chart.h, x)


def gamma(frame: FrameField, x: np.ndarray) -> ConnectionSample:
    """Gamma_{kj}^i(x) = (d_k A . A^{-1})^i_j by central differences."""
    return ConnectionSample(gamma=_stencil(frame, x).gamma)


def gamma_from_splitting(frame: FrameField, x: np.ndarray) -> ConnectionSample:
    """Same coefficients read off the splitting: [d eps^i_j(x, y)/dy^k]_{y=x}.

    Independent arithmetic route from gamma(); used as a cross-check.
    """
    frame.chart.require_interior(x)
    eps = Splitting(frame)
    d = jacobian(lambda y: eps(x, y), x, frame.chart.h, axis=-3)  # d[..., k, i, j]
    return ConnectionSample(gamma=d.swapaxes(-1, -2))


def torsion(sample: ConnectionSample) -> np.ndarray:
    """T[..., j, k, i] = Gamma_{jk}^i - Gamma_{kj}^i."""
    return _alternate(sample.gamma, -3)


def r1(frame: FrameField, x: np.ndarray) -> CurvatureSample:
    """First curvature; vanishes identically for every frame splitting."""
    stencil = _stencil(frame, x)
    return stencil.curvature(stencil.r1_full())


def r2(frame: FrameField, x: np.ndarray) -> CurvatureSample:
    """Second curvature; zero exactly when the invariant fields close."""
    stencil = _stencil(frame, x)
    return stencil.curvature(stencil.r2_full())


def w_form(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Obstruction covector w_i = Gamma_{ia}^a - Gamma_{ai}^a."""
    return _stencil(frame, x).w


def _trace(r2_tensor: np.ndarray) -> np.ndarray:
    """The trace over the last two axes: [..., r, j] of r2, or [..., j] of one r-slice."""
    return np.einsum("...aa->...", r2_tensor)


def tr_r2(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Trace of the second curvature: Q[..., r, j] = r2[..., r, j, a, a]."""
    return _trace(_alternate(_stencil(frame, x).r2_full(), -4))


def w_exterior_derivative(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """dw[..., r, j] = d_r w_j - d_j w_r by central differences of w_form."""
    return _stencil(frame, x).dw


def _dw_residual(dw: np.ndarray, r2_tensor: np.ndarray) -> np.ndarray:
    return point_sup(dw - _trace(r2_tensor).swapaxes(-1, -2), 2)


def dw_tr_r2_residual(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Max deviation, per point, in: exterior derivative of w equals the r2 trace.

    The r2 trace pairs with dx^r ^ dx^j through its transposed leading
    pair, so the comparison is dw[r, j] against tr_r2[j, r].
    """
    stencil = _stencil(frame, x)
    return _dw_residual(stencil.dw, _alternate(stencil.r2_full(), -4))


def r_full(frame: FrameField, x: np.ndarray, y: np.ndarray) -> CurvatureSample:
    """Two-point curvature of the splitting at (x, y), or at each pair of
    two equally shaped point stacks."""
    full, (d_x, d_y, eps_xy) = _stencil(frame, x).two_point(_stencil(frame, y))
    scale = _local_scale(point_sup(full, 3), point_sup(d_x, 3), point_sup(d_y, 3), point_sup(eps_xy, 2) ** 2)
    return CurvatureSample(tensor=_alternate(full, -3), scale=scale)


def _lattice_maxima(chart: Chart, points_per_axis: int | None, block_maxima: Callable) -> dict[str, float]:
    """Maxima of block_maxima(block, mirror) over blocks of at most
    SWEEP_BLOCK_POINTS points of chart.lattice(points_per_axis) and their
    mirrors; a NaN stays NaN."""
    lattice, size = chart.lattice(points_per_axis), SWEEP_BLOCK_POINTS
    blocks = [block_maxima(lattice[i : i + size], lattice[::-1][i : i + size]) for i in range(0, len(lattice), size)]
    return {key: float(np.max([block[key] for block in blocks])) for key in blocks[0]}


def _alternated_slices(full: np.ndarray) -> Iterator[np.ndarray]:
    """The r-slices [..., j, k, i] of the alternated full[..., r, j, k, i], built one at a time."""
    return (full[..., r, :, :, :] - full[..., :, r, :, :] for r in range(full.shape[-4]))


def _block_maxima(frame: FrameField, x: np.ndarray, mirror: np.ndarray) -> dict[str, float]:
    """Sweep maxima over the point block x, none scaled; r_full pairs x with
    mirror. r1 and r2 are alternated one r-slice at a time, each full tensor
    is dropped before the next is built, and dGamma before the two-point stage."""
    stencil = _Stencil(frame.matrix, frame.chart.h, x)
    maxima = {"torsion_max": sup_norm(_alternate(stencil.gamma, -3)), "w_max": sup_norm(stencil.w)}
    full = stencil.r1_full()
    maxima["r1_max"] = float(np.max([sup_norm(t) for t in _alternated_slices(full)]))
    del full
    full = stencil.r2_full()
    # slice r of r2 holds tr_r2[r, j], which dw[j, r] must equal
    pairs = [(sup_norm(t), sup_norm(stencil.dw[..., r] - _trace(t))) for r, t in enumerate(_alternated_slices(full))]
    maxima["r2_max"], maxima["dw_tr_r2_residual"] = np.max(pairs, axis=0).tolist()
    del full, stencil.derivatives
    maxima["r_full_diagonal_max"] = sup_norm(_alternate(stencil.two_point(stencil)[0], -3))
    maxima["r_full_max"] = sup_norm(_alternate(stencil.two_point(_Stencil(frame.matrix, stencil.h, mirror))[0], -3))
    return maxima


def curvature_sweep(frame: FrameField, points_per_axis: int) -> dict[str, float]:
    """Maxima of r1, r2, torsion, w, r_full and the dw = tr r2 residual over
    the chart lattice, block by block; r_full pairs each point with its
    mirror in the lattice order, and its diagonal pairs it with itself."""
    return _lattice_maxima(frame.chart, points_per_axis, partial(_block_maxima, frame))


def invariant_field(frame: FrameField, p: np.ndarray, v: np.ndarray) -> VectorField:
    """The field xi(x) = eps(p, x) v, invariant under the splitting."""
    seed = frame.inverse(p) @ np.asarray(v, dtype=float)

    def field(x: np.ndarray) -> np.ndarray:
        return frame.matrix(x) @ seed

    return field


def gamma_lift(frame: FrameField, xi: VectorField, variant: str = "tilde") -> J1TSection:
    """Jet section over a vector field with connection-generated matrix part.

    variant 'tilde': matrix[i, j] = Gamma_{ja}^i xi^a (the splitting lift);
    variant 'hat':   matrix[i, j] = Gamma_{aj}^i xi^a (the horizontal lift).
    """
    if variant not in ("tilde", "hat"):
        raise ValueError(f"unknown lift variant {variant!r}")
    pattern = "...jai,...a->...ij" if variant == "tilde" else "...aji,...a->...ij"

    def matrix(x: np.ndarray) -> np.ndarray:
        return np.einsum(pattern, _Stencil(frame.matrix, frame.chart.h, x).gamma, xi(x))

    return J1TSection(chart=frame.chart, vector_part=xi, matrix_part=matrix)


def bracket_defect_residual(
    frame: FrameField,
    xi: VectorField,
    eta: VectorField,
    x: np.ndarray,
    variant: str = "tilde",
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the curvature formula for the lift's bracket defect.

    For the tilde lift, lift([xi, eta]) - spencer_bracket(lift xi, lift eta)
    has matrix part r2[a, b, j, i] Y^a X^b (with X = xi(x), Y = eta(x));
    for the hat lift the same contraction of r1, which vanishes. Returns
    (residual, local magnitude scale), each per point.
    """
    stencil = _stencil(frame, x)
    lifted = gamma_lift(frame, vector_field_bracket(frame.chart, xi, eta), variant)
    pairwise = spencer_bracket(gamma_lift(frame, xi, variant), gamma_lift(frame, eta, variant))
    defect = lifted.matrix_part(x) - pairwise.matrix_part(x)
    curv = stencil.curvature(stencil.r2_full() if variant == "tilde" else stencil.r1_full())
    x_val, y_val = xi(x), eta(x)
    expected = np.einsum("...bji,...b->...ij", np.einsum("...abji,...a->...bji", curv.tensor, y_val), x_val)
    magnitude = curv.scale * _local_scale(point_sup(x_val, 1)) * _local_scale(point_sup(y_val, 1))
    return point_sup(defect - expected, 2), magnitude


def trace_one_form(frame: FrameField) -> Form1J1T:
    """The jet-algebroid 1-form (Gamma_{ia}^a, -identity) of the frame."""

    def covector(x: np.ndarray) -> np.ndarray:
        return np.einsum("...iaa->...i", _Stencil(frame.matrix, frame.chart.h, x).gamma)

    return Form1J1T(chart=frame.chart, covector_part=covector, matrix_part=constant_field(-np.eye(frame.chart.dim)))


def structure_functions(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """c[..., i, j, k] with [xi_(i), xi_(j)] = c_{ij}^a xi_(a), 0-based indices.

    xi_(i) is column i of the frame; brackets by central differences.
    """
    stencil = _stencil(frame, x)
    a, n = stencil.a, x.shape[-1]
    # jac[..., a, c, j] = d_a A^c_j; column field xi_(j)^c = A^c_j.
    jac = _central(stencil.shifted_a, stencil.h, axis=-3)
    # [xi_(i), xi_(j)]^c = t[i, j, c] - t[j, i, c], t[i, j, c] = (d_a A^c_j) A^a_i
    t = (a.swapaxes(-1, -2) @ jac.reshape(jac.shape[:-3] + (n, n * n))).reshape(jac.shape).swapaxes(-1, -2)
    return (t - t.swapaxes(-3, -2)) @ stencil.inverse.swapaxes(-1, -2)[..., None, :, :]


class LocalAlgebraError(ValueError):
    """Frame's structure functions do not determine a Lie algebra."""


def local_algebra(frame: FrameField, p: np.ndarray, points_per_axis: int | None = None) -> LieAlgebra:
    """Round the structure functions at p, one point of shape (n,), to a
    validated rational algebra; p of any other shape is refused by it.

    Fails if the functions vary over frame.chart.lattice(points_per_axis) or
    miss their rounding (by more than ten times the finite-difference
    tolerance, or by NaN), or if the rounded constants violate the Jacobi identity.
    """
    # the exact lane is imported here, so the rest of geometry runs without it
    from fractions import Fraction

    from .algebra import LieAlgebra

    n, p = frame.chart.dim, np.asarray(p, dtype=float)
    if p.shape != (n,):
        raise ValueError(f"local_algebra takes one point of the {n}-dimensional chart, of shape ({n},), not {p.shape}")
    c_p = structure_functions(frame, p[None])[0]
    spread = _lattice_maxima(
        frame.chart, points_per_axis, lambda x, _mirror: {"spread": sup_norm(structure_functions(frame, x) - c_p)}
    )["spread"]
    scale = max(1.0, sup_norm(c_p))
    tol = 10.0 * fd_tolerance(frame.chart.h, scale)
    if not spread <= tol:
        raise LocalAlgebraError(f"structure functions vary by {spread:.3e} over the lattice (tol {tol:.3e})")
    constants: dict[tuple[int, int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = Fraction(float(c_p[i, j, k])).limit_denominator(DENOMINATOR_CAP)
                miss = abs(float(c_p[i, j, k]) - float(value))
                if not miss <= tol:
                    raise LocalAlgebraError(f"c[{i + 1},{j + 1},{k + 1}] misses {value} by {miss:.3e} (tol {tol:.3e})")
                if value != 0:
                    constants[(i + 1, j + 1, k + 1)] = value
    algebra = LieAlgebra(dim=n, c=constants)
    report = algebra.validate()
    if not report.ok:
        raise LocalAlgebraError(f"rounded constants violate Jacobi at {report.violations}")
    return algebra


class LocalGroupMultiplication(_Record):
    """Local multiplication m on a chart with two-sided identity e, batched:
    multiply maps broadcastable (..., n) pairs to (..., n) float arrays."""

    chart: Chart
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray

    def __init__(
        self, chart: Chart, multiply: Callable[[np.ndarray, np.ndarray], np.ndarray], identity: np.ndarray
    ) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "multiply", multiply)
        object.__setattr__(self, "identity", identity)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Keep a read-only copy of e and refuse m unless e is one point of
        the chart, interior, and the identity laws hold on the chart's
        default lattice, chart.lattice(), a block at a time."""
        e = np.array(self.identity, dtype=float)  # a copy, so freezing it leaves the caller's array writable
        if e.shape != (self.chart.dim,):
            # a shape that broadcasts against the lattice would pass the laws below
            raise ValueError(f"identity has shape {e.shape}, not ({self.chart.dim},) as the chart's points")
        e.flags.writeable = False
        object.__setattr__(self, "identity", e)
        if not self.chart.contains(e, margin=2 * self.chart.h):
            raise ValueError("identity must be interior to the chart")

        def block_maxima(x: np.ndarray, _mirror: np.ndarray) -> dict[str, float]:
            residual = self.identity_residual(x)
            if not np.isfinite(residual):
                raise ValueError("multiply is not finite on the chart lattice")
            return {"residual": residual}

        worst = _lattice_maxima(self.chart, None, block_maxima)["residual"]
        if worst > EXACT_TOL:
            raise ValueError(f"identity laws fail by {worst:.3e} on the chart lattice")

    def identity_residual(self, x: np.ndarray) -> float:
        e = self.identity
        x = np.asarray(x, dtype=float)
        return float(np.max([sup_norm(_batched(self.multiply, x.shape, "multiply", *p) - x) for p in ((e, x), (x, e))]))

    def associativity_residual(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
        m = self.multiply
        return sup_norm(m(m(a, b), c) - m(a, m(b, c)))

    def left_jacobian(self, a: np.ndarray) -> np.ndarray:
        """Jacobian of b -> m(a, b) at b = e."""
        return jacobian(lambda b: self.multiply(a, b), self.identity, self.chart.h)

    def right_jacobian(self, a: np.ndarray) -> np.ndarray:
        """Jacobian of x -> m(x, a) at x = e."""
        return jacobian(lambda x: self.multiply(x, a), self.identity, self.chart.h)


def frame_from_multiplication(mult: LocalGroupMultiplication) -> FrameField:
    """Frame A(x) = left-translation Jacobian; generates the same splitting."""
    return FrameField(chart=mult.chart, matrix=mult.left_jacobian)


def _left_det(left: np.ndarray, a: np.ndarray) -> np.ndarray:
    """det of the left-translation Jacobian left at a, refused when singular."""
    det = np.linalg.det(left)
    singular = np.abs(det) < DET_FLOOR
    if np.any(singular):
        raise ValueError(
            f"left-translation Jacobian is singular at {np.asarray(a)[singular][0]} (det {det[singular][0]:.3e})"
        )
    return det


def ad_e(mult: LocalGroupMultiplication, a: np.ndarray) -> np.ndarray:
    """Local adjoint matrix (left Jacobian)^{-1} . (right Jacobian) at a."""
    lj = mult.left_jacobian(a)
    _left_det(lj, a)
    return np.linalg.inv(lj) @ mult.right_jacobian(a)


def log_det_ad_primitive_check(
    mult: LocalGroupMultiplication, points_per_axis: int | None = None
) -> tuple[float, float]:
    """Max deviation of -grad log |det Ad_e| from the frame's w over
    mult.chart.lattice(points_per_axis).

    Two independent routes on each block's stencil of A = L, the
    left-translation Jacobian, read from mult.left_jacobian and not checked
    as a FrameField (that would validate L on a lattice this check never
    reads): w from Gamma, which inverts L at the lattice points only, and
    central differences of -log |det Ad_e| = log |det L| - log |det R| with
    Ad_e = L^{-1} R, which read L at x +- h e_k from the same stencil and
    invert nothing. Refuses a lattice point or neighbour where L is
    singular. Returns (residual, local magnitude scale).
    """

    def minus_log_det_ad(y: np.ndarray, left: np.ndarray) -> np.ndarray:
        return np.log(np.abs(_left_det(left, y))) - np.log(np.abs(np.linalg.det(mult.right_jacobian(y))))

    def block_maxima(x: np.ndarray, _mirror: np.ndarray) -> dict[str, float]:
        stencil = _Stencil(mult.left_jacobian, mult.chart.h, x)
        _left_det(stencil.a, x)
        shifted = zip(stencil.steps, stencil.shifted_a)
        pairs = [(minus_log_det_ad(x + s, plus), minus_log_det_ad(x - s, minus)) for s, (plus, minus) in shifted]
        minus_grad = _central(pairs, stencil.h, axis=-1)
        return {"residual": sup_norm(minus_grad - stencil.w), "w": sup_norm(stencil.w)}

    maxima = _lattice_maxima(mult.chart, points_per_axis, block_maxima)
    return maxima["residual"], max(1.0, maxima["w"])


def automorphy_check(mult: LocalGroupMultiplication, elements: np.ndarray | Sequence[np.ndarray]) -> list[bool]:
    """det Ad_e(delta) = 1 at each element of a (P, n) point stack (or a list
    of points), from one ad_e call.

    A true value means the element does not obstruct: the log-det primitive
    is automorphic with respect to it.
    """
    n, points = mult.chart.dim, np.asarray(elements, dtype=float)
    if points.size and points.shape[-1] != n:  # reshaped, it would read as another number of points
        raise ValueError(f"elements must be points of the {n}-dimensional chart, got shape {points.shape}")
    points = points.reshape(-1, n)
    if not mult.chart.contains(points):
        outside = next(p for p in points if not mult.chart.contains(p))
        raise ValueError(f"element {outside} lies outside the multiplication chart")
    return (np.abs(np.linalg.det(ad_e(mult, points)) - 1.0) <= AUTOMORPHY_TOL).tolist()
