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
as Chart.lattice()) and put the same leading axes on every result,
per-point magnitudes and residuals included.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .algebra import LieAlgebra
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

# Frames must stay invertible: |det A| on the sample lattice.
DET_FLOOR = 1e-6

# Pure matrix identities (no finite differences) must hold to this.
EXACT_TOL = 1e-12

# Rounded structure constants keep denominators up to this.
DENOMINATOR_CAP = 64

# |det Ad_e - 1| up to this counts as det Ad_e = 1.
AUTOMORPHY_TOL = 1e-6


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


@dataclass(frozen=True)
class FrameField:
    """Invertible-matrix-valued map A on a chart, batched: matrix maps
    (..., n) points to (..., n, n) float arrays."""

    chart: Chart
    matrix: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lattice = self.chart.lattice()
        n = self.chart.dim
        values = _batched(self.matrix, (len(lattice), n, n), "frame matrix", lattice)
        worst = np.min(np.abs(np.linalg.det(values)))
        if worst < DET_FLOOR:
            raise ValueError(f"frame determinant falls to {worst:.3e} on the chart lattice")

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.matrix(x))


@dataclass(frozen=True)
class Splitting:
    """Two-point matrix eps(x, y) = A(y) A(x)^{-1} generated by a frame."""

    frame: FrameField

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.frame.matrix(y) @ self.frame.inverse(x)

    def cocycle_residual(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
        return sup_norm(self(y, z) @ self(x, y) - self(x, z))

    def identity_residual(self, x: np.ndarray) -> float:
        return sup_norm(self(x, x) - np.eye(self.frame.chart.dim))


@dataclass(frozen=True)
class ConnectionSample:
    """Connection coefficients at a point or a point stack;
    gamma[..., k, j, i] = Gamma_{kj}^i."""

    point: np.ndarray
    gamma: np.ndarray

    @property
    def scale(self) -> np.ndarray:
        """max(1, |gamma|) per point."""
        return _local_scale(point_sup(self.gamma, 3))


@dataclass(frozen=True)
class CurvatureSample:
    """A curvature tensor at a point (or point pair, for kind 'r_full'),
    or at each point of a stack.

    scale is the per-point sup norm of the expression before alternation,
    the natural local magnitude for an is-this-zero tolerance.
    """

    point: np.ndarray
    tensor: np.ndarray
    kind: str
    scale: np.ndarray
    second_point: np.ndarray | None = None

    @property
    def max_abs(self) -> np.ndarray:
        """Sup norm of the tensor per point."""
        return point_sup(self.tensor, self.tensor.ndim - self.point.ndim + 1)


def _gamma_tensor(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """gamma[..., k, j, i] without the interiority check (stencil helpers)."""
    # m[..., k, i, j] = (d_k A . A^{-1})[i, j]
    m = jacobian(frame.matrix, x, frame.chart.h, axis=-3) @ frame.inverse(x)[..., None, :, :]
    return m.swapaxes(-1, -2)


def gamma(frame: FrameField, x: np.ndarray) -> ConnectionSample:
    """Gamma_{kj}^i(x) = (d_k A . A^{-1})^i_j by central differences."""
    frame.chart.require_interior(x)
    return ConnectionSample(point=np.asarray(x, dtype=float), gamma=_gamma_tensor(frame, x))


def gamma_from_splitting(frame: FrameField, x: np.ndarray) -> ConnectionSample:
    """Same coefficients read off the splitting: [d eps^i_j(x, y)/dy^k]_{y=x}.

    Independent arithmetic route from gamma(); used as a cross-check.
    """
    frame.chart.require_interior(x)
    eps = Splitting(frame)
    d = jacobian(lambda y: eps(x, y), x, frame.chart.h, axis=-3)  # d[..., k, i, j]
    return ConnectionSample(point=np.asarray(x, dtype=float), gamma=d.swapaxes(-1, -2))


def torsion(sample: ConnectionSample) -> np.ndarray:
    """T[..., j, k, i] = Gamma_{jk}^i - Gamma_{kj}^i."""
    return sample.gamma - sample.gamma.swapaxes(-3, -2)


def _curvature(frame: FrameField, x: np.ndarray, kind: str) -> CurvatureSample:
    g = _gamma_tensor(frame, x)
    dg = jacobian(lambda y: _gamma_tensor(frame, y), x, frame.chart.h, axis=-4)
    # dg[..., r, k, j, i] = d_r Gamma_{kj}^i
    if kind == "r1":
        # F[r, j, k, i] = d_r Gamma_{jk}^i + Gamma_{rk}^a Gamma_{ja}^i
        first = dg
        second = np.einsum("...rka,...jai->...rjki", g, g)
    elif kind == "r2":
        # F[r, j, k, i] = d_r Gamma_{kj}^i + Gamma_{kr}^a Gamma_{aj}^i
        first = dg.swapaxes(-3, -2)
        second = np.einsum("...kra,...aji->...rjki", g, g)
    else:
        raise ValueError(f"unknown curvature kind {kind!r}")
    full = first + second
    tensor = full - full.swapaxes(-4, -3)
    # the FD error of the dG term tracks the local derivative magnitudes,
    # not the (possibly cancelling) value of the expression itself
    local = _local_scale(point_sup(full, 4), point_sup(dg, 4), point_sup(g, 3) ** 2)
    return CurvatureSample(
        point=np.asarray(x, dtype=float),
        tensor=tensor,
        kind=kind,
        scale=local,
    )


def r1(frame: FrameField, x: np.ndarray) -> CurvatureSample:
    """First curvature; vanishes identically for every frame splitting."""
    frame.chart.require_interior(x)
    return _curvature(frame, x, "r1")


def r2(frame: FrameField, x: np.ndarray) -> CurvatureSample:
    """Second curvature; zero exactly when the invariant fields close."""
    frame.chart.require_interior(x)
    return _curvature(frame, x, "r2")


def w_form(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Obstruction covector w_i = Gamma_{ia}^a - Gamma_{ai}^a."""
    frame.chart.require_interior(x)
    return _w_raw(frame, x)


def _w_raw(frame: FrameField, x: np.ndarray) -> np.ndarray:
    g = _gamma_tensor(frame, x)
    return np.einsum("...iaa->...i", g) - np.einsum("...aia->...i", g)


def tr_r2(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Trace of the second curvature: Q[..., r, j] = r2[..., r, j, a, a]."""
    frame.chart.require_interior(x)
    return np.einsum("...rjaa->...rj", _curvature(frame, x, "r2").tensor)


def w_exterior_derivative(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """dw[..., r, j] = d_r w_j - d_j w_r by central differences of w_form."""
    frame.chart.require_interior(x)
    dw = jacobian(lambda y: _w_raw(frame, y), x, frame.chart.h, axis=-2)
    return dw - dw.swapaxes(-1, -2)


def dw_tr_r2_residual(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """Max deviation, per point, in: exterior derivative of w equals the r2 trace.

    The r2 trace pairs with dx^r ^ dx^j through its transposed leading
    pair, so the comparison is dw[r, j] against tr_r2[j, r].
    """
    return point_sup(w_exterior_derivative(frame, x) - tr_r2(frame, x).swapaxes(-1, -2), 2)


def r_full(frame: FrameField, x: np.ndarray, y: np.ndarray) -> CurvatureSample:
    """Two-point curvature of the splitting at (x, y), or at each pair of
    two equally shaped point stacks."""
    frame.chart.require_interior(x)
    frame.chart.require_interior(y)
    eps = Splitting(frame)
    h = frame.chart.h
    eps_xy = eps(x, y)
    d_x = jacobian(lambda u: eps(u, y), x, h, axis=-3)
    d_y = jacobian(lambda v: eps(x, v), y, h, axis=-3)
    # full[..., k, j, i] = d eps^i_j/dx^k + (d eps^i_j/dy^a) eps^a_k
    full = d_x.swapaxes(-1, -2) + np.einsum("...aij,...ak->...kji", d_y, eps_xy)
    tensor = full - full.swapaxes(-3, -2)
    local = _local_scale(point_sup(full, 3), point_sup(d_x, 3), point_sup(d_y, 3), point_sup(eps_xy, 2) ** 2)
    return CurvatureSample(
        point=np.asarray(x, dtype=float),
        second_point=np.asarray(y, dtype=float),
        tensor=tensor,
        kind="r_full",
        scale=local,
    )


def invariant_field(frame: FrameField, p: np.ndarray, v: np.ndarray) -> VectorField:
    """The field xi(x) = eps(p, x) v, invariant under the splitting."""
    seed = frame.inverse(p) @ np.asarray(v, dtype=float)

    def field(x: np.ndarray) -> np.ndarray:
        return frame.matrix(x) @ seed

    return field


def invariant_field_pde_residual(frame: FrameField, p: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Max residual, per point, of d_j X^i = Gamma_{ja}^i X^a at x."""
    frame.chart.require_interior(x)
    field = invariant_field(frame, p, v)
    jac = jacobian(field, x, frame.chart.h)
    expected = np.einsum("...jai,...a->...ij", _gamma_tensor(frame, x), field(x))
    return point_sup(jac - expected, 2)


def gamma_lift(frame: FrameField, xi: VectorField, variant: str = "tilde") -> J1TSection:
    """Jet section over a vector field with connection-generated matrix part.

    variant 'tilde': matrix[i, j] = Gamma_{ja}^i xi^a (the splitting lift);
    variant 'hat':   matrix[i, j] = Gamma_{aj}^i xi^a (the horizontal lift).
    """
    if variant not in ("tilde", "hat"):
        raise ValueError(f"unknown lift variant {variant!r}")
    pattern = "...jai,...a->...ij" if variant == "tilde" else "...aji,...a->...ij"

    def matrix(x: np.ndarray) -> np.ndarray:
        return np.einsum(pattern, _gamma_tensor(frame, x), xi(x))

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
    frame.chart.require_interior(x)
    lifted = gamma_lift(frame, vector_field_bracket(frame.chart, xi, eta), variant)
    pairwise = spencer_bracket(gamma_lift(frame, xi, variant), gamma_lift(frame, eta, variant))
    defect = lifted.matrix_part(x) - pairwise.matrix_part(x)
    curv = _curvature(frame, x, "r2" if variant == "tilde" else "r1")
    x_val, y_val = xi(x), eta(x)
    expected = np.einsum("...bji,...b->...ij", np.einsum("...abji,...a->...bji", curv.tensor, y_val), x_val)
    magnitude = curv.scale * _local_scale(point_sup(x_val, 1)) * _local_scale(point_sup(y_val, 1))
    return point_sup(defect - expected, 2), magnitude


def trace_one_form(frame: FrameField) -> Form1J1T:
    """The jet-algebroid 1-form (Gamma_{ia}^a, -identity) of the frame."""

    def covector(x: np.ndarray) -> np.ndarray:
        return np.einsum("...iaa->...i", _gamma_tensor(frame, x))

    return Form1J1T(chart=frame.chart, covector_part=covector, matrix_part=constant_field(-np.eye(frame.chart.dim)))


def structure_functions(frame: FrameField, x: np.ndarray) -> np.ndarray:
    """c[..., i, j, k] with [xi_(i), xi_(j)] = c_{ij}^a xi_(a), 0-based indices.

    xi_(i) is column i of the frame; brackets by central differences.
    """
    frame.chart.require_interior(x)
    a_x = frame.matrix(x)
    # jac[..., a, c, j] = d_a A^c_j; column field xi_(j)^c = A^c_j.
    jac = jacobian(frame.matrix, x, frame.chart.h, axis=-3)
    # [xi_(i), xi_(j)]^c = t[i, j, c] - t[j, i, c], t[i, j, c] = (d_a A^c_j) A^a_i
    t = np.einsum("...acj,...ai->...ijc", jac, a_x)
    return np.einsum("...kc,...ijc->...ijk", np.linalg.inv(a_x), t - t.swapaxes(-3, -2))


class LocalAlgebraError(ValueError):
    """Frame's structure functions do not determine a Lie algebra."""


def local_algebra(frame: FrameField, p: np.ndarray, points_per_axis: int = 5) -> LieAlgebra:
    """Round the structure functions at p to a validated rational algebra.

    Fails if the functions vary over the chart lattice or miss their rounding
    (by more than ten times the finite-difference tolerance), or if the
    rounded constants violate the Jacobi identity.
    """
    c_p = structure_functions(frame, p)
    spread = sup_norm(structure_functions(frame, frame.chart.lattice(points_per_axis)) - c_p)
    scale = max(1.0, sup_norm(c_p))
    tol = 10.0 * fd_tolerance(frame.chart.h, scale)
    if spread > tol:
        raise LocalAlgebraError(f"structure functions vary by {spread:.3e} over the lattice (tol {tol:.3e})")
    n = frame.chart.dim
    constants: dict[tuple[int, int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = Fraction(float(c_p[i, j, k])).limit_denominator(DENOMINATOR_CAP)
                miss = abs(float(c_p[i, j, k]) - float(value))
                if miss > tol:
                    raise LocalAlgebraError(f"c[{i + 1},{j + 1},{k + 1}] misses {value} by {miss:.3e} (tol {tol:.3e})")
                if value != 0:
                    constants[(i + 1, j + 1, k + 1)] = value
    algebra = LieAlgebra(dim=n, c=constants)
    report = algebra.validate()
    if not report.ok:
        raise LocalAlgebraError(f"rounded constants violate Jacobi at {report.violations}")
    return algebra


@dataclass(frozen=True)
class LocalGroupMultiplication:
    """Local multiplication m on a chart with two-sided identity e, batched:
    multiply maps broadcastable (..., n) pairs to (..., n) float arrays."""

    chart: Chart
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray

    def __post_init__(self):
        e = np.array(self.identity, dtype=float)  # a copy, so freezing it leaves the caller's array writable
        e.flags.writeable = False
        object.__setattr__(self, "identity", e)
        if not self.chart.contains(e, margin=2 * self.chart.h):
            raise ValueError("identity must be interior to the chart")
        lattice = self.chart.lattice()
        worst = max(
            sup_norm(_batched(self.multiply, lattice.shape, "multiply", *pair) - lattice)
            for pair in ((e, lattice), (lattice, e))
        )
        if worst > EXACT_TOL:
            raise ValueError(f"identity laws fail by {worst:.3e} on the chart lattice")

    def identity_residual(self, x: np.ndarray) -> float:
        e = self.identity
        x = np.asarray(x, dtype=float)
        return max(sup_norm(self.multiply(e, x) - x), sup_norm(self.multiply(x, e) - x))

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


def ad_e(mult: LocalGroupMultiplication, a: np.ndarray) -> np.ndarray:
    """Local adjoint matrix (left Jacobian)^{-1} . (right Jacobian) at a."""
    lj = mult.left_jacobian(a)
    det = np.linalg.det(lj)
    singular = np.abs(det) < DET_FLOOR
    if np.any(singular):
        raise ValueError(
            f"left-translation Jacobian is singular at {np.asarray(a)[singular][0]} (det {det[singular][0]:.3e})"
        )
    return np.linalg.inv(lj) @ mult.right_jacobian(a)


def log_det_ad(mult: LocalGroupMultiplication) -> Callable[[np.ndarray], np.ndarray]:
    def value(x: np.ndarray) -> np.ndarray:
        return np.log(np.abs(np.linalg.det(ad_e(mult, x))))

    return value


def log_det_ad_primitive_check(mult: LocalGroupMultiplication, points_per_axis: int = 5) -> tuple[float, float]:
    """Max lattice deviation of -grad log det Ad_e from the frame's w.

    Returns (residual, local magnitude scale).
    """
    lattice = mult.chart.lattice(points_per_axis)
    w = _w_raw(frame_from_multiplication(mult), lattice)
    minus_grad = -jacobian(log_det_ad(mult), lattice, mult.chart.h)
    return sup_norm(minus_grad - w), max(1.0, sup_norm(w))


def automorphy_check(mult: LocalGroupMultiplication, elements: Sequence[np.ndarray]) -> list[bool]:
    """det Ad_e(delta) = 1 per element; an (n, n) array is taken as Ad itself.

    A true value means the element does not obstruct: the log-det primitive
    is automorphic with respect to it.
    """
    results = []
    for element in elements:
        arr = np.asarray(element, dtype=float)
        if arr.ndim == 2:
            ad = arr
        else:
            if not mult.chart.contains(arr):
                raise ValueError(f"element {arr} lies outside the multiplication chart")
            ad = ad_e(mult, arr)
        results.append(bool(abs(np.linalg.det(ad) - 1.0) <= AUTOMORPHY_TOL))
    return results


@dataclass(frozen=True)
class Curve:
    """Sampled solution of dx/dt = eps(e, x) v; exited marks early abort."""

    times: np.ndarray
    points: np.ndarray
    exited: bool


def one_parameter_curve(
    frame: FrameField,
    e: np.ndarray,
    v: np.ndarray,
    t_final: float,
    steps: int,
) -> Curve:
    """Classical fourth-order integration of the left-invariant flow."""
    frame.chart.require_interior(np.asarray(e, dtype=float))
    if steps < 1:
        raise ValueError("need at least one step")
    velocity = invariant_field(frame, e, v)
    dt = t_final / steps
    times = [0.0]
    points = [np.asarray(e, dtype=float)]
    exited = False
    x = points[0]
    for step in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * dt * k1)
        k3 = velocity(x + 0.5 * dt * k2)
        k4 = velocity(x + dt * k3)
        nxt = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not frame.chart.contains(nxt):
            exited = True
            break
        x = nxt
        times.append((step + 1) * dt)
        points.append(x)
    return Curve(times=np.array(times), points=np.array(points), exited=exited)
