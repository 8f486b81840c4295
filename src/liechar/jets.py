"""First-order jets of vector fields on a coordinate chart.

A jet section carries a vector part X^i(x) and a matrix part X^i_j(x),
both plain callables into numpy arrays. All derivatives are second-order
central differences with the chart's step h, so identities involving one
derivative hold to O(h^2) on smooth test fields.

Points are batched: every field and operation below takes one point (n,)
or a stack (..., n) and maps it to (..., n) vectors, (..., n, n) matrices
or (...) scalars (0-d for one point). Fields written on x[..., i] do both.

Index conventions, used consistently below and in geometry:
    vector_part(x)[..., i]    = X^i
    matrix_part(x)[..., i, j] = X^i_j
    covector_part(x)[..., i]  = w_i      (for 1-forms of the jet algebroid)
    form matrix[..., i, j] pairs with X^i_j in the pairing

No record is a dataclass, so the FD lane does not import dataclasses (and
with it inspect, ast, dis and tokenize). A record that validates its fields
(Chart here, FrameField and LocalGroupMultiplication in geometry) derives
from the package's _Record, which makes its annotated fields read-only and
gives ==, hash and repr over them alone; its __init__ stores the fields and
calls __post_init__. The others are typing.NamedTuples.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _Record

VectorField = Callable[[np.ndarray], np.ndarray]
MatrixField = Callable[[np.ndarray], np.ndarray]
ScalarField = Callable[[np.ndarray], np.ndarray]

# The most points of any chart lattice (Chart.lattice_points_per_axis), so
# the most that record validation, curvature_sweep, local_algebra and
# log_det_ad_primitive_check take; they run in blocks, so it is a time limit.
# identity(6), the costliest catalog frame per point, takes 0.16 ms a point
# for the one sweep of a curvature run on a 2-vCPU host (its residuals are
# exact, so the h/2 sweep is skipped): 0.95 s at 4 points per axis, 2.7 s
# at 5 (15,625 points), and 6 (46,656 points) would take about 8 s, twice
# that for a 6-dimensional frame whose residuals need the second sweep.
CURVATURE_LATTICE_CAP = 20_000


class Chart(_Record):
    """Axis-aligned coordinate box with a finite-difference step.

    Attributes:
        lower, upper: box corners, length-n tuples of finite floats with
            lower < upper; corners given as other sequences or arrays are
            stored as such tuples.
        h: central-difference step; must be at most a tenth of the
            shortest box side so that stencils stay meaningful, and must
            change every corner coordinate when added or subtracted.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    h: float

    def __init__(self, lower: tuple[float, ...], upper: tuple[float, ...], h: float = 1e-3) -> None:
        # tuples of Python floats, so that + joins the corners, == and hash
        # do not depend on how they were given, and a chart is hashable
        object.__setattr__(self, "lower", tuple(map(float, lower)))
        object.__setattr__(self, "upper", tuple(map(float, upper)))
        object.__setattr__(self, "h", h)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimensions differ")
        # a NaN side passes or fails min() by its place, and an infinite
        # corner has no lattice, so both are refused before the sides
        if not np.isfinite(self.lower + self.upper).all():
            raise ValueError(f"chart corners must be finite, got lower={self.lower!r}, upper={self.upper!r}")
        sides = [hi - lo for lo, hi in zip(self.lower, self.upper)]
        if min(sides) <= 0:
            raise ValueError("box must be nonempty")
        if not 0 < self.h <= min(sides) / 10:
            raise ValueError("step h must be positive and at most a tenth of the shortest side")
        # the largest coordinates sit at the corners: a step that vanishes
        # there would make every difference quotient read 0
        for v in self.lower + self.upper:
            if v + self.h == v or v - self.h == v:
                raise ValueError(f"step h={self.h!r} vanishes in float arithmetic at the corner coordinate {v!r}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def with_step(self, h: float) -> "Chart":
        return Chart(lower=self.lower, upper=self.upper, h=h)

    def _inside(self, x: np.ndarray, margin: float) -> np.ndarray:
        """Per-point membership of a point or a stack of points (..., n);
        refuses a last axis other than n, which would broadcast against the corners."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"a {self.dim}-dimensional chart takes points of shape (..., {self.dim}), not {x.shape}")
        return np.all((np.add(self.lower, margin) <= x) & (x <= np.subtract(self.upper, margin)), axis=-1)

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        """True when x, or every point of a stack x, lies in the box shrunk by margin."""
        return bool(np.all(self._inside(x, margin)))

    def require_interior(self, x: np.ndarray) -> None:
        """Reject a point, or a stack with any point, within 2h of the boundary."""
        x = np.asarray(x, dtype=float)
        outside = ~self._inside(x, 2 * self.h)
        if np.any(outside):
            raise ValueError(f"point {x[outside][0]} is within 2h of the chart boundary")

    def lattice_points_per_axis(self, points_per_axis: int | None = None) -> int:
        """The points per axis of lattice(points_per_axis), by default the
        most, 5 down to 2, whose lattice fits CURVATURE_LATTICE_CAP (5 up to
        dimension 6, 4 at 7, 3 at 8-9, 2 from 10 on). Refuses fewer than 2 and
        a lattice over the cap, as even the default is from dimension 15 on."""
        if points_per_axis is None:
            points_per_axis = next((p for p in (5, 4, 3) if p**self.dim <= CURVATURE_LATTICE_CAP), 2)
        if points_per_axis < 2:
            raise ValueError(f"a lattice needs at least 2 points per axis, got {points_per_axis}")
        if points_per_axis**self.dim > CURVATURE_LATTICE_CAP:
            raise ValueError(
                f"{points_per_axis} points per axis give {points_per_axis**self.dim} lattice points,"
                f" over the cap CURVATURE_LATTICE_CAP = {CURVATURE_LATTICE_CAP}"
            )
        return points_per_axis

    def lattice(self, points_per_axis: int | None = None) -> np.ndarray:
        """Interior sample lattice, p = lattice_points_per_axis(points_per_axis)
        points per axis excluding a boundary margin of 2h, as one read-only
        (p**n, n) array with the last axis varying fastest. Built once per box,
        step and size, and shared (_lattice); a refused size builds nothing."""
        return _lattice(self.lower, self.upper, self.h, self.lattice_points_per_axis(points_per_axis))


# Every FrameField and LocalGroupMultiplication validates its chart's default
# lattice: a borel_frame FrameField took 102 us with the lattice rebuilt and
# 19-30 us with it cached (in-process, best of 7 x 2000). The cache lives
# here, not on the Chart, so that equal charts share one array, and is
# bounded so that it cannot grow with the charts a process makes.
@lru_cache(maxsize=32)
def _lattice(lower: tuple[float, ...], upper: tuple[float, ...], h: float, points_per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo + 2 * h, hi - 2 * h, points_per_axis) for lo, hi in zip(lower, upper)]
    # copy=False: the axes are broadcast views, so only the stacked lattice is allocated
    points = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(lower))
    points.flags.writeable = False
    return points


def partial_derivative(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, j: int, h: float):
    """Central difference of f along coordinate j (0-based) at a point or a
    stack of points x of shape (..., n)."""
    step = np.zeros(x.shape[-1])
    step[j] = h
    return (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2 * h)


def jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Central differences of f along every coordinate j, stacked at axis of
    the result: J[..., i, j] = dF^i/dx^j for the default axis=-1. The only
    stencil; gradient is the same function."""
    return np.stack([partial_derivative(f, x, j, h) for j in range(x.shape[-1])], axis=axis)


gradient = jacobian


def _apply(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Per-point matrix-vector product: out[..., i] = matrix[..., i, a] vector[..., a]."""
    return np.sum(matrix * vector[..., None, :], axis=-1)


class J1TSection(NamedTuple):
    """Section of the first jet bundle of the tangent bundle over a chart."""

    chart: Chart
    vector_part: VectorField
    matrix_part: MatrixField


class Form1J1T(NamedTuple):
    """1-form of the jet algebroid: a covector part and a matrix part."""

    chart: Chart
    covector_part: VectorField
    matrix_part: MatrixField


def prolong(chart: Chart, xi: VectorField) -> J1TSection:
    """Holonomic lift: matrix part is the Jacobian of the vector part."""
    return J1TSection(
        chart=chart,
        vector_part=xi,
        matrix_part=lambda x: jacobian(xi, x, chart.h),
    )


def constant_field(value: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The field equal to value at every point, broadcast to x.shape[:-1] + value.shape."""
    value = np.array(value, dtype=float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def constant_section(chart: Chart, vector: np.ndarray, matrix: np.ndarray) -> J1TSection:
    return J1TSection(chart=chart, vector_part=constant_field(vector), matrix_part=constant_field(matrix))


def vector_field_bracket(chart: Chart, xi: VectorField, eta: VectorField) -> VectorField:
    """[xi, eta]^i = xi^a d_a eta^i - eta^a d_a xi^i."""

    def bracket(x: np.ndarray) -> np.ndarray:
        return _apply(jacobian(eta, x, chart.h), xi(x)) - _apply(jacobian(xi, x, chart.h), eta(x))

    return bracket


def _require_same_chart(a, b) -> Chart:
    if a.chart is not b.chart and a.chart != b.chart:
        raise ValueError("sections live on different charts")
    return a.chart


def spencer_bracket(a: J1TSection, b: J1TSection) -> J1TSection:
    """Algebroid bracket on jet sections.

    Vector part is the ordinary bracket of the vector parts; matrix part is

        [X, Y]^i_j = X^a_j Y^i_a - Y^a_j X^i_a + X^a d_a Y^i_j - Y^a d_a X^i_j.
    """
    chart = _require_same_chart(a, b)

    def matrix(x: np.ndarray) -> np.ndarray:
        xv, yv = a.vector_part(x)[..., None, None], b.vector_part(x)[..., None, None]
        xm, ym = a.matrix_part(x), b.matrix_part(x)
        d_xm = jacobian(a.matrix_part, x, chart.h, axis=-3)  # [..., c, i, j] = d_c X^i_j
        d_ym = jacobian(b.matrix_part, x, chart.h, axis=-3)
        return ym @ xm - xm @ ym + np.sum(xv * d_ym - yv * d_xm, axis=-3)

    return J1TSection(
        chart=chart,
        vector_part=vector_field_bracket(chart, a.vector_part, b.vector_part),
        matrix_part=matrix,
    )


def spencer_operator(a: J1TSection) -> MatrixField:
    """D(X)^i_j = d_j X^i - X^i_j, the holonomy defect of the section."""

    def defect(x: np.ndarray) -> np.ndarray:
        return jacobian(a.vector_part, x, a.chart.h) - a.matrix_part(x)

    return defect


def algebraic_bracket(a: J1TSection, b: J1TSection) -> VectorField:
    """{X, Y}^i = X^a Y^i_a - Y^a X^i_a, pointwise with no derivatives."""
    _require_same_chart(a, b)

    def bracket(x: np.ndarray) -> np.ndarray:
        return _apply(b.matrix_part(x), a.vector_part(x)) - _apply(a.matrix_part(x), b.vector_part(x))

    return bracket


def lie_derivative(a: J1TSection, xi: VectorField) -> VectorField:
    """L_X xi = [pi X, xi] + i_xi D(X), a representation of jets on fields."""
    base = vector_field_bracket(a.chart, a.vector_part, xi)
    defect = spencer_operator(a)

    def derivative(x: np.ndarray) -> np.ndarray:
        return base(x) + _apply(defect(x), xi(x))

    return derivative


def pairing(form: Form1J1T, section: J1TSection) -> ScalarField:
    """w(X) = X^a w_a + X^a_b w_a^b as a scalar field."""
    _require_same_chart(form, section)

    def value(x: np.ndarray) -> np.ndarray:
        return np.sum(section.vector_part(x) * form.covector_part(x), axis=-1) + np.sum(
            section.matrix_part(x) * form.matrix_part(x), axis=(-2, -1)
        )

    return value


def delta_one_form(form: Form1J1T, a: J1TSection, b: J1TSection) -> ScalarField:
    """Exterior derivative of a 1-form, paired with two jet sections.

    delta w (X, Y) = (X^c Y^a - Y^c X^a) d_c w_a
                   + (X^c Y^a_b - Y^c X^a_b) d_c w^b_a
                   - (X^c_b Y^a_c - Y^c_b X^a_c) w^b_a

    where the form matrix entry [a, b] pairs with X^a_b.
    """
    chart = _require_same_chart(a, b)
    _require_same_chart(form, a)

    def value(x: np.ndarray) -> np.ndarray:
        xv, yv = a.vector_part(x), b.vector_part(x)
        xm, ym = a.matrix_part(x), b.matrix_part(x)
        d_cov = jacobian(form.covector_part, x, chart.h)  # [..., a, c] = d_c w_a
        d_mat = jacobian(form.matrix_part, x, chart.h, axis=-3)  # [..., c, a, b] = d_c w^b_a
        # products then sums keep a batched call bitwise equal to one-point
        # calls, which a three-operand einsum does not
        one = yv[..., :, None] * xv[..., None, :]  # [..., a, c] = Y^a X^c
        mixed = xv[..., :, None, None] * ym[..., None, :, :] - yv[..., :, None, None] * xm[..., None, :, :]
        return (
            np.sum((one - one.swapaxes(-1, -2)) * d_cov, axis=(-2, -1))
            + np.sum(mixed * d_mat, axis=(-3, -2, -1))
            - np.sum((ym @ xm - xm @ ym) * form.matrix_part(x), axis=(-2, -1))
        )

    return value
