"""Connections, curvatures, and local group data from frame fields."""

import operator
import re
import time
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import _Record, catalog, geometry, jets, linalg, verify
from liechar.algebra import LieAlgebra
from liechar.forms import AlternatingForm
from liechar.geometry import (
    FrameField,
    LocalAlgebraError,
    LocalGroupMultiplication,
    Splitting,
    ad_e,
    automorphy_check,
    bracket_defect_residual,
    curvature_sweep,
    dw_tr_r2_residual,
    fd_tolerance,
    frame_from_multiplication,
    gamma,
    gamma_from_splitting,
    gamma_lift,
    invariant_field,
    local_algebra,
    log_det_ad_primitive_check,
    point_sup,
    r1,
    r2,
    r_full,
    structure_functions,
    sup_norm,
    torsion,
    tr_r2,
    trace_one_form,
    w_exterior_derivative,
    w_form,
)
from liechar.jets import CURVATURE_LATTICE_CAP, Chart, delta_one_form, jacobian, prolong


def frame_of(name: str) -> FrameField:
    return catalog.get(name, kind="frame").payload


def mult_of(name: str) -> LocalGroupMultiplication:
    return catalog.get(name, kind="multiplication").payload


GROUP_FRAMES = ("identity(2)", "affine_halfplane", "borel_frame")
ALL_FRAMES = GROUP_FRAMES + ("unipotent_sin",)
# the catalog frames up to dimension 3, where a local algebra takes milliseconds
SMALL_FRAMES = ALL_FRAMES + ("identity(1)", "identity(3)")


def test_fd_tolerance_model() -> None:
    assert fd_tolerance(1e-3) == pytest.approx(1e-5)
    assert fd_tolerance(1e-3, 3.0) == pytest.approx(3e-5)
    assert fd_tolerance(1e-3, 0.2, 0.4) == pytest.approx(1e-5)


def test_records_are_read_only_and_compare_by_value() -> None:
    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    frame = FrameField(chart, frame_of("identity(2)").matrix)
    mult = mult_of("affine_group")
    sample = gamma(frame, np.zeros(2))
    records = [
        (chart, "h"),
        (frame, "matrix"),
        (mult, "identity"),
        (Splitting(frame), "frame"),
        (sample, "gamma"),
        (r1(frame, np.zeros(2)), "scale"),
        (trace_one_form(frame), "chart"),
        (prolong(chart, lambda x: x), "vector_part"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot delete field 'chart' of FrameField"):
        del frame.chart
    # a second chart with equal fields is equal and hashes alike, which the
    # jet operations' same-chart check relies on
    twin = Chart((-1.0, -1.0), (1.0, 1.0), 1e-3)
    assert twin == chart and hash(twin) == hash(chart) and twin is not chart
    assert twin != chart.with_step(5e-4) and chart != (chart.lower, chart.upper, chart.h)
    assert repr(chart) == "Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0), h=0.001)"
    assert FrameField(chart=twin, matrix=frame.matrix) == frame
    assert hash(FrameField(twin, frame.matrix)) == hash(frame)
    assert repr(frame) == f"FrameField(chart={chart!r}, matrix={frame.matrix!r})"
    assert repr(mult).startswith("LocalGroupMultiplication(chart=Chart(") and "identity=array([" in repr(mult)
    assert repr(sample).startswith("ConnectionSample(gamma=array(")
    with pytest.raises(TypeError):
        Chart((0.0,), (1.0,), 0.01, 0.02)


def test_records_of_both_lanes_share_one_protocol() -> None:
    # the exact lane's records too, so the one base is checked in one place
    for cls in (LieAlgebra, AlternatingForm, Chart, FrameField, LocalGroupMultiplication):
        assert cls.__bases__ == (_Record,), cls
        assert not {"__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls
    form = AlternatingForm(1, 2, {(1,): 1})
    with pytest.raises(AttributeError, match="cannot assign to field 'degree' of AlternatingForm"):
        form.degree = 2
    with pytest.raises(TypeError):
        hash(form)


def test_an_attribute_beside_the_fields_leaves_eq_hash_and_repr_alone() -> None:
    mult = mult_of("affine_group")
    frame = frame_from_multiplication(mult)
    chart = mult.chart
    twins = [
        (chart, Chart(chart.lower, chart.upper, chart.h)),
        (frame, FrameField(frame.chart, frame.matrix)),
        (mult, LocalGroupMultiplication(mult.chart, mult.multiply, mult.identity)),
    ]
    for record, twin in twins:
        before = repr(record)
        object.__setattr__(record, "cache", object())
        assert record == twin and twin == record and repr(record) == before
    assert hash(chart) == hash(twins[0][1]) and hash(frame) == hash(twins[1][1])
    with pytest.raises(TypeError):
        hash(mult)


def test_equal_multiplications_with_distinct_identity_arrays_compare_equal() -> None:
    mult = mult_of("affine_group")
    twin = LocalGroupMultiplication(mult.chart, mult.multiply, list(mult.identity))
    assert twin.identity is not mult.identity
    assert twin == mult and mult == twin
    assert LocalGroupMultiplication(mult.chart.with_step(5e-4), mult.multiply, mult.identity) != mult
    other = mult_of("borel_sl2_group")
    assert LocalGroupMultiplication(mult.chart, other.multiply, mult.identity) != mult


def test_frame_rejects_singular_matrix() -> None:
    def matrix(x: np.ndarray) -> np.ndarray:
        a = np.zeros(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = x[..., 0]  # det A = x1 vanishes on the middle of the lattice
        a[..., 1, 1] = 1.0
        return a

    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    with pytest.raises(ValueError, match="determinant falls to 0.000e"):
        FrameField(chart=chart, matrix=matrix)


def test_frame_rejects_a_matrix_that_is_nan_on_part_of_the_lattice() -> None:
    # det A = (2 + sqrt(x1))**2 is NaN for x1 < 0, and NaN < DET_FLOOR is False
    def matrix(x: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return (2.0 + np.sqrt(x[..., 0]))[..., None, None] * np.eye(2)

    with pytest.raises(ValueError, match="frame matrix is not finite on the chart lattice"):
        FrameField(chart=Chart(lower=(-0.5, -1.0), upper=(1.5, 1.0)), matrix=matrix)


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 2)])
def test_multiplication_refuses_an_identity_of_the_wrong_shape(shape) -> None:
    # (1,) broadcasts against the lattice, so the identity laws alone let it
    # through and ad_e then failed inside numpy; (3,) and (2, 2) failed there
    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"identity has shape {shape}, not (2,)")):
        LocalGroupMultiplication(chart=chart, multiply=operator.add, identity=np.zeros(shape))


def test_multiplication_that_is_nan_on_part_of_the_lattice_is_refused() -> None:
    # m(x, e) is NaN for x < -0.5, while m(e, x) = x holds exactly everywhere
    def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b + np.where(a < -0.5, np.nan, 0.0)

    e = np.zeros(1)
    with pytest.raises(ValueError, match="multiply is not finite on the chart lattice"):
        LocalGroupMultiplication(chart=Chart(lower=(-1.0,), upper=(1.0,)), multiply=multiply, identity=e)
    mult = LocalGroupMultiplication(chart=Chart(lower=(-0.4,), upper=(1.0,)), multiply=multiply, identity=e)
    assert mult.identity_residual(np.array([[0.5]])) == 0.0
    assert np.isnan(mult.identity_residual(np.array([[0.5], [-0.8]])))


def test_local_algebra_refuses_structure_functions_that_are_nan() -> None:
    # the identity frame, NaN on the band |x1 - 1/3| < 0.05: the band misses
    # the 5-point lattice that FrameField checks, but holds a point of the
    # 4-point lattice
    def matrix(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x[..., 0] - 1 / 3) < 0.05, np.nan, 1.0)[..., None, None] * np.eye(2)

    frame = FrameField(chart=Chart(lower=(0.0, 0.0), upper=(1.0, 1.0)), matrix=matrix)
    assert local_algebra(frame, np.array([0.7, 0.5]), points_per_axis=5).c == {}
    with pytest.raises(LocalAlgebraError, match="vary by nan"):
        local_algebra(frame, np.array([0.7, 0.5]), points_per_axis=4)
    with pytest.raises(LocalAlgebraError, match="vary by nan"):
        local_algebra(frame, np.array([1 / 3, 0.5]), points_per_axis=5)
    assert all(np.isnan(value) for value in curvature_sweep(frame, 4).values())


def test_point_only_callables_are_rejected_with_the_batched_shape() -> None:
    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    frame_shape = r"must map \(P, n\) point stacks to \(P, n, n\) arrays"
    with pytest.raises(ValueError, match=frame_shape + ".*raised"):
        FrameField(chart=chart, matrix=lambda x: np.array([[1.0, x[0]], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=frame_shape + r".*returned shape \(2, 2\), not \(25, 2, 2\)"):
        FrameField(chart=chart, matrix=lambda x: x[0] * np.eye(2))
    mult_shape = r"must map \(P, n\) point stacks to \(P, n\) arrays"
    with pytest.raises(ValueError, match=mult_shape + ".*raised"):
        LocalGroupMultiplication(
            chart=chart, multiply=lambda a, b: np.array([float(a[0] + b[0]), float(a[1] + b[1])]), identity=np.zeros(2)
        )
    with pytest.raises(ValueError, match=mult_shape + r".*returned shape \(2,\), not \(25, 2\)"):
        LocalGroupMultiplication(chart=chart, multiply=lambda a, b: a[0] + b[0], identity=np.zeros(2))


def test_gamma_identity_frame_vanishes() -> None:
    frame = frame_of("identity(2)")
    sample = gamma(frame, np.array([0.1, -0.4]))
    assert sample.gamma.shape == (2, 2, 2)
    assert sup_norm(sample.gamma) == 0.0


def test_gamma_affine_oracle() -> None:
    # A = x1 * I is linear, so central differences are exact
    frame = frame_of("affine_halfplane")
    x = np.array([1.25, 0.3])
    g = gamma(frame, x).gamma
    assert np.abs(g[0] - np.eye(2) / x[0]).max() < 1e-12
    assert np.abs(g[1]).max() < 1e-12


def test_gamma_borel_oracle() -> None:
    frame = frame_of("borel_frame")
    a, b = 1.5, 0.25
    g = gamma(frame, np.array([a, b])).gamma
    expected0 = np.array([[1 / a, b / a**2], [0.0, 1 / a]])
    expected1 = np.array([[0.0, -1 / a], [0.0, 0.0]])
    assert np.abs(g[0] - expected0).max() < 1e-12
    assert np.abs(g[1] - expected1).max() < 1e-12


def test_gamma_requires_interior_point() -> None:
    frame = frame_of("affine_halfplane")
    with pytest.raises(ValueError):
        gamma(frame, np.array([0.5, 0.0]))


def test_splitting_cocycle_and_identity() -> None:
    frame = frame_of("borel_frame")
    eps = Splitting(frame)
    pts = frame.chart.lattice(3)
    x, y, z = pts[0], pts[4], pts[8]
    assert eps.identity_residual(x) <= 1e-12
    assert eps.cocycle_residual(x, y, z) <= 1e-12


def test_torsion_affine_oracle() -> None:
    frame = frame_of("affine_halfplane")
    x = np.array([1.0, 0.0])
    t = torsion(gamma(frame, x))
    assert np.abs(t[0, 1] - np.array([0.0, 1.0])).max() < 1e-12
    assert np.abs(t[0, 1] + t[1, 0]).max() == 0.0


def test_first_curvature_vanishes_on_catalog_frames() -> None:
    for name in ALL_FRAMES:
        frame = frame_of(name)
        for x in frame.chart.lattice(3):
            sample = r1(frame, x)
            assert sample.max_abs <= fd_tolerance(frame.chart.h, sample.scale), name


def test_first_curvature_residual_halves_like_h_squared() -> None:
    # only the borel frame has an O(h^2) residual above the noise floor
    frame = frame_of("borel_frame")
    x = np.array([0.55, 0.9])
    coarse = r1(frame, x).max_abs
    finer = FrameField(chart=frame.chart.with_step(frame.chart.h / 2), matrix=frame.matrix)
    fine = r1(finer, x).max_abs
    assert coarse > 1e-10
    assert coarse / fine >= 3.0


def test_second_curvature_unipotent_oracle() -> None:
    frame = frame_of("unipotent_sin")
    x = np.array([0.7, 0.6])
    sample = r2(frame, x)
    tol = fd_tolerance(frame.chart.h, sample.scale)
    assert abs(sample.tensor[0, 1, 1, 1] - np.sin(x[1])) <= tol
    assert abs(sample.max_abs - abs(np.sin(x[1]))) <= tol


def test_second_curvature_vanishes_on_group_frames() -> None:
    for name in GROUP_FRAMES:
        frame = frame_of(name)
        for x in frame.chart.lattice(3):
            sample = r2(frame, x)
            assert sample.max_abs <= fd_tolerance(frame.chart.h, sample.scale), name


def test_obstruction_form_oracles() -> None:
    x = np.array([1.25, 0.3])
    assert np.abs(w_form(frame_of("affine_halfplane"), x) - np.array([1 / x[0], 0.0])).max() < 1e-12
    y = np.array([0.7, 0.6])
    unipotent = frame_of("unipotent_sin")
    w = w_form(unipotent, y)
    assert np.abs(w - np.array([-np.cos(y[1]), 0.0])).max() <= fd_tolerance(unipotent.chart.h, 1.0)
    assert sup_norm(w_form(frame_of("identity(2)"), np.zeros(2))) == 0.0


def test_dw_matches_trace_of_second_curvature() -> None:
    # the pairing is dw[r, j] against TrR2[j, r]
    frame = frame_of("unipotent_sin")
    x = np.array([0.7, 0.6])
    dw = w_exterior_derivative(frame, x)
    q = tr_r2(frame, x)
    assert abs(dw[1, 0] - np.sin(x[1])) <= fd_tolerance(frame.chart.h, 1.0)
    assert abs(dw[1, 0] - q[0, 1]) <= fd_tolerance(frame.chart.h, 1.0)
    assert dw_tr_r2_residual(frame, x) <= fd_tolerance(frame.chart.h, 1.0)


def test_dw_residual_small_on_group_frames() -> None:
    for name in GROUP_FRAMES:
        frame = frame_of(name)
        for x in frame.chart.lattice(3):
            scale = max(1.0, sup_norm(gamma(frame, x).gamma) ** 2)
            assert dw_tr_r2_residual(frame, x) <= fd_tolerance(frame.chart.h, scale), name


def test_two_point_curvature_unipotent_oracle() -> None:
    frame = frame_of("unipotent_sin")
    x = np.array([0.4, 0.5])
    y = np.array([0.9, 1.0])
    sample = r_full(frame, x, y)
    tol = fd_tolerance(frame.chart.h, sample.scale)
    assert abs(sample.tensor[1, 0, 1] - (np.cos(y[1]) - np.cos(x[1]))) <= tol
    # antisymmetry of the alternated pair is structural
    assert sup_norm(sample.tensor + sample.tensor.transpose(1, 0, 2)) == 0.0


def test_two_point_curvature_diagonal_vanishes() -> None:
    for name in ALL_FRAMES:
        frame = frame_of(name)
        pts = frame.chart.lattice(3)
        for x in (pts[0], pts[4]):
            sample = r_full(frame, x, x)
            assert sample.max_abs <= fd_tolerance(frame.chart.h, sample.scale), name


def test_two_point_curvature_vanishes_for_group_frames() -> None:
    frame = frame_of("affine_halfplane")
    x = np.array([1.0, -0.5])
    y = np.array([1.8, 0.5])
    sample = r_full(frame, x, y)
    assert sample.max_abs <= fd_tolerance(frame.chart.h, sample.scale)


def test_invariant_field_oracles() -> None:
    frame = frame_of("affine_halfplane")
    p = np.array([1.0, 0.0])
    field = invariant_field(frame, p, np.array([1.0, 0.0]))
    x = np.array([1.7, 0.4])
    assert np.abs(field(x) - np.array([x[0], 0.0])).max() < 1e-12

    ident = frame_of("identity(2)")
    const = invariant_field(ident, np.zeros(2), np.array([2.0, 3.0]))
    assert np.allclose(const(np.array([0.3, -0.3])), [2.0, 3.0])


def test_structure_functions_affine() -> None:
    frame = frame_of("affine_halfplane")
    c = structure_functions(frame, np.array([1.3, 0.1]))
    assert np.abs(c[0, 1] - np.array([0.0, 1.0])).max() < 1e-9
    assert np.abs(c[0, 1] + c[1, 0]).max() == 0.0


@pytest.mark.parametrize("name", [entry.name for entry in catalog.list_entries() if entry.kind == "frame"])
def test_structure_functions_equal_the_einsum_contractions(name: str) -> None:
    # the reference: both contractions as einsum on the frame's jets.jacobian;
    # the batched @ products may sum in another order, so a few ulps of slack
    frame = frame_of(name)
    x = frame.chart.lattice(3)
    a = frame.matrix(x)
    jac = jacobian(frame.matrix, x, frame.chart.h, axis=-3)  # [..., a, c, j] = d_a A^c_j
    t = np.einsum("...acj,...ai->...ijc", jac, a)
    reference = np.einsum("...kc,...ijc->...ijk", np.linalg.inv(a), t - t.swapaxes(-3, -2))
    atol = 64 * np.finfo(float).eps * max(1.0, sup_norm(jac)) * max(1.0, sup_norm(a)) * max(1.0, sup_norm(np.linalg.inv(a)))
    np.testing.assert_allclose(structure_functions(frame, x), reference, rtol=0, atol=atol)


def test_local_algebra_recovers_catalog_algebras() -> None:
    affine = local_algebra(frame_of("affine_halfplane"), np.array([1.5, 0.0]))
    assert affine.c == {(1, 2, 2): Fraction(1)}

    borel = local_algebra(frame_of("borel_frame"), np.array([1.5, 0.0]))
    assert borel.c == {(1, 2, 2): Fraction(2)}

    flat = local_algebra(frame_of("identity(2)"), np.zeros(2))
    assert flat.c == {}


def test_a_constant_right_frame_change_moves_only_the_local_algebra() -> None:
    # A -> A P leaves the splitting A(y) A(x)^-1 unchanged, and with it Gamma,
    # w, r1, r2 and r_full; the local algebra moves by the basis change
    # f_j = P^i_j e_i
    frame = frame_of("borel_frame")
    p = np.array([[1.0, 2.0], [0.0, 1.0]])
    changed = FrameField(chart=frame.chart, matrix=lambda x: frame.matrix(x) @ p)
    h = frame.chart.h
    x = frame.chart.lattice(5)
    y = x[::-1]
    before, after = gamma(frame, x), gamma(changed, x)
    assert np.all(point_sup(after.gamma - before.gamma, 3) <= fd_tolerance(h, before.scale))
    assert np.all(point_sup(w_form(changed, x) - w_form(frame, x), 1) <= fd_tolerance(h, before.scale))
    pairs = [(r1(frame, x), r1(changed, x)), (r2(frame, x), r2(changed, x))]
    pairs.append((r_full(frame, x, y), r_full(changed, x, y)))
    for old, new in pairs:
        assert np.all(point_sup(new.tensor - old.tensor, new.tensor.ndim - 1) <= fd_tolerance(h, old.scale))
    point = np.array([1.5, 0.0])
    base = local_algebra(frame, point)
    assert base.c == {(1, 2, 2): Fraction(2)}
    columns = [[Fraction(int(p[i, j])) for i in range(2)] for j in range(2)]
    moved = linalg.solve([list(row) for row in zip(*columns)], base.bracket(*columns))
    assert moved == [Fraction(-4), Fraction(2)]
    assert local_algebra(changed, point).c == {(1, 2, 1): Fraction(-4), (1, 2, 2): Fraction(2)}


@st.composite
def frames_and_chart_changes(draw) -> tuple[str, np.ndarray]:
    """A catalog frame of dimension n <= 3 and an n x n Q = D S U S^-1: a small
    integer unipotent U conjugated by a permutation S, then scaled by a
    diagonal D with entries in {-2, -1, 1, 2}."""
    name = draw(st.sampled_from(SMALL_FRAMES))
    n = frame_of(name).chart.dim
    upper = np.eye(n)
    for r in range(n):
        for c in range(r + 1, n):
            upper[r, c] = draw(st.integers(-1, 1))
    s = np.eye(n)[draw(st.permutations(range(n)))]
    diagonal = draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=n, max_size=n))
    return name, np.diag(diagonal) @ s @ upper @ s.T


def _pushed_forward(frame: FrameField, q: np.ndarray) -> FrameField:
    """A'(y) = Q A(Q^-1 y) on the cube about Q c (c the chart centre) whose
    preimage fills 9/10 of the chart's half-widths at most."""
    q_inv = np.linalg.inv(q)
    lower, upper = np.array(frame.chart.lower), np.array(frame.chart.upper)
    radius = 0.9 * np.min((upper - lower) / 2 / np.abs(q_inv).sum(axis=1))
    centre = q @ ((lower + upper) / 2)
    chart = Chart(lower=tuple(centre - radius), upper=tuple(centre + radius))
    return FrameField(chart=chart, matrix=lambda y: q @ frame.matrix(y @ q_inv.T))


@settings(max_examples=40, deadline=None)
@given(frames_and_chart_changes())
def test_a_linear_chart_change_moves_w_as_a_covector_and_keeps_the_local_algebra(drawn) -> None:
    # y = Q x pushes the frame's columns forward, so w'(Q x) = Q^-T w(x), and
    # the brackets of the columns, hence the local algebra, do not move
    name, q = drawn
    q_inv = np.linalg.inv(q)
    frame = frame_of(name)
    changed = _pushed_forward(frame, q)
    y = changed.chart.lattice(3)
    x = y @ q_inv.T
    residual = point_sup(w_form(changed, y) - w_form(frame, x) @ q_inv, 1)
    assert np.all(residual <= fd_tolerance(frame.chart.h, gamma(changed, y).scale, gamma(frame, x).scale)), name
    centre = len(y) // 2
    if name == "unipotent_sin":
        for f, p in ((frame, x[centre]), (changed, y[centre])):
            with pytest.raises(LocalAlgebraError, match="structure functions vary"):
                local_algebra(f, p, 3)
    else:
        assert local_algebra(changed, y[centre], 3) == local_algebra(frame, x[centre], 3)


def test_local_algebra_rejects_varying_structure_functions() -> None:
    with pytest.raises(LocalAlgebraError):
        local_algebra(frame_of("unipotent_sin"), np.array([0.7, 0.7]))


def test_local_algebra_rejects_irrational_structure_constant() -> None:
    # [e1, e2] = sqrt(2) e2 is constant, so only the rounding residual
    # (sqrt(2) rounds to 58/41 with denominators <= 64) can refuse it.
    def matrix(x: np.ndarray) -> np.ndarray:
        a = np.zeros(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = 1.0
        a[..., 1, 1] = np.exp(np.sqrt(2.0) * x[..., 0])
        return a

    frame = FrameField(chart=Chart(lower=(-0.5, -0.5), upper=(0.5, 0.5)), matrix=matrix)
    with pytest.raises(LocalAlgebraError, match="58/41"):
        local_algebra(frame, np.zeros(2))


def test_bracket_defect_matches_curvature_contraction() -> None:
    rng = np.random.default_rng(20240801)
    for name in ("unipotent_sin", "borel_frame"):
        frame = frame_of(name)
        lo = np.array(frame.chart.lower)
        hi = np.array(frame.chart.upper)
        x = lo + (hi - lo) * 0.5
        for variant in ("tilde", "hat"):
            for _ in range(2):
                a, b = rng.uniform(-1, 1, size=(2, 2))
                c, d = rng.uniform(-1, 1, size=(2, 2))
                xi = lambda p, a=a, b=b: a + b * p  # noqa: E731
                eta = lambda p, c=c, d=d: c + d * p  # noqa: E731
                residual, magnitude = bracket_defect_residual(frame, xi, eta, x, variant)
                assert residual <= fd_tolerance(frame.chart.h, magnitude), (name, variant)


def test_gamma_lift_variants_differ_by_transpose() -> None:
    frame = frame_of("unipotent_sin")
    xi = lambda p: np.array([1.0, 0.5])  # noqa: E731
    x = np.array([0.7, 0.6])
    tilde = gamma_lift(frame, xi, "tilde").matrix_part(x)
    hat = gamma_lift(frame, xi, "hat").matrix_part(x)
    g = gamma(frame, x).gamma
    assert np.abs(tilde - np.einsum("jai,a->ij", g, xi(x))).max() == 0.0
    assert np.abs(hat - np.einsum("aji,a->ij", g, xi(x))).max() == 0.0
    with pytest.raises(ValueError):
        gamma_lift(frame, xi, "flat")


def test_trace_one_form_matrix_part_is_minus_identity() -> None:
    frame = frame_of("borel_frame")
    form = trace_one_form(frame)
    x = np.array([1.5, 0.25])
    assert np.array_equal(form.matrix_part(x), -np.eye(2))


def test_trace_one_form_covector_is_log_det_gradient() -> None:
    # Gamma_{ia}^a equals d_i log det A; for A = x1 I that is (2/x1, 0)
    frame = frame_of("affine_halfplane")
    form = trace_one_form(frame)
    x = np.array([1.25, -0.2])
    assert np.abs(form.covector_part(x) - np.array([2 / x[0], 0.0])).max() < 1e-10


def test_trace_one_form_is_closed_under_delta() -> None:
    rng = np.random.default_rng(20240801)
    for name in ("affine_halfplane", "unipotent_sin"):
        frame = frame_of(name)
        form = trace_one_form(frame)
        lo = np.array(frame.chart.lower)
        hi = np.array(frame.chart.upper)
        x = lo + (hi - lo) * 0.5
        for _ in range(3):
            a, b, c, d = rng.uniform(-1, 1, size=(4, 2))
            xfield = prolong(frame.chart, lambda p, a=a, b=b: a + b * p)
            yfield = prolong(frame.chart, lambda p, c=c, d=d: c + d * p)
            out = delta_one_form(form, xfield, yfield)(x)
            assert abs(out) <= fd_tolerance(frame.chart.h, 4.0), name


def test_multiplication_validation() -> None:
    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    with pytest.raises(ValueError):
        LocalGroupMultiplication(
            chart=chart, multiply=lambda a, b: a + b + 0.1, identity=np.zeros(2)
        )
    with pytest.raises(ValueError):
        LocalGroupMultiplication(
            chart=chart, multiply=lambda a, b: a + b, identity=np.array([1.0, 0.0])
        )


def test_catalog_multiplications_are_associative() -> None:
    rng = np.random.default_rng(20240801)
    for name in ("abelian(2)", "affine_group", "borel_sl2_group"):
        mult = mult_of(name)
        lo = np.array(mult.chart.lower)
        hi = np.array(mult.chart.upper)
        for _ in range(5):
            a, b, c = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(3, mult.chart.dim))
            assert mult.associativity_residual(a, b, c) < 1e-12, name


def test_ad_abelian_is_identity() -> None:
    mult = mult_of("abelian(3)")
    assert np.abs(ad_e(mult, np.array([0.2, -0.4, 0.1])) - np.eye(3)).max() < 1e-10


def test_ad_affine_oracle() -> None:
    mult = mult_of("affine_group")
    ad = ad_e(mult, np.array([1.6, 0.4]))
    assert np.abs(ad - np.array([[1.0, 0.0], [0.25, 0.625]])).max() < 1e-10


def test_ad_borel_oracle_and_determinant() -> None:
    mult = mult_of("borel_sl2_group")
    ad = ad_e(mult, np.array([2.0, 0.0]))
    assert np.abs(ad - np.diag([1.0, 0.25])).max() < 1e-9
    for x in mult.chart.lattice(3):
        assert abs(np.linalg.det(ad_e(mult, x)) - 1.0 / x[0] ** 2) <= 1e-6


def test_frame_from_multiplication_matches_catalog_frame() -> None:
    derived = frame_from_multiplication(mult_of("borel_sl2_group"))
    reference = frame_of("borel_frame")
    for x in reference.chart.lattice(3):
        assert np.abs(derived.matrix(x) - reference.matrix(x)).max() <= 1e-5


def test_log_det_ad_primitive() -> None:
    names = [entry.name for entry in catalog.list_entries() if entry.kind == "multiplication"]
    # every catalog multiplication at 3 points per axis, and at the bench's 9
    # while the lattice stays at most 9**4 points (abelian(5) would take
    # 59,049 points, over CURVATURE_LATTICE_CAP)
    cases = [(name, 3) for name in names] + [(name, 9) for name in names if mult_of(name).chart.dim <= 4]
    for name, points_per_axis in cases:
        mult = mult_of(name)
        residual, scale = log_det_ad_primitive_check(mult, points_per_axis=points_per_axis)
        assert residual <= fd_tolerance(mult.chart.h, scale), (name, points_per_axis)
        # the reference route: central differences of log |det Ad_e|, with Ad_e = L^{-1} R at each shifted point
        lattice = mult.chart.lattice(points_per_axis)
        w = w_form(frame_from_multiplication(mult), lattice)
        reference = -jacobian(lambda x: np.log(np.abs(np.linalg.det(ad_e(mult, x)))), lattice, mult.chart.h)
        assert abs(residual - sup_norm(reference - w)) <= 1e-10, (name, points_per_axis)
        assert scale == max(1.0, sup_norm(w)), (name, points_per_axis)


def _singular_at(root: float) -> LocalGroupMultiplication:
    """m(a, b) = a + b + k a b on [-1, 1] with e = 0: L = 1 + k a vanishes at a = root."""
    k = -1.0 / root
    return LocalGroupMultiplication(
        chart=Chart(lower=(-1.0,), upper=(1.0,)), multiply=lambda a, b: a + b + k * a * b, identity=np.zeros(1)
    )


def test_log_det_ad_primitive_refuses_a_singular_left_jacobian() -> None:
    chart = Chart(lower=(-1.0,), upper=(1.0,))
    point = chart.lattice(9)[1, 0]
    # off the 5-point lattice, where the frame's own determinant check looks
    assert not np.any(chart.lattice(5) == point)
    for root in (point, point + chart.h, point - chart.h):
        with pytest.raises(ValueError, match=r"left-translation Jacobian is singular at \[-0\.74"):
            log_det_ad_primitive_check(_singular_at(root), points_per_axis=9)


def test_automorphy_check() -> None:
    mult = mult_of("borel_sl2_group")
    flags = automorphy_check(mult, [np.array([2.0, 0.0]), np.array([1.0, 0.5])])
    assert flags == [False, True]
    with pytest.raises(ValueError, match=r"element \[9\. 0\.\] lies outside the multiplication chart"):
        automorphy_check(mult, [np.array([1.0, 0.5]), np.array([9.0, 0.0])])
    assert automorphy_check(mult, []) == []
    # reshaped unchecked, one 4-vector on the 2-dimensional chart read as two points
    with pytest.raises(ValueError, match=re.escape("points of the 2-dimensional chart, got shape (1, 4)")):
        automorphy_check(mult, [np.array([1.0, 0.5, 2.0, 0.0])])


@pytest.mark.parametrize("shape", [(1,), (3,), (4, 1), (1, 2), (2, 2)])
def test_points_whose_last_axis_is_not_the_chart_dimension_are_refused(shape: tuple[int, ...]) -> None:
    # such points broadcast against the corners, and a frame then failed with an IndexError
    frame = frame_of("borel_frame")
    assert frame.chart.dim == 2
    point = np.full(shape, 0.7)
    if shape[-1] != 2:
        message = re.escape(f"a 2-dimensional chart takes points of shape (..., 2), not {shape}")
        with pytest.raises(ValueError, match=message):
            frame.chart.contains(point)
        with pytest.raises(ValueError, match=message):
            gamma(frame, point)
    # local_algebra takes one point, so a stack of 2-vectors is refused too, naming its own shape
    message = f"local_algebra takes one point of the 2-dimensional chart, of shape (2,), not {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        local_algebra(frame, point)


def _stacked(fn, *point_stacks) -> tuple[np.ndarray, ...]:
    """fn at each point (or point pair) in turn, each of its results stacked."""
    per_point = [fn(*points) for points in zip(*point_stacks)]
    return tuple(np.stack([np.asarray(parts[i]) for parts in per_point]) for i in range(len(per_point[0])))


def _assert_equal_parts(batched, stacked, label: str) -> None:
    assert len(batched) == len(stacked), label
    assert all(np.array_equal(b, s) for b, s in zip(batched, stacked)), label


def _parts(sample) -> tuple[np.ndarray, ...]:
    return sample.tensor, sample.scale, sample.max_abs


def _gamma_parts(frame: FrameField, x: np.ndarray) -> tuple[np.ndarray, ...]:
    sample = gamma(frame, x)
    return sample.gamma, sample.scale, torsion(sample)


# Each entry returns a tuple of arrays, all batched along the point axes.
FRAME_FUNCTIONS = {
    "matrix": lambda f, x: (f.matrix(x),),
    "gamma": _gamma_parts,
    "gamma_from_splitting": lambda f, x: (gamma_from_splitting(f, x).gamma,),
    "r1": lambda f, x: _parts(r1(f, x)),
    "r2": lambda f, x: _parts(r2(f, x)),
    "w_form": lambda f, x: (w_form(f, x),),
    "tr_r2": lambda f, x: (tr_r2(f, x),),
    "w_exterior_derivative": lambda f, x: (w_exterior_derivative(f, x),),
    "dw_tr_r2_residual": lambda f, x: (dw_tr_r2_residual(f, x),),
    "structure_functions": lambda f, x: (structure_functions(f, x),),
}


def _names(kind: str) -> list[str]:
    return [n.split(":", 1)[1] for n in catalog.list_names() if n.startswith(f"{kind}:")]


@pytest.mark.parametrize("name", _names("frame"))
def test_batched_frame_functions_equal_stacked_point_calls(name: str) -> None:
    frame = frame_of(name)
    pts = frame.chart.lattice(3)
    for label, fn in FRAME_FUNCTIONS.items():
        _assert_equal_parts(fn(frame, pts), _stacked(lambda x: fn(frame, x), pts), label)
    # r_full pairs each point with its mirror, as the curvature sweep does
    mirrored = pts[::-1]
    batched = _parts(r_full(frame, pts, mirrored))
    _assert_equal_parts(batched, _stacked(lambda x, y: _parts(r_full(frame, x, y)), pts, mirrored), "r_full")


@pytest.mark.parametrize("name", _names("frame"))
def test_curvature_sweep_equals_the_point_function_maxima(name: str) -> None:
    # at 5 points per axis a frame of dimension 4 fills one whole block, which
    # the sweep alternates an r-slice at a time
    frame = frame_of(name)
    for points_per_axis in (3, 5) if frame.chart.dim <= 4 else (3,):
        pts = frame.chart.lattice(points_per_axis)
        expected = {
            "torsion_max": sup_norm(torsion(gamma(frame, pts))),
            "w_max": sup_norm(w_form(frame, pts)),
            "r1_max": sup_norm(r1(frame, pts).tensor),
            "r2_max": sup_norm(r2(frame, pts).tensor),
            "dw_tr_r2_residual": sup_norm(dw_tr_r2_residual(frame, pts)),
            "r_full_diagonal_max": sup_norm(r_full(frame, pts, pts).tensor),
            "r_full_max": sup_norm(r_full(frame, pts, pts[::-1]).tensor),
        }
        assert curvature_sweep(frame, points_per_axis) == expected, points_per_axis


@pytest.mark.parametrize(("name", "points_per_axis"), [("identity(4)", 5), ("identity(6)", 4)])
def test_a_sweep_block_holds_at_most_four_curvature_tensors(name: str, points_per_axis: int) -> None:
    # a full block of P points; keeping all 2n shifted Gamma tensors, dGamma
    # and two full curvature tensors alive peaked at about 5.6-5.9 n^4 P floats
    frame = frame_of(name)
    n, points = frame.chart.dim, geometry.SWEEP_BLOCK_POINTS
    assert points_per_axis**n >= points
    tracemalloc.start()
    try:
        curvature_sweep(frame, points_per_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n**4 * points * 8, peak / (n**4 * points * 8)


def test_empty_lattices_are_refused() -> None:
    # an empty lattice would let these pass vacuously or fail deep inside
    empty = "at least 2 points per axis, got 0"
    with pytest.raises(ValueError, match=empty):
        local_algebra(frame_of("unipotent_sin"), np.array([0.7, 0.6]), points_per_axis=0)
    with pytest.raises(ValueError, match=empty):
        log_det_ad_primitive_check(mult_of("borel_sl2_group"), points_per_axis=0)
    with pytest.raises(ValueError, match=empty):
        curvature_sweep(frame_of("identity(2)"), 0)


def test_lattices_over_the_cap_are_refused_before_they_are_built(monkeypatch) -> None:
    # abelian(5) at 9 points per axis is 59,049 points: refused at once, where
    # log_det_ad_primitive_check took 1.82 s and 302 MB without the cap
    assert 9**5 > CURVATURE_LATTICE_CAP >= 7**5
    mult, frame = mult_of("abelian(5)"), frame_of("identity(5)")
    message = "9 points per axis give 59049 lattice points, over the cap CURVATURE_LATTICE_CAP = 20000"
    start = time.perf_counter()
    for refused in (
        lambda: log_det_ad_primitive_check(mult, points_per_axis=9),
        lambda: local_algebra(frame, np.zeros(5), points_per_axis=9),
        lambda: curvature_sweep(frame, 9),
    ):
        with pytest.raises(ValueError, match=message):
            refused()
    assert time.perf_counter() - start < 1.0

    def unbuilt(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(jets, "_lattice", unbuilt)
    with pytest.raises(ValueError, match="over the cap"):
        local_algebra(frame_of("identity(6)"), np.zeros(6), points_per_axis=6)
    # 7**5 points is within the cap: the check passes and the lattice is built
    with pytest.raises(AssertionError, match="built"):
        log_det_ad_primitive_check(mult, points_per_axis=7)


def test_lattice_computations_evaluate_at_most_one_block_at_a_time() -> None:
    # 15,625 points at 5 points per axis: within the cap, but no evaluation
    # may see more than one block of them
    sizes: list[int] = []

    def recorded(fn):
        def wrapped(*args):
            sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in args))[:-1])))
            return fn(*args)

        return wrapped

    frame = FrameField(chart=frame_of("identity(6)").chart, matrix=recorded(frame_of("identity(6)").matrix))
    abelian = mult_of("abelian(6)")
    mult = LocalGroupMultiplication(chart=abelian.chart, multiply=recorded(abelian.multiply), identity=abelian.identity)
    # construction validates on the default lattice: the frame once, the
    # multiplication once per identity law
    assert abelian.chart.lattice_points_per_axis() == 5
    assert max(sizes) == geometry.SWEEP_BLOCK_POINTS
    assert sum(sizes) == 3 * 5**6
    for check in (lambda: local_algebra(frame, np.zeros(6), 5), lambda: log_det_ad_primitive_check(mult, 5)):
        start = len(sizes)
        check()
        assert max(sizes[start:]) == geometry.SWEEP_BLOCK_POINTS
        assert sum(sizes[start:]) >= 5**6


def test_a_dimension_7_chart_constructs_over_the_lattice_cap() -> None:
    # 5**7 points is over CURVATURE_LATTICE_CAP, so construction validates 4**7
    chart = Chart(lower=(-1.0,) * 7, upper=(1.0,) * 7)
    assert 5**7 > CURVATURE_LATTICE_CAP >= 4**7 == 16_384
    sizes: list[int] = []

    def matrix(x: np.ndarray) -> np.ndarray:
        sizes.append(len(x))
        return np.broadcast_to(np.eye(7), x.shape[:-1] + (7, 7))

    FrameField(chart=chart, matrix=matrix)
    LocalGroupMultiplication(chart=chart, multiply=lambda a, b: a + b, identity=np.zeros(7))
    assert sum(sizes) == 4**7 and max(sizes) == geometry.SWEEP_BLOCK_POINTS


def test_an_8_dimensional_chart_is_validated_a_block_at_a_time() -> None:
    # the default lattice is 3**8 = 6,561 points, built whole and cached like
    # any lattice within the cap; only the frame values come a block at a time
    n, points = 8, geometry.SWEEP_BLOCK_POINTS
    chart = Chart(lower=(-1.0,) * n, upper=(1.0,) * n)
    jets._lattice.cache_clear()
    tracemalloc.start()
    try:
        FrameField(chart=chart, matrix=lambda x: np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)))
        LocalGroupMultiplication(chart=chart, multiply=lambda a, b: a + b, identity=np.zeros(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block's frame values are points * n * n floats
    assert peak < 2 * points * n * n * 8, peak


@pytest.mark.parametrize("n", range(1, 17))
def test_construction_validates_the_default_lattice_in_blocks(n: int) -> None:
    # the most points per axis, at most 5, whose lattice fits the cap; from
    # n = 15 even 2 per axis is over it, and the matrix is never called
    expected = {7: 4, 8: 3, 9: 3}.get(n, 5 if n <= 6 else 2)
    chart = Chart(lower=(-1.0,) * n, upper=(1.0,) * n)
    message = f"2 points per axis give {2**n} lattice points, over the cap CURVATURE_LATTICE_CAP = 20000"
    if n < 15:
        assert chart.lattice_points_per_axis() == expected
    else:
        with pytest.raises(ValueError, match=message):
            chart.lattice_points_per_axis()
    sizes: list[int] = []

    def matrix(x: np.ndarray) -> np.ndarray:
        sizes.append(len(x))
        return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))

    if n < 15:
        FrameField(chart=chart, matrix=matrix)
        assert sum(sizes) == expected**n <= CURVATURE_LATTICE_CAP
        assert max(sizes) <= geometry.SWEEP_BLOCK_POINTS
        return
    with pytest.raises(ValueError, match=message):
        FrameField(chart=chart, matrix=matrix)
    with pytest.raises(ValueError, match=message):
        LocalGroupMultiplication(chart=chart, multiply=operator.add, identity=np.zeros(n))
    assert sizes == []


def test_lattice_checks_default_to_the_lattice_within_the_cap_at_dimension_7() -> None:
    # at their old default of 5 points per axis both refused every chart of dimension 7 and more
    n = 7
    chart = Chart(lower=(-1.0,) * n, upper=(1.0,) * n)
    frame = FrameField(chart=chart, matrix=lambda x: np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)))
    mult = LocalGroupMultiplication(chart=chart, multiply=operator.add, identity=np.zeros(n))
    assert local_algebra(frame, np.zeros(n)).c == {}
    assert log_det_ad_primitive_check(mult) == (0.0, 1.0)
    with pytest.raises(ValueError, match="5 points per axis give 78125 lattice points, over the cap"):
        local_algebra(frame, np.zeros(n), points_per_axis=5)


def test_validation_in_blocks_finds_a_fault_in_the_last_block() -> None:
    # the default identity(6) lattice is 25 blocks; x1 is largest in the last
    chart = frame_of("identity(6)").chart
    top = chart.lattice(5)[-1, 0]

    def matrix(x: np.ndarray) -> np.ndarray:
        return np.where(x[..., 0] < top, 1.0, 0.0)[..., None, None] * np.eye(6)

    with pytest.raises(ValueError, match="frame determinant falls to 0.000e"):
        FrameField(chart=chart, matrix=matrix)

    def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b + np.where(a[..., :1] < top, 0.0, np.nan)

    with pytest.raises(ValueError, match="multiply is not finite on the chart lattice"):
        LocalGroupMultiplication(chart=chart, multiply=multiply, identity=np.zeros(6))


@pytest.mark.parametrize("name", _names("multiplication"))
def test_batched_multiplication_functions_equal_stacked_point_calls(name: str) -> None:
    mult = mult_of(name)
    pts = mult.chart.lattice(3)
    mirrored = pts[::-1]
    e = mult.identity
    pairs = _stacked(lambda a, b: (mult.multiply(a, b),), pts, mirrored)
    _assert_equal_parts((mult.multiply(pts, mirrored),), pairs, "m(a, b)")
    _assert_equal_parts((mult.multiply(e, pts),), _stacked(lambda x: (mult.multiply(e, x),), pts), "m(e, x)")
    _assert_equal_parts((ad_e(mult, pts),), _stacked(lambda x: (ad_e(mult, x),), pts), "ad_e")
    flags = automorphy_check(mult, pts)
    assert flags == [automorphy_check(mult, [x])[0] for x in pts], "automorphy_check"
    assert all(type(flag) is bool for flag in flags)


def _jet_helpers(frame: FrameField) -> dict:
    """The three jet-calculus helpers on the seeded polynomial fields of the
    verify suites; each entry returns a tuple of per-point arrays."""
    rng = Random(verify.RNG_SEED)
    n = frame.chart.dim
    xi, eta = verify._poly_field(rng, n), verify._poly_field(rng, n)
    p = frame.chart.lattice(3)[0]
    form = trace_one_form(frame)
    return {
        "gamma_lift": lambda x: tuple(gamma_lift(frame, xi, v).matrix_part(x) for v in ("tilde", "hat")),
        "bracket_defect_residual": lambda x: (
            bracket_defect_residual(frame, xi, eta, x, "tilde") + bracket_defect_residual(frame, xi, eta, x, "hat")
        ),
        "trace_one_form": lambda x: (form.covector_part(x), form.matrix_part(x)),
    }


@pytest.mark.parametrize("name", _names("frame"))
def test_batched_jet_helpers_equal_stacked_point_calls(name: str) -> None:
    frame = frame_of(name)
    pts = frame.chart.lattice(3 if frame.chart.dim <= 3 else 2)
    for label, fn in _jet_helpers(frame).items():
        _assert_equal_parts(fn(pts), _stacked(fn, pts), label)
