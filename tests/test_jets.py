"""First-order jets of vector fields on a box chart."""

import itertools
from random import Random

import numpy as np
import pytest

from liechar import jets, verify


def square_chart(side: float = 1.0, h: float = 1e-3) -> jets.Chart:
    return jets.Chart(lower=(-side, -side), upper=(side, side), h=h)


def test_chart_validation() -> None:
    with pytest.raises(ValueError):
        jets.Chart(lower=(0.0,), upper=(0.0,))
    with pytest.raises(ValueError):
        jets.Chart(lower=(0.0, 0.0), upper=(1.0,))
    with pytest.raises(ValueError):
        jets.Chart(lower=(0.0, 0.0), upper=(1.0, 1.0), h=0.2)


def test_chart_rejects_steps_that_vanish_in_float() -> None:
    # 1.2 +- 1e-16 rounds back to 1.2; 0.2 +- 1e-17 rounds back to 0.2
    chart = jets.Chart(lower=(0.2, 0.2), upper=(1.2, 1.2), h=2e-16)
    for h in (1e-16, 1e-17, 1e-300):
        with pytest.raises(ValueError, match="vanishes in float"):
            chart.with_step(h)
    with pytest.raises(ValueError, match="corner coordinate -1000000.0"):
        jets.Chart(lower=(-1e6,), upper=(0.0,), h=1e-11)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "lower, upper",
    [
        ((0.0, NAN), (2.0, 1.0)),
        ((NAN, 0.0), (2.0, 1.0)),
        ((0.0, 0.0), (NAN, 1.0)),
        ((0.0, 0.0), (2.0, NAN)),
        ((0.0, 0.0), (INF, 1.0)),
        ((0.0, -INF), (2.0, 1.0)),
        ((-INF, 0.0), (INF, 1.0)),
    ],
)
def test_chart_refuses_a_corner_that_is_not_finite(lower, upper) -> None:
    # with the NaN side second, min(sides) skipped it and the chart's
    # lattice had NaN rows; with it first, the step message was raised
    with pytest.raises(ValueError, match="chart corners must be finite"):
        jets.Chart(lower=lower, upper=upper)


def test_chart_contains_and_interior() -> None:
    chart = square_chart()
    assert chart.contains(np.array([0.0, 0.0]))
    assert not chart.contains(np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        chart.require_interior(np.array([0.999999, 0.0]))


def test_lattice_stays_interior() -> None:
    chart = square_chart()
    pts = chart.lattice(3)
    assert len(pts) == 9
    for p in pts:
        chart.require_interior(p)


def test_lattice_is_built_once_per_box_step_and_size_outside_the_chart() -> None:
    chart = jets.Chart(lower=(-1.0, 0.0, 2.0), upper=(1.0, 3.0, 2.5), h=1e-3)
    pts = chart.lattice(4)
    # the grid of linspace axes, last axis fastest
    axes = [np.linspace(lo + 2e-3, hi - 2e-3, 4) for lo, hi in zip(chart.lower, chart.upper)]
    assert np.array_equal(pts, np.array(list(itertools.product(*axes))))
    # an equal chart shares the array; another step or size gets its own
    twin = jets.Chart(lower=(-1.0, 0.0, 2.0), upper=(1.0, 3.0, 2.5), h=1e-3)
    assert twin.lattice(4) is pts
    assert chart.with_step(5e-4).lattice(4) is not pts and chart.lattice(3) is not pts
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 7.0
    # the chart stores nothing: ==, hash and repr read only its fields
    assert list(vars(chart)) == ["lower", "upper", "h"]
    assert chart == twin and hash(chart) == hash(twin) and repr(chart) == repr(twin)


@pytest.mark.parametrize("points_per_axis", [1, 0])
def test_lattice_needs_two_points_per_axis(points_per_axis: int) -> None:
    with pytest.raises(ValueError, match=f"at least 2 points per axis, got {points_per_axis}"):
        square_chart().lattice(points_per_axis)


def test_a_lattice_over_the_cap_is_refused_before_it_is_built(monkeypatch) -> None:
    # 5**7 = 78,125 points: Chart.lattice checks the size itself, so a direct
    # call is refused as the lattice computations are
    def unbuilt(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(jets, "_lattice", unbuilt)
    chart = jets.Chart(lower=(-1.0,) * 7, upper=(1.0,) * 7)
    message = "5 points per axis give 78125 lattice points, over the cap CURVATURE_LATTICE_CAP = 20000"
    with pytest.raises(ValueError, match=message):
        chart.lattice(5)
    # the default is the most points per axis within the cap: 4**7 = 16,384
    assert chart.lattice_points_per_axis() == 4 and 4**7 <= jets.CURVATURE_LATTICE_CAP
    with pytest.raises(AssertionError, match="built"):
        chart.lattice()


def test_with_step() -> None:
    chart = square_chart(h=1e-3)
    finer = chart.with_step(5e-4)
    assert finer.h == 5e-4
    assert finer.lower == chart.lower


def test_derivatives_exact_on_quadratics() -> None:
    # central differences are exact for polynomials of degree <= 2
    chart = square_chart()

    def f(p: np.ndarray) -> float:
        return 2.0 * p[0] ** 2 - p[0] * p[1] + 3.0 * p[1]

    x = np.array([0.25, -0.125])
    grad = jets.gradient(f, x, chart.h)
    assert abs(grad[0] - (4.0 * x[0] - x[1])) < 1e-10
    assert abs(grad[1] - (-x[0] + 3.0)) < 1e-10


def test_jacobian_matches_analytic() -> None:
    chart = square_chart()

    def field(p: np.ndarray) -> np.ndarray:
        return np.array([np.sin(p[0]), p[0] * p[1]])

    x = np.array([0.3, 0.4])
    jac = jets.jacobian(field, x, chart.h)
    expected = np.array([[np.cos(x[0]), 0.0], [x[1], x[0]]])
    assert np.abs(jac - expected).max() < 1e-6


def test_prolong_linear_field_is_exact() -> None:
    chart = square_chart()
    a = np.array([[1.0, 2.0], [-1.0, 0.5]])
    section = jets.prolong(chart, lambda p: a @ p)
    x = np.array([0.2, -0.3])
    assert np.abs(section.matrix_part(x) - a).max() < 1e-10
    assert np.allclose(section.vector_part(x), a @ x)


def test_vector_field_bracket_oracle() -> None:
    chart = square_chart()
    x_field = lambda p: np.array([1.0, 0.0])  # noqa: E731
    y_field = lambda p: np.array([0.0, p[0] * p[1]])  # noqa: E731
    br = jets.vector_field_bracket(chart, x_field, y_field)
    x = np.array([0.3, -0.2])
    # [X, Y] = (dY)X - (dX)Y = (0, x2)
    assert np.abs(br(x) - np.array([0.0, x[1]])).max() < 1e-8


def test_spencer_bracket_of_section_with_itself_vanishes() -> None:
    chart = square_chart()
    section = jets.J1TSection(
        chart=chart,
        vector_part=lambda p: np.array([p[0] ** 2, p[1]]),
        matrix_part=lambda p: np.array([[p[1], 1.0], [0.0, p[0]]]),
    )
    br = jets.spencer_bracket(section, section)
    x = np.array([0.1, 0.2])
    assert np.abs(br.vector_part(x)).max() < 1e-9
    assert np.abs(br.matrix_part(x)).max() < 1e-9


def test_spencer_bracket_constant_matrix_sections() -> None:
    # pure endomorphisms compose like a matrix commutator, reversed
    chart = square_chart()
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 3.0]])
    sa = jets.constant_section(chart, np.zeros(2), a)
    sb = jets.constant_section(chart, np.zeros(2), b)
    br = jets.spencer_bracket(sa, sb)
    x = np.array([0.1, -0.2])
    assert np.abs(br.vector_part(x)).max() == 0.0
    assert np.abs(br.matrix_part(x) - (b @ a - a @ b)).max() < 1e-12


def test_spencer_bracket_respects_prolongation() -> None:
    chart = square_chart()
    xf = lambda p: np.array([p[0] * p[1], np.cos(p[1])])  # noqa: E731
    yf = lambda p: np.array([p[1] ** 2, p[0]])  # noqa: E731
    lhs = jets.spencer_bracket(jets.prolong(chart, xf), jets.prolong(chart, yf))
    rhs = jets.prolong(chart, jets.vector_field_bracket(chart, xf, yf))
    x = np.array([0.15, 0.35])
    assert np.abs(lhs.vector_part(x) - rhs.vector_part(x)).max() < 1e-6
    assert np.abs(lhs.matrix_part(x) - rhs.matrix_part(x)).max() < 1e-4


def test_spencer_operator_kills_prolongations() -> None:
    chart = square_chart()
    section = jets.prolong(chart, lambda p: np.array([p[0] ** 2, p[0] * p[1]]))
    d = jets.spencer_operator(section)
    assert np.abs(d(np.array([0.2, 0.1]))).max() < 1e-9


def test_spencer_operator_oracles() -> None:
    chart = square_chart()
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    pure = jets.constant_section(chart, np.zeros(2), a)
    x = np.array([0.1, -0.1])
    assert np.abs(jets.spencer_operator(pure)(x) + a).max() < 1e-12
    radial = jets.J1TSection(
        chart=chart,
        vector_part=lambda p: p.copy(),
        matrix_part=lambda p: np.zeros((2, 2)),
    )
    assert np.abs(jets.spencer_operator(radial)(x) - np.eye(2)).max() < 1e-10


def test_algebraic_bracket_oracle() -> None:
    chart = square_chart()
    b = np.array([[0.0, 1.0], [1.0, 3.0]])
    u = jets.J1TSection(
        chart=chart,
        vector_part=lambda p: np.array([p[0], 2.0 * p[1]]),
        matrix_part=lambda p: np.zeros((2, 2)),
    )
    sb = jets.constant_section(chart, np.zeros(2), b)
    out = jets.algebraic_bracket(u, sb)
    x = np.array([0.1, -0.2])
    assert np.allclose(out(x), b @ np.array([x[0], 2.0 * x[1]]))
    # zero matrix parts on both sides kill the bracket
    assert np.abs(jets.algebraic_bracket(u, u)(x)).max() == 0.0


def test_lie_derivative_constant_matrix_section() -> None:
    chart = square_chart()
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    section = jets.constant_section(chart, np.zeros(2), a)
    v = np.array([2.0, -1.0])
    out = jets.lie_derivative(section, lambda p: v.copy())
    x = np.array([0.1, 0.3])
    assert np.abs(out(x) + a @ v).max() < 1e-9


def test_lie_derivative_of_prolongation_is_bracket() -> None:
    chart = square_chart()
    xf = lambda p: np.array([p[1], p[0] ** 2])  # noqa: E731
    eta = lambda p: np.array([np.sin(p[0]), p[1]])  # noqa: E731
    section = jets.prolong(chart, xf)
    out = jets.lie_derivative(section, eta)
    expected = jets.vector_field_bracket(chart, xf, eta)
    x = np.array([0.2, 0.25])
    assert np.abs(out(x) - expected(x)).max() < 1e-6


def test_pairing_oracle() -> None:
    chart = square_chart()
    form = jets.Form1J1T(
        chart=chart,
        covector_part=lambda p: np.array([1.0, p[0]]),
        matrix_part=lambda p: np.eye(2),
    )
    section = jets.J1TSection(
        chart=chart,
        vector_part=lambda p: np.array([3.0, 4.0]),
        matrix_part=lambda p: np.array([[1.0, 0.0], [0.0, 5.0]]),
    )
    x = np.array([0.2, -0.3])
    assert abs(jets.pairing(form, section)(x) - (3.0 + 4.0 * x[0] + 6.0)) < 1e-12


def test_delta_one_form_matches_de_rham_on_plain_forms() -> None:
    # zero matrix part and prolonged fields reduce to the usual exterior derivative
    chart = square_chart()
    form = jets.Form1J1T(
        chart=chart,
        covector_part=lambda p: np.array([p[1], 0.0]),
        matrix_part=lambda p: np.zeros((2, 2)),
    )
    e0 = jets.prolong(chart, lambda p: np.array([1.0, 0.0]))
    e1 = jets.prolong(chart, lambda p: np.array([0.0, 1.0]))
    out = jets.delta_one_form(form, e0, e1)
    x = np.array([0.2, -0.3])
    # d(x2 dx1)(e1, e2) = -1
    assert abs(out(x) + 1.0) < 1e-8
    assert jets.delta_one_form(form, e0, e0)(x) == 0.0


def test_chart_mismatch_rejected() -> None:
    a = square_chart()
    b = jets.Chart(lower=(0.0, 0.0), upper=(1.0, 1.0))
    sa = jets.constant_section(a, np.zeros(2), np.eye(2))
    sb = jets.constant_section(b, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        jets.spencer_bracket(sa, sb)


def _jet_operations(chart: jets.Chart) -> dict:
    """Every jets operation on the seeded polynomial fields, sections and
    forms of the verify suites, as point -> array callables."""
    rng = Random(verify.RNG_SEED)
    n, h = chart.dim, chart.h
    xi, eta = verify._poly_field(rng, n), verify._poly_field(rng, n)
    a, b = verify._poly_section(rng, chart), verify._poly_section(rng, chart)
    form = verify._poly_form(rng, chart)
    const = jets.constant_section(chart, verify._integers(rng, -2, 3, n), verify._integers(rng, -2, 3, n, n))
    prolonged = jets.prolong(chart, xi)
    bracket = jets.spencer_bracket(a, b)
    return {
        "jacobian": lambda x: jets.jacobian(xi, x, h),
        "jacobian axis=-3": lambda x: jets.jacobian(a.matrix_part, x, h, axis=-3),
        "gradient": lambda x: jets.gradient(jets.pairing(form, a), x, h),
        "prolong vector": prolonged.vector_part,
        "prolong matrix": prolonged.matrix_part,
        "constant_section vector": const.vector_part,
        "constant_section matrix": const.matrix_part,
        "vector_field_bracket": jets.vector_field_bracket(chart, xi, eta),
        "spencer_bracket vector": bracket.vector_part,
        "spencer_bracket matrix": bracket.matrix_part,
        "spencer_bracket with constant": jets.spencer_bracket(const, a).matrix_part,
        "spencer_operator": jets.spencer_operator(a),
        "algebraic_bracket": jets.algebraic_bracket(a, b),
        "lie_derivative": jets.lie_derivative(a, xi),
        "pairing": jets.pairing(form, a),
        "delta_one_form": jets.delta_one_form(form, a, b),
    }


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_jet_operations_equal_stacked_point_calls(dim: int) -> None:
    chart = jets.Chart(lower=(-1.0,) * dim, upper=(1.0,) * dim)
    pts = chart.lattice(3)
    for label, fn in _jet_operations(chart).items():
        assert np.array_equal(fn(pts), np.stack([fn(x) for x in pts])), label
