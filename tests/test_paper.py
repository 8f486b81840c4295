"""The abstract's two claims, on the existing API: [w_1] != 0 on a cylinder,
and [w_3] as the Godbillon-Vey class of the Borel foliation of SL(2).

[w_1] != 0: a frame A(s, t) that repeats under s -> s + 2 pi descends to a
cylinder, a loop in s. There the period of the obstruction form w along the
loop is 2 pi * tr ad of the local algebra, which no global group allows (on
a group w is exact, with primitive -log det Ad_e). The control frame is
abelian, and its period is 0. The chart-changed frame A'(y) = D phi(y)^-1
A(phi(y)) changes w only by the exact form d log phi', so its period stays.

[w_3] = Godbillon-Vey: a codimension-1 subalgebra is the kernel of a
covector omega with d omega = omega ^ eta, and its Godbillon-Vey cocycle is
GV = eta ^ d eta (Godbillon and Vey, C. R. Acad. Sci. Paris 273, 1971). On
sl2 the Borel span(X, H) gives GV = -w_3 / 2, a nonzero class.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from liechar import catalog
from liechar.cohomology import STATUS_NONZERO_CLASS, cochain_complex, differential_matrix
from liechar.forms import AlternatingForm, permutation_sign, trace_form, w1_character
from liechar.geometry import EXACT_TOL, FrameField, fd_tolerance, local_algebra, r1, r2, w_form
from liechar.jets import Chart

PERIOD = 2 * math.pi
# one period in s with a margin on each side, so each loop's nodes lie inside
CYLINDER_CHART = Chart((-0.5, -1.0), (PERIOD + 0.5, 1.0))


def _unipotent(x: np.ndarray, row: int, col: int) -> np.ndarray:
    """The identity with -t at [row, col], at each point (s, t) of x."""
    a = np.zeros(x.shape[:-1] + (2, 2))
    a[..., 0, 0] = a[..., 1, 1] = 1.0
    a[..., row, col] = -x[..., 1]
    return a


def _cylinder(x: np.ndarray) -> np.ndarray:
    return _unipotent(x, 1, 0)


def _control(x: np.ndarray) -> np.ndarray:
    return _unipotent(x, 0, 1)


def _changed(x: np.ndarray) -> np.ndarray:
    """D phi(y)^-1 A(phi(y)) for the cylinder's A and phi(s, t) = (s + 0.3 sin s, t)."""
    s = x[..., 0]
    phi = np.stack([s + 0.3 * np.sin(s), x[..., 1]], axis=-1)
    d_phi = np.zeros(x.shape[:-1] + (2, 2))
    d_phi[..., 0, 0] = 1.0 + 0.3 * np.cos(s)
    d_phi[..., 1, 1] = 1.0
    return np.linalg.solve(d_phi, _cylinder(phi))


# name -> (frame, its local algebra's constants, the period of w in s over 2 pi)
CYLINDER_FRAMES = {
    "cylinder": (_cylinder, {(1, 2, 2): 1}, 1),
    "control": (_control, {}, 0),
    "chart-changed": (_changed, {(1, 2, 2): 1}, 1),
}


@pytest.mark.parametrize("name", CYLINDER_FRAMES)
def test_w1_has_a_nonzero_period_on_the_cylinder(name: str) -> None:
    matrix, constants, character = CYLINDER_FRAMES[name]
    frame = FrameField(CYLINDER_CHART, matrix)
    h = frame.chart.h

    # A repeats after one period, so it lives on the cylinder
    s, t = np.meshgrid(np.linspace(-0.5, 0.5, 11), np.linspace(-1.0, 1.0, 11))
    x = np.stack([s.ravel(), t.ravel()], axis=-1)
    assert np.max(np.abs(matrix(x + [PERIOD, 0.0]) - matrix(x))) <= EXACT_TOL

    # the frame is a local group: both curvatures vanish on the lattice
    lattice = frame.chart.lattice(5)
    for curvature in (r1, r2):
        sample = curvature(frame, lattice)
        assert np.all(sample.max_abs <= fd_tolerance(h, sample.scale)), curvature.__name__

    alg = local_algebra(frame, np.array([1.0, 0.0]))
    assert dict(alg.c) == constants
    assert w1_character(alg).components == ({(1,): 1} if character else {})

    # the trapezoid rule is exact up to rounding on a periodic integrand
    for nodes in (8, 64):
        for t in (-0.7, 0.0, 0.4):
            loop = np.stack([np.arange(nodes) * (PERIOD / nodes), np.full(nodes, t)], axis=-1)
            period = PERIOD / nodes * float(np.sum(w_form(frame, loop)[:, 0]))
            assert abs(period - PERIOD * character) <= 1e-12, (nodes, t, period)


def _theta(n: int, i: int) -> AlternatingForm:
    """The dual covector of the 1-based basis vector e_i."""
    return AlternatingForm(1, n, {(i,): 1})


def _d(alg, form: AlternatingForm) -> AlternatingForm:
    """The Chevalley-Eilenberg differential of form, as a form."""
    d_k = differential_matrix(alg, form.degree)
    return AlternatingForm(form.degree + 1, alg.dim, dict(zip(d_k.row_basis, d_k.apply(form))))


def _wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """a ^ b on sorted index subsets: each disjoint pair of components, signed
    by the sort of their concatenation."""
    out: dict[tuple[int, ...], Fraction] = {}
    for i, x in a.components.items():
        for j, y in b.components.items():
            if not set(i) & set(j):
                subset = tuple(sorted(i + j))
                out[subset] = out.get(subset, 0) + permutation_sign(i + j) * x * y
    return AlternatingForm(a.degree + b.degree, a.dim, out)


def _scaled(form: AlternatingForm, factor: Fraction) -> AlternatingForm:
    return AlternatingForm(form.degree, form.dim, {k: factor * v for k, v in form.components.items()})


def test_w3_is_the_godbillon_vey_class_of_the_borel_foliation_of_sl2() -> None:
    sl2 = catalog.get("sl2", kind="algebra").payload
    assert sl2.names == ("X", "H", "Y")
    omega, eta = _theta(3, 3), _scaled(_theta(3, 2), Fraction(-2))
    # d omega = omega ^ eta: the Borel span(X, H) = ker omega is a subalgebra
    assert _d(sl2, omega) == _wedge(omega, eta)
    assert _d(sl2, omega) == AlternatingForm(2, 3, {(2, 3): 2})
    assert _d(sl2, eta) == AlternatingForm(2, 3, {(1, 3): 2})

    gv = _wedge(eta, _d(sl2, eta))
    assert gv == AlternatingForm(3, 3, {(1, 2, 3): 4})
    w3 = trace_form(sl2, 3)
    assert w3 == AlternatingForm(3, 3, {(1, 2, 3): -8})
    assert gv == _scaled(w3, Fraction(-1, 2))
    assert cochain_complex(sl2).trace_class(gv) == (STATUS_NONZERO_CLASS, None)


def test_godbillon_vey_on_heisenberg3_follows_integrability() -> None:
    heisenberg = catalog.get("heisenberg3", kind="algebra").payload
    assert heisenberg.names == ("p", "q", "z")
    theta_q, theta_z = _theta(3, 2), _theta(3, 3)
    zero_3 = AlternatingForm(3, 3, {})

    # theta^q is closed, so d theta^q = theta^q ^ 0 and GV = 0 = w_3
    assert _d(heisenberg, theta_q) == AlternatingForm(2, 3, {})
    assert _wedge(_d(heisenberg, theta_q), theta_q) == zero_3
    eta = AlternatingForm(1, 3, {})
    assert _d(heisenberg, theta_q) == _wedge(theta_q, eta)
    assert _wedge(eta, _d(heisenberg, eta)) == zero_3 == trace_form(heisenberg, 3)

    # [p, q] = z: the kernel of theta^z is no subalgebra
    assert _wedge(_d(heisenberg, theta_z), theta_z) == AlternatingForm(3, 3, {(1, 2, 3): -1})
