"""Acceptance gate: the contract the package must satisfy, one test per criterion.

Exact-arithmetic claims carry zero tolerance. Finite-difference claims use
the documented tolerance 10 * h^2 * (local magnitude scale); convergence
ratios are demanded only when the coarse residual sits above the float
noise floor, since a residual that is already exact cannot shrink.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from liechar import catalog, cohomology, forms, geometry, jets, linalg
from liechar.algebra import LieAlgebra
from liechar.cohomology import STATUS_NONZERO_CLASS, STATUS_ZERO
from liechar.geometry import FrameField, fd_tolerance, sup_norm

RNG_SEED = 20240801
NOISE_FLOOR = 1e-10


def algebras() -> list[tuple[str, LieAlgebra]]:
    return [(e.name, e.payload) for e in catalog.list_entries() if e.kind == "algebra"]


def frames() -> list[tuple[str, FrameField]]:
    return [(e.name, e.payload) for e in catalog.list_entries() if e.kind == "frame"]


def basis_vector(n: int, i: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def brute_force_w3(alg: LieAlgebra, indices: tuple[int, int, int]) -> Fraction:
    """Full signed permutation sum over products of adjoint matrices.

    Rebuilt from the raw structure constants without the library's form
    machinery, so it can serve as an independent oracle.
    """
    n = alg.dim
    ads = []
    for idx in indices:
        m = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n + 1):
            if idx == j:
                continue
            lo, hi = min(idx, j), max(idx, j)
            sign = 1 if idx < j else -1
            for k in range(1, n + 1):
                m[k - 1][j - 1] += sign * alg.structure_constant(lo, hi, k)
        ads.append(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        prod = ads[perm[0]]
        for p in perm[1:]:
            nxt = ads[p]
            prod = [
                [sum(prod[i][t] * nxt[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        total += forms.permutation_sign(perm) * sum(prod[i][i] for i in range(n))
    return total / 3


def poly_field(rng: np.random.Generator, n: int) -> jets.VectorField:
    const = rng.integers(-2, 3, size=n).astype(float)
    lin = rng.integers(-2, 3, size=(n, n)).astype(float)

    def field(x: np.ndarray) -> np.ndarray:
        return const + lin @ x

    return field


def poly_section(rng: np.random.Generator, chart: jets.Chart) -> jets.J1TSection:
    n = chart.dim
    vec = poly_field(rng, n)
    m0 = rng.integers(-2, 3, size=(n, n)).astype(float)
    m1 = rng.integers(-2, 3, size=(n, n, n)).astype(float)
    return jets.J1TSection(
        chart=chart,
        vector_part=vec,
        matrix_part=lambda x: m0 + np.einsum("ija,a->ij", m1, x),
    )


def poly_form(rng: np.random.Generator, chart: jets.Chart) -> jets.Form1J1T:
    n = chart.dim
    cov = poly_field(rng, n)
    m0 = rng.integers(-2, 3, size=(n, n)).astype(float)
    m1 = rng.integers(-2, 3, size=(n, n, n)).astype(float)
    return jets.Form1J1T(
        chart=chart,
        covector_part=cov,
        matrix_part=lambda x: m0 + np.einsum("ija,a->ij", m1, x),
    )


def halved(frame: FrameField) -> FrameField:
    return FrameField(chart=frame.chart.with_step(frame.chart.h / 2), matrix=frame.matrix)


def sample_points(frame: FrameField) -> list[np.ndarray]:
    per_axis = 3 if frame.chart.dim <= 3 else 2
    return frame.chart.lattice(per_axis)


def test_criterion_01_sl2_degree3_trace_form_value() -> None:
    alg = catalog.get("sl2", kind="algebra").payload
    w3 = forms.trace_form(alg, 3)
    x, h, y = (basis_vector(3, i) for i in range(3))
    assert w3.evaluate(x, h, y) == Fraction(-8)


def test_criterion_02_so3_degree3_nonvanishing_dual_oracle() -> None:
    alg = catalog.get("so3", kind="algebra").payload
    w3 = forms.trace_form(alg, 3)
    a, b, c = (basis_vector(3, i) for i in range(3))
    value = w3.evaluate(a, b, c)
    assert value != 0
    assert value == brute_force_w3(alg, (1, 2, 3))
    assert value == forms.w3_killing(alg, a, b, c)
    assert value == Fraction(2)


def test_criterion_03_degree3_vanishing_iff_solvable() -> None:
    for name, alg in algebras():
        if alg.dim < 3:
            # degree-3 forms on a space of dimension < 3 are identically zero
            assert alg.is_solvable(), name
            continue
        assert forms.trace_form(alg, 3).is_zero() == alg.is_solvable(), name


def test_criterion_04_even_degree_trace_forms_vanish() -> None:
    # through the recursion, which trace_form skips in even degrees
    for name, alg in algebras():
        computed = forms.trace_forms(alg, min(alg.dim, 4))
        if alg.dim >= 2:
            assert computed[2].is_zero(), name
        if alg.dim >= 4:
            assert computed[4].is_zero(), name


def test_criterion_05_odd_trace_forms_are_closed() -> None:
    for name, alg in algebras():
        assert cohomology.is_closed(alg, forms.trace_form(alg, 1)), name
        if alg.dim >= 3:
            assert cohomology.is_closed(alg, forms.trace_form(alg, 3)), name


def test_criterion_06_cohomology_class_statuses() -> None:
    for name in ("sl2", "so3"):
        report = cohomology.class_report(cohomology.cochain_complex(catalog.get(name, kind="algebra").payload))
        assert report[3] == STATUS_NONZERO_CLASS, name
    for name in ("affine1", "borel_sl2"):
        report = cohomology.class_report(cohomology.cochain_complex(catalog.get(name, kind="algebra").payload))
        assert report[1] == STATUS_NONZERO_CLASS, name
    for name, alg in algebras():
        if alg.is_unimodular():
            assert cohomology.class_report(cohomology.cochain_complex(alg))[1] == STATUS_ZERO, name


def test_criterion_07_betti_tables_with_independent_rank_oracle() -> None:
    for n in range(1, 7):
        alg = catalog.get(f"abelian({n})", kind="algebra").payload
        assert cohomology.betti_table(alg) == [math.comb(n, k) for k in range(n + 1)]

    expected = {"sl2": [1, 0, 0, 1], "heisenberg3": [1, 2, 2, 1]}
    for name, table in expected.items():
        alg = catalog.get(name, kind="algebra").payload
        assert cohomology.betti_table(alg) == table, name
        # certify every rank with both elimination routes
        for k in range(alg.dim + 1):
            d_k = cohomology.differential_matrix(alg, k).entries
            d_prev = cohomology.differential_matrix(alg, k - 1).entries if k else []
            gauss = math.comb(alg.dim, k) - linalg.rank(d_k) - linalg.rank(d_prev)
            bareiss = (
                math.comb(alg.dim, k)
                - linalg.rank_fraction_free(d_k)
                - linalg.rank_fraction_free(d_prev)
            )
            assert gauss == bareiss == table[k], (name, k)


def test_criterion_08_first_curvature_vanishes_with_convergence() -> None:
    for name, frame in frames():
        fine_frame = halved(frame)
        coarse_worst = 0.0
        for x in sample_points(frame):
            sample = geometry.r1(frame, x)
            assert sample.max_abs <= fd_tolerance(frame.chart.h, sample.scale), name
            coarse_worst = max(coarse_worst, sample.max_abs)
        if coarse_worst > NOISE_FLOOR:
            fine_worst = max(
                geometry.r1(fine_frame, x).max_abs for x in sample_points(frame)
            )
            assert coarse_worst / fine_worst >= 3.0, name


def test_criterion_09_dw_equals_trace_of_second_curvature() -> None:
    curved = catalog.get("unipotent_sin", kind="frame").payload
    fine = halved(curved)
    coarse_worst = 0.0
    for x in curved.chart.lattice(3):
        scale = geometry.gamma(curved, x).scale ** 2
        residual = geometry.dw_tr_r2_residual(curved, x)
        assert residual <= fd_tolerance(curved.chart.h, scale)
        coarse_worst = max(coarse_worst, residual)
    if coarse_worst > NOISE_FLOOR:
        fine_worst = max(
            geometry.dw_tr_r2_residual(fine, x) for x in curved.chart.lattice(3)
        )
        assert coarse_worst / fine_worst >= 3.0

    for name in ("identity(2)", "affine_halfplane", "borel_frame"):
        frame = catalog.get(name, kind="frame").payload
        for x in frame.chart.lattice(3):
            scale = geometry.gamma(frame, x).scale ** 2
            tol = fd_tolerance(frame.chart.h, scale)
            assert sup_norm(geometry.w_exterior_derivative(frame, x)) <= tol, name
            assert sup_norm(geometry.tr_r2(frame, x)) <= tol, name


def test_criterion_10_pointwise_and_two_point_curvature_agree() -> None:
    threshold = 1e-2
    for name, frame in frames():
        pts = sample_points(frame)
        r2_max = max(geometry.r2(frame, x).max_abs for x in pts)
        pair_max = max(
            geometry.r_full(frame, x, y).max_abs for x, y in zip(pts, reversed(pts))
        )
        assert (r2_max < threshold) == (pair_max < threshold), name
        for x in pts[:3]:
            diag = geometry.r_full(frame, x, x)
            assert diag.max_abs <= fd_tolerance(frame.chart.h, diag.scale), name


def test_criterion_11_bracket_defect_curvature_identities() -> None:
    rng = np.random.default_rng(RNG_SEED)
    for name, frame in frames():
        n = frame.chart.dim
        x = frame.chart.lattice(3)[1]
        for _ in range(10):
            xi = poly_field(rng, n)
            eta = poly_field(rng, n)
            for variant in ("tilde", "hat"):
                residual, magnitude = geometry.bracket_defect_residual(
                    frame, xi, eta, x, variant
                )
                assert residual <= fd_tolerance(frame.chart.h, magnitude), (name, variant)


def test_criterion_12_log_det_ad_is_primitive_of_obstruction_form() -> None:
    for name in ("affine_group", "borel_sl2_group"):
        mult = catalog.get(name, kind="multiplication").payload
        residual, scale = geometry.log_det_ad_primitive_check(mult, points_per_axis=3)
        assert residual <= fd_tolerance(mult.chart.h, scale), name

    borel = catalog.get("borel_sl2_group", kind="multiplication").payload
    for x in borel.chart.lattice(3):
        det = np.linalg.det(geometry.ad_e(borel, x))
        assert abs(det - 1.0 / x[0] ** 2) <= 1e-6


def test_criterion_13_borel_obstruction_witness() -> None:
    borel = catalog.get("borel_sl2_group", kind="multiplication").payload
    # chart point (2, 0) is the group element diag(2, 1/2)
    witness = np.array([2.0, 0.0])
    assert geometry.automorphy_check(borel, [witness]) == [False]
    assert abs(np.linalg.det(geometry.ad_e(borel, witness)) - 0.25) <= 1e-6
    assert geometry.automorphy_check(borel, [borel.identity]) == [True]


def test_criterion_14_jet_calculus_identities() -> None:
    rng = np.random.default_rng(RNG_SEED)
    chart = jets.Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    h = chart.h
    points = chart.lattice(3)

    # prolongation takes vector-field brackets to jet brackets
    for _ in range(10):
        xi, eta = poly_field(rng, 2), poly_field(rng, 2)
        lhs = jets.prolong(chart, jets.vector_field_bracket(chart, xi, eta))
        rhs = jets.spencer_bracket(jets.prolong(chart, xi), jets.prolong(chart, eta))
        for x in points[:3]:
            scale = max(1.0, sup_norm(lhs.matrix_part(x)))
            assert sup_norm(lhs.vector_part(x) - rhs.vector_part(x)) <= fd_tolerance(h, scale)
            assert sup_norm(lhs.matrix_part(x) - rhs.matrix_part(x)) <= fd_tolerance(h, scale)

    # differential of a 1-form against the pairing and the jet bracket
    for _ in range(10):
        omega = poly_form(rng, chart)
        a, b = poly_section(rng, chart), poly_section(rng, chart)
        wa, wb = jets.pairing(omega, a), jets.pairing(omega, b)
        delta = jets.delta_one_form(omega, a, b)
        paired = jets.pairing(omega, jets.spencer_bracket(a, b))
        for x in points[:3]:
            lhs = float(np.dot(jets.gradient(wb, x, h), a.vector_part(x)))
            lhs -= float(np.dot(jets.gradient(wa, x, h), b.vector_part(x)))
            rhs = delta(x) + paired(x)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= fd_tolerance(h, scale)

    # the Lie derivative represents the jet bracket on vector fields
    for _ in range(10):
        a, b = poly_section(rng, chart), poly_section(rng, chart)
        xi = poly_field(rng, 2)
        rhs = jets.lie_derivative(jets.spencer_bracket(a, b), xi)
        for x in points[:3]:
            lhs = jets.lie_derivative(a, jets.lie_derivative(b, xi))(x)
            lhs -= jets.lie_derivative(b, jets.lie_derivative(a, xi))(x)
            scale = max(1.0, sup_norm(lhs), sup_norm(rhs(x)))
            assert sup_norm(lhs - rhs(x)) <= fd_tolerance(h, scale)

    # the frame trace form is delta-closed and its matrix part is exactly -I
    for name in ("affine_halfplane", "unipotent_sin", "borel_frame"):
        frame = catalog.get(name, kind="frame").payload
        omega = geometry.trace_one_form(frame)
        for _ in range(10):
            a = poly_section(rng, frame.chart)
            b = poly_section(rng, frame.chart)
            x = frame.chart.lattice(3)[4]
            mag = max(
                1.0, sup_norm(a.vector_part(x)), sup_norm(b.vector_part(x))
            ) ** 2
            assert abs(jets.delta_one_form(omega, a, b)(x)) <= fd_tolerance(frame.chart.h, mag), name
    for name, frame in frames():
        omega = geometry.trace_one_form(frame)
        n = frame.chart.dim
        for x in sample_points(frame)[:5]:
            assert np.array_equal(omega.matrix_part(x), -np.eye(n)), name


def test_criterion_15_local_algebra_of_affine_group_frame() -> None:
    mult = catalog.get("affine_group", kind="multiplication").payload
    frame = geometry.frame_from_multiplication(mult)
    alg = geometry.local_algebra(frame, np.array([1.5, 0.0]))
    assert alg.dim == 2
    assert alg.is_solvable() is True
    assert alg.is_unimodular() is False
    reference = catalog.get("affine1", kind="algebra").payload
    assert alg.is_solvable() == reference.is_solvable()
    assert alg.is_nilpotent() == reference.is_nilpotent()
    assert alg.is_semisimple() == reference.is_semisimple()
    assert alg.is_unimodular() == reference.is_unimodular()
