"""Named invariant suites behind the `verify` CLI subcommand.

Each check is a deterministic pass/fail probe of one mathematical
invariant, sized for quick runs; the full test suite exercises the same
identities with larger sample counts.

The checks read catalog entries that are built once per process and then
shared. A build that fails is not kept, so it fails again on every lookup:
catalog.all_entries_validate still means that every entry builds and
validates, even after an earlier check has looked entries up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import catalog, cohomology, forms, geometry, jets, linalg

RNG_SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _rational_vectors(rng: np.random.Generator, dim: int, count: int) -> list[list[Fraction]]:
    draws = rng.integers(-6, 7, size=(count, dim))
    return [[Fraction(int(v), 2) for v in row] for row in draws]


def _payloads(kind: str) -> list[tuple[str, Any]]:
    """(name, payload) of every catalog entry of one kind, building only those, once."""
    entries = [catalog.get(qualified) for qualified in catalog.list_names() if qualified.startswith(f"{kind}:")]
    return [(entry.name, entry.payload) for entry in entries]


def _poly_field(rng: np.random.Generator, n: int) -> jets.VectorField:
    const = rng.integers(-2, 3, size=n).astype(float)
    lin = rng.integers(-2, 3, size=(n, n)).astype(float)
    quad = rng.integers(-1, 2, size=(n, n)).astype(float)

    def field(x: np.ndarray) -> np.ndarray:
        # const + lin @ x + quad @ (x * x) at each point
        return const + sum(lin[:, i] * x[..., i, None] + quad[:, i] * x[..., i, None] ** 2 for i in range(n))

    return field


def _poly_matrix(rng: np.random.Generator, n: int) -> jets.MatrixField:
    m0 = rng.integers(-2, 3, size=(n, n)).astype(float)
    m1 = rng.integers(-2, 3, size=(n, n, n)).astype(float)

    def mat(x: np.ndarray) -> np.ndarray:
        # m0 + m1[i, j, a] x^a at each point
        return m0 + sum(m1[:, :, a] * x[..., a, None, None] for a in range(n))

    return mat


def _poly_section(rng: np.random.Generator, chart: jets.Chart) -> jets.J1TSection:
    n = chart.dim
    return jets.J1TSection(chart=chart, vector_part=_poly_field(rng, n), matrix_part=_poly_matrix(rng, n))


def _poly_form(rng: np.random.Generator, chart: jets.Chart) -> jets.Form1J1T:
    n = chart.dim
    return jets.Form1J1T(chart=chart, covector_part=_poly_field(rng, n), matrix_part=_poly_matrix(rng, n))


def _check(results: list[CheckResult], suite: str, name: str, fn: Callable[[], None]) -> None:
    try:
        fn()
    except AssertionError as exc:
        results.append(CheckResult(suite, name, False, str(exc)))
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
        results.append(CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}"))
    else:
        results.append(CheckResult(suite, name, True))


def suite_algebra() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(RNG_SEED)

    def jacobi_all():
        for name, alg in _payloads("algebra"):
            report = alg.validate()
            assert report.ok, f"{name}: Jacobi fails at {report.violations[:3]}"

    def killing_invariance():
        for name, alg in _payloads("algebra"):
            for x, y, z in zip(*(iter(_rational_vectors(rng, alg.dim, 9)),) * 3):
                lhs = alg.killing_pair(alg.bracket(x, y), z)
                rhs = alg.killing_pair(x, alg.bracket(y, z))
                assert lhs == rhs, f"{name}: killing invariance fails"

    def semisimple_unimodular():
        for name, alg in _payloads("algebra"):
            if alg.is_semisimple():
                assert alg.is_unimodular(), f"{name}: semisimple but not unimodular"

    _check(results, "algebra", "jacobi_all_catalog", jacobi_all)
    _check(results, "algebra", "killing_form_invariance", killing_invariance)
    _check(results, "algebra", "semisimple_implies_unimodular", semisimple_unimodular)
    return results


def suite_forms() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(RNG_SEED + 1)

    def even_vanishing():
        # through the recursion, which trace_form skips in even degrees
        for name, alg in _payloads("algebra"):
            for k, form in forms.trace_forms(alg, min(alg.dim, 4)).items():
                assert k % 2 or form.is_zero(), f"{name}: degree-{k} trace form nonzero"

    def killing_shortcut():
        for name, alg in _payloads("algebra"):
            if alg.dim < 3:
                continue
            w3 = forms.trace_form(alg, 3)
            for x, y, z in zip(*(iter(_rational_vectors(rng, alg.dim, 15)),) * 3):
                assert w3.evaluate(x, y, z) == forms.w3_killing(alg, x, y, z), f"{name}: w3 shortcut mismatch"

    def cartan_solvability():
        for name, alg in _payloads("algebra"):
            if alg.dim < 3:
                continue
            assert forms.trace_form(alg, 3).is_zero() == alg.is_solvable(), f"{name}: Cartan criterion mismatch"

    def character_unimodularity():
        for name, alg in _payloads("algebra"):
            assert forms.w1_character(alg).is_zero() == alg.is_unimodular(), f"{name}: character/unimodular mismatch"

    _check(results, "forms", "even_degrees_vanish", even_vanishing)
    _check(results, "forms", "degree3_killing_shortcut", killing_shortcut)
    _check(results, "forms", "degree3_zero_iff_solvable", cartan_solvability)
    _check(results, "forms", "character_zero_iff_unimodular", character_unimodularity)
    return results


def suite_cohomology() -> list[CheckResult]:
    results: list[CheckResult] = []

    def d_squared():
        for name, alg in _payloads("algebra"):
            for k in range(alg.dim):
                d_k = cohomology.differential_matrix(alg, k)
                d_next = cohomology.differential_matrix(alg, k + 1)
                product = linalg.mat_mul(d_next.entries, d_k.entries)
                assert linalg.is_zero_matrix(product), f"{name}: d.d != 0 at degree {k}"

    def closed_trace_forms():
        for name, alg in _payloads("algebra"):
            for k in (1, 3):
                if k <= alg.dim:
                    assert cohomology.is_closed(alg, forms.trace_form(alg, k)), f"{name}: w{k} not closed"

    def betti_basics():
        for name, alg in _payloads("algebra"):
            table = cohomology.betti_table(alg)
            full = [cohomology.betti(alg, k) for k in range(alg.dim + 1)]
            assert table == full, f"{name}: Betti table {table} != per-degree betti {full}"
            assert table[0] == 1, f"{name}: b0 != 1"
            euler = sum((-1) ** k * b for k, b in enumerate(table))
            assert euler == 0, f"{name}: Euler characteristic {euler} != 0"

    def whitehead():
        for name, alg in _payloads("algebra"):
            if alg.is_semisimple():
                assert cohomology.betti(alg, 1) == 0, f"{name}: b1 != 0"
                assert cohomology.betti(alg, 2) == 0, f"{name}: b2 != 0"

    def rank_dual_route():
        # the sparse echelon rank betti uses against both dense routes
        for name, alg in _payloads("algebra"):
            for k in range(alg.dim + 1):
                d_k = cohomology.differential_matrix(alg, k)
                entries = d_k.entries
                routes = (d_k.rank(), linalg.rank_fraction_free(entries), linalg.rank(entries))
                assert len(set(routes)) == 1, f"{name}: rank routes disagree at degree {k}: {routes}"

    _check(results, "cohomology", "differential_squares_to_zero", d_squared)
    _check(results, "cohomology", "trace_forms_closed", closed_trace_forms)
    _check(results, "cohomology", "betti_normalization_and_euler", betti_basics)
    _check(results, "cohomology", "whitehead_vanishing", whitehead)
    _check(results, "cohomology", "fraction_free_rank_matches_gauss", rank_dual_route)
    return results


def suite_jets() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(RNG_SEED + 2)
    chart = jets.Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    h = chart.h
    points = chart.lattice(3)

    def self_bracket():
        a = _poly_section(rng, chart)
        bracket = jets.spencer_bracket(a, a)
        assert geometry.sup_norm(bracket.vector_part(points)) <= 1e-9
        assert geometry.sup_norm(bracket.matrix_part(points)) <= 1e-9

    def prolongation_compat():
        xi, eta = _poly_field(rng, 2), _poly_field(rng, 2)
        lhs = jets.prolong(chart, jets.vector_field_bracket(chart, xi, eta))
        rhs = jets.spencer_bracket(jets.prolong(chart, xi), jets.prolong(chart, eta))
        lhs_m = lhs.matrix_part(points)
        tol = geometry.fd_tolerance(h, geometry.point_sup(lhs_m, 2))
        assert np.all(geometry.point_sup(lhs.vector_part(points) - rhs.vector_part(points), 1) <= tol)
        assert np.all(geometry.point_sup(lhs_m - rhs.matrix_part(points), 2) <= tol)

    def cartan_identity():
        omega = _poly_form(rng, chart)
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        wa, wb = jets.pairing(omega, a), jets.pairing(omega, b)
        delta = jets.delta_one_form(omega, a, b)
        paired_bracket = jets.pairing(omega, jets.spencer_bracket(a, b))
        lhs = np.sum(jets.gradient(wb, points, h) * a.vector_part(points), axis=-1)
        lhs -= np.sum(jets.gradient(wa, points, h) * b.vector_part(points), axis=-1)
        rhs = delta(points) + paired_bracket(points)
        off, tol = np.abs(lhs - rhs), geometry.fd_tolerance(h, np.abs(lhs), np.abs(rhs))
        assert np.all(off <= tol), f"Cartan identity off by {np.max(off / tol):.2f}x its tol"

    def representation_identity():
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        xi = _poly_field(rng, 2)
        lhs = jets.lie_derivative(a, jets.lie_derivative(b, xi))(points)
        lhs -= jets.lie_derivative(b, jets.lie_derivative(a, xi))(points)
        rhs = jets.lie_derivative(jets.spencer_bracket(a, b), xi)(points)
        tol = geometry.fd_tolerance(h, geometry.point_sup(lhs, 1), geometry.point_sup(rhs, 1))
        assert np.all(geometry.point_sup(lhs - rhs, 1) <= tol)

    def trace_form_shape():
        frame = catalog.get("borel_frame", kind="frame").payload
        pts = frame.chart.lattice(3)
        expected = np.broadcast_to(-np.eye(2), (len(pts), 2, 2))
        assert np.array_equal(geometry.trace_one_form(frame).matrix_part(pts), expected)

    _check(results, "jets", "self_bracket_vanishes", self_bracket)
    _check(results, "jets", "bracket_respects_prolongation", prolongation_compat)
    _check(results, "jets", "cartan_style_identity", cartan_identity)
    _check(results, "jets", "lie_derivative_representation", representation_identity)
    _check(results, "jets", "frame_trace_form_matrix_part", trace_form_shape)
    return results


def suite_geometry() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(RNG_SEED + 3)

    def splitting_identities():
        for name, frame in _payloads("frame"):
            eps = geometry.Splitting(frame)
            pts = frame.chart.lattice(3)
            # the triples (first, middle, last) and (second, second to last, first)
            x, y, z = pts[[0, 1]], pts[[len(pts) // 2, -2]], pts[[-1, 0]]
            assert eps.cocycle_residual(x, y, z) <= geometry.EXACT_TOL, f"{name}: cocycle fails"
            assert eps.identity_residual(pts) <= geometry.EXACT_TOL, f"{name}: diagonal fails"

    def r1_vanishes():
        for name, frame in _payloads("frame"):
            sample = geometry.r1(frame, frame.chart.lattice(3))
            tol = geometry.fd_tolerance(frame.chart.h, sample.scale)
            assert np.all(sample.max_abs <= tol), f"{name}: |R1| reaches {np.max(sample.max_abs / tol):.2f}x its tol"

    def dw_matches_trace():
        for name, frame in _payloads("frame"):
            pts = frame.chart.lattice(3)
            residual = geometry.dw_tr_r2_residual(frame, pts)
            tol = geometry.fd_tolerance(frame.chart.h, geometry.gamma(frame, pts).scale ** 2)
            assert np.all(residual <= tol), f"{name}: dw vs trace R2 off by {np.max(residual / tol):.2f}x its tol"

    def curvature_coherence():
        for name, frame in _payloads("frame"):
            pts = frame.chart.lattice(3)
            r2_max = geometry.sup_norm(geometry.r2(frame, pts).tensor)
            pair_max = geometry.sup_norm(geometry.r_full(frame, pts, pts[::-1]).tensor)
            threshold = 1e-2
            assert (r2_max < threshold) == (pair_max < threshold), f"{name}: R2/R(eps) verdicts differ"
            diag = geometry.r_full(frame, pts[:3], pts[:3])
            tol = geometry.fd_tolerance(frame.chart.h, diag.scale)
            assert np.all(diag.max_abs <= tol), f"{name}: R(eps)(x,x) reaches {np.max(diag.max_abs / tol):.2f}x its tol"

    def bracket_defect():
        for name, frame in _payloads("frame"):
            n = frame.chart.dim
            pts = frame.chart.lattice(3)
            for variant in ("tilde", "hat"):
                residual, scale = geometry.bracket_defect_residual(
                    frame, _poly_field(rng, n), _poly_field(rng, n), pts, variant
                )
                tol = geometry.fd_tolerance(frame.chart.h, scale)
                assert np.all(residual <= tol), f"{name}/{variant}: {np.max(residual / tol):.2f}x its tol"

    def group_frame_flags():
        frame = catalog.get("affine_halfplane", kind="frame").payload
        alg = geometry.local_algebra(frame, np.array([1.0, 0.5]))
        assert alg.is_solvable() and not alg.is_unimodular()
        reference = catalog.get("affine1", kind="algebra").payload
        assert alg.is_solvable() == reference.is_solvable()
        assert alg.is_unimodular() == reference.is_unimodular()

    def adjoint_primitive():
        for name, mult in _payloads("multiplication"):
            if mult.chart.dim > 2:
                continue
            residual, scale = geometry.log_det_ad_primitive_check(mult, points_per_axis=3)
            tol = geometry.fd_tolerance(mult.chart.h, scale)
            assert residual <= tol, f"{name}: primitive residual {residual:.2e} > {tol:.2e}"

    def automorphy_witness():
        borel = catalog.get("borel_sl2_group", kind="multiplication").payload
        checks = geometry.automorphy_check(borel, [np.array([2.0, 0.0]), borel.identity])
        assert checks == [False, True]

    _check(results, "geometry", "splitting_cocycle_and_diagonal", splitting_identities)
    _check(results, "geometry", "first_curvature_vanishes", r1_vanishes)
    _check(results, "geometry", "dw_equals_trace_r2", dw_matches_trace)
    _check(results, "geometry", "pointwise_vs_two_point_curvature", curvature_coherence)
    _check(results, "geometry", "bracket_defect_identities", bracket_defect)
    _check(results, "geometry", "affine_local_algebra_flags", group_frame_flags)
    _check(results, "geometry", "log_det_ad_primitive", adjoint_primitive)
    _check(results, "geometry", "borel_automorphy_witness", automorphy_witness)
    return results


def suite_catalog() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(RNG_SEED + 4)

    def entries_build():
        names = catalog.list_names()
        assert len(names) == len(set(names)), "duplicate catalog names"
        catalog.list_entries()

    def associativity():
        for name, mult in _payloads("multiplication"):
            lo = np.asarray(mult.chart.lower)
            hi = np.asarray(mult.chart.upper)
            a, b, c = (lo + (hi - lo) * rng.random((20, 3, mult.chart.dim))).swapaxes(0, 1)
            residual = mult.associativity_residual(a, b, c)
            assert residual <= geometry.EXACT_TOL, f"{name}: associativity off by {residual:.2e}"

    _check(results, "catalog", "all_entries_validate", entries_build)
    _check(results, "catalog", "multiplication_associativity", associativity)
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "algebra": suite_algebra,
    "forms": suite_forms,
    "cohomology": suite_cohomology,
    "jets": suite_jets,
    "geometry": suite_geometry,
    "catalog": suite_catalog,
}


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    chosen = names if names else sorted(SUITES)
    results: list[CheckResult] = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown verification suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name]())
    return results
