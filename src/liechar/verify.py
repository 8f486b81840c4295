"""Named invariant suites behind the `verify` CLI subcommand.

Each check is a deterministic pass/fail probe of one mathematical
invariant, sized for quick runs; the full test suite exercises the same
identities with larger sample counts.

Each suite imports the modules it runs when it runs, so `verify --suite`
loads only its own lane: the algebra, forms and cohomology suites load the
exact modules they use without numpy, and jets loads the catalog, geometry
and jets without the exact lane. The finite-difference modules are
imported as submodules (`from .geometry import ...`): `from . import
geometry` would go through the package's lazy hook, which loads both
lanes. The seeded draws (rational vectors, polynomial coefficients, chart
points) come from the standard library's random.Random, one generator per
drawing suite seeded with RNG_SEED + i, so no suite imports numpy.random.

The checks read catalog entries that are built once per process and then
shared. A build that fails is not kept, so it fails again on every lookup:
catalog.all_entries_validate still means that every entry builds and
validates, even after an earlier check has looked entries up.
"""

from __future__ import annotations

from math import prod
from random import Random
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import catalog

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .jets import Chart, Form1J1T, J1TSection, MatrixField, VectorField

RNG_SEED = 20240801


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _rational_vectors(rng: Random, dim: int, count: int) -> list[list[Fraction]]:
    from fractions import Fraction

    return [[Fraction(rng.randrange(-6, 7), 2) for _ in range(dim)] for _ in range(count)]


def _integers(rng: Random, low: int, high: int, *shape: int) -> np.ndarray:
    """Seeded integers in [low, high) as a float array of the given shape."""
    import numpy as np

    return np.array([rng.randrange(low, high) for _ in range(prod(shape))], dtype=float).reshape(shape)


def _payloads(kind: str) -> list[tuple[str, Any]]:
    """(name, payload) of every catalog entry of one kind, building only those, once."""
    entries = [catalog.get(qualified) for qualified in catalog.list_names() if qualified.startswith(f"{kind}:")]
    return [(entry.name, entry.payload) for entry in entries]


def _poly_field(rng: Random, n: int) -> VectorField:
    const = _integers(rng, -2, 3, n)
    lin = _integers(rng, -2, 3, n, n)
    quad = _integers(rng, -1, 2, n, n)

    def field(x: np.ndarray) -> np.ndarray:
        # const + lin @ x + quad @ (x * x) at each point
        return const + sum(lin[:, i] * x[..., i, None] + quad[:, i] * x[..., i, None] ** 2 for i in range(n))

    return field


def _poly_matrix(rng: Random, n: int) -> MatrixField:
    m0 = _integers(rng, -2, 3, n, n)
    m1 = _integers(rng, -2, 3, n, n, n)

    def mat(x: np.ndarray) -> np.ndarray:
        # m0 + m1[i, j, a] x^a at each point
        return m0 + sum(m1[:, :, a] * x[..., a, None, None] for a in range(n))

    return mat


def _poly_section(rng: Random, chart: Chart) -> J1TSection:
    from .jets import J1TSection

    n = chart.dim
    return J1TSection(chart=chart, vector_part=_poly_field(rng, n), matrix_part=_poly_matrix(rng, n))


def _poly_form(rng: Random, chart: Chart) -> Form1J1T:
    from .jets import Form1J1T

    n = chart.dim
    return Form1J1T(chart=chart, covector_part=_poly_field(rng, n), matrix_part=_poly_matrix(rng, n))


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
    rng = Random(RNG_SEED)

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
    from .forms import trace_form, trace_forms, w1_character, w3_killing

    results: list[CheckResult] = []
    rng = Random(RNG_SEED + 1)

    def even_vanishing():
        # through the recursion, which trace_form skips in even degrees
        for name, alg in _payloads("algebra"):
            for k, form in trace_forms(alg, min(alg.dim, 4)).items():
                assert k % 2 or form.is_zero(), f"{name}: degree-{k} trace form nonzero"

    def killing_shortcut():
        for name, alg in _payloads("algebra"):
            if alg.dim < 3:
                continue
            w3 = trace_form(alg, 3)
            for x, y, z in zip(*(iter(_rational_vectors(rng, alg.dim, 15)),) * 3):
                assert w3.evaluate(x, y, z) == w3_killing(alg, x, y, z), f"{name}: w3 shortcut mismatch"

    def cartan_solvability():
        for name, alg in _payloads("algebra"):
            if alg.dim < 3:
                continue
            assert trace_form(alg, 3).is_zero() == alg.is_solvable(), f"{name}: Cartan criterion mismatch"

    def character_unimodularity():
        for name, alg in _payloads("algebra"):
            assert w1_character(alg).is_zero() == alg.is_unimodular(), f"{name}: character/unimodular mismatch"

    _check(results, "forms", "even_degrees_vanish", even_vanishing)
    _check(results, "forms", "degree3_killing_shortcut", killing_shortcut)
    _check(results, "forms", "degree3_zero_iff_solvable", cartan_solvability)
    _check(results, "forms", "character_zero_iff_unimodular", character_unimodularity)
    return results


def suite_cohomology() -> list[CheckResult]:
    from .cohomology import betti, betti_table, differential_matrix, is_closed
    from .forms import trace_form
    from .linalg import is_zero_matrix, mat_mul, rank, rank_fraction_free

    results: list[CheckResult] = []

    def d_squared():
        for name, alg in _payloads("algebra"):
            for k in range(alg.dim):
                d_k = differential_matrix(alg, k)
                d_next = differential_matrix(alg, k + 1)
                product = mat_mul(d_next.entries, d_k.entries)
                assert is_zero_matrix(product), f"{name}: d.d != 0 at degree {k}"

    def closed_trace_forms():
        for name, alg in _payloads("algebra"):
            for k in (1, 3):
                if k <= alg.dim:
                    assert is_closed(alg, trace_form(alg, k)), f"{name}: w{k} not closed"

    def betti_basics():
        for name, alg in _payloads("algebra"):
            table = betti_table(alg)
            full = [betti(alg, k) for k in range(alg.dim + 1)]
            assert table == full, f"{name}: Betti table {table} != per-degree betti {full}"
            assert table[0] == 1, f"{name}: b0 != 1"
            euler = sum((-1) ** k * b for k, b in enumerate(table))
            assert euler == 0, f"{name}: Euler characteristic {euler} != 0"

    def whitehead():
        for name, alg in _payloads("algebra"):
            if alg.is_semisimple():
                assert betti(alg, 1) == 0, f"{name}: b1 != 0"
                assert betti(alg, 2) == 0, f"{name}: b2 != 0"

    def rank_dual_route():
        # the sparse echelon rank betti uses against both dense routes
        for name, alg in _payloads("algebra"):
            for k in range(alg.dim + 1):
                d_k = differential_matrix(alg, k)
                entries = d_k.entries
                routes = (d_k.rank(), rank_fraction_free(entries), rank(entries))
                assert len(set(routes)) == 1, f"{name}: rank routes disagree at degree {k}: {routes}"

    _check(results, "cohomology", "differential_squares_to_zero", d_squared)
    _check(results, "cohomology", "trace_forms_closed", closed_trace_forms)
    _check(results, "cohomology", "betti_normalization_and_euler", betti_basics)
    _check(results, "cohomology", "whitehead_vanishing", whitehead)
    _check(results, "cohomology", "fraction_free_rank_matches_gauss", rank_dual_route)
    return results


def suite_jets() -> list[CheckResult]:
    import numpy as np

    from .geometry import fd_tolerance, point_sup, sup_norm, trace_one_form
    from .jets import (
        Chart,
        delta_one_form,
        gradient,
        lie_derivative,
        pairing,
        prolong,
        spencer_bracket,
        vector_field_bracket,
    )

    results: list[CheckResult] = []
    rng = Random(RNG_SEED + 2)
    chart = Chart(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    h = chart.h
    points = chart.lattice(3)

    def self_bracket():
        a = _poly_section(rng, chart)
        bracket = spencer_bracket(a, a)
        assert sup_norm(bracket.vector_part(points)) <= 1e-9
        assert sup_norm(bracket.matrix_part(points)) <= 1e-9

    def prolongation_compat():
        xi, eta = _poly_field(rng, 2), _poly_field(rng, 2)
        lhs = prolong(chart, vector_field_bracket(chart, xi, eta))
        rhs = spencer_bracket(prolong(chart, xi), prolong(chart, eta))
        lhs_m = lhs.matrix_part(points)
        tol = fd_tolerance(h, point_sup(lhs_m, 2))
        assert np.all(point_sup(lhs.vector_part(points) - rhs.vector_part(points), 1) <= tol)
        assert np.all(point_sup(lhs_m - rhs.matrix_part(points), 2) <= tol)

    def cartan_identity():
        omega = _poly_form(rng, chart)
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        wa, wb = pairing(omega, a), pairing(omega, b)
        delta = delta_one_form(omega, a, b)
        paired_bracket = pairing(omega, spencer_bracket(a, b))
        lhs = np.sum(gradient(wb, points, h) * a.vector_part(points), axis=-1)
        lhs -= np.sum(gradient(wa, points, h) * b.vector_part(points), axis=-1)
        rhs = delta(points) + paired_bracket(points)
        off, tol = np.abs(lhs - rhs), fd_tolerance(h, np.abs(lhs), np.abs(rhs))
        assert np.all(off <= tol), f"Cartan identity off by {np.max(off / tol):.2f}x its tol"

    def representation_identity():
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        xi = _poly_field(rng, 2)
        lhs = lie_derivative(a, lie_derivative(b, xi))(points)
        lhs -= lie_derivative(b, lie_derivative(a, xi))(points)
        rhs = lie_derivative(spencer_bracket(a, b), xi)(points)
        tol = fd_tolerance(h, point_sup(lhs, 1), point_sup(rhs, 1))
        assert np.all(point_sup(lhs - rhs, 1) <= tol)

    def trace_form_shape():
        frame = catalog.get("borel_frame", kind="frame").payload
        pts = frame.chart.lattice(3)
        expected = np.broadcast_to(-np.eye(2), (len(pts), 2, 2))
        assert np.array_equal(trace_one_form(frame).matrix_part(pts), expected)

    _check(results, "jets", "self_bracket_vanishes", self_bracket)
    _check(results, "jets", "bracket_respects_prolongation", prolongation_compat)
    _check(results, "jets", "cartan_style_identity", cartan_identity)
    _check(results, "jets", "lie_derivative_representation", representation_identity)
    _check(results, "jets", "frame_trace_form_matrix_part", trace_form_shape)
    return results


def suite_geometry() -> list[CheckResult]:
    import numpy as np

    from .geometry import (
        EXACT_TOL,
        Splitting,
        automorphy_check,
        bracket_defect_residual,
        dw_tr_r2_residual,
        fd_tolerance,
        gamma,
        local_algebra,
        log_det_ad_primitive_check,
        r1,
        r2,
        r_full,
        sup_norm,
    )

    results: list[CheckResult] = []
    rng = Random(RNG_SEED + 3)

    def splitting_identities():
        for name, frame in _payloads("frame"):
            eps = Splitting(frame)
            pts = frame.chart.lattice(3)
            # the triples (first, middle, last) and (second, second to last, first)
            x, y, z = pts[[0, 1]], pts[[len(pts) // 2, -2]], pts[[-1, 0]]
            assert eps.cocycle_residual(x, y, z) <= EXACT_TOL, f"{name}: cocycle fails"
            assert eps.identity_residual(pts) <= EXACT_TOL, f"{name}: diagonal fails"

    def r1_vanishes():
        for name, frame in _payloads("frame"):
            sample = r1(frame, frame.chart.lattice(3))
            tol = fd_tolerance(frame.chart.h, sample.scale)
            assert np.all(sample.max_abs <= tol), f"{name}: |R1| reaches {np.max(sample.max_abs / tol):.2f}x its tol"

    def dw_matches_trace():
        for name, frame in _payloads("frame"):
            pts = frame.chart.lattice(3)
            residual = dw_tr_r2_residual(frame, pts)
            tol = fd_tolerance(frame.chart.h, gamma(frame, pts).scale ** 2)
            assert np.all(residual <= tol), f"{name}: dw vs trace R2 off by {np.max(residual / tol):.2f}x its tol"

    def curvature_coherence():
        for name, frame in _payloads("frame"):
            pts = frame.chart.lattice(3)
            r2_max = sup_norm(r2(frame, pts).tensor)
            pair_max = sup_norm(r_full(frame, pts, pts[::-1]).tensor)
            threshold = 1e-2
            assert (r2_max < threshold) == (pair_max < threshold), f"{name}: R2/R(eps) verdicts differ"
            diag = r_full(frame, pts[:3], pts[:3])
            tol = fd_tolerance(frame.chart.h, diag.scale)
            assert np.all(diag.max_abs <= tol), f"{name}: R(eps)(x,x) reaches {np.max(diag.max_abs / tol):.2f}x its tol"

    def bracket_defect():
        for name, frame in _payloads("frame"):
            n = frame.chart.dim
            pts = frame.chart.lattice(3)
            for variant in ("tilde", "hat"):
                residual, scale = bracket_defect_residual(frame, _poly_field(rng, n), _poly_field(rng, n), pts, variant)
                tol = fd_tolerance(frame.chart.h, scale)
                assert np.all(residual <= tol), f"{name}/{variant}: {np.max(residual / tol):.2f}x its tol"

    def group_frame_flags():
        frame = catalog.get("affine_halfplane", kind="frame").payload
        alg = local_algebra(frame, np.array([1.0, 0.5]))
        assert alg.is_solvable() and not alg.is_unimodular()
        reference = catalog.get("affine1", kind="algebra").payload
        assert alg.is_solvable() == reference.is_solvable()
        assert alg.is_unimodular() == reference.is_unimodular()

    def adjoint_primitive():
        for name, mult in _payloads("multiplication"):
            if mult.chart.dim > 2:
                continue
            residual, scale = log_det_ad_primitive_check(mult, points_per_axis=3)
            tol = fd_tolerance(mult.chart.h, scale)
            assert residual <= tol, f"{name}: primitive residual {residual:.2e} > {tol:.2e}"

    def automorphy_witness():
        borel = catalog.get("borel_sl2_group", kind="multiplication").payload
        checks = automorphy_check(borel, [np.array([2.0, 0.0]), borel.identity])
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
    import numpy as np

    from .geometry import EXACT_TOL

    results: list[CheckResult] = []
    rng = Random(RNG_SEED + 4)

    def entries_build():
        names = catalog.list_names()
        assert len(names) == len(set(names)), "duplicate catalog names"
        catalog.list_entries()

    def associativity():
        for name, mult in _payloads("multiplication"):
            lo = np.asarray(mult.chart.lower)
            hi = np.asarray(mult.chart.upper)
            draws = np.array([rng.random() for _ in range(20 * 3 * mult.chart.dim)]).reshape(20, 3, -1)
            a, b, c = (lo + (hi - lo) * draws).swapaxes(0, 1)
            residual = mult.associativity_residual(a, b, c)
            assert residual <= EXACT_TOL, f"{name}: associativity off by {residual:.2e}"

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
