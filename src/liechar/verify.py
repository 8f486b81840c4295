"""Named invariant suites behind the `verify` CLI subcommand.

Each check is a deterministic pass/fail probe of one mathematical
invariant, sized for quick runs; the full test suite exercises the same
identities with larger sample counts.

Each suite returns (name, check) pairs, and run_suites runs each check
through _check, which reports a failed assertion or a crash as a failed
CheckResult. _each(kind, check) runs check(payload) on each catalog entry
of one kind until one fails, naming that entry first; _assert_fd_zero is
the one finite-difference zero test, naming the quantity and its worst
residual/tolerance ratio.

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

_Checks = list[tuple[str, Callable[[], None]]]


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


def _detail(exc: Exception) -> str:
    return str(exc) if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"


def _check(suite: str, name: str, fn: Callable[[], None]) -> CheckResult:
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
        return CheckResult(suite, name, False, _detail(exc))
    return CheckResult(suite, name, True)


def _each(kind: str, check: Callable[[Any], None]) -> Callable[[], None]:
    """A check that runs check(payload) on every catalog entry of one kind, in
    catalog order, building only those; it stops at the first failure and
    names that entry first in the message."""

    def run() -> None:
        for entry_kind, name in (qualified.split(":", 1) for qualified in catalog.list_names()):
            if entry_kind != kind:
                continue
            try:
                check(catalog.get(name, kind=kind).payload)
            except Exception as exc:  # noqa: BLE001 - reported by _check
                raise AssertionError(f"{name}: {_detail(exc)}") from exc

    return run


def _assert_fd_zero(quantity: str, residual, h: float, *scales) -> None:
    """residual <= fd_tolerance(h, *scales) at every point; a failure names
    the quantity and its worst residual/tolerance ratio."""
    import numpy as np

    from .geometry import fd_tolerance

    tol = fd_tolerance(h, *scales)
    assert np.all(residual <= tol), f"{quantity} reaches {np.max(residual / tol):.2f}x its tol"


def suite_algebra() -> _Checks:
    rng = Random(RNG_SEED)

    def jacobi(alg):
        report = alg.validate()
        assert report.ok, f"Jacobi fails at {report.violations[:3]}"

    def killing_invariance(alg):
        for x, y, z in zip(*(iter(_rational_vectors(rng, alg.dim, 9)),) * 3):
            lhs = alg.killing_pair(alg.bracket(x, y), z)
            assert lhs == alg.killing_pair(x, alg.bracket(y, z)), "killing invariance fails"

    def semisimple_unimodular(alg):
        if alg.is_semisimple():
            assert alg.is_unimodular(), "semisimple but not unimodular"

    return [
        ("jacobi_all_catalog", _each("algebra", jacobi)),
        ("killing_form_invariance", _each("algebra", killing_invariance)),
        ("semisimple_implies_unimodular", _each("algebra", semisimple_unimodular)),
    ]


def suite_forms() -> _Checks:
    from .forms import trace_form, trace_forms, w1_character, w3_killing

    rng = Random(RNG_SEED + 1)

    def even_vanishing(alg):
        # through the recursion, which trace_form skips in even degrees
        for k, form in trace_forms(alg, min(alg.dim, 4)).items():
            assert k % 2 or form.is_zero(), f"degree-{k} trace form nonzero"

    def killing_shortcut(alg):
        if alg.dim < 3:
            return
        w3 = trace_form(alg, 3)
        for x, y, z in zip(*(iter(_rational_vectors(rng, alg.dim, 15)),) * 3):
            assert w3.evaluate(x, y, z) == w3_killing(alg, x, y, z), "w3 shortcut mismatch"

    def cartan_solvability(alg):
        if alg.dim >= 3:
            assert trace_form(alg, 3).is_zero() == alg.is_solvable(), "Cartan criterion mismatch"

    def character_unimodularity(alg):
        assert w1_character(alg).is_zero() == alg.is_unimodular(), "character/unimodular mismatch"

    return [
        ("even_degrees_vanish", _each("algebra", even_vanishing)),
        ("degree3_killing_shortcut", _each("algebra", killing_shortcut)),
        ("degree3_zero_iff_solvable", _each("algebra", cartan_solvability)),
        ("character_zero_iff_unimodular", _each("algebra", character_unimodularity)),
    ]


def suite_cohomology() -> _Checks:
    from .cohomology import betti, betti_table, differential_matrix, is_closed
    from .forms import trace_form
    from .linalg import is_zero_matrix, mat_mul, rank, rank_fraction_free

    def d_squared(alg):
        for k in range(alg.dim):
            d_k = differential_matrix(alg, k)
            product = mat_mul(differential_matrix(alg, k + 1).entries, d_k.entries)
            assert is_zero_matrix(product), f"d.d != 0 at degree {k}"

    def closed_trace_forms(alg):
        for k in (1, 3):
            if k <= alg.dim:
                assert is_closed(alg, trace_form(alg, k)), f"w{k} not closed"

    def betti_basics(alg):
        table = betti_table(alg)
        full = [betti(alg, k) for k in range(alg.dim + 1)]
        assert table == full, f"Betti table {table} != per-degree betti {full}"
        assert table[0] == 1, "b0 != 1"
        euler = sum((-1) ** k * b for k, b in enumerate(table))
        assert euler == 0, f"Euler characteristic {euler} != 0"

    def whitehead(alg):
        if alg.is_semisimple():
            assert betti(alg, 1) == 0, "b1 != 0"
            assert betti(alg, 2) == 0, "b2 != 0"

    def rank_dual_route(alg):
        # the sparse echelon rank betti uses against both dense routes
        for k in range(alg.dim + 1):
            d_k = differential_matrix(alg, k)
            routes = (d_k.rank(), rank_fraction_free(d_k.entries), rank(d_k.entries))
            assert len(set(routes)) == 1, f"rank routes disagree at degree {k}: {routes}"

    def ranks_dual(alg):
        # rank d_k = rank d_(n-1-k), which betti_table reads off for a
        # unimodular algebra, on the full bases
        ranks = [differential_matrix(alg, k).rank() for k in range(alg.dim)]
        unimodular = alg.is_unimodular()
        assert (ranks == ranks[::-1]) == unimodular, f"ranks {ranks} of d_0, d_1, ... with unimodular {unimodular}"

    return [
        ("differential_squares_to_zero", _each("algebra", d_squared)),
        ("trace_forms_closed", _each("algebra", closed_trace_forms)),
        ("betti_normalization_and_euler", _each("algebra", betti_basics)),
        ("whitehead_vanishing", _each("algebra", whitehead)),
        ("fraction_free_rank_matches_gauss", _each("algebra", rank_dual_route)),
        ("ranks_dual_exactly_when_unimodular", _each("algebra", ranks_dual)),
    ]


def suite_jets() -> _Checks:
    import numpy as np

    from .geometry import point_sup, sup_norm, trace_one_form
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
        scale = point_sup(lhs_m, 2)
        _assert_fd_zero("vector part", point_sup(lhs.vector_part(points) - rhs.vector_part(points), 1), h, scale)
        _assert_fd_zero("matrix part", point_sup(lhs_m - rhs.matrix_part(points), 2), h, scale)

    def cartan_identity():
        omega = _poly_form(rng, chart)
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        wa, wb = pairing(omega, a), pairing(omega, b)
        delta = delta_one_form(omega, a, b)
        paired_bracket = pairing(omega, spencer_bracket(a, b))
        lhs = np.sum(gradient(wb, points, h) * a.vector_part(points), axis=-1)
        lhs -= np.sum(gradient(wa, points, h) * b.vector_part(points), axis=-1)
        rhs = delta(points) + paired_bracket(points)
        _assert_fd_zero("Cartan identity residual", np.abs(lhs - rhs), h, np.abs(lhs), np.abs(rhs))

    def representation_identity():
        a, b = _poly_section(rng, chart), _poly_section(rng, chart)
        xi = _poly_field(rng, 2)
        lhs = lie_derivative(a, lie_derivative(b, xi))(points)
        lhs -= lie_derivative(b, lie_derivative(a, xi))(points)
        rhs = lie_derivative(spencer_bracket(a, b), xi)(points)
        _assert_fd_zero("representation residual", point_sup(lhs - rhs, 1), h, point_sup(lhs, 1), point_sup(rhs, 1))

    def trace_form_shape():
        frame = catalog.get("borel_frame", kind="frame").payload
        pts = frame.chart.lattice(3)
        expected = np.broadcast_to(-np.eye(2), (len(pts), 2, 2))
        assert np.array_equal(trace_one_form(frame).matrix_part(pts), expected)

    return [
        ("self_bracket_vanishes", self_bracket),
        ("bracket_respects_prolongation", prolongation_compat),
        ("cartan_style_identity", cartan_identity),
        ("lie_derivative_representation", representation_identity),
        ("frame_trace_form_matrix_part", trace_form_shape),
    ]


def suite_geometry() -> _Checks:
    import numpy as np

    from .geometry import (
        EXACT_TOL,
        Splitting,
        automorphy_check,
        bracket_defect_residual,
        dw_tr_r2_residual,
        gamma,
        gamma_from_splitting,
        invariant_field,
        local_algebra,
        log_det_ad_primitive_check,
        point_sup,
        r1,
        r2,
        r_full,
        sup_norm,
    )
    from .jets import jacobian

    rng = Random(RNG_SEED + 3)

    def splitting_identities(frame):
        eps = Splitting(frame)
        pts = frame.chart.lattice(3)
        # the triples (first, middle, last) and (second, second to last, first)
        x, y, z = pts[[0, 1]], pts[[len(pts) // 2, -2]], pts[[-1, 0]]
        assert eps.cocycle_residual(x, y, z) <= EXACT_TOL, "cocycle fails"
        assert eps.identity_residual(pts) <= EXACT_TOL, "diagonal fails"

    def splitting_gamma_and_invariant_fields(frame):
        # the second Gamma route, and the invariant fields through the lattice
        # centre: d_j X^i = Gamma_{ja}^i X^a, one field per basis vector
        pts, h = frame.chart.lattice(3), frame.chart.h
        sample = gamma(frame, pts)
        via_eps = gamma_from_splitting(frame, pts).gamma
        _assert_fd_zero("gamma from the splitting", point_sup(sample.gamma - via_eps, 3), h, sample.scale)
        centre = pts[len(pts) // 2]
        for i, v in enumerate(np.eye(frame.chart.dim)):
            field = invariant_field(frame, centre, v)
            values = field(pts)
            expected = np.einsum("...jai,...a->...ij", sample.gamma, values)
            residual = point_sup(jacobian(field, pts, h) - expected, 2)
            _assert_fd_zero(f"invariant field {i + 1} equation", residual, h, sample.scale * point_sup(values, 1))

    def r1_vanishes(frame):
        sample = r1(frame, frame.chart.lattice(3))
        _assert_fd_zero("|R1|", sample.max_abs, frame.chart.h, sample.scale)

    def dw_matches_trace(frame):
        pts = frame.chart.lattice(3)
        _assert_fd_zero("dw vs trace R2", dw_tr_r2_residual(frame, pts), frame.chart.h, gamma(frame, pts).scale ** 2)

    def curvature_coherence(frame):
        pts = frame.chart.lattice(3)
        r2_max = sup_norm(r2(frame, pts).tensor)
        pair_max = sup_norm(r_full(frame, pts, pts[::-1]).tensor)
        threshold = 1e-2
        assert (r2_max < threshold) == (pair_max < threshold), "R2/R(eps) verdicts differ"
        diag = r_full(frame, pts[:3], pts[:3])
        _assert_fd_zero("R(eps)(x,x)", diag.max_abs, frame.chart.h, diag.scale)

    def bracket_defect(frame):
        n = frame.chart.dim
        pts = frame.chart.lattice(3)
        for variant in ("tilde", "hat"):
            residual, scale = bracket_defect_residual(frame, _poly_field(rng, n), _poly_field(rng, n), pts, variant)
            _assert_fd_zero(f"{variant} bracket defect", residual, frame.chart.h, scale)

    def group_frame_flags():
        frame = catalog.get("affine_halfplane", kind="frame").payload
        alg = local_algebra(frame, np.array([1.0, 0.5]))
        assert alg.is_solvable() and not alg.is_unimodular()
        reference = catalog.get("affine1", kind="algebra").payload
        assert alg.is_solvable() == reference.is_solvable()
        assert alg.is_unimodular() == reference.is_unimodular()

    def adjoint_primitive(mult):
        if mult.chart.dim <= 2:
            residual, scale = log_det_ad_primitive_check(mult, points_per_axis=3)
            _assert_fd_zero("log-det primitive residual", residual, mult.chart.h, scale)

    def automorphy_witness():
        borel = catalog.get("borel_sl2_group", kind="multiplication").payload
        checks = automorphy_check(borel, [np.array([2.0, 0.0]), borel.identity])
        assert checks == [False, True]

    return [
        ("splitting_cocycle_and_diagonal", _each("frame", splitting_identities)),
        ("splitting_gamma_and_invariant_fields", _each("frame", splitting_gamma_and_invariant_fields)),
        ("first_curvature_vanishes", _each("frame", r1_vanishes)),
        ("dw_equals_trace_r2", _each("frame", dw_matches_trace)),
        ("pointwise_vs_two_point_curvature", _each("frame", curvature_coherence)),
        ("bracket_defect_identities", _each("frame", bracket_defect)),
        ("affine_local_algebra_flags", group_frame_flags),
        ("log_det_ad_primitive", _each("multiplication", adjoint_primitive)),
        ("borel_automorphy_witness", automorphy_witness),
    ]


def suite_catalog() -> _Checks:
    import numpy as np

    from .geometry import EXACT_TOL

    rng = Random(RNG_SEED + 4)

    def entries_build():
        names = catalog.list_names()
        assert len(names) == len(set(names)), "duplicate catalog names"
        catalog.list_entries()

    def associativity(mult):
        lo = np.asarray(mult.chart.lower)
        hi = np.asarray(mult.chart.upper)
        draws = np.array([rng.random() for _ in range(20 * 3 * mult.chart.dim)]).reshape(20, 3, -1)
        a, b, c = (lo + (hi - lo) * draws).swapaxes(0, 1)
        residual = mult.associativity_residual(a, b, c)
        assert residual <= EXACT_TOL, f"associativity off by {residual:.2e}"

    return [
        ("all_entries_validate", entries_build),
        ("multiplication_associativity", _each("multiplication", associativity)),
    ]


SUITES: dict[str, Callable[[], _Checks]] = {
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
    for suite in chosen:
        if suite not in SUITES:
            raise KeyError(f"unknown verification suite {suite!r}; choose from {sorted(SUITES)}")
        results.extend(_check(suite, name, check) for name, check in SUITES[suite]())
    return results
