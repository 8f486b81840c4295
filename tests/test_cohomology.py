"""Chevalley-Eilenberg complex with trivial coefficients."""

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liechar import catalog, cohomology, linalg
from liechar.algebra import LieAlgebra, lie_algebra
from liechar.cohomology import (
    BETTI_DIM_CAP,
    STATUS_EXACT,
    STATUS_NONZERO_CLASS,
    STATUS_ZERO,
    betti,
    betti_table,
    central_split,
    class_report,
    cochain_basis,
    cochain_complex,
    differential_matrix,
    is_closed,
    is_exact,
    subcomplex_differential,
    weight_zero_cochains,
)
from liechar.fileformat import parse_algebra
from liechar.forms import AlternatingForm, permutation_sign, trace_form


CATALOG_ALGEBRAS = {
    qualified.split(":", 1)[1]: catalog.get(qualified).payload
    for qualified in catalog.list_names()
    if qualified.startswith("algebra:")
}


# Betti tables from the Poincare polynomial of each catalog algebra
CATALOG_POINCARE_TABLES = {
    **{f"abelian({n})": [math.comb(n, k) for k in range(n + 1)] for n in range(1, 7)},
    "affine1": [1, 1, 0],
    "borel_sl2": [1, 1, 0],
    "heisenberg3": [1, 2, 2, 1],
    "sl2": [1, 0, 0, 1],
    "so3": [1, 0, 0, 1],
    "sl2_plus_abelian2": [1, 2, 1, 1, 2, 1],
}

# bench/inputs/*.txt, each with the Poincare-polynomial table of its header
# line "# <name>, built from matrix units; expected betti b0 b1 ..."
BENCH_INPUTS = sorted((Path(__file__).resolve().parents[1] / "bench" / "inputs").glob("*.txt"))


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    constants = dict(a.c)
    constants.update({(i + a.dim, j + a.dim, k + a.dim): v for (i, j, k), v in b.c.items()})
    return lie_algebra(a.dim + b.dim, constants)


def poincare_product(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def upper_triangular_algebras(draw, max_dim: int = 6) -> LieAlgebra:
    """Span of a random set of upper-triangular matrix units E_ij, closed
    under E_ij E_jl = E_il: a solvable subalgebra of the upper-triangular
    4 x 4 matrices, in its matrix-unit basis."""
    positions = [(i, j) for i in range(4) for j in range(i, 4)]
    chosen = set(draw(st.lists(st.sampled_from(positions), min_size=1, max_size=max_dim, unique=True)))
    while True:
        products = {(i, l) for i, j in chosen for k, l in chosen if j == k} - chosen
        if not products:
            break
        chosen |= products
    assume(len(chosen) <= max_dim)
    units = sorted(chosen)
    index = {unit: pos for pos, unit in enumerate(units, 1)}
    constants: dict[tuple[int, int, int], int] = {}
    for a, (i, j) in enumerate(units, 1):
        for b, (k, l) in enumerate(units, 1):
            if a >= b:
                continue
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            bracket: dict[tuple[int, int], int] = {}
            if j == k:
                bracket[i, l] = bracket.get((i, l), 0) + 1
            if l == i:
                bracket[k, j] = bracket.get((k, j), 0) - 1
            for unit, value in bracket.items():
                if value:
                    constants[a, b, index[unit]] = value
    return lie_algebra(len(units), constants)


def small_algebras(max_dim: int) -> st.SearchStrategy[LieAlgebra]:
    catalog_part = st.sampled_from([g for g in CATALOG_ALGEBRAS.values() if g.dim <= max_dim])
    return st.one_of(catalog_part, upper_triangular_algebras(max_dim))


def change_basis(g: LieAlgebra, p: linalg.Matrix) -> LieAlgebra:
    """Constants in the basis f_j = sum_i p[i][j] e_i (p invertible)."""
    n = g.dim
    columns = [[p[i][j] for i in range(n)] for j in range(n)]
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            coords = linalg.solve(p, g.bracket(columns[a], columns[b]))
            constants.update({(a + 1, b + 1, m + 1): v for m, v in enumerate(coords) if v})
    return lie_algebra(n, constants)


@st.composite
def unipotent_matrices(draw, n: int) -> linalg.Matrix:
    """S U S^-1 with U rational upper unitriangular and S a permutation."""
    perm = draw(st.permutations(range(n)))
    entries = st.fractions(min_value=-1, max_value=1, max_denominator=2)
    p = linalg.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            p[perm[i]][perm[j]] = draw(entries)
    return p


def unsplit_primitive(g: LieAlgebra, form: AlternatingForm) -> dict | None:
    """Components of the particular solution of one dense linalg.solve."""
    d_prev = differential_matrix(g, form.degree - 1)
    solution = linalg.solve(d_prev.entries, form.component_vector(d_prev.row_basis))
    if solution is None:
        return None
    return {subset: v for subset, v in zip(d_prev.col_basis, solution) if v}


def test_cochain_basis_ordering() -> None:
    assert cochain_basis(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert cochain_basis(3, 0) == [()]
    assert cochain_basis(3, 4) == []


def test_differential_one_form_oracle() -> None:
    # affine1: [t, s] = s, so (d lambda)(t, s) = -lambda([t, s]) = -lambda(s)
    g = catalog.get("affine1", kind="algebra").payload
    d1 = differential_matrix(g, 1)
    assert d1.entries == [[Fraction(0), Fraction(-1)]]


def test_differential_squares_to_zero() -> None:
    for name in ("sl2", "so3", "heisenberg3", "sl2_plus_abelian2", "abelian(4)"):
        g = catalog.get(name, kind="algebra").payload
        for k in range(0, g.dim):
            a = differential_matrix(g, k).entries
            b = differential_matrix(g, k + 1).entries
            prod = linalg.mat_mul(b, a)
            for row in prod:
                assert all(v == 0 for v in row), (name, k)


def test_betti_abelian_binomial() -> None:
    for n in range(1, 6):
        g = catalog.get(f"abelian({n})", kind="algebra").payload
        assert betti_table(g) == [math.comb(n, k) for k in range(n + 1)]


def test_betti_sl2_and_so3() -> None:
    assert betti_table(catalog.get("sl2", kind="algebra").payload) == [1, 0, 0, 1]
    assert betti_table(catalog.get("so3", kind="algebra").payload) == [1, 0, 0, 1]


def test_betti_heisenberg() -> None:
    g = catalog.get("heisenberg3", kind="algebra").payload
    assert betti_table(g) == [1, 2, 2, 1]


def test_betti_product_factorizes() -> None:
    # sl2 x abelian(2): table must be the convolution of the factors
    g = catalog.get("sl2_plus_abelian2", kind="algebra").payload
    sl2_t = [1, 0, 0, 1]
    ab2_t = [1, 2, 1]
    expected = [
        sum(
            sl2_t[i] * ab2_t[k - i]
            for i in range(max(0, k - 2), min(3, k) + 1)
        )
        for k in range(6)
    ]
    assert betti_table(g) == expected == [1, 2, 1, 1, 2, 1]


def test_euler_characteristic_vanishes() -> None:
    # alternating sum of betti numbers is zero for dim >= 1
    for entry in catalog.list_entries():
        if entry.kind != "algebra" or entry.payload.dim > 5:
            continue
        table = betti_table(entry.payload)
        assert sum((-1) ** k * b for k, b in enumerate(table)) == 0, entry.name


def test_whitehead_vanishing_for_semisimple() -> None:
    for name in ("sl2", "so3"):
        g = catalog.get(name, kind="algebra").payload
        assert betti(g, 1) == 0
        assert betti(g, 2) == 0


def test_betti_ranks_certified_by_both_elimination_routes() -> None:
    # the sparse echelon rank betti uses, against both dense routes, in
    # every degree of every catalog algebra
    for name, g in CATALOG_ALGEBRAS.items():
        n = g.dim
        ranks = []
        for k in range(n + 1):
            d_k = differential_matrix(g, k)
            entries = d_k.entries
            assert d_k.rank() == linalg.rank(entries) == linalg.rank_fraction_free(entries), (name, k)
            ranks.append(d_k.rank())
        for k in range(n + 1):
            assert betti(g, k) == math.comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0), (name, k)
        # rank d_k = rank d_(n-1-k) exactly when g is unimodular: otherwise
        # rank d_(n-1) = 1 (d of an (n-1)-form is its character) against rank d_0 = 0
        assert (ranks[:n] == ranks[n - 1 :: -1]) == g.is_unimodular(), name
        assert ranks[n - 1] == (0 if g.is_unimodular() else 1), name


def full_rank_table(g: LieAlgebra) -> list[int]:
    """betti() in every degree: each from the full sparse ranks of two
    differentials, the reference for betti_table's reduced ranks."""
    return [betti(g, k) for k in range(g.dim + 1)]


@pytest.mark.parametrize("name", sorted(CATALOG_ALGEBRAS))
def test_reduced_betti_table_of_catalog_algebras(name) -> None:
    g = CATALOG_ALGEBRAS[name]
    table = betti_table(g)
    assert table == full_rank_table(g) == CATALOG_POINCARE_TABLES[name]
    assert betti_table(g, g.dim // 2) == table[: g.dim // 2 + 1]


@pytest.mark.parametrize("path", BENCH_INPUTS, ids=lambda path: path.stem)
def test_reduced_betti_table_of_bench_inputs(path) -> None:
    text = path.read_text()
    poincare = [int(b) for b in re.search(r"expected betti ([\d ]+)", text.splitlines()[0]).group(1).split()]
    g = parse_algebra(text)
    table = betti_table(g)
    assert table == full_rank_table(g) == poincare
    assert betti_table(g, g.dim // 2) == table[: g.dim // 2 + 1]


def test_betti_table_refuses_a_bracket_that_fails_jacobi() -> None:
    # the reduced ranks need d o d = 0, which fails with Jacobi
    bad = lie_algebra(3, {(1, 2, 1): 1, (1, 3, 2): 1})
    first = bad.validate().violations[0]
    with pytest.raises(ValueError, match=re.escape(f"Jacobi identity fails at (i, j, k, m) = {first}")):
        betti_table(bad)


def test_a_negative_top_degree_is_refused() -> None:
    sl2 = catalog.get("sl2", kind="algebra").payload
    for build in (betti_table, cochain_complex):
        with pytest.raises(ValueError, match="top degree -1 is negative"):
            build(sl2, -1)


def test_dimension_cap_enforced() -> None:
    g = lie_algebra(BETTI_DIM_CAP + 1, {})
    with pytest.raises(ValueError):
        betti_table(g)


def test_trace_forms_are_closed() -> None:
    for name in ("sl2", "so3", "heisenberg3", "affine1", "sl2_plus_abelian2"):
        g = catalog.get(name, kind="algebra").payload
        for degree in (1, 3):
            if degree > g.dim:
                continue
            assert is_closed(g, trace_form(g, degree)), (name, degree)


def test_is_exact_returns_verified_primitive() -> None:
    # push a 1-cochain with weight on the center through d and ask for it back
    g = catalog.get("heisenberg3", kind="algebra").payload
    d1 = differential_matrix(g, 1)
    lam = AlternatingForm(
        dim=3,
        degree=1,
        components={(1,): Fraction(2), (2,): Fraction(-1), (3,): Fraction(3)},
    )
    image = d1.apply(lam)
    assert any(v != 0 for v in image)
    form = AlternatingForm(
        dim=3,
        degree=2,
        components={idx: v for idx, v in zip(cochain_basis(3, 2), image) if v},
    )
    ok, primitive = is_exact(g, form)
    assert ok
    assert primitive is not None
    assert d1.apply(primitive) == image


def test_is_exact_rejects_nontrivial_class() -> None:
    g = catalog.get("sl2", kind="algebra").payload
    w3 = trace_form(g, 3)
    ok, primitive = is_exact(g, w3)
    assert not ok
    assert primitive is None


def test_is_exact_requires_closed_input() -> None:
    g = catalog.get("affine1", kind="algebra").payload
    lam = AlternatingForm(dim=2, degree=1, components={(2,): Fraction(1)})
    # d lam != 0 here, so exactness is not even well posed
    assert not is_closed(g, lam)
    with pytest.raises(ValueError):
        is_exact(g, lam)


def test_class_report_statuses() -> None:
    g = catalog.get("sl2", kind="algebra").payload
    report = class_report(cochain_complex(g))
    assert report[1] == STATUS_ZERO
    assert report[3] == STATUS_NONZERO_CLASS

    g = catalog.get("affine1", kind="algebra").payload
    assert class_report(cochain_complex(g))[1] == STATUS_NONZERO_CLASS

    g = catalog.get("sl2_plus_abelian2", kind="algebra").payload
    report = class_report(cochain_complex(g))
    assert report[1] == STATUS_ZERO
    assert report[3] == STATUS_NONZERO_CLASS
    assert report[5] == STATUS_ZERO


def test_status_exact_constant_is_reachable() -> None:
    # trace forms of catalog algebras never land on it, but the
    # classifier itself must distinguish exact from nonzero class
    g = catalog.get("heisenberg3", kind="algebra").payload
    d1 = differential_matrix(g, 1)
    center_dual = AlternatingForm(dim=3, degree=1, components={(3,): Fraction(1)})
    image = d1.apply(center_dual)
    form = AlternatingForm(
        dim=3,
        degree=2,
        components={idx: v for idx, v in zip(cochain_basis(3, 2), image) if v},
    )
    assert not form.is_zero()
    ok, _ = is_exact(g, form)
    assert ok
    assert STATUS_EXACT == "exact"


@settings(max_examples=30, deadline=None)
@given(small_algebras(6), small_algebras(6))
def test_betti_table_of_direct_sum_is_kunneth_product(a, b) -> None:
    total = direct_sum(a, b)
    assert betti_table(total) == full_rank_table(total) == poincare_product(betti_table(a), betti_table(b))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_betti_table_is_invariant_under_unipotent_basis_change(data) -> None:
    g = data.draw(small_algebras(5))
    changed = change_basis(g, data.draw(unipotent_matrices(g.dim)))
    assert changed.validate().ok
    assert betti_table(changed) == full_rank_table(changed) == betti_table(g)


def test_trace_form_classes_agree_with_unsplit_solve() -> None:
    # nonzero odd trace forms of the catalog: the sparse primitive (or its
    # absence) equals one dense solve
    for name, g in CATALOG_ALGEBRAS.items():
        for k in range(1, g.dim + 1, 2):
            form = trace_form(g, k)
            if form.is_zero():
                continue
            ok, primitive = is_exact(g, form)
            expected = unsplit_primitive(g, form)
            assert ok == (expected is not None), (name, k)
            assert (primitive.components if ok else None) == expected, (name, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coboundary_primitive_equals_unsplit_solve(data) -> None:
    g = data.draw(small_algebras(6))
    # Only degrees with d_k != 0, and mu moved off the kernel of d_k, so no
    # draw is a zero coboundary: filtering those out tripped hypothesis's
    # filter_too_much health check in about one run in six.
    degrees = [k for k in range(g.dim) if differential_matrix(g, k).nonzeros]
    assume(degrees)
    k = data.draw(st.sampled_from(degrees))
    basis = cochain_basis(g.dim, k)
    values = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    d_k = differential_matrix(g, k)

    def cochain(values: list[int]) -> AlternatingForm:
        return AlternatingForm(degree=k, dim=g.dim, components=dict(zip(basis, map(Fraction, values))))

    if not any(d_k.apply(cochain(values))):
        _, column = min(d_k.nonzeros)
        values[column] += 1
    mu = cochain(values)
    image = d_k.apply(mu)
    form = AlternatingForm(degree=k + 1, dim=g.dim, components=dict(zip(d_k.row_basis, image)))
    assert not form.is_zero()
    ok, primitive = is_exact(g, form)
    assert ok
    assert primitive.components == unsplit_primitive(g, form)
    assert d_k.apply(primitive) == image


def basis_free_invariants(g: LieAlgebra) -> tuple:
    """Killing signature, structure flags and the trace-class status in every
    degree; the statuses go through the weight-zero sparse solve."""
    flags = (g.is_solvable(), g.is_nilpotent(), g.is_semisimple(), g.is_unimodular())
    complex_ = cochain_complex(g)
    statuses = [complex_.trace_class(trace_form(g, k))[0] for k in range(1, g.dim + 1)]
    return linalg.symmetric_signature(g.killing()), flags, statuses


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_invariants_are_unchanged_by_unipotent_basis_change(data) -> None:
    g = data.draw(small_algebras(5))
    changed = change_basis(g, data.draw(unipotent_matrices(g.dim)))
    assert changed.validate().ok
    assert basis_free_invariants(changed) == basis_free_invariants(g)


def assert_poincare_duality(g: LieAlgebra, table: list[int]) -> None:
    """b_n is 1 exactly for a unimodular algebra, which then has b_k = b_{n-k}."""
    assert table[g.dim] == (1 if g.is_unimodular() else 0)
    if g.is_unimodular():
        assert table == table[::-1]


def assert_duality_shortcut_equals_the_full_route(g: LieAlgebra) -> None:
    """betti_table, which mirrors the upper ranks of a unimodular algebra,
    equals the per-degree full ranks, which use no duality, and those obey
    Poincare duality."""
    full = full_rank_table(g)
    assert_poincare_duality(g, full)
    assert betti_table(g) == full


def test_poincare_duality_of_catalog_algebras_and_bench_inputs() -> None:
    algebras = [*CATALOG_ALGEBRAS.values(), *(parse_algebra(path.read_text()) for path in BENCH_INPUTS)]
    assert any(g.is_unimodular() for g in algebras) and not all(g.is_unimodular() for g in algebras)
    for g in algebras:
        assert_duality_shortcut_equals_the_full_route(g)


@settings(max_examples=30, deadline=None)
@given(small_algebras(6), small_algebras(6))
def test_poincare_duality_of_direct_sums(a, b) -> None:
    assert_duality_shortcut_equals_the_full_route(direct_sum(a, b))


@pytest.mark.parametrize("name", ["gl3", "sl2_sl2", "heisenberg3"])
def test_poincare_duality_of_unimodular_dense_bases(name) -> None:
    # no toral vector: gl3 mirrors the ranks of its quotient sl3, sl2 + sl2
    # and heisenberg3 those of their own whole complexes
    g = CATALOG_ALGEBRAS.get(name) or bench_input(name)
    assert g.is_unimodular()
    for seed in range(3):
        dense = change_basis(g, seeded_unipotent(g.dim, seed))
        assert not dense.toral_weights
        assert_duality_shortcut_equals_the_full_route(dense)


EVEN_UNIMODULAR = ["abelian(2)", "abelian(4)", "abelian(6)", "gl2", "sl3", "sl2_sl2"]


def test_the_even_unimodular_inputs_are_all_of_them() -> None:
    # every even-dimensional unimodular catalog algebra and bench input
    found = sorted(name for name, g in ALGEBRAS_UP_TO_DIM_10.items() if g.dim % 2 == 0 and g.is_unimodular())
    assert found == sorted(EVEN_UNIMODULAR)


@pytest.mark.parametrize("name", EVEN_UNIMODULAR)
def test_bounded_tables_of_even_unimodular_dense_bases_equal_the_full_ranks(name) -> None:
    # the middle d_(n/2 - 1) stops at half its rows, on the algebra itself
    # or on its quotient by the split centre
    g = ALGEBRAS_UP_TO_DIM_10[name]
    for seed in range(2):
        dense = change_basis(g, seeded_unipotent(g.dim, seed))
        assert betti_table(dense) == full_rank_table(dense)


def test_the_middle_echelon_of_dense_sl3_stops_at_half_its_rows(monkeypatch) -> None:
    # rank d_3 = rank d_4 on sl3 (dim 8) and im d_3 lies in ker d_4, so
    # 2 rank d_3 <= |C^4| = 70; rank d_3 is 35, so the bound is reached and
    # the elimination stops at its 35th kept row, before its last rows
    g = change_basis(bench_input("sl3"), seeded_unipotent(8, 0))
    calls = []

    def recording(nonzeros, bound=None):
        kept = echelon(nonzeros, bound)
        calls.append((len({r for r, _ in nonzeros}), bound, len(kept)))
        return kept

    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", recording)
    assert betti_table(g) == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    # (rows, bound, kept rows): [g, g] stops at n = 8 rows, as sl3 is
    # perfect; d_0 = 0 has no rows; then d_1 and d_2 stop at the columns left
    # and d_3 at half its rows
    assert calls == [(28, 8, 8), (0, 1, 0), (28, 8, 8), (56, 20, 20), (70, 35, 35)]


@pytest.mark.parametrize("name", ["gl2", "sl2_sl2", "b3", "heisenberg3", "sl2_plus_abelian2"])
def test_ranks_read_off_the_table_equal_the_ranks_of_the_differentials(name) -> None:
    g = ALGEBRAS_UP_TO_DIM_10[name]
    for alg in (g, change_basis(g, seeded_unipotent(g.dim, 1))):
        complex_ = cochain_complex(alg)
        assert complex_.rank(-1) == 0
        assert [complex_.rank(k) for k in range(alg.dim)] == [d.rank() for d in complex_.differentials]


def test_upper_differentials_are_built_on_demand() -> None:
    # past the ranked d_0, ..., d_((n - 1) // 2) of a unimodular algebra,
    # differential(k) builds the weight-zero d_k afresh
    g = bench_input("gl3")
    complex_ = cochain_complex(g)
    assert len(complex_.ranked) == 5
    for k in range(g.dim):
        expected = subcomplex_differential(g, k, weight_zero_cochains(g, k + 1), weight_zero_cochains(g, k))
        assert complex_.differential(k) == expected, k
    assert complex_.differential(3) is complex_.ranked[3]


def bench_input(name: str) -> LieAlgebra:
    return parse_algebra((BENCH_INPUTS[0].parent / f"{name}.txt").read_text())


def seeded_unipotent(n: int, seed: int) -> linalg.Matrix:
    """S U S^-1 as in unipotent_matrices, with every entry above the
    diagonal of U drawn from the nonzero halves and units in -1..1."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    p = linalg.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            p[perm[i]][perm[j]] = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
    return p


def test_toral_basis_vectors_of_weight_and_changed_bases() -> None:
    # the diagonal matrix units are the toral vectors of a matrix-unit basis
    gl3, sl3 = bench_input("gl3"), bench_input("sl3")
    assert sorted(gl3.toral_weights) == [4, 5, 6]
    assert sorted(sl3.toral_weights) == [4, 5]
    # E11 in gl3's basis E12 E13 E23 E11 E22 E33 E21 E31 E32: [E11, E_ij] =
    # (delta_1i - delta_1j) E_ij
    assert gl3.toral_weights[4] == (1, 1, 0, 0, 0, 0, -1, -1, 0)
    for seed in range(5):
        for g in (gl3, sl3):
            changed = change_basis(g, seeded_unipotent(g.dim, seed))
            assert changed.validate().ok
            assert changed.toral_weights == {}, seed
    # a central vector has ad 0 and restricts nothing
    assert CATALOG_ALGEBRAS["abelian(3)"].toral_weights == {}


def record_builds(monkeypatch) -> list[tuple[int, int, int, int]]:
    """(dimension of the algebra, k, rows, columns) of each weight-zero d_k
    built from here on, with the full-basis differential_matrix unset, so
    that nothing reaches it."""
    built = []

    def recording(alg, k, row_basis, col_basis):
        built.append((alg.dim, k, len(row_basis), len(col_basis)))
        return subcomplex_differential(alg, k, row_basis, col_basis)

    monkeypatch.setattr("liechar.cohomology.subcomplex_differential", recording)
    monkeypatch.setattr("liechar.cohomology.differential_matrix", None)
    return built


def test_betti_table_ranks_only_the_weight_zero_subcomplex(monkeypatch) -> None:
    # gl3's joint weight-zero cochains under E11, E22, E33 are 80 of 2^9 = 512;
    # gl3 is unimodular, so betti_table builds and ranks d_0, ..., d_4 on the
    # 58 of them in degrees 0..5, and complements give the counts above
    g = bench_input("gl3")
    sizes = [len(weight_zero_cochains(g, k)) for k in range(g.dim + 1)]
    assert sum(sizes) == 80 and sizes == sizes[::-1]
    built = record_builds(monkeypatch)
    assert betti_table(g) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert built == [(9, k, sizes[k + 1], sizes[k]) for k in range(5)]
    assert sum(sizes[:6]) == 58


def test_weight_zero_cochains_without_toral_vectors_are_all_cochains() -> None:
    # every index has weight zero, so the generator yields the whole cochain
    # basis in every degree: so3, heisenberg3, abelian(n) and dense bases
    algebras = [CATALOG_ALGEBRAS[name] for name in ("so3", "heisenberg3", *(f"abelian({n})" for n in range(1, 7)))]
    inputs = [parse_algebra(path.read_text()) for path in BENCH_INPUTS]
    algebras += [change_basis(g, seeded_unipotent(g.dim, 0)) for g in inputs]
    for g in algebras:
        assert not g.toral_weights
        for k in range(g.dim + 1):
            assert weight_zero_cochains(g, k) == cochain_basis(g.dim, k), (g.dim, k)


def poincare_of_odd_degrees(degrees: range) -> list[int]:
    """Coefficients of prod (1 + t^(2i-1)) over i in degrees."""
    table = [1]
    for i in degrees:
        table = poincare_product(table, [1] + [0] * (2 * i - 2) + [1])
    return table


@pytest.mark.parametrize(
    "name, degrees", [("gl2", range(1, 3)), ("gl3", range(1, 4)), ("sl2", range(2, 3)), ("sl3", range(2, 4))]
)
def test_betti_table_equals_poincare_polynomial_of_gl_and_sl(name, degrees) -> None:
    g = bench_input(name)
    assert g.toral_weights
    assert betti_table(g) == poincare_of_odd_degrees(degrees)


def test_betti_table_of_b4_plus_abelian4_at_the_cap() -> None:
    # b4 has Poincare polynomial (1+t)^4 and C^4 (1+t)^4; dimension 14
    g = direct_sum(bench_input("b4"), CATALOG_ALGEBRAS["abelian(4)"])
    assert g.dim == BETTI_DIM_CAP
    assert betti_table(g) == [math.comb(8, k) for k in range(9)] + [0] * 6


def binomial_row(c: int) -> list[int]:
    return [math.comb(c, k) for k in range(c + 1)]


@settings(max_examples=25, deadline=None)
@given(small_algebras(4), st.integers(1, 3), st.integers(0, 2**16))
def test_betti_table_of_a_dense_sum_with_an_abelian_part_is_kunneth_product(h, c, seed) -> None:
    # the abelian summand is central and outside [g, g], so a dense basis of
    # h + C^c splits at least c central vectors off before ranking
    g = change_basis(direct_sum(h, CATALOG_ALGEBRAS[f"abelian({c})"]), seeded_unipotent(h.dim + c, seed))
    assert g.toral_weights or cochain_complex(g).split >= c
    assert betti_table(g) == full_rank_table(g) == poincare_product(betti_table(h), binomial_row(c))


@pytest.mark.parametrize(
    "name, table",
    [
        # the centre of heisenberg3 lies in [g, g], and sl2 + sl2 has none
        ("heisenberg3", [1, 2, 2, 1]),
        ("sl2_sl2", [1, 0, 0, 2, 0, 0, 1]),
    ],
)
def test_dense_bases_whose_centre_lies_in_the_derived_algebra_split_nothing(monkeypatch, name, table) -> None:
    # both are unimodular, so each ranks only d_0, ..., d_((n - 1) // 2) of its own complex
    g = CATALOG_ALGEBRAS.get(name) or bench_input(name)
    dense_bases = [change_basis(g, seeded_unipotent(g.dim, seed)) for seed in range(3)]
    assert [full_rank_table(dense) for dense in dense_bases] == [table] * 3
    built = record_builds(monkeypatch)
    for dense in dense_bases:
        assert not dense.toral_weights
        assert central_split(dense) == (dense, 0)
        built.clear()
        complex_ = cochain_complex(dense)
        ranked = range((g.dim - 1) // 2 + 1)
        assert complex_.split == 0 and [d.degree for d in complex_.ranked] == list(ranked)
        assert built == [(g.dim, k, math.comb(g.dim, k + 1), math.comb(g.dim, k)) for k in ranked]
        assert list(complex_.betti) == table


def test_central_split_of_abelian_and_reductive_dense_bases() -> None:
    # an abelian algebra leaves nothing to rank; gl3 splits its identity off
    # and leaves a basis of sl3
    for n in (1, 3):
        dense = change_basis(CATALOG_ALGEBRAS[f"abelian({n})"], seeded_unipotent(n, 1))
        assert central_split(dense) == (None, n)
        assert cochain_complex(dense) == (dense, tuple(binomial_row(n)), (), n)
    gl3 = change_basis(bench_input("gl3"), seeded_unipotent(9, 0))
    quotient, split = central_split(gl3)
    assert (quotient.dim, split) == (8, 1)
    assert quotient.validate().ok and quotient.is_semisimple()
    assert betti_table(quotient) == betti_table(bench_input("sl3"))


def fraction_central_split(alg: LieAlgebra) -> tuple[LieAlgebra | None, int]:
    """central_split as it chose the central vectors before the integer
    reduction: the pivot columns past [g, g]'s of a Fraction row_reduce of
    the n x (d + c) matrix whose columns are the echelon rows of [g, g] and
    the kernel vectors of the centre equations."""
    n = alg.dim
    equations: dict[tuple[int, int], int] = {}
    brackets: dict[tuple[int, int], int] = {}
    for i, rows in alg.sparse_ad[1].items():
        for r, row in rows.items():
            for t, x in row:
                equations[r * n + t, i - 1] = x
                if i <= t:
                    brackets[(i - 1) * n + t, r] = x
    derived = [row for _, row in linalg.echelon(brackets).values()]
    if len(derived) == n:
        return alg, 0
    centre = linalg.kernel(equations, n)
    columns = [[Fraction(row.get(m, 0)) for row in derived] + [z[m] for z in centre] for m in range(n)]
    chosen = [centre[p - len(derived)] for p in linalg.row_reduce(columns)[1] if p >= len(derived)]
    if not chosen:
        return alg, 0
    reduced, leads = linalg.row_reduce(chosen)
    if len(leads) == n:
        return None, n
    index = {m + 1: pos for pos, m in enumerate(sorted(set(range(n)) - set(leads)), 1)}
    rewrite = {lead + 1: [(index[t], -z[t - 1]) for t in index if z[t - 1]] for z, lead in zip(reduced, leads)}
    constants: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), value in alg.c.items():
        if i in index and j in index:
            for m, coeff in rewrite[k] if k in rewrite else ((index[k], 1),):
                key = (index[i], index[j], m)
                constants[key] = constants.get(key, 0) + value * coeff
    return LieAlgebra(dim=len(index), c=constants), len(leads)


@pytest.mark.parametrize(
    "name, split",
    [("gl2", 1), ("gl3", 1), ("b4_C3", 4), ("sl2_plus_abelian2", 2), ("heisenberg3", 0), ("abelian(4)", 4), ("sl2_sl2", 0)],
)
def test_central_split_chooses_the_central_vectors_of_the_fraction_route(name, split) -> None:
    # the integer reduction against [g, g]'s echelon rows keeps the same
    # central vectors, so the same quotient q; heisenberg3's centre lies in
    # [g, g] and sl2 + sl2 is perfect, so neither splits
    g = CATALOG_ALGEBRAS.get(name) or bench_input(name)
    for seed in range(3):
        dense = change_basis(g, seeded_unipotent(g.dim, seed))
        assert not dense.toral_weights
        quotient, c = central_split(dense)
        assert (quotient, c) == fraction_central_split(dense)
        assert c == split


@pytest.mark.parametrize("seed", range(4))
def test_a_centre_that_meets_the_derived_algebra_splits_off_what_lies_outside_it(seed) -> None:
    # heisenberg3 + F: the centre span(e3, e4) meets [g, g] = span(e3) in a
    # line, so one vector splits; the complement of that line in the centre
    # is not unique, and the two routes may choose different ones (seed 2
    # does), so they are compared by their tables
    g = change_basis(lie_algebra(4, {(1, 2, 3): 1}), seeded_unipotent(4, seed))
    assert not g.toral_weights
    quotient, split = central_split(g)
    fraction_quotient, fraction_split = fraction_central_split(g)
    assert split == fraction_split == 1
    assert betti_table(quotient) == betti_table(fraction_quotient) == [1, 2, 2, 1]
    assert betti_table(g) == [betti(g, k) for k in range(5)] == [1, 3, 4, 3, 1]


def test_a_split_bracket_that_fails_jacobi_is_refused_with_its_own_first_violation() -> None:
    # dense gl3's central vector vanishes at e7 and e9, so perturbing c_79^8
    # keeps it central and outside [g, g]: the quotient is still split off,
    # and it fails Jacobi, as g does, but at another first violation
    dense = change_basis(bench_input("gl3"), seeded_unipotent(9, 0))
    constants = dict(dense.c)
    constants[7, 9, 8] = constants.get((7, 9, 8), 0) + 1
    bad = LieAlgebra(9, constants)
    quotient, split = central_split(bad)
    assert split == 1
    first, quotient_first = bad.validate().violations[0], quotient.validate().violations[0]
    assert first != quotient_first
    with pytest.raises(ValueError, match=re.escape(f"Jacobi identity fails at (i, j, k, m) = {first}: ")):
        betti_table(bad)


def test_dense_betti_table_of_b4_plus_abelian3_equals_its_poincare_table() -> None:
    # the split centre is b4's identity and C^3, so 4 of the 13 dimensions
    g = bench_input("b4_C3")
    dense = change_basis(g, seeded_unipotent(g.dim, 0))
    assert not dense.toral_weights
    complex_ = cochain_complex(dense)
    assert complex_.split == 4
    assert list(complex_.betti) == poincare_product(betti_table(bench_input("b4")), binomial_row(3))


def test_dense_betti_table_ranks_only_the_quotient_by_the_split_centre(monkeypatch) -> None:
    # dense gl3 splits off its identity: only sl3's complex is ranked, and as
    # sl3 is unimodular only its d_0, ..., d_3; no differential of gl3 itself
    # is built
    g = change_basis(bench_input("gl3"), seeded_unipotent(9, 0))
    assert not g.toral_weights
    built = record_builds(monkeypatch)
    assert betti_table(g) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert built == [(8, k, math.comb(8, k + 1), math.comb(8, k)) for k in range(4)]


@pytest.mark.parametrize("name", ["gl2", "b3"])
def test_trace_classes_of_a_split_complex_solve_on_the_algebras_own_differentials(monkeypatch, name) -> None:
    # the classes are closed on g's d_k and solved on its d_(k-1), built for
    # that degree alone, with the statuses and primitives of the full route:
    # w3 of gl2 and w1 of b3 are nonzero classes
    g = change_basis(bench_input(name), seeded_unipotent(bench_input(name).dim, 3))
    complex_ = cochain_complex(g)
    assert complex_.split == 1
    assert set(class_report(complex_).values()) == {STATUS_ZERO, STATUS_NONZERO_CLASS}
    built = []

    def recording(alg, k, row_basis, col_basis):
        built.append((alg.dim, k))
        return subcomplex_differential(alg, k, row_basis, col_basis)

    monkeypatch.setattr("liechar.cohomology.subcomplex_differential", recording)
    for k in range(1, g.dim + 1):
        expected = full_route_class(g, k)
        built.clear()
        status, primitive = complex_.trace_class(trace_form(g, k))
        assert (status, primitive and primitive.components) == expected, k
        closing = [] if k == g.dim else [(g.dim, k)]
        assert built == ([] if status == STATUS_ZERO else closing + [(g.dim, k - 1)]), k


MATRIX_UNIT_ALGEBRAS = [bench_input(name) for name in ("sl2", "gl2", "b3")]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_betti_table_of_mixed_bases_is_kunneth_product(data) -> None:
    # a matrix-unit summand keeps its toral vectors, a basis-changed one
    # may have none: the weight-zero subcomplex mixes both cases
    a = data.draw(st.one_of(st.sampled_from(MATRIX_UNIT_ALGEBRAS), upper_triangular_algebras(4)))
    b = data.draw(small_algebras(4))
    b = change_basis(b, data.draw(unipotent_matrices(b.dim)))
    total = direct_sum(a, b)
    assert {i for i in total.toral_weights if i <= a.dim} == set(a.toral_weights)
    assert betti_table(total) == full_rank_table(total) == poincare_product(betti_table(a), betti_table(b))


def test_mixed_basis_has_only_the_toral_vectors_of_its_weight_summand() -> None:
    gl2 = bench_input("gl2")
    dense_sl2 = change_basis(bench_input("sl2"), seeded_unipotent(3, 1))
    total = direct_sum(gl2, dense_sl2)
    assert sorted(total.toral_weights) == sorted(gl2.toral_weights) != []
    assert betti_table(total) == full_rank_table(total) == poincare_product([1, 1, 0, 1, 1], [1, 0, 0, 1])


def full_route_class(g: LieAlgebra, k: int) -> tuple[str, dict | None]:
    """Status of the degree-k trace form's class and its primitive's
    components from the full-basis is_exact (which refuses a non-closed form):
    the reference for the weight-zero class solves."""
    form = trace_form(g, k)
    if form.is_zero():
        return STATUS_ZERO, None
    ok, primitive = is_exact(g, form)
    return (STATUS_EXACT if ok else STATUS_NONZERO_CLASS), (primitive.components if ok else None)


ALGEBRAS_UP_TO_DIM_10 = {
    **CATALOG_ALGEBRAS,
    **{path.stem: parse_algebra(path.read_text()) for path in BENCH_INPUTS if path.stem != "b4_C3"},
}


def test_cochain_complex_equals_the_full_reference_route() -> None:
    assert max(g.dim for g in ALGEBRAS_UP_TO_DIM_10.values()) == 10
    for name, g in ALGEBRAS_UP_TO_DIM_10.items():
        complex_ = cochain_complex(g)
        assert complex_.betti[0] == betti(g, 0) == 1, name
        for k in range(1, g.dim + 1):
            status, primitive = complex_.trace_class(trace_form(g, k))
            b = complex_.betti[k]
            assert (b, status, primitive and primitive.components) == (betti(g, k), *full_route_class(g, k)), (name, k)


def test_trace_class_refuses_a_degree_above_the_top_of_the_complex() -> None:
    g = bench_input("sl3")
    complex_ = cochain_complex(g, 2)
    assert complex_.betti == (1, 0, 0) and len(complex_.differentials) == 3
    assert complex_.trace_class(trace_form(g, 1)) == (STATUS_ZERO, None)
    with pytest.raises(ValueError, match="above the top degree 2"):
        complex_.trace_class(trace_form(g, 3))


def test_class_report_equals_the_full_reference_route() -> None:
    for name, g in ALGEBRAS_UP_TO_DIM_10.items():
        expected = {k: full_route_class(g, k)[0] for k in range(1, g.dim + 1, 2)}
        assert class_report(cochain_complex(g)) == expected, name


def weight_zero_coboundary(g: LieAlgebra, d_prev: cohomology.DifferentialMatrix, seed: int) -> AlternatingForm:
    """d(mu) for a seeded weight-zero cochain mu with entries in -2..2, given
    the weight-zero d_prev of its degree."""
    rng = random.Random(seed)
    mu = AlternatingForm(d_prev.degree, g.dim, {subset: Fraction(rng.randint(-2, 2)) for subset in d_prev.col_basis})
    return AlternatingForm(d_prev.degree + 1, g.dim, dict(zip(d_prev.row_basis, d_prev.apply(mu))))


def assert_weight_zero_solves_equal_the_full_route(g: LieAlgebra) -> None:
    """The weight-zero solve of each nonzero trace form and of a weight-zero
    coboundary in every degree gives is_exact's status and primitive, both
    unbounded and stopped at the rank of d_(k-1) read off the table."""
    complex_ = cochain_complex(g)
    differentials = complex_.differentials
    for k in range(1, g.dim + 1):
        d_prev = differentials[k - 1]
        for form in (trace_form(g, k), weight_zero_coboundary(g, d_prev, seed=k)):
            if form.is_zero():
                continue
            expected_ok, expected = is_exact(g, form)
            for rank in (None, complex_.rank(k - 1)):
                ok, primitive = cohomology._solve(d_prev, form, rank)
                assert (ok, primitive and primitive.components) == (expected_ok, expected and expected.components), k


@pytest.mark.parametrize("name", sorted(ALGEBRAS_UP_TO_DIM_10))
def test_weight_zero_primitives_equal_the_full_primitives(name) -> None:
    assert_weight_zero_solves_equal_the_full_route(ALGEBRAS_UP_TO_DIM_10[name])


def test_weight_zero_primitives_of_a_toral_plus_dense_sum() -> None:
    total = direct_sum(bench_input("gl2"), change_basis(bench_input("sl2"), seeded_unipotent(3, 1)))
    assert total.toral_weights
    assert_weight_zero_solves_equal_the_full_route(total)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_weight_zero_primitives_under_unipotent_basis_change(data) -> None:
    # the changed summand has every cochain at weight zero, the matrix-unit
    # one keeps its toral vectors
    a = data.draw(st.one_of(st.sampled_from(MATRIX_UNIT_ALGEBRAS), upper_triangular_algebras(4)))
    b = data.draw(small_algebras(3))
    total = direct_sum(a, change_basis(b, data.draw(unipotent_matrices(b.dim))))
    assert_weight_zero_solves_equal_the_full_route(total)


def test_solve_refuses_a_form_with_a_component_of_nonzero_weight() -> None:
    # d(e^E12) is exact in the full complex, but lies off weight zero: the
    # weight-zero solve refuses it rather than solving for nothing
    g = bench_input("gl2")
    d_1 = cochain_complex(g).differentials[1]
    off = next(subset for subset in cochain_basis(g.dim, 1) if subset not in d_1.col_basis)
    full_d_1 = differential_matrix(g, 1)
    image = full_d_1.apply(AlternatingForm(1, g.dim, {off: Fraction(1)}))
    form = AlternatingForm(2, g.dim, dict(zip(full_d_1.row_basis, image)))
    assert not form.is_zero() and is_exact(g, form)[0]
    with pytest.raises(ValueError, match="nonzero weight"):
        cohomology._solve(d_1, form)


def dense_series_flags(g: LieAlgebra) -> tuple[bool, bool]:
    """Derived and lower central series from Fraction brackets of every
    ordered pair and row_reduce: the route the sparse flags replaced."""

    def span(vectors):
        vectors = [v for v in vectors if any(v)]
        if not vectors:
            return []
        rref, pivots = linalg.row_reduce(vectors)
        return rref[: len(pivots)]

    full = [g.basis_vector(i) for i in range(1, g.dim + 1)]
    flags = []
    for lower_central in (False, True):
        current = full
        while current:
            nxt = span([g.bracket(u, v) for u in (full if lower_central else current) for v in current])
            if len(nxt) == len(current):
                break
            current = nxt
        flags.append(not current)
    return flags[0], flags[1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_series_flags_equal_the_dense_fraction_route(data) -> None:
    g = data.draw(small_algebras(6))
    if data.draw(st.booleans()):
        g = change_basis(g, data.draw(unipotent_matrices(g.dim)))
    assert (g.is_solvable(), g.is_nilpotent()) == dense_series_flags(g)


def test_series_flags_of_bench_inputs_and_their_changed_bases() -> None:
    for path in BENCH_INPUTS:
        g = parse_algebra(path.read_text())
        flags = (g.is_solvable(), g.is_nilpotent())
        # the b_n and their sums with abelian parts are solvable, none is nilpotent
        assert flags == (path.stem.startswith("b"), False), path.stem
        if g.dim <= 9:
            assert dense_series_flags(g) == flags, path.stem
            changed = change_basis(g, seeded_unipotent(g.dim, 3))
            assert (changed.is_solvable(), changed.is_nilpotent()) == flags, path.stem


def fraction_differential(g: LieAlgebra, k: int, row_basis, col_basis) -> dict[tuple[int, int], Fraction]:
    """d_k in Fractions, term by term from the formula of the module
    docstring: the reference for the integer build."""
    col_index = {subset: pos for pos, subset in enumerate(col_basis)}
    cells: dict[tuple[int, int], Fraction] = {}
    for r, subset in enumerate(row_basis):
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = subset[:i] + subset[i + 1 : j] + subset[j + 1 :]
            for a in range(1, g.dim + 1):
                value = g.structure_constant(subset[i], subset[j], a)
                if value and a not in rest:
                    cell = (r, col_index[tuple(sorted((a,) + rest))])
                    sign = (-1) ** (i + j) * permutation_sign((a,) + rest)
                    cells[cell] = cells.get(cell, Fraction(0)) + sign * value
    return {cell: value for cell, value in cells.items() if value}


def rescale_basis(g: LieAlgebra, factors: list[int]) -> LieAlgebra:
    """Constants in the basis f_i = factors[i] * e_i: c_ij^k becomes
    c_ij^k * lambda_i * lambda_j / lambda_k, so factors in 1..3 give halves,
    thirds and sixths while every toral vector stays toral."""
    constants = {(i, j, k): v * factors[i - 1] * factors[j - 1] / factors[k - 1] for (i, j, k), v in g.c.items()}
    return lie_algebra(g.dim, constants)


BENCH_ALGEBRAS = {path.stem: parse_algebra(path.read_text()) for path in BENCH_INPUTS}


@st.composite
def scaled_algebras(draw) -> LieAlgebra:
    """A catalog or bench algebra, or a direct sum of two small ones, with
    its basis rescaled by factors in 1..3, or (up to dimension 6) changed by
    a dense unipotent matrix with half-integer entries."""
    g = draw(
        st.one_of(
            st.sampled_from([*CATALOG_ALGEBRAS.values(), *BENCH_ALGEBRAS.values()]),
            st.builds(direct_sum, small_algebras(4), small_algebras(4)),
        )
    )
    if g.dim <= 6 and draw(st.booleans()):
        return change_basis(g, draw(unipotent_matrices(g.dim)))
    return rescale_basis(g, draw(st.lists(st.integers(1, 3), min_size=g.dim, max_size=g.dim)))


@settings(max_examples=40, deadline=None)
@given(scaled_algebras())
def test_integer_weight_zero_differentials_are_the_fraction_build_times_the_scale(g) -> None:
    scale = math.lcm(*(v.denominator for v in g.c.values()))
    for k in range(g.dim):
        rows, cols = weight_zero_cochains(g, k + 1), weight_zero_cochains(g, k)
        d_k = subcomplex_differential(g, k, rows, cols)
        assert d_k.scale == scale and all(type(x) is int for x in d_k.nonzeros.values()), k
        reference = fraction_differential(g, k, rows, cols)
        assert d_k.nonzeros == {cell: value * scale for cell, value in reference.items()}, k


def test_scaled_inputs_reach_scales_two_and_six() -> None:
    sl3 = BENCH_ALGEBRAS["sl3"]
    assert rescale_basis(sl3, [2] + [1] * 7).scaled_brackets[0] == 2
    sixths = rescale_basis(sl3, [1, 1, 1, 1, 1, 2, 3, 1])
    assert sixths.scaled_brackets[0] == 6 and sixths.toral_weights
    assert betti_table(sixths) == betti_table(sl3)


@settings(max_examples=40, deadline=None)
@given(scaled_algebras(), st.integers(0, 2**16))
def test_differential_entries_and_images_are_fractions(g, seed) -> None:
    # an int in entries would turn linalg.row_reduce's 1 / m[r][c] into a float
    rng = random.Random(seed)
    for k in range(min(g.dim, 4)):
        d_k = differential_matrix(g, k)
        entries = d_k.entries
        assert all(type(x) is Fraction for row in entries for x in row), k
        reference = fraction_differential(g, k, d_k.row_basis, d_k.col_basis)
        assert entries == [
            [reference.get((r, c), Fraction(0)) for c in range(len(d_k.col_basis))] for r in range(len(d_k.row_basis))
        ]
        form = AlternatingForm(k, g.dim, {s: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for s in d_k.col_basis})
        image = d_k.apply(form)
        assert all(type(x) is Fraction for x in image)
        assert image == linalg.mat_vec(entries, form.component_vector(d_k.col_basis)), k


def filtered_weight_zero_cochains(g: LieAlgebra, k: int) -> list[tuple[int, ...]]:
    """The k-subsets whose weight sums all vanish, by scanning every k-subset:
    the reference for the generated weight_zero_cochains."""
    weights = list(g.toral_weights.values())
    return [s for s in cochain_basis(g.dim, k) if all(sum(w[j - 1] for j in s) == 0 for w in weights)]


def assert_generated_cochains_equal_the_filter(g: LieAlgebra) -> None:
    for k in range(g.dim + 1):
        assert weight_zero_cochains(g, k) == filtered_weight_zero_cochains(g, k), k


@pytest.mark.parametrize("name", sorted(CATALOG_ALGEBRAS) + sorted(BENCH_ALGEBRAS))
def test_generated_weight_zero_cochains_equal_the_filter(name) -> None:
    assert_generated_cochains_equal_the_filter(CATALOG_ALGEBRAS.get(name) or BENCH_ALGEBRAS[name])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generated_weight_zero_cochains_of_direct_sums_equal_the_filter(data) -> None:
    # a weight summand, with a second weight, dense or abelian summand: the
    # generator joins balanced subsets of the weighted indices to subsets of
    # the others
    a = data.draw(st.one_of(st.sampled_from(MATRIX_UNIT_ALGEBRAS), upper_triangular_algebras(5)))
    b = data.draw(st.one_of(st.sampled_from(MATRIX_UNIT_ALGEBRAS), upper_triangular_algebras(4), small_algebras(4)))
    if data.draw(st.booleans()):
        b = change_basis(b, data.draw(unipotent_matrices(b.dim)))
    total = direct_sum(a, b)
    assume(total.toral_weights)  # a lone diagonal unit is central
    assert_generated_cochains_equal_the_filter(total)


@settings(max_examples=40, deadline=None)
@given(scaled_algebras(), st.integers(0, 2**16))
def test_primitives_of_scaled_coboundaries_solve_the_fraction_build(g, seed) -> None:
    # no tested trace form is exact and nonzero, so the CLI prints no
    # primitive to show a lost 1/s: check _solve's scaled target here, on
    # coboundaries of seeded rational cochains, against the Fraction build
    rng = random.Random(seed)
    differentials = cochain_complex(g).differentials
    for k in range(1, min(g.dim, 5)):
        d_prev = differentials[k - 1]
        reference = fraction_differential(g, k - 1, d_prev.row_basis, d_prev.col_basis)
        rows, cols = range(len(d_prev.row_basis)), range(len(d_prev.col_basis))
        dense = [[reference.get((r, c), Fraction(0)) for c in cols] for r in rows]
        mu = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in cols]
        form = AlternatingForm(k, g.dim, {d_prev.row_basis[r]: sum(x * y for x, y in zip(dense[r], mu)) for r in rows})
        if form.is_zero():
            continue
        ok, primitive = cohomology._solve(d_prev, form)
        assert ok, k
        x = primitive.component_vector(d_prev.col_basis)
        assert linalg.mat_vec(dense, x) == form.component_vector(d_prev.row_basis), k
        assert x == linalg.solve(dense, form.component_vector(d_prev.row_basis)), k


@pytest.mark.parametrize(
    "call, match",
    [
        (
            lambda: differential_matrix(CATALOG_ALGEBRAS["sl2"], 1).apply(AlternatingForm(2, 3, {})),
            r"form degree 2 does not match d_1",
        ),
        (lambda: differential_matrix(CATALOG_ALGEBRAS["sl2"], 4), r"degree 4 outside \[0, 3\]"),
        (lambda: differential_matrix(CATALOG_ALGEBRAS["sl2"], -1), r"degree -1 outside \[0, 3\]"),
        (lambda: betti(CATALOG_ALGEBRAS["sl2"], 4), r"degree 4 outside \[0, 3\]"),
        (lambda: betti(CATALOG_ALGEBRAS["sl2"], -1), r"degree -1 outside \[0, 3\]"),
        (
            lambda: is_closed(CATALOG_ALGEBRAS["sl2"], AlternatingForm(1, 4, {(4,): Fraction(1)})),
            "form dimension does not match the algebra",
        ),
        (
            # d of e^1 on so3 is a nonzero 2-form
            lambda: cochain_complex(CATALOG_ALGEBRAS["so3"]).trace_class(AlternatingForm(1, 3, {(1,): Fraction(1)})),
            "exactness asked for a non-closed form",
        ),
    ],
)
def test_cohomology_refusals(call, match) -> None:
    with pytest.raises(ValueError, match=match):
        call()


def test_a_zero_form_is_exact_exactly_when_it_vanishes() -> None:
    # d_(-1) is the zero map into C^0, so its image is {0}
    g = CATALOG_ALGEBRAS["sl2"]
    assert is_exact(g, AlternatingForm(0, 3, {})) == (True, AlternatingForm(0, 3, {}))
    assert is_exact(g, AlternatingForm(0, 3, {(): Fraction(2)})) == (False, None)
