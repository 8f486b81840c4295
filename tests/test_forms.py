"""Alternating trace forms built from iterated adjoint operators."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import catalog, linalg
from liechar.algebra import LieAlgebra, lie_algebra
from liechar.fileformat import parse_algebra
from liechar.forms import (
    AlternatingForm,
    permutation_sign,
    trace_form,
    trace_forms,
    w1_character,
    w3_killing,
)


def brute_force_trace_form(alg: LieAlgebra, degree: int, indices: tuple) -> Fraction:
    """Recompute one component straight from the definition.

    Independent of the library path: builds ad matrices from the raw
    structure constants and sums the full permutation group by hand.
    """
    n = alg.dim
    ads = []
    for idx in indices:
        m = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n + 1):
            lo, hi = min(idx, j), max(idx, j)
            if lo == hi:
                continue
            sign = 1 if idx < j else -1
            for k in range(1, n + 1):
                c = alg.structure_constant(lo, hi, k)
                m[k - 1][j - 1] += sign * c
        ads.append(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(degree)):
        prod = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for p in perm:
            a = ads[p]
            prod = [
                [sum((x * a[t][j] for t, x in enumerate(row) if x), Fraction(0)) for j in range(n)]
                for row in prod
            ]
        sign = permutation_sign(perm)
        total += sign * sum(prod[i][i] for i in range(n))
    return total / degree


def test_permutation_sign() -> None:
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1


def test_trace_form_degree_bounds() -> None:
    g = catalog.get("sl2", kind="algebra").payload
    with pytest.raises(ValueError):
        trace_form(g, 0)
    with pytest.raises(ValueError):
        trace_form(g, 4)


def oracle_trace_form(alg: LieAlgebra, degree: int) -> dict:
    """Nonzero components of the degree-k trace form by the k!-term sum."""
    components = {}
    for subset in itertools.combinations(range(1, alg.dim + 1), degree):
        value = brute_force_trace_form(alg, degree, subset)
        if value != 0:
            components[subset] = value
    return components


def test_trace_form_matches_permutation_oracle_on_catalog() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        g = entry.payload
        for degree in range(1, min(g.dim, 5) + 1):
            assert trace_form(g, degree).components == oracle_trace_form(g, degree), (entry.name, degree)


@st.composite
def constants_and_degree(draw) -> tuple[LieAlgebra, int]:
    """Arbitrary antisymmetric constants; the subset recursion is an
    identity for any matrices, so Jacobi is not needed."""
    n = draw(st.integers(2, 5))
    keys = [(i, j, k) for i, j in itertools.combinations(range(1, n + 1), 2) for k in range(1, n + 1)]
    values = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    constants = draw(st.dictionaries(st.sampled_from(keys), values, max_size=2 * n))
    return lie_algebra(n, constants), draw(st.integers(1, n))


@settings(max_examples=40, deadline=None)
@given(constants_and_degree())
def test_trace_form_matches_permutation_oracle_on_random_constants(case) -> None:
    g, degree = case
    assert trace_form(g, degree).components == oracle_trace_form(g, degree)


CATALOG_ALGEBRAS = [entry.payload for entry in catalog.list_entries() if entry.kind == "algebra"]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_ALGEBRAS), constants_and_degree().map(lambda case: case[0])))
def test_trace_forms_equal_trace_form_and_the_oracle_in_every_degree(g: LieAlgebra) -> None:
    # one recursion: every level below the top read off as built, the top
    # traced only; even degrees included, where trace_form skips the recursion
    top = min(g.dim, 5)
    forms = trace_forms(g, top)
    assert sorted(forms) == list(range(1, top + 1))
    for degree, form in forms.items():
        assert form.components == trace_form(g, degree).components == oracle_trace_form(g, degree), degree


def dense_level_trace_form(alg: LieAlgebra, k: int) -> dict:
    """Nonzero components from dense n x n Fraction products A_J for every
    subset J of each level |J| = 1 .. k-1, starting at A_() = I: the
    recursion trace_form used before it was driven by the support."""
    ads = alg.basis_ad()
    n = alg.dim
    level = {(): linalg.identity(n)}
    for size in range(1, k):
        nxt = {}
        for subset in itertools.combinations(range(1, n + 1), size):
            out = linalg.zeros(n, n)
            for p, i in enumerate(subset):
                rest = level[subset[:p] + subset[p + 1 :]]
                for out_row, ad_row in zip(out, ads[i - 1]):
                    for t, x in enumerate(ad_row):
                        if x:
                            for c, y in enumerate(rest[t]):
                                out_row[c] += (-x if p % 2 else x) * y
            nxt[subset] = out
        level = nxt
    components = {}
    for subset in itertools.combinations(range(1, n + 1), k):
        total = Fraction(0)
        for p, i in enumerate(subset):
            rest = level[subset[:p] + subset[p + 1 :]]
            term = sum(x * rest[c][r] for r, row in enumerate(ads[i - 1]) for c, x in enumerate(row) if x)
            total += -term if p % 2 else term
        if total:
            components[subset] = total / k
    return components


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


@pytest.mark.parametrize(
    "name, degree", [("gl3", 6), ("gl3", 7), ("gl3", 8), ("gl3", 9), ("sl3", 6), ("sl3", 7), ("sl3", 8), ("b4", 7)]
)
def test_trace_form_matches_the_dense_level_recursion_in_high_degree(name: str, degree: int) -> None:
    g = parse_algebra((BENCH_INPUTS / f"{name}.txt").read_text())
    assert trace_form(g, degree).components == dense_level_trace_form(g, degree)


@st.composite
def dense_constants_and_odd_degree(draw) -> tuple[LieAlgebra, int]:
    """Many arbitrary rational constants in dims 5-7, where odd forms of
    degree >= 5 come out nonzero (the bench Lie algebras have none)."""
    n = draw(st.integers(5, 7))
    keys = [(i, j, k) for i, j in itertools.combinations(range(1, n + 1), 2) for k in range(1, n + 1)]
    values = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    constants = draw(st.dictionaries(st.sampled_from(keys), values, min_size=2 * n, max_size=4 * n))
    return lie_algebra(n, constants), draw(st.sampled_from([k for k in (5, 7) if k <= n]))


@settings(max_examples=12, deadline=None)
@given(dense_constants_and_odd_degree())
def test_trace_form_matches_the_dense_level_recursion_on_random_constants(case) -> None:
    g, degree = case
    assert trace_form(g, degree).components == dense_level_trace_form(g, degree)


@st.composite
def strictly_upper_triangular_algebras(draw) -> LieAlgebra:
    """Span of random strictly upper-triangular 5 x 5 matrix units E_ij,
    closed under E_ij E_jl = E_il, in its matrix-unit basis: nilpotent."""
    positions = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    units = set(draw(st.lists(st.sampled_from(positions), min_size=1, max_size=7, unique=True)))
    while products := {(i, l) for i, j in units for k, l in units if j == k} - units:
        units |= products
    units = sorted(units)
    index = {unit: pos for pos, unit in enumerate(units, 1)}
    constants = {}
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units, 1), 2):
        # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj; both never hold at once
        if j == k:
            constants[a, b, index[i, l]] = 1
        elif l == i:
            constants[a, b, index[k, j]] = -1
    return lie_algebra(len(units), constants)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(catalog.get("heisenberg3", kind="algebra").payload), strictly_upper_triangular_algebras()))
def test_nilpotent_algebras_have_zero_trace_forms_in_every_degree(g: LieAlgebra) -> None:
    # Engel: the adjoints are strictly triangular in one common basis, so
    # every product of them is traceless, and trace forms pull back as forms
    assert g.validate().ok and g.is_nilpotent()
    for degree in range(1, g.dim + 1):
        assert trace_form(g, degree).is_zero(), degree


@st.composite
def algebra_and_unipotent_change(draw) -> tuple[LieAlgebra, linalg.Matrix]:
    """A catalog algebra of dimension <= 5 and P = S U S^-1, U rational upper
    unitriangular and S a permutation."""
    g = draw(st.sampled_from([e.payload for e in catalog.list_entries() if e.kind == "algebra" and e.payload.dim <= 5]))
    perm = draw(st.permutations(range(g.dim)))
    p = linalg.identity(g.dim)
    for i, j in itertools.combinations(range(g.dim), 2):
        p[perm[i]][perm[j]] = draw(st.fractions(min_value=-1, max_value=1, max_denominator=2))
    return g, p


@settings(max_examples=40, deadline=None)
@given(algebra_and_unipotent_change())
def test_trace_forms_pull_back_under_a_unipotent_basis_change(case) -> None:
    # in the basis f_j = sum_i P[i][j] e_i, w_k(f_I) = w_k(P e_I): the form
    # in the new constants equals the old form evaluated on P's columns
    g, p = case
    n = g.dim
    columns = [[p[i][j] for i in range(n)] for j in range(n)]
    constants = {}
    for a, b in itertools.combinations(range(n), 2):
        coords = linalg.solve(p, g.bracket(columns[a], columns[b]))
        constants.update({(a + 1, b + 1, m + 1): v for m, v in enumerate(coords) if v})
    changed = lie_algebra(n, constants)
    for degree in range(1, n + 1):
        old = trace_form(g, degree)
        expected = {}
        for subset in itertools.combinations(range(1, n + 1), degree):
            value = old.evaluate(*(columns[i - 1] for i in subset))
            if value:
                expected[subset] = value
        assert trace_form(changed, degree).components == expected, degree


def test_trace_form_top_degree_of_abelian8_is_zero() -> None:
    assert trace_form(lie_algebra(8, {}), 8).is_zero()


def test_w1_is_trace_of_ad() -> None:
    g = catalog.get("affine1", kind="algebra").payload
    w1 = trace_form(g, 1)
    assert w1.component((1,)) == Fraction(1)
    assert w1.component((2,)) == Fraction(0)
    assert w1_character(g) == w1


def test_w3_sl2_matches_brute_force_and_killing() -> None:
    g = catalog.get("sl2", kind="algebra").payload
    w3 = trace_form(g, 3)
    assert w3.component((1, 2, 3)) == Fraction(-8)
    assert brute_force_trace_form(g, 3, (1, 2, 3)) == Fraction(-8)
    x, h, y = ([Fraction(i == j) for i in range(3)] for j in range(3))
    assert w3_killing(g, x, h, y) == Fraction(-8)


def test_w3_so3_matches_brute_force_and_killing() -> None:
    g = catalog.get("so3", kind="algebra").payload
    w3 = trace_form(g, 3)
    assert w3.component((1, 2, 3)) == Fraction(2)
    assert brute_force_trace_form(g, 3, (1, 2, 3)) == Fraction(2)
    a, b, c = ([Fraction(i == j) for i in range(3)] for j in range(3))
    assert w3_killing(g, a, b, c) == Fraction(2)


def test_w3_equals_killing_shortcut_on_random_vectors() -> None:
    rng = random.Random(20240801)
    for name in ("sl2", "so3", "heisenberg3", "sl2_plus_abelian2"):
        g = catalog.get(name, kind="algebra").payload
        w3 = trace_form(g, 3)
        for _ in range(25):
            vecs = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)]
                for _ in range(3)
            ]
            assert w3.evaluate(*vecs) == w3_killing(g, *vecs), name


def test_even_degrees_vanish() -> None:
    # through the recursion: trace_form returns even degrees without it
    for name in ("sl2", "so3", "heisenberg3", "affine1", "sl2_plus_abelian2"):
        g = catalog.get(name, kind="algebra").payload
        forms = trace_forms(g, g.dim)
        for degree in (2, 4):
            if degree > g.dim:
                continue
            assert forms[degree].is_zero(), (name, degree)
            assert trace_form(g, degree).is_zero(), (name, degree)


def test_w3_zero_iff_solvable() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra" or entry.payload.dim < 3:
            continue
        g = entry.payload
        assert trace_form(g, 3).is_zero() == g.is_solvable(), entry.name


def test_w1_zero_iff_unimodular() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        g = entry.payload
        assert trace_form(g, 1).is_zero() == g.is_unimodular(), entry.name


def test_component_is_alternating() -> None:
    g = catalog.get("sl2_plus_abelian2", kind="algebra").payload
    w3 = trace_form(g, 3)
    assert w3.component((2, 1, 3)) == -w3.component((1, 2, 3))
    assert w3.component((1, 1, 2)) == Fraction(0)
    basis = [(1, 2, 3), (1, 2, 4)]
    assert w3.component_vector(basis) == [w3.component(b) for b in basis]


def test_evaluate_is_multilinear_alternating() -> None:
    rng = random.Random(7)
    g = catalog.get("sl2", kind="algebra").payload
    w3 = trace_form(g, 3)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    y = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    z = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    assert w3.evaluate(x, y, z) == -w3.evaluate(y, x, z)
    assert w3.evaluate(x, x, z) == Fraction(0)
    scaled = [2 * a for a in x]
    assert w3.evaluate(scaled, y, z) == 2 * w3.evaluate(x, y, z)


def test_zero_form_reports_zero() -> None:
    g = catalog.get("abelian(4)", kind="algebra").payload
    w3 = trace_form(g, 3)
    assert w3.is_zero()
    assert isinstance(w3, AlternatingForm)


def test_form_fields_are_read_only_and_equality_and_repr_read_only_them() -> None:
    w = AlternatingForm(degree=2, dim=3, components={(1, 2): 1, (2, 3): 0})
    for field in ("degree", "dim", "components"):
        with pytest.raises(AttributeError):
            setattr(w, field, None)
        with pytest.raises(AttributeError):
            delattr(w, field)
    assert w == AlternatingForm(2, 3, {(1, 2): Fraction(1)})
    assert w != AlternatingForm(2, 4, {(1, 2): 1})
    assert w != AlternatingForm(2, 3, {(1, 3): 1})
    assert w != (2, 3, w.components)
    assert repr(w) == "AlternatingForm(degree=2, dim=3, components={(1, 2): Fraction(1, 1)})"


def test_alternating_form_refuses_float_components() -> None:
    # 0.1 would be stored as its binary expansion 3602879701896397/2**55
    with pytest.raises(TypeError, match="exact rationals"):
        AlternatingForm(1, 2, {(1,): 0.1})
    with pytest.raises(TypeError, match="exact rationals"):
        AlternatingForm(2, 2, {(1, 2): 1.0})
    form = AlternatingForm(1, 2, {(1,): 1, (2,): Fraction(1, 10)})
    assert form.components == {(1,): Fraction(1), (2,): Fraction(1, 10)}


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: AlternatingForm(4, 3, {}), r"degree must lie in \[0, dim\]"),
        (lambda: AlternatingForm(-1, 3, {}), r"degree must lie in \[0, dim\]"),
        (lambda: AlternatingForm(2, 3, {(1,): Fraction(1)}), r"subset \(1,\) has wrong size for degree 2"),
        (lambda: AlternatingForm(2, 3, {(2, 1): Fraction(1)}), r"subset \(2, 1\) must be strictly increasing"),
        (lambda: AlternatingForm(2, 3, {(1, 1): Fraction(1)}), r"subset \(1, 1\) must be strictly increasing"),
        (lambda: AlternatingForm(2, 3, {(0, 1): Fraction(1)}), r"subset \(0, 1\) out of range"),
        (lambda: AlternatingForm(2, 3, {(2, 4): Fraction(1)}), r"subset \(2, 4\) out of range"),
        (lambda: AlternatingForm(2, 3, {(1, 2): Fraction(1)}).evaluate([Fraction(1)] * 3), "expected 2 vectors, got 1"),
        (
            lambda: AlternatingForm(2, 3, {(1, 2): Fraction(1)}).evaluate([Fraction(1)] * 3, [Fraction(1)] * 2),
            "vector length must match the form dimension",
        ),
    ],
)
def test_alternating_form_refusals(build, match) -> None:
    with pytest.raises(ValueError, match=match):
        build()
