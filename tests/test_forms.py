"""Alternating trace forms built from iterated adjoint operators."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import catalog
from liechar.algebra import LieAlgebra, lie_algebra
from liechar.forms import (
    AlternatingForm,
    permutation_sign,
    trace_form,
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
    for name in ("sl2", "so3", "heisenberg3", "affine1", "sl2_plus_abelian2"):
        g = catalog.get(name, kind="algebra").payload
        for degree in (2, 4):
            if degree > g.dim:
                continue
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
