"""Structure-constant Lie algebras: brackets, Killing form, series flags."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liechar import catalog, linalg
from liechar.algebra import LieAlgebra, lie_algebra


def F(x: int, y: int = 1) -> Fraction:
    return Fraction(x, y)


def sl2() -> LieAlgebra:
    return catalog.get("sl2", kind="algebra").payload


def heisenberg() -> LieAlgebra:
    return catalog.get("heisenberg3", kind="algebra").payload


def basis_vectors(n: int) -> list:
    out = []
    for i in range(n):
        v = [F(0)] * n
        v[i] = F(1)
        out.append(v)
    return out


def test_constructor_normalizes_reversed_pairs() -> None:
    a = lie_algebra(2, {(2, 1, 2): F(-1)})
    b = lie_algebra(2, {(1, 2, 2): F(1)})
    assert a.structure_constant(1, 2, 2) == b.structure_constant(1, 2, 2) == F(1)


def test_constructor_rejects_conflicting_duplicates() -> None:
    with pytest.raises(ValueError):
        lie_algebra(2, {(1, 2, 2): F(1), (2, 1, 2): F(1)})


def test_constructor_rejects_out_of_range_indices() -> None:
    with pytest.raises(ValueError):
        lie_algebra(2, {(1, 3, 2): F(1)})
    with pytest.raises(ValueError):
        lie_algebra(2, {(0, 1, 1): F(1)})
    with pytest.raises(ValueError):
        lie_algebra(2, {(1, 1, 2): F(1)})


def test_constructor_coerces_ints_and_rejects_floats() -> None:
    a = lie_algebra(2, {(1, 2, 1): 3})
    assert a.structure_constant(1, 2, 1) == F(3)
    with pytest.raises(TypeError):
        lie_algebra(2, {(1, 2, 1): 0.5})


def test_basis_names_default_and_custom() -> None:
    a = lie_algebra(2, {})
    assert a.names == ("e1", "e2")
    b = lie_algebra(2, {}, names=("t", "s"))
    assert b.names == ("t", "s")
    with pytest.raises(ValueError):
        lie_algebra(2, {}, names=("t",))


def test_bracket_is_antisymmetric_and_bilinear() -> None:
    g = sl2()
    x = [F(1), F(2), F(-1)]
    y = [F(0), F(3), F(5)]
    xy = g.bracket(x, y)
    yx = g.bracket(y, x)
    assert [a + b for a, b in zip(xy, yx)] == [F(0)] * 3
    # bilinearity in the first slot
    z = [F(2), F(-1), F(1)]
    lhs = g.bracket([a + 2 * b for a, b in zip(x, z)], y)
    rhs = [a + 2 * b for a, b in zip(xy, g.bracket(z, y))]
    assert lhs == rhs


def test_bracket_basis_oracle_sl2() -> None:
    g = sl2()
    X, H, Y = basis_vectors(3)
    assert g.bracket(X, H) == [F(-2), F(0), F(0)]
    assert g.bracket(X, Y) == [F(0), F(1), F(0)]
    assert g.bracket(H, Y) == [F(0), F(0), F(-2)]


def test_ad_acts_on_columns() -> None:
    g = heisenberg()
    p, q, _ = basis_vectors(3)
    ad_p = g.ad(p)
    # column j of ad(x) is [x, e_j]
    col_q = [ad_p[i][1] for i in range(3)]
    assert col_q == g.bracket(p, q) == [F(0), F(0), F(1)]


def test_validate_flags_jacobi_violations() -> None:
    bad = lie_algebra(3, {(1, 2, 1): F(1), (1, 3, 2): F(1)})
    report = bad.validate()
    assert not report.ok
    assert (1, 2, 3, 2) in report.violations


def dense_jacobi_violations(alg: LieAlgebra) -> tuple[tuple[int, int, int, int], ...]:
    """Every triple i < j < k and every component m, summed over every a:
    the reference for the sparse validate()."""
    n, c = alg.dim, alg.structure_constant
    violations = []
    for i, j, k in combinations(range(1, n + 1), 3):
        for m in range(1, n + 1):
            total = Fraction(0)
            for a in range(1, n + 1):
                total += c(i, j, a) * c(a, k, m) + c(j, k, a) * c(a, i, m) + c(k, i, a) * c(a, j, m)
            if total != 0:
                violations.append((i, j, k, m))
    return tuple(violations)


CATALOG_ALGEBRAS = [entry.payload for entry in catalog.list_entries() if entry.kind == "algebra"]


@st.composite
def drawn_constants(draw) -> LieAlgebra:
    n = draw(st.integers(2, 6))
    keys = [(i, j, k) for i, j in combinations(range(1, n + 1), 2) for k in range(1, n + 1)]
    values = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return lie_algebra(n, draw(st.dictionaries(st.sampled_from(keys), values, max_size=3 * n)))


def gl_constants(m: int) -> dict[tuple[int, int, int], int]:
    """gl_m on the matrix units E_ab = e_{(a-1)m+b}: [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    unit = {(a, b): (a - 1) * m + b for a in range(1, m + 1) for b in range(1, m + 1)}
    constants: dict[tuple[int, int, int], int] = {}
    for (a, b), i in unit.items():
        for (c, d), j in unit.items():
            if i < j:
                for k, x in ((unit[a, d], int(b == c)), (unit[c, b], -int(d == a))):
                    if x:
                        constants[i, j, k] = constants.get((i, j, k), 0) + x
    return {key: x for key, x in constants.items() if x}


@st.composite
def matrix_unit_subsets(draw) -> LieAlgebra:
    """Some matrix units of gl_3 and some of the brackets among them: sparse,
    up to dimension 9, often with Jacobi violations."""
    basis = sorted(draw(st.sets(st.integers(1, 9), min_size=3)))
    index = {e: t for t, e in enumerate(basis, 1)}
    among = sorted((key, x) for key, x in gl_constants(3).items() if all(e in index for e in key))
    keep = draw(st.lists(st.booleans(), min_size=len(among), max_size=len(among)))
    return lie_algebra(len(basis), {tuple(index[e] for e in key): x for (key, x), kept in zip(among, keep) if kept})


@st.composite
def unipotent_bases(draw) -> LieAlgebra:
    """A catalog algebra or gl_2, gl_3 in the basis f_i = sum_a U[a][i] e_a
    for a seeded upper unitriangular integer U, so the constants turn dense;
    half the draws then add 1 to one constant, which mostly breaks Jacobi."""
    bases = [alg for alg in CATALOG_ALGEBRAS if alg.dim > 1] + [lie_algebra(m * m, gl_constants(m)) for m in (2, 3)]
    base = draw(st.sampled_from(bases))
    rng = Random(draw(st.integers(0, 2**32)))
    n = base.dim
    u = [[F(int(r == c)) if r >= c else F(rng.choice((-1, 0, 1))) for c in range(n)] for r in range(n)]
    columns = [[u[a][i] for a in range(n)] for i in range(n)]
    constants = {}
    for i, j in combinations(range(n), 2):
        image = base.bracket(columns[i], columns[j])
        # back substitution: the coordinates x of the image, U x = image
        x = [F(0)] * n
        for r in reversed(range(n)):
            x[r] = image[r] - sum(u[r][t] * x[t] for t in range(r + 1, n))
        constants.update({(i + 1, j + 1, k + 1): x[k] for k in range(n) if x[k]})
    if draw(st.booleans()):
        key = rng.choice([(i, j, k) for i, j in combinations(range(1, n + 1), 2) for k in range(1, n + 1)])
        constants[key] = constants.get(key, F(0)) + 1
    return lie_algebra(n, constants)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_ALGEBRAS), drawn_constants(), matrix_unit_subsets(), unipotent_bases()))
# one violation, (1, 3, 5, 3), and e2, e4, e6 in no bracket
@example(lie_algebra(6, {(1, 3, 1): 1, (1, 5, 3): 1}))
# sl2 on (X, Y, H): of the triple (1, 2, 3), [[Y, H], X] = -2H from the pair
# (2, 3) cancels [[H, X], Y] = 2H from the pair (1, 3), whose third index 2
# lies between, so (1, 3, 2) is odd; [[X, Y], H] = 0
@example(lie_algebra(3, {(1, 2, 3): 1, (1, 3, 1): -2, (2, 3, 2): 2}))
def test_sparse_jacobi_matches_the_dense_loop(alg: LieAlgebra) -> None:
    report = alg.validate()
    assert report.violations == dense_jacobi_violations(alg)
    assert report.ok == (not report.violations)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_ALGEBRAS), drawn_constants()))
def test_basis_ad_equals_ad_of_the_basis_vectors(alg: LieAlgebra) -> None:
    expected = [alg.ad(alg.basis_vector(i)) for i in range(1, alg.dim + 1)]
    assert alg.basis_ad() == expected
    assert all(type(x) is Fraction for m in alg.basis_ad() for row in m for x in row)


def test_basis_ad_is_cached_outside_equality_and_returns_fresh_rows() -> None:
    # built here, not looked up: the catalog shares one sl2, whose cache
    # any earlier test may already have filled. basis_ad keeps no table of
    # its own: it reads the cached sparse_ad, which == ignores
    def own_sl2() -> LieAlgebra:
        return lie_algebra(3, {(1, 2, 1): -2, (1, 3, 2): 1, (2, 3, 3): -2}, names=("X", "H", "Y"))

    g, fresh = own_sl2(), own_sl2()
    assert g == sl2()
    first = g.basis_ad()
    first[0][0][0] = F(99)
    first[1].append([F(1)])
    assert g.basis_ad() == fresh.basis_ad() != first
    assert g == own_sl2() and "sparse_ad" in vars(g) and "sparse_ad" not in vars(own_sl2())


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_ALGEBRAS), drawn_constants()))
def test_killing_equals_the_dense_trace_of_products(alg: LieAlgebra) -> None:
    # the dense n^2 mat_mul route that killing() replaced, as the oracle
    ads = alg.basis_ad()
    expected = [[linalg.trace(linalg.mat_mul(a, b)) for b in ads] for a in ads]
    assert alg.killing() == expected
    assert all(type(x) is Fraction for row in alg.killing() for x in row)
    assert alg.is_unimodular() == all(linalg.trace(a) == 0 for a in ads)


def test_killing_is_cached_outside_equality_and_returns_fresh_rows() -> None:
    g = lie_algebra(3, {(1, 2, 2): F(1, 2), (1, 3, 3): F(-2, 3)})
    first = g.killing()
    assert first[0][0] == F(1, 4) + F(4, 9)
    first[0][0] = F(99)
    assert g.killing() == lie_algebra(3, dict(g.c)).killing() != first
    assert "_killing" in vars(g) and "sparse_ad" in vars(g) and g == lie_algebra(3, dict(g.c))
    assert "sparse_ad" not in repr(g)


def test_sparse_ad_holds_integer_rows_of_the_nonzero_adjoints() -> None:
    g = lie_algebra(4, {(1, 2, 2): F(1, 2), (1, 3, 3): F(-2, 3)})
    scale, ads = g.sparse_ad
    assert scale == 6
    assert ads == {1: {1: ((1, 3),), 2: ((2, -4),)}, 2: {1: ((0, -3),)}, 3: {2: ((0, 4),)}}
    assert lie_algebra(60, {(1, 2, 3): 1}).sparse_ad == (1, {1: {2: ((1, 1),)}, 2: {2: ((0, -1),)}})


def test_scaled_brackets_list_the_nonzero_constants() -> None:
    g = lie_algebra(4, {(2, 1, 3): F(1), (1, 2, 1): F(2), (3, 4, 4): F(-1)})
    assert g.scaled_brackets == (1, {(1, 2): ((1, 2), (3, -1)), (3, 4): ((4, -1),)})


def test_scaled_brackets_are_one_cached_integer_table_that_validate_leaves_unchanged() -> None:
    g = lie_algebra(4, {(2, 1, 3): F(1, 2), (1, 2, 1): F(2), (3, 4, 4): F(-1, 3)})
    table = g.scaled_brackets
    assert table == (6, {(1, 2): ((1, 12), (3, -3)), (3, 4): ((4, -2),)})
    snapshot = {pair: tuple(row) for pair, row in table[1].items()}
    assert not g.validate().ok  # [[e1, e2], e4] = e4 / 6, and the other two terms vanish
    assert g.sparse_ad[0] == 6 and g.scaled_brackets is table
    assert table[1] == snapshot  # validate's reversed pairs went to a copy
    assert "scaled_brackets" in vars(g) and "scaled_brackets" not in repr(g)
    assert g == lie_algebra(4, dict(g.c))
    assert lie_algebra(2, {}).scaled_brackets == (1, {})


def test_weight_zero_parts_split_the_indices_by_weight() -> None:
    # gl2 in the basis E12, E11, E22, E21: E11 and E22 are toral, E12 and E21
    # have opposite nonzero weights, so {1, 4} is the one nonempty balanced subset
    g = lie_algebra(4, {(1, 2, 1): -1, (1, 3, 1): 1, (1, 4, 2): 1, (1, 4, 3): -1, (2, 4, 4): -1, (3, 4, 4): 1})
    assert g.toral_weights == {2: (1, 0, 0, -1), 3: (-1, 0, 0, 1)}
    assert g.weight_zero_parts == ((2, 3), (((),), (), ((1, 4),)))
    assert g.weight_zero_parts is g.weight_zero_parts and g == lie_algebra(4, dict(g.c))
    # without a toral vector every index has weight zero
    assert lie_algebra(3, {(1, 2, 3): 1}).weight_zero_parts == ((1, 2, 3), (((),),))


def test_structure_constants_are_read_only() -> None:
    g = sl2()
    with pytest.raises(TypeError):
        g.c[(1, 2, 1)] = F(5)
    assert g.c == dict(g.c)
    assert g == lie_algebra(3, dict(g.c), names=g.names)


def test_fields_are_read_only_and_equality_and_repr_read_only_them() -> None:
    g = lie_algebra(3, {(1, 2, 3): 1}, names=("p", "q", "z"))
    g.sparse_ad  # a cached property, outside == and repr
    for field in ("dim", "c", "names", "sparse_ad"):
        with pytest.raises(AttributeError):
            setattr(g, field, None)
        with pytest.raises(AttributeError):
            delattr(g, field)
    assert g == LieAlgebra(dim=3, c={(2, 1, 3): -1}, names=("p", "q", "z"))
    assert g != lie_algebra(3, {(1, 2, 3): 1})
    assert g != lie_algebra(3, {(1, 2, 3): 2}, names=g.names)
    assert g != lie_algebra(4, {(1, 2, 3): 1}, names=(*g.names, "u"))
    assert g != (3, g.c, g.names)
    assert repr(g) == "LieAlgebra(dim=3, c=mappingproxy({(1, 2, 3): Fraction(1, 1)}), names=('p', 'q', 'z'))"
    with pytest.raises(TypeError):
        hash(g)


def test_killing_pair_matches_the_gram_form() -> None:
    for g in CATALOG_ALGEBRAS:
        kappa = g.killing()
        vectors = basis_vectors(g.dim) + [[F((3 * i) % 7 - 3, 1 + i % 2) for i in range(g.dim)]]
        for x in vectors:
            for y in vectors:
                gram = sum((x[i] * kappa[i][j] * y[j] for i in range(g.dim) for j in range(g.dim)), F(0))
                assert g.killing_pair(x, y) == gram, g


def test_all_catalog_algebras_satisfy_jacobi() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        assert entry.payload.validate().ok, entry.name


def test_killing_form_sl2_oracle() -> None:
    g = sl2()
    k = g.killing()
    assert k == [
        [F(0), F(0), F(4)],
        [F(0), F(8), F(0)],
        [F(4), F(0), F(0)],
    ]
    assert linalg.symmetric_signature(k) == (2, 1, 0)


def test_killing_form_so3_oracle() -> None:
    g = catalog.get("so3", kind="algebra").payload
    k = g.killing()
    assert k == [
        [F(-2), F(0), F(0)],
        [F(0), F(-2), F(0)],
        [F(0), F(0), F(-2)],
    ]
    assert linalg.symmetric_signature(k) == (0, 3, 0)


def test_killing_form_is_invariant() -> None:
    # kappa([x,y],z) + kappa(y,[x,z]) = 0 for random rational vectors
    import random

    rng = random.Random(20240801)
    for name in ("sl2", "so3", "heisenberg3", "affine1", "borel_sl2"):
        g = catalog.get(name, kind="algebra").payload
        k = g.killing()

        def kappa(u: list, v: list) -> Fraction:
            return sum(
                k[i][j] * u[i] * v[j] for i in range(g.dim) for j in range(g.dim)
            )

        for _ in range(12):
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)]
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)]
            z = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)]
            assert kappa(g.bracket(x, y), z) + kappa(y, g.bracket(x, z)) == 0


def test_series_flags_on_catalog() -> None:
    expected = {
        "abelian(3)": (True, True, False, True),
        "heisenberg3": (True, True, False, True),
        "affine1": (True, False, False, False),
        "borel_sl2": (True, False, False, False),
        "sl2": (False, False, True, True),
        "so3": (False, False, True, True),
        "sl2_plus_abelian2": (False, False, False, True),
    }
    for name, (solv, nilp, semi, unim) in expected.items():
        g = catalog.get(name, kind="algebra").payload
        assert g.is_solvable() == solv, name
        assert g.is_nilpotent() == nilp, name
        assert g.is_semisimple() == semi, name
        assert g.is_unimodular() == unim, name


def test_nilpotent_implies_solvable_everywhere() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        g = entry.payload
        if g.is_nilpotent():
            assert g.is_solvable(), entry.name


def test_semisimple_matches_killing_nondegeneracy() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        g = entry.payload
        p, n, z = linalg.symmetric_signature(g.killing())
        assert g.is_semisimple() == (z == 0), entry.name


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: LieAlgebra(dim=0, c={}), "dimension must be >= 1"),
        (lambda: lie_algebra(3).bracket([Fraction(1)] * 2, [Fraction(1)] * 3), "vector length must match"),
        (lambda: lie_algebra(3).bracket([Fraction(1)] * 3, [Fraction(1)] * 4), "vector length must match"),
        (lambda: lie_algebra(3).ad([Fraction(1)] * 2), "vector length must match"),
    ],
)
def test_algebra_refusals(build, match) -> None:
    with pytest.raises(ValueError, match=match):
        build()
