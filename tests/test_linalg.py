"""Exact rational linear algebra: elimination, ranks, signatures."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liechar import linalg


def F(x: int, y: int = 1) -> Fraction:
    return Fraction(x, y)


def test_identity_and_zeros() -> None:
    assert linalg.identity(3) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    assert linalg.zeros(2, 3) == [[F(0)] * 3, [F(0)] * 3]


def test_mat_mul_known_product() -> None:
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(1, 2)]]
    assert linalg.mat_mul(a, b) == [[F(2), F(2)], [F(4), F(5)]]


def test_mat_mul_empty_operands() -> None:
    # Degenerate shapes appear when a cochain space is zero dimensional.
    assert linalg.mat_mul([], []) == []
    assert linalg.mat_mul([[]], []) == [[]]


def test_mat_vec() -> None:
    a = [[F(2), F(0)], [F(1), F(-1)]]
    assert linalg.mat_vec(a, [F(3), F(5)]) == [F(6), F(-2)]


def test_trace() -> None:
    assert linalg.trace([[F(1), F(9)], [F(7), F(-3)]]) == F(-2)


def test_row_reduce_pivots_and_rref() -> None:
    m = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    rref, pivots = linalg.row_reduce(m)
    assert pivots == [0, 1]
    assert rref[0] == [F(1), F(0), F(1)]
    assert rref[1] == [F(0), F(1), F(1)]
    assert rref[2] == [F(0), F(0), F(0)]


def test_rank_routes_agree_on_random_matrices() -> None:
    # Two independent elimination strategies must agree everywhere.
    import random

    rng = random.Random(20240801)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert linalg.rank(m) == linalg.rank_fraction_free(m)


def test_rank_fraction_free_known_values() -> None:
    assert linalg.rank_fraction_free([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert linalg.rank_fraction_free([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank_fraction_free([[F(1), F(2)], [F(2), F(5)]]) == 2
    assert linalg.rank_fraction_free([]) == 0


def test_solve_unique_solution() -> None:
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = linalg.solve(a, b)
    assert x is not None
    assert linalg.mat_vec(a, x) == b


def test_solve_inconsistent_returns_none() -> None:
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(a, [F(1), F(3)]) is None


def test_solve_underdetermined_returns_particular_solution() -> None:
    a = [[F(1), F(1), F(0)]]
    b = [F(4)]
    x = linalg.solve(a, b)
    assert x is not None
    assert linalg.mat_vec(a, x) == b


def test_determinant_known_values() -> None:
    assert linalg.determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert linalg.determinant([[F(2)]]) == F(2)
    m = [
        [F(0), F(0), F(4)],
        [F(0), F(8), F(0)],
        [F(4), F(0), F(0)],
    ]
    assert linalg.determinant(m) == F(-128)


def test_symmetric_signature_definite_and_indefinite() -> None:
    assert linalg.symmetric_signature([[F(2), F(0)], [F(0), F(3)]]) == (2, 0, 0)
    assert linalg.symmetric_signature([[F(-1), F(0)], [F(0), F(-5)]]) == (0, 2, 0)
    assert linalg.symmetric_signature([[F(0), F(0)], [F(0), F(0)]]) == (0, 0, 2)


def test_symmetric_signature_zero_diagonal_pivot() -> None:
    # Hyperbolic plane: no nonzero diagonal entry to start from.
    assert linalg.symmetric_signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)


def test_symmetric_signature_rejects_asymmetric_input() -> None:
    with pytest.raises(ValueError):
        linalg.symmetric_signature([[F(0), F(1)], [F(2), F(0)]])


@st.composite
def sparse_matrices(draw) -> tuple[int, int, linalg.SparseMatrix]:
    """Random sparse rational matrices, small enough that empty rows and
    columns and several blocks are common."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if not rows or not cols:
        return rows, cols, {}
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return rows, cols, draw(st.dictionaries(cells, values, max_size=2 * max(rows, cols)))


def _dense(rows: int, cols: int, nonzeros: dict[tuple[int, int], Fraction]) -> linalg.Matrix:
    return [[nonzeros.get((r, c), F(0)) for c in range(cols)] for r in range(rows)]


def _integer_rows(nonzeros: dict[tuple[int, int], Fraction]) -> linalg.SparseMatrix:
    """The sparse integer matrix of nonzeros with each row cleared by
    linalg.cleared: the same row space and null space."""
    grouped: dict[int, dict[int, Fraction]] = {}
    for (r, c), value in nonzeros.items():
        grouped.setdefault(r, {})[c] = value
    cleared = {}
    for r, cells in grouped.items():
        cleared.update({(r, c): x for c, x in zip(cells, linalg.cleared(list(cells.values()))[1])})
    return cleared


def _integer_system(
    nonzeros: dict[tuple[int, int], Fraction], cols: int, b: list[Fraction]
) -> tuple[linalg.SparseMatrix, list[int]]:
    """A x = b with each row of [A | b] cleared together: the same solutions."""
    augmented = _integer_rows({**nonzeros, **{(r, cols): value for r, value in enumerate(b) if value}})
    matrix = {cell: x for cell, x in augmented.items() if cell[1] < cols}
    return matrix, [augmented.get((r, cols), 0) for r in range(len(b))]


def test_cleared_puts_a_sequence_over_the_lcm_of_its_denominators() -> None:
    assert linalg.cleared([F(1, 2), F(-2, 3), F(0), F(5)]) == (6, [3, -4, 0, 30])
    assert linalg.cleared([3, -1]) == (1, [3, -1])
    assert linalg.cleared([]) == (1, [])
    assert linalg.cleared([F(k, 4) for k in range(3)]) == (4, [0, 1, 2])


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example((0, 0, {}))  # empty matrix
@example((0, 4, {}))
@example((4, 0, {}))
@example((3, 4, {}))  # all zero
@example((1, 1, {(0, 0): F(-2, 3)}))  # single entry
@example((4, 5, {(1, 3): F(1), (3, 0): F(2)}))  # empty rows and columns, two blocks
def test_echelon_rank_pivots_and_rows_match_dense_routes(matrix) -> None:
    rows, cols, nonzeros = matrix
    dense = _dense(rows, cols, nonzeros)
    kept = linalg.echelon(_integer_rows(nonzeros))
    assert len(kept) == linalg.rank(dense) == linalg.rank_fraction_free(dense)
    assert sorted(kept) == linalg.row_reduce(dense)[1]
    # the kept rows are distinct, independent rows of the matrix, and each
    # integer row leads at its key and lies in the row space
    ids = [r for r, _ in kept.values()]
    assert len(set(ids)) == len(ids) == linalg.rank([dense[r] for r in ids])
    for lead, (_, row) in kept.items():
        assert min(row) == lead and all(isinstance(x, int) and x for x in row.values())
        assert linalg.rank(dense + [[F(row.get(c, 0)) for c in range(cols)]]) == len(kept)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.integers(0, 8))
@example((4, 5, {(1, 3): F(1), (3, 0): F(2)}), 1)  # stops before the second block
@example((3, 3, {(0, 0): F(1), (1, 0): F(2), (2, 1): F(1)}), 2)  # bound = rank, one dependent row left
@example((2, 2, {(0, 0): F(1), (1, 1): F(1)}), 0)
def test_a_bounded_echelon_is_the_start_of_the_unbounded_one(matrix, bound) -> None:
    # at a bound >= rank the same echelon; below it, the first bound rows
    # that the unbounded run keeps, in the same order and with the same entries
    nonzeros = _integer_rows(matrix[2])
    full = linalg.echelon(nonzeros)
    bounded = linalg.echelon(nonzeros, bound)
    if bound >= len(full):
        assert bounded == full
    else:
        assert list(bounded.items()) == list(full.items())[:bound]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices().filter(lambda m: m[0] > 0), st.data())
@example((4, 5, {(1, 3): F(1), (3, 0): F(2)}), None)
def test_sparse_solve_equals_dense_solve(matrix, data) -> None:
    rows, cols, nonzeros = matrix
    if data is None:
        b = [F(0), F(3), F(0), F(-1)]
    elif data.draw(st.booleans()):
        # a consistent right-hand side: the image of a random vector
        x = data.draw(st.lists(st.integers(-2, 2).map(F), min_size=cols, max_size=cols))
        b = linalg.mat_vec(_dense(rows, cols, nonzeros), x) if cols else [F(0)] * rows
    else:
        b = data.draw(st.lists(st.integers(-2, 2).map(F), min_size=rows, max_size=rows))
    dense = _dense(rows, cols, nonzeros)
    expected = linalg.solve(dense, b)
    integers, target = _integer_system(nonzeros, cols, b)
    assert linalg.sparse_solve(integers, cols, target) == expected
    # stopped at rank + 1 kept rows: None exactly when b is outside the image
    assert linalg.sparse_solve(integers, cols, target, linalg.rank(dense)) == expected


def test_sparse_solve_known_systems() -> None:
    def cleared_solve(nonzeros, cols, b):
        integers, target = _integer_system(nonzeros, cols, b)
        return linalg.sparse_solve(integers, cols, target)

    # two blocks: x3 = 3 and 2 x0 = -1; x1, x2, x4 are free and get 0
    nonzeros = {(1, 3): F(1), (3, 0): F(2)}
    assert cleared_solve(nonzeros, 5, [F(0), F(3), F(0), F(-1)]) == [F(-1, 2), F(0), F(0), F(3), F(0)]
    # a right-hand side on an empty row is inconsistent
    assert cleared_solve(nonzeros, 5, [F(1), F(3), F(0), F(-1)]) is None
    # x0 + x1 = 1, x1 = 2 needs back-substitution from the last pivot
    assert cleared_solve({(0, 0): F(1), (0, 1): F(1), (1, 1): F(1)}, 2, [F(1), F(2)]) == [F(-1), F(2)]
    assert cleared_solve({}, 2, [F(0)]) == [F(0), F(0)]
    # a rational target on integer cells is scaled once and the solution
    # divided once: 2 x0 = 1/3, 3 x1 - x0 = 1/2
    assert linalg.sparse_solve({(0, 0): 2, (1, 1): 3, (1, 0): -1}, 2, [F(1, 3), F(1, 2)]) == [F(1, 6), F(2, 9)]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example((3, 4, {}))  # all zero: the unit vectors
@example((4, 5, {(1, 3): F(1), (3, 0): F(2)}))  # empty rows and columns, two blocks
def test_kernel_is_a_basis_of_the_null_space(matrix) -> None:
    rows, cols, nonzeros = matrix
    dense = _dense(rows, cols, nonzeros)
    basis = linalg.kernel(_integer_rows(nonzeros), cols)
    assert len(basis) == cols - linalg.rank(dense)
    for x in basis:
        image = [F(0)] * rows
        for (r, c), value in nonzeros.items():
            image[r] += value * x[c]
        assert not any(image)
    assert linalg.rank(basis) == len(basis)
    # one unit entry at a column that leads no echelon row, zeros at the others
    free = [c for c in range(cols) if c not in linalg.echelon(_integer_rows(nonzeros))]
    assert [[x[c] for c in free] for x in basis] == linalg.identity(len(free))


def test_kernel_known_values() -> None:
    # x0 + 2 x1 = 0 and x2 = 0 in three columns, with a dependent row
    nonzeros = {(0, 0): F(1), (0, 1): F(2), (1, 2): F(3), (2, 0): F(2), (2, 1): F(4)}
    assert linalg.kernel(_integer_rows(nonzeros), 3) == [[F(-2), F(1), F(0)]]
    assert linalg.kernel({}, 2) == linalg.identity(2)
    assert linalg.kernel(_integer_rows({(0, 0): F(5)}), 1) == []
