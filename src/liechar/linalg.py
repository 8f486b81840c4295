"""Exact linear algebra over rationals.

Matrices are lists of lists of Fraction. Two independent rank routes are
kept on purpose: plain fraction elimination and fraction-free (Bareiss)
elimination over cleared integers. Callers that certify results run both.

A sparse matrix is a map {(row, col): nonzero value}. block_rank and
block_solve split it into the connected components of its row/column
incidence graph and eliminate each dense block on its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]
SparseMatrix = dict[tuple[int, int], Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    if rows and inner:
        assert len(a[0]) == inner
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] += aik * bk[j]
    return out


def mat_vec(a: Matrix, v: list[Fraction]) -> list[Fraction]:
    assert len(a[0]) == len(v)
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def row_reduce(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form by fraction Gauss-Jordan elimination.

    Returns (rref, pivot column indices). The input is not modified.
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix: Matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(row_reduce(matrix)[1])


def rank_fraction_free(matrix: Matrix) -> int:
    """Rank by Bareiss elimination: the number of fraction_free_pivot_rows."""
    return len(fraction_free_pivot_rows(matrix))


def fraction_free_pivot_rows(matrix: Matrix) -> list[int]:
    """Indices of the rows that Bareiss elimination on the denominator-cleared
    integer matrix picks as pivots, in pivot order.

    These rows are linearly independent and as many as the rank. Independent
    of row_reduce: single-step fraction-free pivoting with exact integer
    division, no Fraction arithmetic after clearing.
    """
    if not matrix or not matrix[0]:
        return []
    m: list[list[int]] = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        m.append([x.numerator * (scale // x.denominator) for x in row])
    rows, cols = len(m), len(m[0])
    order = list(range(rows))
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        order[r], order[pivot_row] = order[pivot_row], order[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                # Bareiss update: exact by Sylvester identity.
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return order[:r]


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One particular solution of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    rref, pivots = row_reduce(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = rref[r][cols]
    return x


def blocks(nonzeros: SparseMatrix, rows: int, cols: int) -> list[tuple[list[int], list[int], Matrix]]:
    """Dense blocks of a rows x cols sparse matrix, one per connected
    component of its row/column incidence graph.

    Each block is (row ids, column ids, dense sub-matrix), ids ascending.
    Rows and columns without a nonzero lie in no block. Reordering rows and
    columns by block makes the matrix block diagonal, so ranks add over the
    blocks and a x = b splits into one system per block.
    """
    # union-find over rows 0..rows-1 and columns rows..rows+cols-1
    parent = list(range(rows + cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for r, c in nonzeros:
        a, b = find(r), find(rows + c)
        if a != b:
            parent[a] = b
            merges += 1
    row_ids = sorted({r for r, _ in nonzeros})
    col_ids = sorted({c for _, c in nonzeros})
    if len(row_ids) + len(col_ids) - merges <= 1:
        # at most one component: no grouping of the cells by root
        groups = [(row_ids, col_ids, list(nonzeros))] if nonzeros else []
    else:
        by_root: dict[int, list[tuple[int, int]]] = {}
        for cell in nonzeros:
            by_root.setdefault(find(cell[0]), []).append(cell)
        groups = [
            (sorted({r for r, _ in cells}), sorted({c for _, c in cells}), cells) for cells in by_root.values()
        ]
    out = []
    for row_ids, col_ids, cells in groups:
        row_pos = {r: i for i, r in enumerate(row_ids)}
        col_pos = {c: j for j, c in enumerate(col_ids)}
        block = zeros(len(row_ids), len(col_ids))
        for r, c in cells:
            block[row_pos[r]][col_pos[c]] = nonzeros[r, c]
        out.append((row_ids, col_ids, block))
    return out


def block_rank(nonzeros: SparseMatrix, rows: int, cols: int) -> int:
    """Rank of a sparse matrix: the sum of the Bareiss ranks of its blocks."""
    return sum(rank_fraction_free(block) for _, _, block in blocks(nonzeros, rows, cols))


def block_pivot_rows(nonzeros: SparseMatrix, rows: int, cols: int) -> list[int]:
    """Row ids of the Bareiss pivots of every block of a sparse matrix: as
    many as its rank, and linearly independent rows of it."""
    return [row_ids[i] for row_ids, _, block in blocks(nonzeros, rows, cols) for i in fraction_free_pivot_rows(block)]


def block_solve(nonzeros: SparseMatrix, rows: int, cols: int, b: list[Fraction]) -> list[Fraction] | None:
    """solve() on a sparse matrix, one block at a time.

    A column is a pivot of the whole matrix exactly when it is a pivot within
    its block, and free columns (with every column outside the blocks) get
    0, so the result equals solve() on the dense matrix.
    """
    covered = {r for r, _ in nonzeros}
    if any(b[r] != 0 for r in range(rows) if r not in covered):
        return None
    x = [Fraction(0)] * cols
    for row_ids, col_ids, block in blocks(nonzeros, rows, cols):
        part = solve(block, [b[r] for r in row_ids])
        if part is None:
            return None
        for c, value in zip(col_ids, part):
            x[c] = value
    return x


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rref, pivots = row_reduce(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def determinant(a: Matrix) -> Fraction:
    n = len(a)
    assert all(len(row) == n for row in a)
    m = [row[:] for row in a]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def symmetric_signature(a: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric matrix.

    Diagonalizes by simultaneous row and column operations (congruence),
    which preserves the signature by Sylvester's law of inertia.
    """
    n = len(a)
    m = [row[:] for row in a]
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix must be symmetric")
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
            if j is None:
                zero += 1
                continue
            # x_k -> x_k +- x_j puts m[j][j] +- 2*m[k][j] on the diagonal;
            # with m[k][j] != 0 at least one of the two signs is nonzero.
            s = 1 if m[j][j] + 2 * m[k][j] != 0 else -1
            for i in range(n):
                m[k][i] += s * m[j][i]
            for i in range(n):
                m[i][k] += s * m[i][j]
        if m[k][k] > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
    return pos, neg, zero
