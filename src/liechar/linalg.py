"""Exact linear algebra over rationals.

Matrices are lists of lists of Fraction. Two independent rank routes are
kept on purpose: plain fraction elimination (row_reduce) and fraction-free
elimination over cleared integers (_bareiss). Callers that certify results
run both. _bareiss is also determinant's one elimination: its last pivot,
signed by the row swaps, is the determinant of the cleared rows.

A sparse matrix is a map {(row, col): nonzero int}. echelon reduces it by
fraction-free integer elimination on its nonzero cells only, and kernel and
sparse_solve back-substitute in that echelon form. cleared is the one place
a rational sequence becomes integers: callers clear a rational row before
it enters a sparse matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

Matrix = list[list[Fraction]]
SparseMatrix = dict[tuple[int, int], int]


def cleared(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * x for x in values]) for the lcm d of the denominators (1 for
    no values)."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


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
    """Rank by Bareiss elimination on the denominator-cleared integer matrix.

    Independent of row_reduce: single-step fraction-free pivoting with exact
    integer division, no Fraction arithmetic after clearing.
    """
    return _bareiss([cleared(row)[1] for row in matrix])[0]


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """(rank, signed last pivot) of the integer matrix m, by single-step
    Bareiss elimination in place. Each pivot is a minor of m, exact by
    Sylvester's identity; on a square m of full rank the last one, signed by
    the row swaps, is det m. The empty matrix gives (0, 1)."""
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    prev = sign = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r, sign * prev


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


def echelon(nonzeros: SparseMatrix, bound: int | None = None) -> dict[int, tuple[int, dict[int, int]]]:
    """Row echelon form of a sparse matrix, by fraction-free elimination.

    Returns {leading column: (row id, integer row {col: nonzero})}, one
    entry per kept row. The rows are inserted sparsest first (ties by row
    id); each is reduced by reduce_row against the rows kept so far. A row
    that vanishes is dependent. So the kept rows are independent, as many as
    the rank, and their leading columns are the pivot columns of row_reduce.
    A row meets only the kept rows that lead at one of its columns, so a
    block-diagonal matrix is reduced block by block without finding blocks.

    bound, when given, is a rank the caller has proved the matrix cannot
    exceed, not a tuning value: the elimination stops once it keeps bound
    rows. Kept rows are never changed and the order does not depend on the
    bound, so the result is the first bound rows the unbounded run keeps,
    and equal to it when bound >= rank: then the kept rows are already a
    full echelon basis of the row space, and every later row would vanish.
    """
    grouped: dict[int, dict[int, int]] = {}
    for (r, c), value in nonzeros.items():
        grouped.setdefault(r, {})[c] = value
    kept: dict[int, tuple[int, dict[int, int]]] = {}
    for r, row in sorted(grouped.items(), key=lambda item: (len(item[1]), item[0])):
        if len(kept) == bound:
            break
        lead = min(row)
        if lead in kept:
            lead = reduce_row(row, kept)
            if lead is None:
                continue
        kept[lead] = (r, row)
    return kept


def reduce_row(row: dict[int, int], kept: dict[int, tuple[int, dict[int, int]]]) -> int | None:
    """Reduce the integer row {col: nonzero} in place by its leading column
    against the echelon rows of kept, row = p*row - a*pivot with p, a the two
    leading entries over their gcd, then divided by its content, until no
    kept row leads where it does. Returns its leading column, or None when it
    vanished, that is when it lies in the span of kept's rows."""
    lead = min(row, default=None)
    while lead in kept:
        pivot = kept[lead][1]
        g = gcd(pivot[lead], row[lead])
        p, a = pivot[lead] // g, row[lead] // g
        if p != 1:
            for c in row:
                row[c] *= p
        for c, x in pivot.items():
            value = row.get(c, 0) - a * x
            if value:
                row[c] = value
            else:
                del row[c]
        if not row:
            return None
        content = gcd(*row.values())
        if content != 1:
            for c in row:
                row[c] //= content
        lead = min(row)
    return lead


def sparse_solve(
    nonzeros: SparseMatrix, cols: int, b: list[Fraction], rank: int | None = None
) -> list[Fraction] | None:
    """solve() on a sparse matrix with cols columns, from the echelon form of
    [A | d b], d b = cleared(b) as column cols; None if a kept row leads
    there. Its null vector that is -1 at column cols is (d x, -1).

    rank, when given, is the rank of A, and the elimination stops at rank + 1
    kept rows: b is then outside the image, so column cols leads one of
    them. A consistent b never gets there, and its echelon and solution are
    those of the unbounded run.

    The leading columns of any echelon basis of a row space are its reduced
    row echelon pivots, so back-substitution with the free columns at 0
    gives exactly the solution of solve() on the dense matrix.
    """
    scale, target = cleared(b)
    augmented = dict(nonzeros)
    augmented.update({(r, cols): value for r, value in enumerate(target) if value})
    kept = echelon(augmented, None if rank is None else rank + 1)
    if cols in kept:
        return None
    x = _back_substitute(kept, [Fraction(0)] * cols + [Fraction(-1)])
    return [value / scale for value in x[:cols]]


def kernel(nonzeros: SparseMatrix, cols: int) -> list[list[Fraction]]:
    """Null space of a sparse matrix with cols columns, one vector per column
    f that leads no echelon row: x_f = 1, the other such columns 0, and the
    leading columns back-substituted.

    No module of the package calls it: cohomology.central_split reads the
    centre off one tagged echelon, in integers. It stays as the Fraction
    reference route of the tests, which check the centre the split chooses
    against it."""
    kept = echelon(nonzeros)
    units = ([Fraction(int(c == free)) for c in range(cols)] for free in range(cols) if free not in kept)
    return [_back_substitute(kept, x) for x in units]


def _back_substitute(kept: dict[int, tuple[int, dict[int, int]]], x: list[Fraction]) -> list[Fraction]:
    """Set x at the leading columns of the echelon rows kept, last first, so
    that every row vanishes on x; the other entries are the caller's."""
    for lead in sorted(kept, reverse=True):
        row = kept[lead][1]
        x[lead] = -sum((value * x[c] for c, value in row.items() if c > lead), Fraction(0)) / row[lead]
    return x


def determinant(a: Matrix) -> Fraction:
    """det a: the Bareiss pivot of its cleared rows over the product of their
    scales; 0 below full rank, 1 for the empty matrix."""
    n = len(a)
    assert all(len(row) == n for row in a)
    scaled = [cleared(row) for row in a]
    r, pivot = _bareiss([row for _, row in scaled])
    return Fraction(pivot, prod(scale for scale, _ in scaled)) if r == n else Fraction(0)


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
