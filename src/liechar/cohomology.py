"""Cochain complex of alternating forms with trivial coefficients.

The degree-k differential acts by

    (d f)(x_1, ..., x_{k+1}) = sum over i < j of
        (-1)^(i+j) * f([x_i, x_j], x_1, ..., omit x_i, ..., omit x_j, ..., x_{k+1})

with 1-based argument positions. Each d_k is built sparse, from the nonzero
structure constants only. Ranks and exactness come from one sparse
fraction-free integer elimination, linalg.echelon: a row meets only the
kept rows that lead at one of its columns, so in a weight basis the
elimination follows the torus-weight grading (Hochschild-Serre) without
finding it, and a dense basis, such as so3's, needs no other path. Tests
certify every rank against both dense elimination routes and every
primitive against a dense solve.

betti_table ranks d_0, d_1, ... in order and each d_k only on the columns
that are not kept (pivot) rows of d_{k-1}; since d_k o d_{k-1} = 0 this
loses no rank. On a dense basis this keeps about half the columns.
betti(alg, k) keeps the full ranks of d_k and d_{k-1}, and tests hold the
two routes equal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .algebra import LieAlgebra
from .forms import AlternatingForm, trace_form

# Betti tables in matrix-unit bases, in-process on a 2-vCPU shared host
# (Python 3.11.7): b4+C^3 (dim 13) 0.16 s, b4+C^4 (dim 14) 0.31 s (best
# of 3), b5 (dim 15) 1.3 s, gl4 (dim 16) 4.3 s (one run each). The middle
# differential grows as C(n, n/2), and after a unipotent basis change it
# is dense: b4+C (dim 11) 2.1 s, b4+C^2 (dim 12) 8.5 s, b4+C^3 (dim 13)
# 26 s. So the cap stays where dense inputs still finish in seconds to
# tens of seconds.
BETTI_DIM_CAP = 14


def cochain_basis(dim: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographic k-subsets of {1..dim}: the basis of degree-k cochains."""
    return list(combinations(range(1, dim + 1), k))


@dataclass(frozen=True)
class DifferentialMatrix:
    """Matrix of d_k: degree-k cochains to degree-(k+1) cochains.

    nonzeros[(r, c)] pairs row basis subset r (size k+1) with column subset
    c (size k); absent cells are zero.
    """

    degree: int
    row_basis: list[tuple[int, ...]]
    col_basis: list[tuple[int, ...]]
    nonzeros: linalg.SparseMatrix

    @property
    def entries(self) -> linalg.Matrix:
        """Dense view, built afresh on each access."""
        dense = linalg.zeros(len(self.row_basis), len(self.col_basis))
        for (r, c), value in self.nonzeros.items():
            dense[r][c] = value
        return dense

    def rank(self) -> int:
        return len(linalg.echelon(self.nonzeros))

    def apply(self, form: AlternatingForm) -> list[Fraction]:
        if form.degree != self.degree:
            raise ValueError(f"form degree {form.degree} does not match d_{self.degree}")
        vector = form.component_vector(self.col_basis)
        image = [Fraction(0)] * len(self.row_basis)
        for (r, c), value in self.nonzeros.items():
            if vector[c]:
                image[r] += value * vector[c]
        return image


def differential_matrix(alg: LieAlgebra, k: int) -> DifferentialMatrix:
    """Matrix of the degree-k differential on the subset bases."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    # (i, j) -> [(a, c_ij^a, -c_ij^a)], negated once per constant; i < j, as
    # in every pair of an ascending row subset
    brackets = {pair: [(a, cval, -cval) for a, cval in row] for pair, row in alg.bracket_rows().items()}
    row_basis = cochain_basis(n, k + 1)
    col_basis = cochain_basis(n, k)
    col_index = {subset: pos for pos, subset in enumerate(col_basis)}
    pairs = [(i, j, (i + j) % 2) for i, j in combinations(range(k + 1), 2)]
    sums: dict[tuple[int, int], Fraction] = {}
    for r, subset in enumerate(row_basis):
        for i, j, parity in pairs:
            terms = brackets.get((subset[i], subset[j]))
            if terms is None:
                continue
            rest = subset[:i] + subset[i + 1 : j] + subset[j + 1 :]
            for a, cval, negated in terms:
                # sorting (a,) + rest moves a past the pos smaller entries,
                # so the entry is (-1)^(i+j+pos) * c_ij^a
                pos = bisect_left(rest, a)
                if pos < len(rest) and rest[pos] == a:
                    continue
                cell = (r, col_index[rest[:pos] + (a,) + rest[pos:]])
                term = negated if (pos + parity) % 2 else cval
                total = sums.get(cell)
                sums[cell] = term if total is None else total + term
    nonzeros = {cell: value for cell, value in sums.items() if value}
    return DifferentialMatrix(degree=k, row_basis=row_basis, col_basis=col_basis, nonzeros=nonzeros)


def _check_betti_size(alg: LieAlgebra) -> None:
    if alg.dim > BETTI_DIM_CAP:
        raise ValueError(f"dimension {alg.dim} exceeds the Betti cap {BETTI_DIM_CAP}")


def _differential_rank(alg: LieAlgebra, k: int) -> int:
    """rank d_k; d_k is zero below degree 0 and maps to nothing in degree dim."""
    return differential_matrix(alg, k).rank() if 0 <= k < alg.dim else 0


def betti(alg: LieAlgebra, k: int) -> int:
    """dim ker(d_k) - rank(d_{k-1}), from the full sparse ranks of both."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    _check_betti_size(alg)
    return comb(n, k) - _differential_rank(alg, k) - _differential_rank(alg, k - 1)


def betti_table(alg: LieAlgebra, max_degree: int | None = None) -> list[int]:
    """Betti numbers in degrees 0..max_degree (default and at most dim).

    Ranks d_0, d_1, ... in order, and each d_k only on the degree-k cochains
    that are not pivot rows of d_{k-1}. Those pivot rows are independent rows
    of d_{k-1}, so the other coordinate vectors and im d_{k-1} together span
    the degree-k cochains, and d_k vanishes on im d_{k-1}. That needs
    d o d = 0, which holds exactly when the bracket satisfies Jacobi: a
    bracket that does not raises ValueError naming the first violation.
    """
    n = alg.dim
    _check_betti_size(alg)
    violations = alg.validate().violations
    if violations:
        raise ValueError(f"Jacobi identity fails at (i, j, k, m) = {violations[0]}: no cochain complex")
    top = n if max_degree is None else min(max_degree, n)
    ranks = []
    pivots: set[int] = set()
    for k in range(min(top + 1, n)):
        d_k = differential_matrix(alg, k)
        kept = {cell: value for cell, value in d_k.nonzeros.items() if cell[1] not in pivots}
        pivots = {r for r, _ in linalg.echelon(kept).values()}
        ranks.append(len(pivots))
    ranks.append(0)  # d_n maps to nothing
    return [comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)]


def is_closed(alg: LieAlgebra, form: AlternatingForm) -> bool:
    if form.dim != alg.dim:
        raise ValueError("form dimension does not match the algebra")
    if form.degree == alg.dim:
        return True
    image = differential_matrix(alg, form.degree).apply(form)
    return all(x == 0 for x in image)


def is_exact(alg: LieAlgebra, form: AlternatingForm) -> tuple[bool, AlternatingForm | None]:
    """Solve d(mu) = form; returns (True, some primitive mu) when solvable.

    Only closed forms are meaningful here; calling with a non-closed form
    is an error. Degree-0 forms are exact exactly when they vanish.
    """
    if not is_closed(alg, form):
        raise ValueError("exactness asked for a non-closed form")
    if form.degree == 0:
        zero = form.is_zero()
        return zero, (AlternatingForm(0, alg.dim, {}) if zero else None)
    d_prev = differential_matrix(alg, form.degree - 1)
    target = form.component_vector(d_prev.row_basis)
    solution = linalg.sparse_solve(d_prev.nonzeros, len(d_prev.col_basis), target)
    if solution is None:
        return False, None
    primitive = AlternatingForm(
        degree=form.degree - 1,
        dim=alg.dim,
        components={subset: solution[pos] for pos, subset in enumerate(d_prev.col_basis)},
    )
    return True, primitive


# Per-degree status labels of a trace-form class.
STATUS_ZERO = "zero form"
STATUS_EXACT = "exact"
STATUS_NONZERO_CLASS = "nonzero class"


def trace_class(alg: LieAlgebra, k: int) -> tuple[str, AlternatingForm | None]:
    """Status of the degree-k trace form's class, with a primitive when exact.

    Trace forms of a Jacobi-valid algebra are cocycles; is_exact raises
    ValueError if this one is not.
    """
    form = trace_form(alg, k)
    if form.is_zero():
        return STATUS_ZERO, None
    exact, primitive = is_exact(alg, form)
    return (STATUS_EXACT if exact else STATUS_NONZERO_CLASS), primitive


def class_report(alg: LieAlgebra, max_degree: int | None = None) -> dict[int, str]:
    """Status of the odd trace-form classes in every degree 2k+1 <= max_degree
    (default and at most dim)."""
    top = alg.dim if max_degree is None else min(max_degree, alg.dim)
    return {degree: trace_class(alg, degree)[0] for degree in range(1, top + 1, 2)}
