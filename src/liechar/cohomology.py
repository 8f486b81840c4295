"""Cochain complex of alternating forms with trivial coefficients.

The degree-k differential acts by

    (d f)(x_1, ..., x_{k+1}) = sum over i < j of
        (-1)^(i+j) * f([x_i, x_j], x_1, ..., omit x_i, ..., omit x_j, ..., x_{k+1})

with 1-based argument positions. Ranks are taken fraction-free (Bareiss);
tests certify Betti numbers against the independent fraction row reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .algebra import LieAlgebra
from .forms import AlternatingForm, permutation_sign, trace_form

# C(12, 6) = 924 columns is still desk-scale; beyond that say no.
BETTI_DIM_CAP = 12


def cochain_basis(dim: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographic k-subsets of {1..dim}: the basis of degree-k cochains."""
    return list(combinations(range(1, dim + 1), k))


@dataclass(frozen=True)
class DifferentialMatrix:
    """Matrix of d_k: degree-k cochains to degree-(k+1) cochains.

    entries[r][c] pairs row basis subset r (size k+1) with column subset c
    (size k).
    """

    degree: int
    row_basis: list[tuple[int, ...]]
    col_basis: list[tuple[int, ...]]
    entries: linalg.Matrix

    def apply(self, form: AlternatingForm) -> list[Fraction]:
        if form.degree != self.degree:
            raise ValueError(f"form degree {form.degree} does not match d_{self.degree}")
        return linalg.mat_vec(self.entries, form.component_vector(self.col_basis))


def differential_matrix(alg: LieAlgebra, k: int) -> DifferentialMatrix:
    """Matrix of the degree-k differential on the subset bases."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    row_basis = cochain_basis(n, k + 1)
    col_basis = cochain_basis(n, k)
    col_index = {subset: pos for pos, subset in enumerate(col_basis)}
    entries = linalg.zeros(len(row_basis), max(len(col_basis), 1))
    if k == 0:
        # 0-cochains are constants; d vanishes on them.
        return DifferentialMatrix(degree=k, row_basis=row_basis, col_basis=col_basis, entries=entries)
    for r, subset in enumerate(row_basis):
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(subset[t] for t in range(k + 1) if t != i and t != j)
                sign_ij = (-1) ** (i + j)  # equals (-1)^(i+j) for 1-based positions i+1, j+1
                for a in range(1, n + 1):
                    cval = alg.structure_constant(subset[i], subset[j], a)
                    if cval == 0 or a in rest:
                        continue
                    argument = (a,) + rest
                    order = tuple(sorted(argument))
                    entries[r][col_index[order]] += sign_ij * cval * permutation_sign(argument)
    return DifferentialMatrix(degree=k, row_basis=row_basis, col_basis=col_basis, entries=entries)


def betti(alg: LieAlgebra, k: int) -> int:
    """dim ker(d_k) - rank(d_{k-1}), by fraction-free ranks."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    if n > BETTI_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the Betti cap {BETTI_DIM_CAP}")
    rank_k = linalg.rank_fraction_free(differential_matrix(alg, k).entries) if k < n else 0
    rank_prev = linalg.rank_fraction_free(differential_matrix(alg, k - 1).entries) if k > 0 else 0
    return comb(n, k) - rank_k - rank_prev


def betti_table(alg: LieAlgebra) -> list[int]:
    return [betti(alg, k) for k in range(alg.dim + 1)]


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
    solution = linalg.solve(d_prev.entries, target)
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


def class_report(alg: LieAlgebra) -> dict[int, str]:
    """Status of the odd trace-form classes in every degree 2k+1 <= dim."""
    return {degree: trace_class(alg, degree)[0] for degree in range(1, alg.dim + 1, 2)}
