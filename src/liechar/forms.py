"""Alternating forms and the odd trace forms of the adjoint representation.

The degree-k trace form on basis vectors (e_{i_1}, ..., e_{i_k}) is

    (1/k) * sum over permutations s of sgn(s) * tr(ad e_{i_s(1)} . ... . ad e_{i_s(k)})

with normalization 1/k, not 1/k!; the k=3 form factors through the Killing
form as kappa(x, [y, z]) and vanishes identically in every even degree.

The k!-term sum is never expanded. The alternating product of an index
tuple J, A_J = sum over s of sgn(s) * ad e_{j_s(0)} . ... . ad e_{j_s(m-1)},
splits on its first factor as A_J = sum_p (-1)^p * ad e_{j_p} . A_{J minus j_p},
and w_k(I) = (1/k) * sum_p (-1)^p * tr(ad e_{i_p} . A_{I minus i_p}). Both
sums vanish where every face does, so trace_form keeps only the nonzero A_J
of each level as sparse integer maps {row: {col: value}} and visits only the
subsets J' + {i} with A_{J'} and ad e_i nonzero, dropping cancelled cells.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import LieAlgebra, Vector


def permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class AlternatingForm:
    """Degree-k alternating multilinear form on a dim-n space.

    Components are stored on sorted index subsets (1-based, ascending);
    absent subsets are zero. Degree 0 is a single scalar stored at ().
    """

    degree: int
    dim: int
    components: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        if not 0 <= self.degree <= self.dim:
            raise ValueError("degree must lie in [0, dim]")
        cleaned = {}
        for subset, value in self.components.items():
            if len(subset) != self.degree:
                raise ValueError(f"subset {subset} has wrong size for degree {self.degree}")
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"subset {subset} must be strictly increasing")
            if subset and not (1 <= subset[0] and subset[-1] <= self.dim):
                raise ValueError(f"subset {subset} out of range")
            v = Fraction(value)
            if v != 0:
                cleaned[subset] = v
        object.__setattr__(self, "components", cleaned)

    def is_zero(self) -> bool:
        return not self.components

    def component(self, indices: tuple[int, ...]) -> Fraction:
        """Value on (e_{i_1}, ..., e_{i_k}) for an arbitrary index order."""
        if len(set(indices)) != len(indices):
            return Fraction(0)
        order = tuple(sorted(indices))
        return permutation_sign(indices) * self.components.get(order, Fraction(0))

    def component_vector(self, basis: list[tuple[int, ...]]) -> list[Fraction]:
        return [self.components.get(subset, Fraction(0)) for subset in basis]

    def evaluate(self, *vectors: Vector) -> Fraction:
        """Multilinear evaluation: sum of components times coordinate minors."""
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} vectors, got {len(vectors)}")
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError("vector length must match the form dimension")
        total = Fraction(0)
        for subset, value in self.components.items():
            minor = [[vectors[r][i - 1] for i in subset] for r in range(self.degree)]
            total += value * linalg.determinant(minor)
        return total


def trace_form(alg: LieAlgebra, k: int) -> AlternatingForm:
    """Degree-k trace form of the adjoint representation, exactly."""
    if not 1 <= k <= alg.dim:
        raise ValueError(f"degree {k} outside [1, {alg.dim}]")
    if k == 1:
        return w1_character(alg)
    scale, ads = alg.sparse_ad  # integers: level m holds scale^m * A_J
    level = {(i,): {r: dict(row) for r, row in rows.items()} for i, rows in ads.items()}
    for _ in range(2, k):
        products: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
        for subset, sign, rows, lower in _cofaces(ads, level):
            out = products.setdefault(subset, {})
            for r, row in rows.items():
                cells = out.setdefault(r, {})
                for t, x in row:
                    for c, y in lower.get(t, {}).items():
                        cells[c] = cells.get(c, 0) + sign * x * y
        level = {}
        for subset, out in products.items():
            if kept := {r: nz for r, cells in out.items() if (nz := {c: v for c, v in cells.items() if v})}:
                level[subset] = kept
    totals: dict[tuple[int, ...], int] = {}
    for subset, sign, rows, lower in _cofaces(ads, level):
        # tr(ad e_i . A_rest) without forming the product
        term = sum(x * lower[t][r] for r, row in rows.items() for t, x in row if r in lower.get(t, ()))
        totals[subset] = totals.get(subset, 0) + sign * term
    components = {subset: Fraction(v, k * scale**k) for subset, v in sorted(totals.items()) if v}
    return AlternatingForm(degree=k, dim=alg.dim, components=components)


def _cofaces(ads: dict, level: dict):
    """(J' + {i}, (-1)^p, ad e_i, A_J') for nonzero A_J' and ad e_i, i not in J' and at position p."""
    for lower_subset, lower in level.items():
        for i, rows in ads.items():
            if i not in lower_subset:
                p = bisect(lower_subset, i)
                yield lower_subset[:p] + (i,) + lower_subset[p:], -1 if p % 2 else 1, rows, lower


def w1_character(alg: LieAlgebra) -> AlternatingForm:
    """Degree-1 form e_i -> tr(ad e_i), the adjoint character."""
    scale, ads = alg.sparse_ad
    components = {(i,): Fraction(sum(dict(row).get(r, 0) for r, row in rows.items()), scale) for i, rows in ads.items()}
    return AlternatingForm(degree=1, dim=alg.dim, components=components)


def w3_killing(alg: LieAlgebra, x: Vector, y: Vector, z: Vector) -> Fraction:
    """kappa(x, [y, z]): the degree-3 trace form without the permutation sum."""
    return alg.killing_pair(x, alg.bracket(y, z))
