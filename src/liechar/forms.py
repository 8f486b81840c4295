"""Alternating forms and the odd trace forms of the adjoint representation.

The degree-k trace form on basis vectors (e_{i_1}, ..., e_{i_k}) is

    (1/k) * sum over permutations s of sgn(s) * tr(ad e_{i_s(1)} . ... . ad e_{i_s(k)})

with normalization 1/k, not 1/k!; the k=3 form factors through the Killing
form as kappa(x, [y, z]) and vanishes identically in every even degree.

The k!-term sum is never expanded. The alternating product of an index
tuple J, A_J = sum over s of sgn(s) * ad e_{j_s(0)} . ... . ad e_{j_s(m-1)},
splits on its first factor as A_J = sum_p (-1)^p * ad e_{j_p} . A_{J minus j_p}
with A_() = I. trace_form builds one level |J| = 1 .. k-1 at a time and
takes w_k(I) = (1/k) * sum_p (-1)^p * tr(ad e_{i_p} . A_{I minus i_p}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def zero_form(alg: LieAlgebra, degree: int) -> AlternatingForm:
    return AlternatingForm(degree=degree, dim=alg.dim, components={})


def trace_form(alg: LieAlgebra, k: int) -> AlternatingForm:
    """Degree-k trace form of the adjoint representation, exactly."""
    if not 1 <= k <= alg.dim:
        raise ValueError(f"degree {k} outside [1, {alg.dim}]")
    ads = alg.basis_ad()
    indices = range(1, alg.dim + 1)
    level = {(): linalg.identity(alg.dim)}
    for size in range(1, k):
        level = {subset: _alternating_product(ads, subset, level) for subset in combinations(indices, size)}
    components = {}
    inv_k = Fraction(1, k)
    for subset in combinations(indices, k):
        total = Fraction(0)
        for p, i in enumerate(subset):
            rest = level[subset[:p] + subset[p + 1 :]]
            # tr(ad e_i . A_rest) without forming the product
            term = sum(x * rest[c][r] for r, row in enumerate(ads[i - 1]) for c, x in enumerate(row) if x)
            total += -term if p % 2 else term
        value = inv_k * total
        if value != 0:
            components[subset] = value
    return AlternatingForm(degree=k, dim=alg.dim, components=components)


def _alternating_product(ads: list[linalg.Matrix], subset: tuple[int, ...], lower: dict) -> linalg.Matrix:
    """A_J = sum_p (-1)^p ad e_{j_p} . A_{J minus j_p}, from the level below J."""
    out = linalg.zeros(len(ads), len(ads))
    for p, i in enumerate(subset):
        rest = lower[subset[:p] + subset[p + 1 :]]
        for out_row, ad_row in zip(out, ads[i - 1]):
            for t, x in enumerate(ad_row):
                if x:
                    coef = -x if p % 2 else x
                    for c, y in enumerate(rest[t]):
                        out_row[c] += coef * y
    return out


def w1_character(alg: LieAlgebra) -> AlternatingForm:
    """Degree-1 form e_i -> tr(ad e_i), the adjoint character."""
    components = {}
    for i, ad in enumerate(alg.basis_ad(), start=1):
        value = linalg.trace(ad)
        if value != 0:
            components[(i,)] = value
    return AlternatingForm(degree=1, dim=alg.dim, components=components)


def w3_killing(alg: LieAlgebra, x: Vector, y: Vector, z: Vector) -> Fraction:
    """kappa(x, [y, z]): the degree-3 trace form without the permutation sum."""
    return alg.killing_pair(x, alg.bracket(y, z))
