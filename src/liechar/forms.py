"""Alternating forms and the odd trace forms of the adjoint representation.

The degree-k trace form on basis vectors (e_{i_1}, ..., e_{i_k}) is

    (1/k) * sum over permutations s of sgn(s) * tr(ad e_{i_s(1)} . ... . ad e_{i_s(k)})

with normalization 1/k, not 1/k!; the k=3 form factors through the Killing
form as kappa(x, [y, z]), and every even-degree form vanishes by cyclicity.

The k!-term sum is never expanded. The alternating product of an index
tuple J, A_J = sum over s of sgn(s) * ad e_{j_s(0)} . ... . ad e_{j_s(m-1)},
splits on its first factor as A_J = sum_p (-1)^p * ad e_{j_p} . A_{J minus j_p},
and w_m(J) = tr(A_J)/m. Both vanish where every face does, so trace_forms
keeps only the nonzero A_J of each level as sparse integer maps
{row: {col: value}}, visits only the subsets J' + {i} with A_{J'} and ad e_i
nonzero, and drops cancelled cells. It traces the top level k unbuilt, as
w_k(I) = (1/k) * sum_p (-1)^p * tr(ad e_{i_p} . A_{I minus i_p}).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import combinations

from . import _Record, linalg
from .algebra import LieAlgebra, Vector


def permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def cochain_basis(dim: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographic k-subsets of {1..dim}: the basis of degree-k cochains,
    the index subsets of an AlternatingForm's components."""
    return list(combinations(range(1, dim + 1), k))


class AlternatingForm(_Record):
    """Degree-k alternating multilinear form on a dim-n space.

    Components are stored on sorted index subsets (1-based, ascending);
    absent subsets are zero. Degree 0 is a single scalar stored at ().
    A _Record: the fields degree, dim and components are read-only, and ==
    and repr read only them; hash raises TypeError, as components is a dict.
    """

    degree: int
    dim: int
    components: dict[tuple[int, ...], Fraction]

    def __init__(self, degree: int, dim: int, components: dict[tuple[int, ...], Fraction]) -> None:
        if not 0 <= degree <= dim:
            raise ValueError("degree must lie in [0, dim]")
        cleaned = {}
        for subset, value in components.items():
            if len(subset) != degree:
                raise ValueError(f"subset {subset} has wrong size for degree {degree}")
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"subset {subset} must be strictly increasing")
            if subset and not (1 <= subset[0] and subset[-1] <= dim):
                raise ValueError(f"subset {subset} out of range")
            if isinstance(value, float):
                raise TypeError(f"form components must be exact rationals, got float {value!r}")
            v = Fraction(value)
            if v != 0:
                cleaned[subset] = v
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
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


def trace_forms(alg: LieAlgebra, top: int) -> dict[int, AlternatingForm]:
    """Trace forms of degrees 1..top from one recursion: each degree below top
    read off its level as that is built, the top level traced unbuilt."""
    if not 1 <= top <= alg.dim:
        raise ValueError(f"degree {top} outside [1, {alg.dim}]")
    scale, ads = alg.sparse_ad  # integers: level m holds scale^m * A_J
    level = {(i,): {r: dict(row) for r, row in rows.items()} for i, rows in ads.items()}
    traces = [{subset: sum(cells.get(r, 0) for r, cells in rows.items()) for subset, rows in level.items()}]
    for m in range(2, top + 1):
        products: dict[tuple[int, ...], dict[int, dict[int, int]]] = {}
        totals: dict[tuple[int, ...], int] = {}
        for subset, sign, rows, lower in _cofaces(ads, level):
            if m == top:  # tr(ad e_i . A_rest) without forming the product
                term = sum(x * lower[t][r] for r, row in rows.items() for t, x in row if r in lower.get(t, ()))
                totals[subset] = totals.get(subset, 0) + sign * term
                continue
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
                totals[subset] = sum(cells.get(r, 0) for r, cells in kept.items())
        traces.append(totals)
    return {
        m: AlternatingForm(degree=m, dim=alg.dim, components={s: Fraction(v, m * scale**m) for s, v in t.items()})
        for m, t in enumerate(traces, 1)
    }


def trace_form(alg: LieAlgebra, k: int) -> AlternatingForm:
    """Degree-k trace form of the adjoint representation, exactly: degree k of
    trace_forms. An even degree, or one above the number of nonzero adjoints
    (so that every k-subset meets a zero one), is 0 without the recursion."""
    if 1 <= k <= alg.dim and (k % 2 == 0 or k > len(alg.sparse_ad[1])):
        return AlternatingForm(degree=k, dim=alg.dim, components={})
    return trace_forms(alg, k)[k]


def _cofaces(ads: dict, level: dict):
    """(J' + {i}, (-1)^p, ad e_i, A_J') for nonzero A_J' and ad e_i, i not in J' and at position p."""
    for lower_subset, lower in level.items():
        for i, rows in ads.items():
            if i not in lower_subset:
                p = bisect(lower_subset, i)
                yield lower_subset[:p] + (i,) + lower_subset[p:], -1 if p % 2 else 1, rows, lower


def w1_character(alg: LieAlgebra) -> AlternatingForm:
    """Degree-1 form e_i -> tr(ad e_i), the adjoint character."""
    return trace_forms(alg, 1)[1]


def w3_killing(alg: LieAlgebra, x: Vector, y: Vector, z: Vector) -> Fraction:
    """kappa(x, [y, z]): the degree-3 trace form without the permutation sum."""
    return alg.killing_pair(x, alg.bracket(y, z))
