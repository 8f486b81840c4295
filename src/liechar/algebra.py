"""Finite-dimensional Lie algebras over exact rationals.

A LieAlgebra stores antisymmetric structure constants c[i][j][k] for
1-based basis indices i < j; the bracket, adjoint operators, Killing form
and the structural predicates (solvable, nilpotent, semisimple, unimodular)
are all derived from them with Fraction arithmetic, so every decision in
this module is exact.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from . import _Record, linalg
from .linalg import Matrix

Vector = list[Fraction]


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:  # immutable, so shared as it is
        return value
    if isinstance(value, float):
        raise TypeError(f"structure constants must be exact rationals, got float {value!r}")
    return Fraction(value)


class ValidationReport(NamedTuple):
    """Outcome of the Jacobi check; violations are (i, j, k, m) index tuples."""

    ok: bool
    violations: tuple[tuple[int, int, int, int], ...] = ()


class LieAlgebra(_Record):
    """Lie algebra given by structure constants on a fixed basis.

    Attributes:
        dim: dimension n >= 1.
        c: constants as a map (i, j, k) -> Fraction with 1 <= i < j <= n and
            1 <= k <= n; entries for i > j follow by antisymmetry and absent
            entries are zero. Use structure_constant() for reads. Stored
            read-only (a MappingProxyType over the nonzero constants).
        names: n basis labels, decorative only; by default e1, ..., en,
            built on first read. Each is a nonempty str without whitespace
            or '#', so that serialize_algebra writes it back readable.

    A _Record: the three fields are read-only, and == and repr read only
    them, not the cached properties derived from them. hash raises
    TypeError, as c is a mapping.
    """

    dim: int
    c: Mapping[tuple[int, int, int], Fraction]
    names: tuple[str, ...]

    def __init__(
        self, dim: int, c: Mapping[tuple[int, int, int], Fraction], names: tuple[str, ...] | list[str] = ()
    ) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        normalized: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), value in c.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"index out of range in constant ({i},{j},{k})")
            if i == j:
                raise ValueError(f"constant ({i},{j},{k}) has repeated lower indices")
            v = _as_fraction(value)
            if v == 0:
                continue
            if i > j:
                i, j, v = j, i, -v
            key = (i, j, k)
            if key in normalized and normalized[key] != v:
                raise ValueError(f"conflicting values for constant {key}")
            normalized[key] = v
        names = tuple(names)  # a list of labels is stored, compared and shown as a tuple
        if names and len(names) != dim:
            raise ValueError("need one basis name per dimension")
        for label in names:
            # serialize_algebra writes the labels space-separated on the
            # 'basis' line, where parse_algebra must read them back
            if not isinstance(label, str) or not label or "#" in label or any(ch.isspace() for ch in label):
                raise ValueError(f"basis label {label!r} must be a nonempty str without whitespace or '#'")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c", MappingProxyType(normalized))
        if names:  # stored over the default below
            object.__setattr__(self, "names", names)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f"e{i}" for i in range(1, self.dim + 1))

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        """c_{ij}^k, extended to all index orders by antisymmetry."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.c.get((i, j, k), Fraction(0))
        return -self.c.get((j, i, k), Fraction(0))

    def basis_vector(self, i: int) -> Vector:
        v = [Fraction(0)] * self.dim
        v[i - 1] = Fraction(1)
        return v

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y]^k = sum_{i<j} (x^i y^j - x^j y^i) c_{ij}^k."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector length must match the algebra dimension")
        out = [Fraction(0)] * n
        for (i, j, k), cval in self.c.items():
            coeff = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if coeff:
                out[k - 1] += coeff * cval
        return out

    def ad(self, x: Vector) -> Matrix:
        """Adjoint operator of x: column j is [x, e_j]."""
        n = self.dim
        if len(x) != n:
            raise ValueError("vector length must match the algebra dimension")
        m = linalg.zeros(n, n)
        for j in range(1, n + 1):
            col = self.bracket(x, self.basis_vector(j))
            for i in range(n):
                m[i][j - 1] = col[i]
        return m

    def basis_ad(self) -> list[Matrix]:
        """Adjoint operators of the basis vectors, in basis order, as dense
        matrices read from sparse_ad; fresh rows that the caller may change."""
        n = self.dim
        scale, sparse = self.sparse_ad
        ads = [linalg.zeros(n, n) for _ in range(n)]
        for i, rows in sparse.items():
            for r, row in rows.items():
                for t, x in row:
                    ads[i - 1][r][t] = Fraction(x, scale)
        return ads

    @cached_property
    def sparse_ad(self) -> tuple[int, dict[int, dict[int, tuple[tuple[int, int], ...]]]]:
        """(s, {i: {r: ((t, s * ad(e_i)[r][t]), ...)}}): the nonzero adjoints as
        integer sparse rows scaled by the lcm s of the constants' denominators,
        with 1-based basis index i, 0-based row r and column t, read from
        scaled_brackets as ad(e_i)[k][j] = c_ij^k. Built once per algebra and
        shared, so callers must not change it; == and repr ignore it."""
        scale, brackets = self.scaled_brackets
        ads: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for (i, j), row in brackets.items():
            for k, x in row:
                ads.setdefault(i, {}).setdefault(k - 1, []).append((j - 1, x))
                ads.setdefault(j, {}).setdefault(k - 1, []).append((i - 1, -x))
        table = {i: {r: tuple(sorted(row)) for r, row in sorted(rows.items())} for i, rows in sorted(ads.items())}
        return scale, table

    @cached_property
    def toral_weights(self) -> dict[int, tuple[int, ...]]:
        """{i: (s * lambda_1, ..., s * lambda_n)} for each toral basis vector e_i,
        one whose ad is diagonal and nonzero in this basis: [e_i, e_j] =
        lambda_j e_j for every j, with s the scale of sparse_ad. A central e_i
        has every weight 0 and is left out. Read from sparse_ad once per
        algebra and shared, so callers must not change it; == ignores it."""
        weights = {}
        for i, rows in self.sparse_ad[1].items():
            if all(len(row) == 1 and row[0][0] == r for r, row in rows.items()):
                diagonal = [0] * self.dim
                for r, ((_, x),) in rows.items():
                    diagonal[r] = x
                weights[i] = tuple(diagonal)
        return weights

    @cached_property
    def weight_zero_parts(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
        """(zero, balanced): the basis indices j with lambda_j = 0 for the
        weights lambda of every toral vector (toral_weights), and balanced[m]
        the ascending m-subsets of the other indices whose weights sum to 0
        under every toral vector. The subsets of joint weight zero are those
        of zero joined with those of balanced (cohomology.weight_zero_cochains).
        Built once per algebra and shared, so callers must not change it; ==
        ignores it.

        Each index gets one integer key, its toral weights as the digits of a
        balanced base-(2M+1) number, M the sum of |weights| of that toral
        vector: the digits of a subset's keys never carry, so the keys sum to
        0 exactly when each of its weight sums does. The balanced subsets are
        found depth first, a prefix extended only by an index after which the
        later keys can still bring its sum back to 0, so every prefix visited
        starts a balanced subset."""
        keys = [0] * self.dim
        place = 1
        for weights in self.toral_weights.values():
            for j, x in enumerate(weights):
                keys[j] += x * place
            place *= 2 * sum(map(abs, weights)) + 1
        zero = tuple(j for j, key in enumerate(keys, 1) if not key)
        moving = [(j, key) for j, key in enumerate(keys, 1) if key]
        # reach[t]: the key sums of the subsets of moving[t:]
        reach = [{0}]
        for _, key in reversed(moving):
            reach.append(reach[-1] | {x + key for x in reach[-1]})
        reach.reverse()
        balanced: list[list[tuple[int, ...]]] = [[] for _ in range(len(moving) + 1)]

        def extend(start: int, prefix: tuple[int, ...], total: int) -> None:
            if not total:
                balanced[len(prefix)].append(prefix)
            for t in range(start, len(moving)):
                j, key = moving[t]
                if -(total + key) in reach[t + 1]:
                    extend(t + 1, prefix + (j,), total + key)

        extend(0, (), 0)
        return zero, tuple(map(tuple, balanced))

    @cached_property
    def scaled_brackets(self) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """(s, {(i, j): ((k, s * c_ij^k), ...)}): the nonzero brackets as
        integer rows, i < j and k ascending, scaled by the lcm s of the
        constants' denominators. Built once per algebra and shared by
        validate, sparse_ad and the cochain differentials, so callers must
        not change it; == and repr ignore it."""
        keys = sorted(self.c)
        scale, values = linalg.cleared([self.c[key] for key in keys])
        rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j, k), value in zip(keys, values):
            rows.setdefault((i, j), []).append((k, value))
        return scale, {pair: tuple(row) for pair, row in rows.items()}

    def validate(self) -> ValidationReport:
        """Check every Jacobi identity (antisymmetry holds by construction):
        the m-component of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] +
        [[e_k, e_i], e_j] for each triple i < j < k. Violations (i, j, k, m)
        come in lexicographic order.

        One pass over the bracket paths (i, j) -> a -> (a, r) -> m, i < j and
        r not in {i, j}, adds c_ij^a * c_ar^m to the sum of the sorted triple
        {i, j, r}, negated when i < r < j, as (i, j, r) is then an odd
        permutation of it; each cyclic term of a triple is the sum of the paths
        of one of its pairs. So the cost is the number of nonzero products
        c_ij^a * c_ar^m, and a triple that no path reaches holds trivially. The
        sums run in integers, on the constants scaled by the lcm of the
        denominators, once per algebra: c is read-only."""
        return self._validation

    @cached_property
    def _validation(self) -> ValidationReport:
        """validate's report, outside ==."""
        rows = self.scaled_brackets[1]
        # partners[a]: (r, ((m, s * c_ar^m), ...)) for every [e_a, e_r] != 0
        partners: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
        for (i, j), row in rows.items():
            partners.setdefault(i, []).append((j, row))
            partners.setdefault(j, []).append((i, tuple((k, -x) for k, x in row)))
        # totals[(i, j, k)][m]: the Jacobi sum of the sorted triple i < j < k
        totals: defaultdict[tuple[int, int, int], dict[int, int]] = defaultdict(dict)
        for (i, j), row in rows.items():
            for a, x in row:
                for r, inner in partners.get(a, ()):
                    # (i, j, r) is an odd permutation of the sorted triple when i < r < j
                    if r < i:
                        total, sx = totals[r, i, j], x
                    elif r > j:
                        total, sx = totals[i, j, r], x
                    elif r != i and r != j:
                        total, sx = totals[i, r, j], -x
                    else:
                        continue
                    for m, y in inner:
                        total[m] = total.get(m, 0) + sx * y
        violations = sorted((*triple, m) for triple, total in totals.items() for m, value in total.items() if value)
        return ValidationReport(ok=not violations, violations=tuple(violations))

    def killing(self) -> Matrix:
        """Gram matrix of the Killing form kappa(x, y) = tr(ad x . ad y), as
        fresh rows that the caller may change."""
        return [list(row) for row in self._killing]

    @cached_property
    def _killing(self) -> tuple[tuple[Fraction, ...], ...]:
        """kappa_ij = sum of ad_i[r][t] * ad_j[t][r] over the nonzero adjoints
        only, in integers, built once per algebra outside ==."""
        n = self.dim
        scale, ads = self.sparse_ad
        cells = {i: {(r, t): x for r, row in rows.items() for t, x in row} for i, rows in ads.items()}
        kappa = linalg.zeros(n, n)
        for i, ad_i in cells.items():
            for j, ad_j in cells.items():
                if j >= i:
                    value = sum(x * ad_j.get((t, r), 0) for (r, t), x in ad_i.items())
                    kappa[i - 1][j - 1] = kappa[j - 1][i - 1] = Fraction(value, scale * scale)
        return tuple(map(tuple, kappa))

    def killing_pair(self, x: Vector, y: Vector) -> Fraction:
        """kappa(x, y) = tr(ad x . ad y)."""
        return linalg.trace(linalg.mat_mul(self.ad(x), self.ad(y)))

    def _ad_apply(self, i: int, v: dict[int, int]) -> dict[int, int]:
        """s * ad(e_i) v for a sparse integer vector v {0-based index: value}."""
        out = {}
        for r, row in self.sparse_ad[1].get(i, {}).items():
            x = sum(a * v[t] for t, a in row if t in v)
            if x:
                out[r] = x
        return out

    def _bracket_sparse(self, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        """s * [u, v] = sum over i of u_i * s * ad(e_i) v, sparse, in integers."""
        out: dict[int, int] = {}
        for t, x in u.items():
            for r, y in self._ad_apply(t + 1, v).items():
                out[r] = out.get(r, 0) + x * y
        return {r: x for r, x in out.items() if x}

    @staticmethod
    def _span(vectors: list[dict[int, int]]) -> list[dict[int, int]]:
        """Echelon rows of span(vectors), by linalg.echelon."""
        cells = {(r, c): x for r, v in enumerate(vectors) for c, x in v.items()}
        return [row for _, row in linalg.echelon(cells).values()]

    def is_solvable(self) -> bool:
        """Derived series [g, g], [[g,g],[g,g]], ... reaches zero; each term is
        spanned by the brackets of the pairs a < b of the previous one."""
        span = [{t: 1} for t in range(self.dim)]
        while span:
            nxt = self._span([self._bracket_sparse(u, v) for a, u in enumerate(span) for v in span[a + 1 :]])
            if len(nxt) == len(span):
                return False
            span = nxt
        return True

    def is_nilpotent(self) -> bool:
        """Lower central series [g, g], [g, [g, g]], ... reaches zero; each term
        is spanned by ad(e_i) s over the basis and the previous term."""
        span = [{t: 1} for t in range(self.dim)]
        while span:
            nxt = self._span([self._ad_apply(i, s) for i in range(1, self.dim + 1) for s in span])
            if len(nxt) == len(span):
                return False
            span = nxt
        return True

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate."""
        return linalg.determinant(self.killing()) != 0

    def is_unimodular(self) -> bool:
        """tr(ad e_i) = 0 for every basis vector."""
        return all(sum(dict(row).get(r, 0) for r, row in rows.items()) == 0 for rows in self.sparse_ad[1].values())


def lie_algebra(
    dim: int,
    brackets: dict[tuple[int, int, int], Fraction | int | str] | None = None,
    names: tuple[str, ...] | list[str] = (),
) -> LieAlgebra:
    """Convenience constructor accepting int/str constants, e.g. {(1, 2, 3): 1}."""
    constants = {key: _as_fraction(v) for key, v in (brackets or {}).items()}
    return LieAlgebra(dim=dim, c=constants, names=tuple(names))
