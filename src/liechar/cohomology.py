"""Cochain complex of alternating forms with trivial coefficients.

The degree-k differential acts by

    (d f)(x_1, ..., x_{k+1}) = sum over i < j of
        (-1)^(i+j) * f([x_i, x_j], x_1, ..., omit x_i, ..., omit x_j, ..., x_{k+1})

with 1-based argument positions. Each d_k is built sparse, from the nonzero
structure constants only, and in integers: the algebra's scaled_brackets
holds s * c_ij^k for the lcm s of the constants' denominators, built once
per algebra, so the cells of s * d_k are sums of ints and
DifferentialMatrix carries s as its scale. Ranks and exactness come from
one sparse fraction-free integer elimination, linalg.echelon, which takes
the integer cells as they stand; entries and apply divide by s, and the
solve of a primitive scales its target by s, so every rank, Betti number
and primitive is that of d_k itself. Tests certify every rank against both
dense elimination routes and every primitive against a dense solve.
Every sparse matrix this module eliminates has integer cells, read off
scaled_brackets; a form in apply and a central vector become integers
through linalg.cleared, and a solve's target inside sparse_solve.

cochain_complex ranks only the subcomplex of cochains of joint weight zero
under the toral basis vectors, those e_i whose ad is diagonal in the given
basis (LieAlgebra.toral_weights). Two toral vectors h_s, h_t commute,
because [h_s, h_t] is a multiple of both h_s and h_t, so the contraction
i_h of each preserves every joint weight space. On a space where some
weight lambda is not 0, the Cartan formula L_h = d i_h + i_h d gives
lambda * id = d i_h + i_h d, so that space is acyclic (Hochschild-Serre
1953), and b_k = |C^k_0| - rank d_k|_0 - rank d_{k-1}|_0. Each nonzero
cell of d_k joins two subsets of equal weight, so only the weight-zero
rows and columns are ever built. Nor are the other cochains listed: a
weight-zero k-subset is a subset of the indices of weight 0 under every
toral vector joined with a balanced subset (weights summing to 0) of the
rest, and weight_zero_cochains generates exactly these, from the balanced
subsets that LieAlgebra.weight_zero_parts finds once per algebra. A basis
with no toral vector, such as so3's or any dense one, has every cochain at
weight zero. There cochain_complex ranks the quotient by the split centre
instead (below).
Inside the subcomplex, d_0, d_1, ... are ranked in order and each
d_k only on the columns that are not kept (pivot) rows of d_{k-1}: those
rows are independent, so the other coordinate vectors and im d_{k-1} span
C^k_0, and d_k vanishes on im d_{k-1}. Both steps need d o d = 0, that is
Jacobi. cochain_complex checks it once and builds each d_k once.

The split centre (central_split): let z_1, ..., z_c be central vectors
independent modulo [g, g]. A complement V of span(z) that contains
[g, g] is an ideal, since [g, V] lies in [g, g], and g = V + span(z) as
Lie algebras, since z is central. So g is q + F^c with q = g / span(z)
isomorphic to V, and by the Kunneth formula b(g) = b(q) (1 + t)^c, exactly.
When the basis has no toral vector, cochain_complex reads the centre and
[g, g] off the scaled adjoints, puts the chosen z in reduced row echelon
form, drops the basis index that leads each z (that e_m is minus the rest
of its z modulo span(z)), and ranks q's complex. c is as large as it can
be, so q's centre lies in [q, q] and nothing is left to split. An
abelian g leaves q of dimension 0, with the table (1 + t)^dim. A centre
inside [g, g], as in a nilpotent Heisenberg algebra, or none, as in a
semisimple one, splits nothing. With toral vectors the weight-zero
subcomplex is already small, and the search is skipped.

Poincare duality (Koszul, Bull. SMF 78, 1950; Hazewinkel, "A duality
theorem for the cohomology of Lie algebras", Math. USSR-Sb. 12, 1970): when
the ranked algebra is unimodular, tr ad x = 0 for every x, d_(n-1) is 0, and
as d is a derivation, d(a ^ b) = 0 for a in C^k and b in C^(n-1-k) makes
d_(n-1-k) the transpose of d_k, up to sign, under the nondegenerate pairing
C^k x C^(n-k) -> C^n, which matches each k-subset with its complement. So
rank d_k = rank d_(n-1-k), and cochain_complex builds and ranks only d_0,
..., d_m, m = min(top, (n - 1) // 2), and reads the ranks above m and the
counts |C^k_0| = |C^(n-k)_0| off the mirror. The pairing keeps weight zero:
a toral h has total weight tr ad h = 0, so the complement of a weight-zero
subset has weight zero. And it holds for the split, whose q is unimodular
exactly when g is, g being q + F^c as Lie algebras. A non-unimodular algebra
has rank d_(n-1) = 1 against rank d_0 = 0, and its whole chain is ranked.

Every exact elimination stops at a rank it can prove (linalg.echelon's
bound), as its kept rows are then a full echelon basis, the same rows as an
unbounded run. The three bounds are theorems, not tuning values:
- _ranked ranks d_k on the columns left after d_(k-1)'s pivots, so
  rank d_k <= min(|C^(k+1)_0|, |C^k_0| - rank d_(k-1)), its rows and its
  columns. In the middle degree k = n/2 - 1 of an even-dimensional
  unimodular ranked algebra, duality gives rank d_k = rank d_(k+1), and
  im d_k lies in ker d_(k+1) inside C^(n/2)_0, so 2 rank d_k <= |C^(n/2)_0|:
  half the rows. That differential is the largest, and its rank often meets
  the bound (35 of 70 rows on sl3), so the rest of its rows are never
  reduced.
- central_split bounds the rank of [g, g] by n, so a perfect algebra stops
  after n of its C(n, 2) brackets, and it reduces each central vector in
  integers against those rows and the central vectors chosen before it.
- The class solve of a trace form on d_(k-1) stops at rank d_(k-1) + 1 kept
  rows of [d_(k-1) | target], the rank read off the table
  (CochainComplex.rank). That is more rows than d_(k-1) has rank, so the
  target column leads one of them and the class is nonzero; an exact target
  never gets there, and its primitive is the unbounded one.
betti, is_exact and DifferentialMatrix.rank stay unbounded, as the
reference routes.

The trace-form classes (CochainComplex.trace_class) are solved on g's own
weight-zero d_k and d_{k-1}: the ranked ones, or, past them or when the
table came from a quotient, those two built for the class's degree. They
give the full bases' results: trace forms are ad-invariant, so of weight
zero; the full d_{k-1} is block-diagonal by weight, its weight-zero
columns in the subcomplex's order; and the reduced-echelon solution of
linalg.sparse_solve (free columns at 0) is 0 off weight zero and the
subcomplex solve on it. _solve refuses a form with a component outside
the rows of d_{k-1}, so a trace form that is not a weight-zero cocycle
raises ValueError. betti, is_closed and is_exact keep the full bases, as
the references of verify and the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from . import linalg
from .algebra import LieAlgebra
from .forms import AlternatingForm, cochain_basis, trace_forms

# Betti tables, in-process on a 2-vCPU shared host (Python 3.11.7, best of
# 3). In matrix-unit bases, on the weight-zero subcomplex, with integer
# differentials and generated cochains: b4+C^3 (dim 13) 0.9 ms and b4+C^4
# (dim 14) 1.0 ms; above the cap, measured in a copy with the cap raised,
# b5 (dim 15) 1.2 ms, sl4 (dim 15) 31 ms and gl4 (dim 16, middle degree 426
# of 12,870 cochains) 61 ms; under cProfile, echelon and the build of d_k
# take 93% of gl4's. (Fraction differentials and filtered cochains took
# 9.7, 19, 39, 89 and 117 ms on the same run.)
# A unipotent basis change leaves no toral vector. With a centre outside
# [g, g] the quotient by it is ranked (central_split): dense b4+C^3 (dim 13)
# 0.11-0.21 s and b4+C^4 (dim 14) 0.08-0.17 s, against 26 s for b4+C^3
# ranked whole. Without one the whole complex is ranked, and its middle
# differential grows as C(n, n/2), dense: in bases with integer entries
# sl3+aff1^2 (dim 12) 11 s and sl3+sl2+aff1 (dim 13) 59 s, with
# half-integer ones 17 s and 273 s (one run each, measured with Fraction
# differentials, before the integer build). Those inputs set the cap: it
# stays at 14, where the matrix-unit and split inputs above take under a
# second, and they already take a minute or more at dimension 13.
# Poincare duality spares a unimodular algebra the upper half of its chain,
# but not the middle degree, which dominates: in half-integer bases dense
# sl3+sl2 (dim 11) went 1.70 -> 1.06 s and dense gl3+sl2 (dim 12, ranked as
# its quotient sl3+sl2) 6.55 -> 5.18 s (medians of three pairs), and in the
# latter the echelons of d_4 and d_5 take 3.5 of 4.2 s, on integer rows of
# up to 239 bits.
# The rank bounds (module docstring) stop an echelon only where they are
# met: the column bound of d_k where b_k = 0, the middle one where
# b_(n/2) = 0. Dense gl3 (dim 9, ranked as sl3) has both, and its table went
# 15.3-16.2 -> 10.6-10.8 ms (the bench's exact_dense job, median over 30
# seeds of the best of 24, two runs), but the cap inputs have neither:
# dense gl3+sl2 (half-integer, b = 1 1 0 2 2 1 2 ...; its quotient sl3+sl2
# has odd dimension) took 5.2-5.7 s before and 3.9-5.8 s after, and dense
# sl3+aff1^2 (integer, not unimodular, every b_k > 0 from b_3 to b_10)
# 8.3-10.8 s and 8.8-10.4 s (two runs each). Only a search for a torus,
# which would give those bases toral vectors, can lift the cap.
BETTI_DIM_CAP = 14


class DifferentialMatrix(NamedTuple):
    """Matrix of d_k: degree-k cochains to degree-(k+1) cochains, held in
    integers as scale * d_k.

    nonzeros[(r, c)] is the integer scale * d_k at row basis subset r (size
    k+1) and column subset c (size k); absent cells are zero. scale is the
    lcm of the denominators of the algebra's constants (its scaled_brackets),
    so the integer cells are sums of scaled constants; 1 for integer
    constants. rank reads the integer cells as they stand; entries and apply
    divide by scale, so they give the rational d_k.
    """

    degree: int
    row_basis: list[tuple[int, ...]]
    col_basis: list[tuple[int, ...]]
    nonzeros: dict[tuple[int, int], int]
    scale: int

    @property
    def entries(self) -> linalg.Matrix:
        """Dense rational view of d_k, built afresh on each access."""
        dense = linalg.zeros(len(self.row_basis), len(self.col_basis))
        for (r, c), value in self.nonzeros.items():
            dense[r][c] = Fraction(value, self.scale)
        return dense

    def rank(self) -> int:
        return len(linalg.echelon(self.nonzeros))

    def apply(self, form: AlternatingForm) -> list[Fraction]:
        """d_k of form, in row_basis order."""
        if form.degree != self.degree:
            raise ValueError(f"form degree {form.degree} does not match d_{self.degree}")
        # the components over their common denominator, so the sums are of ints
        denominator, numerators = linalg.cleared(form.component_vector(self.col_basis))
        image = [0] * len(self.row_basis)
        for (r, c), value in self.nonzeros.items():
            if numerators[c]:
                image[r] += value * numerators[c]
        denominator *= self.scale
        return [Fraction(x, denominator) for x in image]


def differential_matrix(alg: LieAlgebra, k: int) -> DifferentialMatrix:
    """Matrix of the degree-k differential on the full subset bases."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    return subcomplex_differential(alg, k, cochain_basis(n, k + 1), cochain_basis(n, k))


def subcomplex_differential(
    alg: LieAlgebra, k: int, row_basis: list[tuple[int, ...]], col_basis: list[tuple[int, ...]]
) -> DifferentialMatrix:
    """Matrix of d_k from the span of col_basis to the span of row_basis, in
    integers, summed from alg.scaled_brackets with its scale.

    Only the given rows are built, and every column that one of them reaches
    must be in col_basis: the full bases, or the weight-zero ones of a
    Jacobi-valid bracket (see weight_zero_cochains).
    """
    # (i, j) -> ((a, s * c_ij^a), ...), i < j, as in every pair of an
    # ascending row subset
    scale, brackets = alg.scaled_brackets
    col_index = {subset: pos for pos, subset in enumerate(col_basis)}
    pairs = [(i, j, (i + j) % 2) for i, j in combinations(range(k + 1), 2)]
    sums: dict[tuple[int, int], int] = {}
    for r, subset in enumerate(row_basis):
        for i, j, parity in pairs:
            terms = brackets.get((subset[i], subset[j]))
            if terms is None:
                continue
            rest = subset[:i] + subset[i + 1 : j] + subset[j + 1 :]
            for a, x in terms:
                # sorting (a,) + rest moves a past the pos smaller entries,
                # so the entry is (-1)^(i+j+pos) * c_ij^a
                pos = bisect_left(rest, a)
                if pos < len(rest) and rest[pos] == a:
                    continue
                cell = (r, col_index[rest[:pos] + (a,) + rest[pos:]])
                sums[cell] = sums.get(cell, 0) + (-x if (pos + parity) % 2 else x)
    nonzeros = {cell: value for cell, value in sums.items() if value}
    return DifferentialMatrix(degree=k, row_basis=row_basis, col_basis=col_basis, nonzeros=nonzeros, scale=scale)


def weight_zero_cochains(alg: LieAlgebra, k: int) -> list[tuple[int, ...]]:
    """Lexicographic k-subsets S with sum of lambda_j over j in S zero for the
    weights lambda of every toral basis vector (alg.toral_weights): the
    degree-k cochains of joint weight zero. All of them when there is no
    toral vector, as every index then has weight zero. Generated, not
    filtered: each balanced subset of the indices of nonzero weight joined
    with each subset of the indices of weight zero (alg.weight_zero_parts)."""
    zero, balanced = alg.weight_zero_parts
    return sorted(
        tuple(sorted(moving + rest))
        for m in range(max(0, k - len(zero)), min(k, len(balanced) - 1) + 1)
        for moving in balanced[m]
        for rest in combinations(zero, k - m)
    )


def check_betti_size(alg: LieAlgebra) -> None:
    """Refuse, with ValueError, an algebra of dimension over BETTI_DIM_CAP."""
    if alg.dim > BETTI_DIM_CAP:
        raise ValueError(f"dimension {alg.dim} exceeds the Betti cap {BETTI_DIM_CAP}")


def _differential(alg: LieAlgebra, k: int) -> DifferentialMatrix | None:
    """d_k; None below degree 0 and in degree dim, where it maps to nothing."""
    return differential_matrix(alg, k) if 0 <= k < alg.dim else None


def betti(alg: LieAlgebra, k: int) -> int:
    """dim ker(d_k) - rank(d_{k-1}), from the full sparse ranks of both."""
    n = alg.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    check_betti_size(alg)
    d_k, d_prev = _differential(alg, k), _differential(alg, k - 1)
    return comb(n, k) - (d_k.rank() if d_k else 0) - (d_prev.rank() if d_prev else 0)


def is_closed(alg: LieAlgebra, form: AlternatingForm) -> bool:
    if form.dim != alg.dim:
        raise ValueError("form dimension does not match the algebra")
    d_k = _differential(alg, form.degree)
    return d_k is None or not any(d_k.apply(form))


def is_exact(alg: LieAlgebra, form: AlternatingForm) -> tuple[bool, AlternatingForm | None]:
    """Solve d(mu) = form; returns (True, some primitive mu) when solvable.

    Only closed forms are meaningful here; calling with a non-closed form
    is an error. Degree-0 forms are exact exactly when they vanish.
    """
    if not is_closed(alg, form):
        raise ValueError("exactness asked for a non-closed form")
    return _solve(_differential(alg, form.degree - 1), form)


def _solve(
    d_prev: DifferentialMatrix | None, form: AlternatingForm, rank: int | None = None
) -> tuple[bool, AlternatingForm | None]:
    """is_exact for a closed form, given d_prev = d_{degree-1} (None in degree 0)
    and, if known, its rank, which stops the solve at a nonzero class (see
    linalg.sparse_solve); a form with a component outside d_prev.row_basis
    raises ValueError."""
    if d_prev is None:
        zero = form.is_zero()
        return zero, (AlternatingForm(0, form.dim, {}) if zero else None)
    target = form.component_vector(d_prev.row_basis)
    if sum(map(bool, target)) != len(form.components):
        raise ValueError("form has a component of nonzero weight")
    # d_prev.nonzeros holds scale * d_(k-1), so the target is scaled too
    scaled = [x * d_prev.scale for x in target]
    solution = linalg.sparse_solve(d_prev.nonzeros, len(d_prev.col_basis), scaled, rank)
    if solution is None:
        return False, None
    primitive = AlternatingForm(
        degree=form.degree - 1,
        dim=form.dim,
        components={subset: solution[pos] for pos, subset in enumerate(d_prev.col_basis)},
    )
    return True, primitive


# Per-degree status labels of a trace-form class.
STATUS_ZERO = "zero form"
STATUS_EXACT = "exact"
STATUS_NONZERO_CLASS = "nonzero class"


class CochainComplex(NamedTuple):
    """The complex of alg in degrees 0..top, top = len(betti) - 1: its Betti
    numbers, the differentials d_0, ..., d_m of the weight-zero complex that
    was ranked, and the number split of central vectors split off. m is
    min(top, dim - 1), or min(top, (dim - 1) // 2) when the ranked algebra is
    unimodular (Poincare duality gives the ranks above). With split 0 the
    ranked complex is alg's own; otherwise it is that of q = alg / span(z)
    (central_split), and betti is q's table times (1 + t)^split."""

    alg: LieAlgebra
    betti: tuple[int, ...]
    ranked: tuple[DifferentialMatrix, ...]
    split: int = 0

    def differential(self, k: int) -> DifferentialMatrix:
        """alg's weight-zero d_k, 0 <= k <= min(top, dim - 1): the ranked one,
        or built afresh on each call past the ranked ones or when the table
        came from a quotient."""
        if not self.split and k < len(self.ranked):
            return self.ranked[k]
        return subcomplex_differential(
            self.alg, k, weight_zero_cochains(self.alg, k + 1), weight_zero_cochains(self.alg, k)
        )

    def rank(self, k: int) -> int:
        """Rank of alg's weight-zero d_k, -1 <= k < len(betti), read off the
        table: r_j = |C^j_0| - b_j - r_(j-1) from r_(-1) = 0, as the other
        weights are acyclic and the table is alg's (module docstring)."""
        r = 0
        for j in range(k + 1):
            r = len(weight_zero_cochains(self.alg, j)) - self.betti[j] - r
        return r

    @property
    def differentials(self) -> tuple[DifferentialMatrix, ...]:
        """alg's weight-zero d_0, ..., d_min(top, dim - 1), by differential()."""
        return tuple(map(self.differential, range(min(len(self.betti), self.alg.dim))))

    def trace_class(self, form: AlternatingForm) -> tuple[str, AlternatingForm | None]:
        """Status of a trace form's class, with a primitive when exact (else
        None), closed on alg's d_k and solved on its d_{k-1}. A form above the
        top degree, or one that is not a weight-zero cocycle, raises ValueError."""
        k = form.degree
        if k >= len(self.betti):
            raise ValueError(f"degree {k} above the top degree {len(self.betti) - 1} of the complex")
        if form.is_zero():
            return STATUS_ZERO, None
        if k < self.alg.dim and any(self.differential(k).apply(form)):
            raise ValueError("exactness asked for a non-closed form")
        exact, primitive = _solve(self.differential(k - 1) if k else None, form, self.rank(k - 1))
        return (STATUS_EXACT if exact else STATUS_NONZERO_CLASS), primitive


def central_split(alg: LieAlgebra) -> tuple[LieAlgebra | None, int]:
    """(q, c) for c central vectors z_1, ..., z_c independent modulo [g, g],
    as many as there are: q = g / span(z), in the images of the basis vectors
    that lead no row of the reduced z, or None when c = dim. (alg, 0) when the
    centre lies in [g, g]. The centre and [g, g] are read from the scaled
    adjoints by linalg.echelon."""
    n = alg.dim
    # x = s * [e_i, e_(t+1)]^(r+1): row (r, t) of the equations of the
    # centre, at column i - 1, and for i < t + 1 row (i, t) of the brackets
    # that span [g, g], at column r
    equations: dict[tuple[int, int], int] = {}
    brackets: dict[tuple[int, int], int] = {}
    for i, rows in alg.sparse_ad[1].items():
        for r, row in rows.items():
            for t, x in row:
                equations[r * n + t, i - 1] = x
                if i <= t:
                    brackets[(i - 1) * n + t, r] = x
    derived = linalg.echelon(brackets, n)
    if len(derived) == n:
        return alg, 0
    # the central vectors independent of [g, g] and of the central vectors
    # chosen before them: those whose integer row does not vanish when
    # reduced against the echelon rows of both
    chosen = []
    for z in linalg.kernel(equations, n):
        row = {m: x for m, x in enumerate(linalg.cleared(z)[1]) if x}
        lead = linalg.reduce_row(row, derived)
        if lead is not None:
            derived[lead] = (-1, row)
            chosen.append(z)
    if not chosen:
        return alg, 0
    reduced, leads = linalg.row_reduce(chosen)
    if len(leads) == n:
        return None, n
    index = {m + 1: pos for pos, m in enumerate(sorted(set(range(n)) - set(leads)), 1)}
    # modulo span(z), e_lead is minus the components of its z at the kept indices
    rewrite = {lead + 1: [(index[t], -z[t - 1]) for t in index if z[t - 1]] for z, lead in zip(reduced, leads)}
    constants: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), value in alg.c.items():
        if i in index and j in index:
            for m, coeff in rewrite[k] if k in rewrite else ((index[k], 1),):
                key = (index[i], index[j], m)
                constants[key] = constants.get(key, 0) + value * coeff
    return LieAlgebra(dim=len(index), c=constants), len(leads)


def _ranked(alg: LieAlgebra, top: int) -> tuple[tuple[int, ...], tuple[DifferentialMatrix, ...]]:
    """alg's Betti numbers in degrees 0..top (at most dim) and its weight-zero
    d_0, ..., d_m, each built once and ranked on the columns that are not
    pivot rows of the one before it: m = min(top, dim - 1), or, when alg is
    unimodular, min(top, (dim - 1) // 2), with the ranks and cochain counts
    above m read off by Poincare duality."""
    n = alg.dim
    dual = alg.is_unimodular()
    last = min(top, (n - 1) // 2 if dual else n - 1)
    cochains = weight_zero_cochains(alg, 0)
    sizes = [len(cochains)]
    ranks = []
    differentials = []
    pivots: set[int] = set()
    for k in range(last + 1):
        rows = weight_zero_cochains(alg, k + 1)
        d_k = subcomplex_differential(alg, k, rows, cochains)
        kept = {cell: value for cell, value in d_k.nonzeros.items() if cell[1] not in pivots}
        # rank bounds (module docstring): the rows, the columns left, and in
        # the middle degree of an even dimension half the rows
        bound = min(len(rows), len(cochains) - len(pivots))
        if dual and 2 * (k + 1) == n:
            bound = min(bound, len(rows) // 2)
        pivots = {r for r, _ in linalg.echelon(kept, bound).values()}
        ranks.append(len(pivots))
        sizes.append(len(rows))
        differentials.append(d_k)
        cochains = rows
    if dual:
        # rank d_k = rank d_(n-1-k) and |C^k_0| = |C^(n-k)_0| (module docstring)
        ranks += [ranks[n - 1 - k] for k in range(last + 1, min(top + 1, n))]
        sizes += [sizes[n - k] for k in range(last + 2, top + 1)]
    ranks.append(0)  # d_n maps to nothing
    table = tuple(sizes[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1))
    return table, tuple(differentials)


def cochain_complex(alg: LieAlgebra, top: int | None = None) -> CochainComplex:
    """The complex up to degree top (default and at most dim), ranked as the
    module docstring sets out: a basis with no toral vector ranks the quotient
    by its split centre, and a unimodular algebra only the lower half of its
    chain. A dimension over BETTI_DIM_CAP or a bracket that fails Jacobi
    (named by its first violation), or a negative top, raises ValueError."""
    n = alg.dim
    if top is not None and top < 0:
        raise ValueError(f"top degree {top} is negative")
    check_betti_size(alg)
    violations = alg.validate().violations
    if violations:
        raise ValueError(f"Jacobi identity fails at (i, j, k, m) = {violations[0]}: no cochain complex")
    top = n if top is None else min(top, n)
    quotient, split = (alg, 0) if alg.toral_weights else central_split(alg)
    table, ranked = _ranked(quotient, min(top, quotient.dim)) if quotient else ((1,), ())
    # Kunneth: g = q + F^split, so b(g) = b(q) * (1 + t)^split
    table = tuple(sum(comb(split, k - i) * b for i, b in enumerate(table[: k + 1])) for k in range(top + 1))
    return CochainComplex(alg, table, ranked, split)


def betti_table(alg: LieAlgebra, max_degree: int | None = None) -> list[int]:
    """Betti numbers in degrees 0..max_degree (default and at most dim)."""
    return list(cochain_complex(alg, max_degree).betti)


def class_report(complex_: CochainComplex) -> dict[int, str]:
    """Status of the odd trace-form classes in every degree up to the top of
    complex_, from one trace_forms recursion."""
    degrees = range(1, len(complex_.betti), 2)
    if not degrees:
        return {}
    forms = trace_forms(complex_.alg, degrees[-1])
    return {k: complex_.trace_class(forms[k])[0] for k in degrees}
