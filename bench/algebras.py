"""Benchmark inputs built from matrix units, independent of liechar.

Every algebra is a dict {(i, j, k): int} of structure constants with
1-based i < j, plus basis names and its Poincare polynomial. The Betti
table expected from liechar is the coefficient list of that polynomial:
gl_n gives prod (1 + t^(2i-1)) for i = 1..n, sl_n the same without
i = 1, the Borel b_n of gl_n gives (1 + t)^n, an abelian C^k gives
(1 + t)^k, and a direct sum multiplies polynomials (Kunneth).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Constants = dict[tuple[int, int, int], int]


@dataclass(frozen=True)
class Algebra:
    name: str
    names: tuple[str, ...]
    constants: Constants
    poincare: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.names)

    def betti(self) -> list[int]:
        return betti_table(self.poincare, self.dim)

    def text(self) -> str:
        """Structure-constant file in liechar's text format."""
        betti = " ".join(map(str, self.betti()))
        lines = [f"# {self.name}, built from matrix units; expected betti {betti}"]
        lines += [f"dim {self.dim}", "basis " + " ".join(self.names)]
        lines += [f"{i} {j} {k} {v}" for (i, j, k), v in sorted(self.constants.items())]
        return "\n".join(lines) + "\n"


def betti_table(poincare: tuple[int, ...], dim: int) -> list[int]:
    """Expected Betti table: the Poincare coefficients, padded to dim + 1."""
    return list(poincare) + [0] * (dim + 1 - len(poincare))


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_pow(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def _odd(degree: int) -> tuple[int, ...]:
    """1 + t^degree."""
    return (1,) + (0,) * (degree - 1) + (1,)


def _from_matrices(name: str, labels: list[str], mats: list[dict], coords, poincare) -> Algebra:
    """Constants of span(mats) under the commutator; coords reads a matrix back."""
    constants: Constants = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = _commutator(mats[i], mats[j])
            for k, v in coords(comm).items():
                if v:
                    constants[(i + 1, j + 1, k + 1)] = v
    return Algebra(name, tuple(labels), constants, poincare)


def _commutator(x: dict, y: dict) -> dict:
    """Sparse matrices as {(row, col): int}."""
    out: dict = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + u * v
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - u * v
    return {key: v for key, v in out.items() if v}


def gl(n: int) -> Algebra:
    """gl_n in the matrix-unit basis: E_ij (i < j), E_ii, E_ji (i < j)."""
    units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    units += [(i, i) for i in range(n)]
    units += [(j, i) for i in range(n) for j in range(i + 1, n)]
    index = {u: pos for pos, u in enumerate(units)}
    poincare: tuple[int, ...] = (1,)
    for i in range(1, n + 1):
        poincare = poly_mul(poincare, _odd(2 * i - 1))
    return _from_matrices(
        f"gl{n}",
        [f"E{a + 1}{b + 1}" for a, b in units],
        [{u: 1} for u in units],
        lambda m: {index[u]: v for u, v in m.items()},
        poincare,
    )


def sl(n: int) -> Algebra:
    """sl_n in the weight basis: E_ij (i < j), h_i = E_ii - E_i+1,i+1, E_ji."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lower = [(j, i) for i, j in upper]
    labels = [f"E{a + 1}{b + 1}" for a, b in upper] + [f"h{i + 1}" for i in range(n - 1)]
    labels += [f"E{a + 1}{b + 1}" for a, b in lower]
    mats = [{u: 1} for u in upper] + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    mats += [{u: 1} for u in lower]
    index = {u: pos for pos, u in enumerate(upper)}
    index.update({u: len(upper) + n - 1 + pos for pos, u in enumerate(lower)})

    def coords(m: dict) -> dict:
        out = {index[u]: v for u, v in m.items() if u[0] != u[1]}
        # a traceless diagonal D equals sum_i a_i h_i with a_i = D_11 + ... + D_ii
        running = 0
        for i in range(n - 1):
            running += m.get((i, i), 0)
            out[len(upper) + i] = running
        return out

    poincare: tuple[int, ...] = (1,)
    for i in range(2, n + 1):
        poincare = poly_mul(poincare, _odd(2 * i - 1))
    return _from_matrices(f"sl{n}", labels, mats, coords, poincare)


def borel(n: int) -> Algebra:
    """Upper-triangular n x n matrices: E_ii, then E_ij (i < j)."""
    units = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {u: pos for pos, u in enumerate(units)}
    return _from_matrices(
        f"b{n}",
        [f"E{a + 1}{b + 1}" for a, b in units],
        [{u: 1} for u in units],
        lambda m: {index[u]: v for u, v in m.items()},
        poly_pow((1, 1), n),
    )


def aff1() -> Algebra:
    """span(E11, E12) in gl_2: [t, s] = s."""
    return _from_matrices(
        "aff1", ["t", "s"], [{(0, 0): 1}, {(0, 1): 1}], lambda m: {1: m.get((0, 1), 0)}, (1, 1)
    )


def abelian(k: int) -> Algebra:
    return Algebra(f"C{k}", tuple(f"z{i + 1}" for i in range(k)), {}, poly_pow((1, 1), k))


def direct_sum(*parts: Algebra) -> Algebra:
    constants: Constants = {}
    names: list[str] = []
    poincare: tuple[int, ...] = (1,)
    for part in parts:
        shift = len(names)
        for (i, j, k), v in part.constants.items():
            constants[(i + shift, j + shift, k + shift)] = v
        names += [f"{label}_{part.name}" for label in part.names]
        poincare = poly_mul(poincare, part.poincare)
    return Algebra("_".join(p.name for p in parts), tuple(names), constants, poincare)


def base_algebras() -> dict[str, Algebra]:
    """The structure-constant files the exact workloads read."""
    sl2 = sl(2)
    algebras = [
        sl2,
        sl(3),
        gl(2),
        gl(3),
        borel(3),
        borel(4),
        direct_sum(gl(2), sl2),
        direct_sum(sl2, aff1(), aff1()),
        direct_sum(sl2, sl(2)),
        direct_sum(borel(4), abelian(3)),
    ]
    return {alg.name: alg for alg in algebras}


# --- exact checks written against plain integers, not liechar -------------


def bracket_table(constants: dict, n: int) -> list[list[dict]]:
    """table[i][j] = {k: c_ij^k} for 0-based i, j, both orders."""
    table = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in constants.items():
        table[i - 1][j - 1][k - 1] = v
        table[j - 1][i - 1][k - 1] = -v
    return table


def jacobi_ok(constants: dict, n: int) -> bool:
    """[[x, y], z] + [[y, z], x] + [[z, x], y] = 0 on every basis triple."""
    table = bracket_table(constants, n)

    def bracket(vec: dict, b: int) -> dict:
        out: dict = {}
        for a, u in vec.items():
            for k, v in table[a][b].items():
                out[k] = out.get(k, 0) + u * v
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in bracket(table[x][y], z).items():
                        total[m] = total.get(m, 0) + v
                if any(total.values()):
                    return False
    return True


BASIS_CANDIDATES = 32


def change_basis(alg: Algebra, rng: random.Random, tag: str) -> Algebra:
    """A seeded unipotent integer change of basis with controlled density.

    Each candidate is P = S U S^-1, with U upper unitriangular with seeded
    entries in -1..1 and S a seeded permutation, so P is unipotent and
    P^-1 is integral: the constants stay integers but lose the sparsity
    of the weight basis. The cost of the exact kernels follows the number
    of nonzero constants, so of the candidates the one at the upper
    quartile of (nonzero count, sum of |constant|) is kept; that pins the
    density from seed to seed while the basis itself stays random.
    """
    drawn = [_changed(alg, rng) for _ in range(BASIS_CANDIDATES)]
    drawn.sort(key=lambda c: (len(c), sum(abs(v) for v in c.values())))
    constants = drawn[(3 * BASIS_CANDIDATES) // 4]
    names = tuple(f"f{i + 1}" for i in range(alg.dim))
    return Algebra(f"{alg.name}_{tag}", names, constants, alg.poincare)


def _changed(alg: Algebra, rng: random.Random) -> Constants:
    n = alg.dim
    perm = list(range(n))
    rng.shuffle(perm)
    upper = [[int(r == c) if r >= c else rng.choice((-1, 0, 1)) for c in range(n)] for r in range(n)]
    p = [[upper[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
    u_inv = _unitriangular_inverse(upper)
    p_inv = [[u_inv[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
    table = bracket_table(alg.constants, n)
    constants: Constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [f_i, f_j] with f_i = sum_a P[a][i] e_a, then back through P^-1
            image = [0] * n
            for a in range(n):
                if not p[a][i]:
                    continue
                for b in range(n):
                    if not p[b][j]:
                        continue
                    for m, v in table[a][b].items():
                        image[m] += p[a][i] * p[b][j] * v
            for k in range(n):
                value = sum(p_inv[k][m] * image[m] for m in range(n) if image[m])
                if value:
                    constants[(i + 1, j + 1, k + 1)] = value
    return constants


def _unitriangular_inverse(u: list[list[int]]) -> list[list[int]]:
    """Back substitution; the unit diagonal keeps every entry integral."""
    n = len(u)
    inv = [[int(r == c) for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c - 1, -1, -1):
            inv[r][c] = -sum(u[r][m] * inv[m][c] for m in range(r + 1, c + 1))
    return inv


def perturb(alg: Algebra, rng: random.Random) -> Algebra:
    """Add 1 to one seeded constant until Jacobi fails."""
    n = alg.dim
    keys = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)]
    while True:
        key = rng.choice(keys)
        constants = dict(alg.constants)
        constants[key] = constants.get(key, 0) + 1
        if not constants[key]:
            del constants[key]
        if not jacobi_ok(constants, n):
            return Algebra(alg.name + "_broken", alg.names, constants, alg.poincare)
