"""Checks of liechar outputs against answers computed without liechar.

Each check returns None when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from algebras import bracket_table, poly_mul, poly_pow

# Dimension and Poincare polynomial of each catalog algebra.
CATALOG_ALGEBRAS = {
    **{f"abelian({n})": (n, poly_pow((1, 1), n)) for n in range(1, 7)},
    "heisenberg3": (3, (1, 2, 2, 1)),
    "affine1": (2, (1, 1)),
    "borel_sl2": (2, (1, 1)),
    "sl2": (3, (1, 0, 0, 1)),
    "so3": (3, (1, 0, 0, 1)),
    "sl2_plus_abelian2": (5, poly_mul((1, 0, 0, 1), (1, 2, 1))),
}

CATALOG_ENTRIES = (
    {("algebra", name) for name in CATALOG_ALGEBRAS}
    | {("frame", f"identity({n})") for n in range(1, 7)}
    | {("frame", name) for name in ("affine_halfplane", "unipotent_sin", "borel_frame")}
    | {("multiplication", f"abelian({n})") for n in range(1, 7)}
    | {("multiplication", name) for name in ("affine_group", "borel_sl2_group")}
)


def brute_trace_form(constants: dict, n: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """(1/k) sum_s sgn(s) tr(ad e_{i_s1} ... ad e_{i_sk}) over all k! orders."""
    if k > 4:
        raise ValueError("the permutation oracle stops at degree 4")
    ads = np.zeros((n, n, n), dtype=np.int64)
    for i, row in enumerate(bracket_table(constants, n)):
        for j, image in enumerate(row):
            for m, value in image.items():
                ads[i, m, j] = value  # column j of ad e_i is [e_i, e_j]
    bound = int(np.abs(ads).max()) if ads.size else 0
    if (n * bound) ** k >= 2**62:
        raise ValueError("constants too large for the int64 oracle")
    orders = [(perm, _sign(perm)) for perm in permutations(range(k))]
    out = {}
    for subset in combinations(range(n), k):
        total = 0
        for perm, sign in orders:
            product = ads[subset[perm[0]]]
            for pos in perm[1:]:
                product = product @ ads[subset[pos]]
            total += sign * int(np.trace(product))
        out[tuple(i + 1 for i in subset)] = Fraction(total, k)
    return out


def _sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def fd_tolerance(h: float, scale: float) -> float:
    """O(h^2) zero test: 10 h^2 times the squared local connection size."""
    return 10.0 * h * h * max(1.0, scale) ** 2


# --- command-line outputs -------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_reference(code: int, stdout: str, reference: dict) -> str | None:
    report = _json(stdout)
    if code != reference["exit_code"] or report is None:
        return f"exit {code}, expected {reference['exit_code']}"
    report.pop("timing", None)
    if report != reference["report"]:
        return "report differs from the reference"
    return None


def check_betti(code: int, stdout: str, expected) -> str | None:
    """expected is the report's Betti table (analyze) or number (cohomology)."""
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    if report.get("betti") != expected:
        return f"betti {report.get('betti')} != {expected}"
    return None


def check_components(code: int, stdout: str, expected: dict[tuple[int, ...], Fraction], dim: int, k: int) -> str | None:
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    got = report.get("components", {})
    if len(got) != len(list(combinations(range(dim), k))):
        return f"{len(got)} components, expected C({dim},{k})"
    for subset, value in expected.items():
        if Fraction(got.get(",".join(map(str, subset)), "nan")) != value:
            return f"component {subset} is {got.get(','.join(map(str, subset)))}, expected {value}"
    return None


def check_all_zero_components(code: int, stdout: str, count: int) -> str | None:
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    values = report.get("components", {}).values()
    if len(values) != count or any(Fraction(v) != 0 for v in values):
        return "expected every component of an even trace form to vanish"
    return None


def check_invariants(code: int, stdout: str, expected: dict) -> str | None:
    """Basis-independent analyze fields against those of the base algebra."""
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key} {report.get(key)} != {value}"
    return None


def check_jacobi_failure(code: int, stdout: str) -> str | None:
    report = _json(stdout)
    if code != 1 or report is None:
        return f"exit {code}, expected 1"
    if report.get("jacobi_ok") is not False or not report.get("jacobi_violations"):
        return "expected jacobi_ok false with violations"
    return None


def check_cohomology_class(code: int, stdout: str, betti: int, status: str) -> str | None:
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    if report.get("betti") != betti or report.get("w_closed") is not True or report.get("w_status") != status:
        return f"betti/w_closed/w_status {report.get('betti')}/{report.get('w_closed')}/{report.get('w_status')}"
    return None


def check_curvature(code: int, stdout: str, frame: str, lattice: int, dim: int) -> str | None:
    """First curvature and the two-point diagonal vanish; r2 only on groups."""
    report = _json(stdout)
    if code != 0 or report is None:
        return f"exit {code}"
    if report.get("lattice_points") != lattice**dim:
        return f"lattice_points {report.get('lattice_points')} != {lattice ** dim}"
    norms = report["max_norms"]
    tol = fd_tolerance(report["h"], max(norms["torsion_max"], norms["w_max"]))
    for key in ("r1_max", "r_full_diagonal_max"):
        if norms[key] > tol:
            return f"{key} {norms[key]:.3e} above {tol:.3e}"
    if frame == "unipotent_sin":
        if norms["r2_max"] <= 1e-2:
            return f"r2_max {norms['r2_max']:.3e} should not vanish on unipotent_sin"
    elif norms["r2_max"] > tol:
        return f"r2_max {norms['r2_max']:.3e} above {tol:.3e} on a group frame"
    return None


def check_catalog_list(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    listed = [tuple(line.split()) for line in stdout.splitlines() if line.strip()]
    if len(listed) != len(CATALOG_ENTRIES) or set(listed) != CATALOG_ENTRIES:
        return "catalog listing differs from the 29 documented entries"
    return None


def check_verify(code: int, stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return f"exit {code}"
    passes = [line for line in lines[:-1] if line.startswith("PASS ")]
    if len(passes) != len(lines) - 1 or lines[-1] != f"{len(passes)} passed, 0 failed" or not passes:
        return "verify did not report all PASS"
    return None
