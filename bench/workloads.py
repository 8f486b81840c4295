"""The benchmark's workloads: jobs, their inputs and their oracles.

A job is one CLI invocation (run in a fresh interpreter) or one library
call (run in the runner's process on freshly built objects). Its class
names the end-to-end metric its latency counts in. Every workload has at
least one job of every class, so every metric is measured on every
workload; jobs of the lane a workload does not target are kept small.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

import algebras
import oracles

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference"

CLASSES = ("analyze", "forms", "cohomology", "betti_table", "curvature", "fd_checks", "verify", "catalog")
WORKLOADS = ("exact_sparse", "exact_dense", "fd_verify")

JOB_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 5.0
FD_POINTS = 9  # lattice points per axis of the library FD checks


@dataclass
class Job:
    key: str
    cls: str
    check: Callable[..., str | None]
    argv: list[str] | None = None  # CLI arguments, or
    call: Callable[[], object] | None = None  # a library call
    deadline: float = JOB_DEADLINE_S
    repeat: int = 1  # executions per pass; jobs under ~0.5 s run more often


def often(job: Job) -> Job:
    """Run a short job three times per pass: its best-of then rests on more
    samples, which short, start-up-dominated jobs need to be steady."""
    job.repeat = 3
    return job


# Jobs whose full CLI report is kept as a reference (bench/make_inputs.py).
ANALYZE_REFERENCE = ["sl2", "heisenberg3", "sl2_plus_abelian2", "gl2", "b3", "sl2_sl2", "sl2_aff1_aff1"]
FORMS_REFERENCE = [("gl3", 3), ("sl3", 4), ("sl2", 3)]
COHOMOLOGY_REFERENCE = [("b4", 3), ("sl3", 4), ("sl3", 3), ("sl2", 3)]
# Analyze fields that do not depend on the basis.
INVARIANTS = ("betti", "killing_signature", "solvable", "nilpotent", "semisimple", "unimodular", "classes")


def reference_path(key: str) -> Path:
    return REFERENCE / (key.replace(" ", "_").replace(":", "-").replace("(", "").replace(")", "") + ".json")


def check_inputs() -> str | None:
    """The checked-in files are exactly what algebras.py builds."""
    for name, alg in algebras.base_algebras().items():
        path = INPUTS / f"{name}.txt"
        if not path.is_file() or path.read_text() != alg.text():
            return f"{path} differs from what algebras.py builds"
    return None


class Jobs:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        self.rng = rng
        self.workdir = workdir
        self.base = algebras.base_algebras()

    # --- exact lane ------------------------------------------------------

    def expected_betti(self, name: str) -> list[int]:
        """Catalog names are read from the catalog, others from bench/inputs."""
        if name in oracles.CATALOG_ALGEBRAS:
            dim, poincare = oracles.CATALOG_ALGEBRAS[name]
            return algebras.betti_table(poincare, dim)
        return self.base[name].betti()

    def source(self, name: str) -> str:
        return f"catalog:{name}" if name in oracles.CATALOG_ALGEBRAS else str(INPUTS / f"{name}.txt")

    def _reference(self, key: str) -> dict:
        return json.loads(reference_path(key).read_text())

    def analyze_ref(self, name: str) -> Job:
        key = f"analyze {name}"
        ref = self._reference(key)
        betti = self.expected_betti(name)

        def check(code, out):
            return oracles.check_reference(code, out, ref) or oracles.check_betti(code, out, betti)

        return Job(key, "analyze", check, argv=["analyze", self.source(name)])

    def forms_ref(self, name: str, k: int) -> Job:
        key = f"forms {name} {k}"
        ref = self._reference(key)
        alg = self.base[name]
        expected = oracles.brute_trace_form(alg.constants, alg.dim, k)

        def check(code, out):
            return oracles.check_reference(code, out, ref) or oracles.check_components(code, out, expected, alg.dim, k)

        return Job(key, "forms", check, argv=["forms", self.source(name), "--degree", str(k)])

    def cohomology_ref(self, name: str, k: int) -> Job:
        key = f"cohomology {name} {k}"
        ref = self._reference(key)
        betti = self.expected_betti(name)[k]

        def check(code, out):
            return oracles.check_reference(code, out, ref) or oracles.check_betti(code, out, betti)

        return Job(key, "cohomology", check, argv=["cohomology", self.source(name), "--degree", str(k)])

    def betti_table(self, alg: algebras.Algebra, key: str | None = None, deadline: float = JOB_DEADLINE_S) -> Job:
        import liechar

        text = alg.text()
        expected = alg.betti()
        return Job(
            key or f"betti_table {alg.name}",
            "betti_table",
            lambda result: None if result == expected else f"betti {result} != {expected}",
            call=lambda: liechar.betti_table(liechar.parse_algebra(text)),
            deadline=deadline,
        )

    def write(self, alg: algebras.Algebra) -> str:
        path = self.workdir / f"{alg.name}.txt"
        path.write_text(alg.text())
        return str(path)

    def dense(self, name: str, tag: str) -> algebras.Algebra:
        return algebras.change_basis(self.base[name], self.rng, tag)

    def analyze_dense(self, name: str, tag: str) -> Job:
        alg = self.dense(name, tag)
        base = self._reference(f"analyze {name}")["report"]
        expected = {key: base[key] for key in INVARIANTS}
        return Job(
            f"analyze {alg.name}",
            "analyze",
            lambda code, out: oracles.check_invariants(code, out, expected),
            argv=["analyze", self.write(alg)],
        )

    def broken(self, cmd: str, cls: str, name: str, extra: list[str]) -> Job:
        alg = algebras.perturb(self.dense(name, "p"), self.rng)
        return Job(f"{cmd} {alg.name}", cls, oracles.check_jacobi_failure, argv=[cmd, self.write(alg), *extra])

    def forms_dense(self, name: str, k: int) -> Job:
        alg = self.dense(name, "f")
        expected = oracles.brute_trace_form(alg.constants, alg.dim, k)
        return Job(
            f"forms {alg.name} {k}",
            "forms",
            lambda code, out: oracles.check_components(code, out, expected, alg.dim, k),
            argv=["forms", self.write(alg), "--degree", str(k)],
        )

    def cohomology_dense(self, name: str, k: int) -> Job:
        alg = self.dense(name, "c")
        betti = alg.betti()[k]
        status = self._reference(f"cohomology {name} {k}")["report"]["w_status"]
        return Job(
            f"cohomology {alg.name} {k}",
            "cohomology",
            lambda code, out: oracles.check_cohomology_class(code, out, betti, status),
            argv=["cohomology", self.write(alg), "--degree", str(k)],
        )

    # --- finite-difference lane -------------------------------------------

    def curvature(self, frame: str, dim: int, lattice: int = 5) -> Job:
        argv = ["curvature", "--frame", frame] + (["--lattice", str(lattice)] if lattice != 5 else [])
        return Job(
            " ".join(argv),
            "curvature",
            lambda code, out: oracles.check_curvature(code, out, frame, lattice, dim),
            argv=argv,
        )

    def _interior(self, chart, margin: float) -> np.ndarray:
        return np.array([lo + margin + self.rng.random() * (hi - lo - 2 * margin) for lo, hi in zip(chart.lower, chart.upper)])

    def local_algebra(self, frame: str, expected: dict | None) -> Job:
        """Rounded structure functions at a seeded point; None expects a refusal.

        Expected constants are the brackets of the frame's columns worked
        out by hand: A = x1 I gives [xi1, xi2] = xi2, the Borel frame
        (x1, 0; -x2, x1) gives [xi1, xi2] = 2 xi2, identity frames commute.
        """
        from liechar import catalog, geometry

        template = catalog.get(frame, kind="frame").payload
        point = self._interior(template.chart, 4 * template.chart.h)

        def call():
            fresh = geometry.FrameField(chart=template.chart, matrix=template.matrix)
            try:
                return geometry.local_algebra(fresh, point, points_per_axis=FD_POINTS).c
            except geometry.LocalAlgebraError:
                return None

        want = None if expected is None else {key: Fraction(v) for key, v in expected.items()}
        return Job(
            f"local_algebra {frame}",
            "fd_checks",
            lambda result: None if result == want else f"constants {result} != {want}",
            call=call,
        )

    def log_det(self, name: str) -> Job:
        """-log det Ad_e is a primitive of w on a seeded box around e."""
        from liechar import catalog, geometry, jets

        template = catalog.get(name, kind="multiplication").payload
        e = template.identity
        lower = [lo + 0.25 * self.rng.random() * (x - lo) for lo, x in zip(template.chart.lower, e)]
        upper = [hi - 0.25 * self.rng.random() * (hi - x) for hi, x in zip(template.chart.upper, e)]
        chart = jets.Chart(lower=tuple(lower), upper=tuple(upper), h=template.chart.h)

        def call():
            mult = geometry.LocalGroupMultiplication(chart=chart, multiply=template.multiply, identity=e)
            return geometry.log_det_ad_primitive_check(mult, points_per_axis=FD_POINTS)

        def check(result):
            residual, scale = result
            tol = oracles.fd_tolerance(chart.h, scale)
            return None if residual <= tol else f"residual {residual:.3e} above {tol:.3e}"

        return Job(f"log_det_ad_primitive_check {name}", "fd_checks", check, call=call)

    def catalog_list(self) -> Job:
        return Job("catalog list", "catalog", oracles.check_catalog_list, argv=["catalog", "list"])

    def verify(self, suite: str | None = None) -> Job:
        argv = ["verify"] + (["--suite", suite] if suite else [])
        return Job(" ".join(argv), "verify", oracles.check_verify, argv=argv)

    # --- workloads ----------------------------------------------------------

    def off_lane_fd(self) -> list[Job]:
        """Small FD, catalog and verify jobs for the exact workloads."""
        return [
            often(self.curvature("identity(2)", 2)),
            often(self.local_algebra("identity(3)", {})),
            often(self.log_det("abelian(2)")),
            often(self.catalog_list()),
            often(self.verify("jets")),
        ]

    def exact_sparse(self) -> tuple[list[Job], list[Job]]:
        jobs = [self.analyze_ref(name) for name in ("sl2", "heisenberg3", "sl2_plus_abelian2", "b3", "sl2_aff1_aff1")]
        jobs += [self.forms_ref("gl3", 3), self.forms_ref("sl3", 4)]
        jobs += [self.cohomology_ref("b4", 3), self.cohomology_ref("sl3", 4)]
        jobs += [self.betti_table(self.base[name]) for name in ("sl3", "gl3", "b4")]
        return jobs + self.off_lane_fd(), self.limit_probes()

    def limit_probes(self) -> list[Job]:
        """Known limits of commit 31515da, run outside the timed passes."""
        gl3 = self.base["gl3"]
        betti = gl3.betti()
        return [
            Job(
                "probe analyze gl3",
                "analyze",
                lambda code, out: oracles.check_betti(code, out, betti),
                argv=["analyze", str(INPUTS / "gl3.txt")],
                deadline=PROBE_DEADLINE_S,
            ),
            Job(
                "probe forms gl3 8",
                "forms",
                lambda code, out: oracles.check_all_zero_components(code, out, comb(gl3.dim, 8)),
                argv=["forms", str(INPUTS / "gl3.txt"), "--degree", "8"],
                deadline=PROBE_DEADLINE_S,
            ),
            self.betti_table(self.base["b4_C3"], key="probe betti_table b4_C3", deadline=PROBE_DEADLINE_S),
        ]

    def exact_dense(self) -> tuple[list[Job], list[Job]]:
        jobs = [self.analyze_dense(name, "d") for name in ("gl2", "b3", "sl2_sl2")]
        # a seeded share of the inputs loses Jacobi by one perturbed constant
        for name in self.rng.sample(["sl2", "gl2", "b3", "sl2_sl2", "gl2_sl2", "sl2_aff1_aff1"], 2):
            jobs.append(self.broken("analyze", "analyze", name, []))
        jobs.append(self.broken("forms", "forms", "sl3", ["--degree", "3"]))
        jobs += [self.forms_dense("sl3", 3), self.cohomology_dense("sl3", 3)]
        jobs.append(self.betti_table(self.dense("gl3", "b")))
        return jobs + self.off_lane_fd(), []

    def fd_verify(self) -> tuple[list[Job], list[Job]]:
        jobs = [self.curvature(frame, 2) for frame in ("affine_halfplane", "unipotent_sin", "borel_frame", "identity(2)")]
        jobs += [self.curvature("identity(4)", 4), self.curvature("borel_frame", 2, lattice=9)]
        jobs += [
            self.local_algebra("affine_halfplane", {(1, 2, 2): 1}),
            self.local_algebra("borel_frame", {(1, 2, 2): 2}),
            self.local_algebra("identity(3)", {}),
            self.local_algebra("unipotent_sin", None),
        ]
        jobs += [self.log_det(name) for name in ("affine_group", "borel_sl2_group", "abelian(3)")]
        jobs += [often(self.catalog_list()), self.verify("catalog"), often(self.verify("jets"))]
        # the exact kernels get only small algebras here
        jobs += [often(self.analyze_ref("sl2")), often(self.forms_ref("sl2", 3)), often(self.cohomology_ref("sl2", 3))]
        jobs += [often(self.betti_table(self.base[name])) for name in ("b3", "sl2_sl2", "sl2_aff1_aff1")]
        return jobs, []


def build(workload: str, rng: random.Random, workdir: Path) -> tuple[list[Job], list[Job]]:
    """(timed jobs, limit probes) of a workload."""
    return getattr(Jobs(rng, workdir), workload)()
