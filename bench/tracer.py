"""Per-layer tracing of liechar from outside the package.

install() rebinds the public functions of every liechar module, including
names another module took with `from ... import`, to wrappers that record
spans (name, job id, span id, parent id, start, end, self time). Hot
leaves (linalg.mat_mul, jets.partial_derivative, frame evaluations) keep
only a count and an accumulated time instead of one span per call.
uninstall() restores the originals. Spans stay in memory until dump().
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from math import comb, factorial

# (module, function, span name, size counters from (args, kwargs, result))
SPANS = [
    ("forms", "trace_form", "forms.trace_form", lambda a, k, r: {"terms": comb(a[0].dim, a[1]) * factorial(a[1])}),
    ("linalg", "rank_fraction_free", "linalg.rank_fraction_free", lambda a, k, r: _matrix_sizes(a[0])),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "solve", "linalg.solve", lambda a, k, r: {"cells": _matrix_sizes(a[0])["cells"]}),
    ("linalg", "symmetric_signature", "linalg.symmetric_signature", None),
    ("linalg", "determinant", "linalg.determinant", None),
    ("cohomology", "differential_matrix", "cohomology.differential_matrix", lambda a, k, r: _matrix_sizes(r.entries)),
    ("cohomology", "betti", "cohomology.betti", None),
    ("cohomology", "is_exact", "cohomology.is_exact", None),
    ("cohomology", "is_closed", "cohomology.is_closed", None),
    ("cohomology", "class_report", "cohomology.class_report", None),
    ("catalog", "get", "catalog.get", None),
    ("catalog", "list_entries", "catalog.list_entries", None),
    ("fileformat", "parse_algebra", "fileformat.parse_algebra", None),
    ("verify", "run_suites", "verify.run_suites", lambda a, k, r: {"checks": len(r)}),
    ("cli", "run", "cli.run", None),
] + [
    ("geometry", name, f"geometry.{name}", None)
    for name in (
        "r1",
        "r2",
        "r_full",
        "gamma",
        "w_form",
        "dw_tr_r2_residual",
        "structure_functions",
        "local_algebra",
        "log_det_ad_primitive_check",
    )
]

# LieAlgebra methods: (method, span name, size counters)
METHODS = [
    ("validate", "algebra.validate", lambda a, k, r: {"constants": len(a[0].c)}),
    ("basis_ad", "algebra.basis_ad", None),
    ("killing", "algebra.killing", None),
    ("is_solvable", "algebra.flags", None),
    ("is_nilpotent", "algebra.flags", None),
    ("is_semisimple", "algebra.flags", None),
    ("is_unimodular", "algebra.flags", None),
]

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    **{f"{name}.self_s": "s" for _, _, name, _ in SPANS},
    **{f"{name}.calls": "count" for _, _, name, _ in SPANS},
    **{f"{name}.self_s": "s" for _, name, _ in METHODS},
    **{f"{name}.calls": "count" for _, name, _ in METHODS},
    "forms.trace_form.terms": "count",
    "linalg.rank_fraction_free.cells": "count",
    "linalg.rank_fraction_free.nonzeros": "count",
    "linalg.solve.cells": "count",
    "cohomology.differential_matrix.cells": "count",
    "cohomology.differential_matrix.nonzeros": "count",
    "algebra.validate.constants": "count",
    "verify.run_suites.checks": "count",
    "linalg.mat_mul.calls": "count",
    "linalg.mat_mul.self_s": "s",
    "jets.partial_derivative.calls": "count",
    "geometry.frame_evals": "count",
    "geometry.lattice_points": "count",
    "catalog.frame_validations": "count",
    "cli.import_s": "s",
}


def _matrix_sizes(matrix) -> dict[str, int]:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return {"cells": rows * cols, "nonzeros": sum(1 for row in matrix for x in row if x)}


class Tracer:
    def __init__(self, job: str = "") -> None:
        self.job = job
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _span(self, name, fn, sizes):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((name, self.job, span_id, parent, start, end, end - start - frame[1]))
            if sizes is not None:
                for key, value in sizes(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def _timed_leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.counters[f"{name}.calls"] += 1
            self.counters[f"{name}.self_s"] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            return result

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.bench_counted = True
        return wrapper

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "liechar" or mod_name.startswith("liechar.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import liechar.cli  # noqa: F401  (loads every module that binds the targets)
        from liechar import algebra, geometry, jets, linalg

        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items() if name.startswith("liechar.")}
        for mod, fn_name, span_name, sizes in SPANS:
            original = getattr(mods[mod], fn_name)
            self._rebind_everywhere(original, self._span(span_name, original, sizes))
        for method, span_name, sizes in METHODS:
            self._set(algebra.LieAlgebra, method, self._span(span_name, getattr(algebra.LieAlgebra, method), sizes))
        self._rebind_everywhere(linalg.mat_mul, self._timed_leaf("linalg.mat_mul", linalg.mat_mul))
        self._rebind_everywhere(
            jets.partial_derivative, self._counted("jets.partial_derivative.calls", jets.partial_derivative)
        )

        lattice = jets.Chart.lattice
        counters = self.counters

        def counted_lattice(chart, *args, **kwargs):
            points = lattice(chart, *args, **kwargs)
            counters["geometry.lattice_points"] += len(points)
            return points

        self._set(jets.Chart, "lattice", counted_lattice)

        post_init = geometry.FrameField.__post_init__

        def counted_post_init(frame):
            if not getattr(frame.matrix, "bench_counted", False):
                object.__setattr__(frame, "matrix", self._counted("geometry.frame_evals", frame.matrix))
            counters["catalog.frame_validations"] += 1
            post_init(frame)

        self._set(geometry.FrameField, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def layer_totals(records: list[dict]) -> dict[str, float]:
    """Sum self times, span counts and counters over dumped records."""
    totals: defaultdict[str, float] = defaultdict(float)
    for record in records:
        for name, _job, _span, _parent, _start, _end, self_s in record["spans"]:
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.calls"] += 1
        for key, value in record["counters"].items():
            totals[key] += value
    return {name: totals.get(name, 0.0) for name in LAYER_METRICS}
