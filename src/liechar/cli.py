"""Command line front end.

Subcommands: analyze, forms, cohomology, curvature, catalog, verify.
Reports go to stdout as JSON with sorted keys (or --format text);
diagnostics go to stderr. Exit codes: 0 success, 1 mathematical
validation failure, 2 parse/IO/usage error (an output write that fails,
on a closed or full stdout, included).

Each command imports the modules it runs, from the submodules and never
through the package's lazy names, so a fresh process loads only its own
lane: analyze, forms and cohomology the exact modules they use, without
numpy, and the catalog only for a catalog: source; curvature the catalog,
geometry and jets (with numpy), without the exact lane; catalog list the
catalog alone; catalog show what the entry's builder imports; verify
--suite what that suite runs (liechar.verify imports each suite's modules
inside the suite), and verify without a suite both lanes. json is imported
only to print a JSON report.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .catalog import CatalogEntry

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

# forms prints every one of the C(dim, degree) components, zeros included.
# Padding alone took 0.23 s for C(60, 3) = 34,220 components, 1.3 s for
# 499,500, 5.4 s for 1,999,000 and 6.5 s for 10^6 in dimension 10^6.
FORMS_COMPONENT_CAP = 500_000


class CliError(Exception):
    """Usage or I/O failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose help and usage writes raise on failure. argparse
    drops an OSError from them, so --help into a closed pipe would exit 0;
    here it reaches main and exits 2. Subparsers take this class too."""

    def print_usage(self, file=None) -> None:
        (file or sys.stdout).write(self.format_usage())

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def _catalog_entry(name: str, kind: str | None = None) -> CatalogEntry:
    from . import catalog

    try:
        return catalog.get(name, kind=kind)
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc


def _load_algebra(source: str) -> tuple[str, LieAlgebra]:
    if source.startswith("catalog:"):
        name = source[len("catalog:") :]
        return name, _catalog_entry(name, "algebra").payload
    from .fileformat import AlgebraFileError, parse_algebra

    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc}") from exc
    try:
        return path.stem, parse_algebra(text)
    except AlgebraFileError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _subset_key(subset: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in subset)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in _text_lines(report, prefix=""):
            print(line)


def _text_lines(tree: dict, prefix: str) -> list[str]:
    lines = []
    for key in sorted(tree):
        value = tree[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _check_analyze_size(alg: LieAlgebra, args: argparse.Namespace) -> None:
    from .cohomology import check_betti_size

    check_betti_size(alg)


def _check_cohomology_size(alg: LieAlgebra, args: argparse.Namespace) -> None:
    _check_analyze_size(alg, args)
    if not 0 <= args.degree <= alg.dim:
        raise CliError(f"degree {args.degree} outside 0..{alg.dim}")


def _check_forms_size(alg: LieAlgebra, args: argparse.Namespace) -> None:
    n, k = alg.dim, args.degree
    if not 1 <= k <= n:
        raise CliError(f"degree {k} outside [1, {n}]")
    # C(n, i) grows with i up to min(k, n - k): counting stops past 10^100,
    # a count over the cap that would be slow to finish and to print
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > 10**100:
            break
    if count > FORMS_COMPONENT_CAP:
        shown = count if count <= 10**100 else "more than 10^100"
        raise CliError(f"degree {k} in dimension {n} gives {shown} components, over the cap of {FORMS_COMPONENT_CAP}")


def _report_algebra(
    build_report: Callable[[str, LieAlgebra, argparse.Namespace], dict],
    check_size: Callable[[LieAlgebra, argparse.Namespace], None],
    args: argparse.Namespace,
) -> int:
    """Load args.source, check_size it before the (sparse) Jacobi check, then
    emit build_report(name, alg, args), or the Jacobi violations with exit 1.
    A size check refuses with CliError or ValueError, each exit 2."""
    name, alg = _load_algebra(args.source)
    try:
        check_size(alg, args)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    validation = alg.validate()
    if not validation.ok:
        violations = [list(v) for v in validation.violations]
        _emit({"name": name, "dim": alg.dim, "jacobi_ok": False, "jacobi_violations": violations}, args.format)
        return EXIT_MATH
    _emit(build_report(name, alg, args), args.format)
    return EXIT_OK


def _analyze_report(name: str, alg: LieAlgebra, args: argparse.Namespace) -> dict:
    from .cohomology import class_report, cochain_complex
    from .linalg import symmetric_signature

    pos, neg, zero = symmetric_signature(alg.killing())
    complex_ = cochain_complex(alg, args.max_degree)
    return {
        "name": name,
        "dim": alg.dim,
        "jacobi_ok": True,
        "solvable": alg.is_solvable(),
        "nilpotent": alg.is_nilpotent(),
        "semisimple": alg.is_semisimple(),
        "unimodular": alg.is_unimodular(),
        "killing_signature": [pos, neg, zero],
        "betti": list(complex_.betti),
        "classes": {str(k): status for k, status in class_report(complex_).items()},
    }


def _forms_report(name: str, alg: LieAlgebra, args: argparse.Namespace) -> dict:
    from .forms import cochain_basis, trace_form

    form = trace_form(alg, args.degree)
    components = {_subset_key(subset): str(value) for subset, value in sorted(form.components.items())}
    for subset in cochain_basis(alg.dim, args.degree):
        components.setdefault(_subset_key(subset), "0")
    return {"name": name, "dim": alg.dim, "degree": args.degree, "components": components}


def _cohomology_report(name: str, alg: LieAlgebra, args: argparse.Namespace) -> dict:
    from .cohomology import cochain_complex
    from .forms import trace_form

    k = args.degree
    complex_ = cochain_complex(alg, k)
    report: dict = {"name": name, "dim": alg.dim, "degree": k, "betti": complex_.betti[k]}
    if k == 0:
        return report
    status, primitive = complex_.trace_class(trace_form(alg, k))
    # trace forms of a Jacobi-valid algebra are always cocycles
    report.update(w_closed=True, w_status=status, w_primitive=None)
    if primitive is not None:
        report["w_primitive"] = {_subset_key(s): str(v) for s, v in sorted(primitive.components.items())}
    return report


def _cmd_curvature(args: argparse.Namespace) -> int:
    # from the submodule: `from . import geometry` would go through the
    # package's lazy hook, which loads the exact lane and verify as well
    from .geometry import FrameField, curvature_sweep

    frame = _catalog_entry(args.frame, "frame").payload
    # the chart refuses a bad size or step, the size first: no frame is built or evaluated
    try:
        points_per_axis = frame.chart.lattice_points_per_axis(args.lattice)
        if args.h is not None:
            frame = FrameField(chart=frame.chart.with_step(args.h), matrix=frame.matrix)
        halved = FrameField(chart=frame.chart.with_step(frame.chart.h / 2), matrix=frame.matrix)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    coarse = curvature_sweep(frame, points_per_axis)
    # a ratio only means something when the coarse residual is signal, not
    # float noise; with no signal at all, the halved sweep would go unread
    keys = ("r1_max", "dw_tr_r2_residual", "r_full_diagonal_max")
    signal = [key for key in keys if coarse[key] > 1e-10]
    fine = curvature_sweep(halved, points_per_axis) if signal else {}
    ratios = {key: round(coarse[key] / fine[key], 3) if key in signal and fine[key] > 0 else None for key in keys}
    report = {
        "frame": args.frame,
        "h": frame.chart.h,
        "lattice_points": points_per_axis**frame.chart.dim,
        "max_norms": {k: float(f"{v:.12e}") for k, v in coarse.items()},
        "halved_h_ratios": ratios,
    }
    _emit(report, args.format)
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        from . import catalog

        for qualified in catalog.list_names():
            kind, name = qualified.split(":", 1)
            print(f"{kind:15s} {name}")
        return EXIT_OK
    entry = _catalog_entry(args.name)
    report: dict = {"name": entry.name, "kind": entry.kind, "note": entry.note}
    payload = entry.payload
    if entry.kind == "algebra":
        from .fileformat import serialize_algebra

        report["dim"] = payload.dim
        report["definition"] = serialize_algebra(payload).strip().splitlines()
    else:
        chart = payload.chart
        report["dim"] = chart.dim
        report["chart"] = {
            "lower": list(chart.lower),
            "upper": list(chart.upper),
            "h": chart.h,
        }
        if entry.kind == "multiplication":
            report["identity"] = [float(v) for v in payload.identity]
    _emit(report, args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    try:
        results = run_suites([args.suite] if args.suite is not None else None)
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    failures = 0
    for result in results:
        if result.ok:
            print(f"PASS {result.suite}.{result.name}")
        else:
            failures += 1
            print(f"FAIL {result.suite}.{result.name}: {result.detail}")
    print(f"{len(results) - failures} passed, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_MATH


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liechar",
        description="Characteristic invariants of local Lie groups: exact Lie-algebra"
        " computations and finite-difference chart geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json", help="output style")

    p_analyze = sub.add_parser("analyze", help="full report for an algebra (file path or catalog:name)")
    p_analyze.add_argument("source")
    p_analyze.add_argument("--max-degree", type=_nonnegative_int, default=None, help="cap Betti/class degrees")
    add_format(p_analyze)
    p_analyze.set_defaults(func=partial(_report_algebra, _analyze_report, _check_analyze_size))

    p_forms = sub.add_parser("forms", help="components of the degree-k trace form")
    p_forms.add_argument("source")
    p_forms.add_argument("--degree", type=int, required=True)
    add_format(p_forms)
    p_forms.set_defaults(func=partial(_report_algebra, _forms_report, _check_forms_size))

    p_coh = sub.add_parser("cohomology", help="Betti number and trace-form class in degree k")
    p_coh.add_argument("source")
    p_coh.add_argument("--degree", type=int, required=True)
    add_format(p_coh)
    p_coh.set_defaults(func=partial(_report_algebra, _cohomology_report, _check_cohomology_size))

    p_curv = sub.add_parser("curvature", help="lattice curvature statistics for a catalog frame")
    p_curv.add_argument("--frame", required=True, help="catalog frame name")
    p_curv.add_argument("--h", type=float, default=None, help="finite-difference step")
    p_curv.add_argument("--lattice", type=int, help="points per axis (default: the most, 5 down to 2, within the cap)")
    add_format(p_curv)
    p_curv.set_defaults(func=_cmd_curvature)

    p_cat = sub.add_parser("catalog", help="list or show built-in entries")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    cat_list = cat_sub.add_parser("list")
    cat_list.set_defaults(func=_cmd_catalog)
    cat_show = cat_sub.add_parser("show")
    cat_show.add_argument("name")
    add_format(cat_show)
    cat_show.set_defaults(func=_cmd_catalog)

    p_verify = sub.add_parser("verify", help="run invariant verification suites")
    p_verify.add_argument("--suite", default=None, help="run one suite; an unknown name lists them")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # stdout could not be written: an I/O failure, not a mathematical
        # one. A closed pipe is the reader's doing and is not reported.
        # stdout now points at devnull so the flush at shutdown cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
