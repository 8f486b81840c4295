"""Rebuild the checked-in inputs and reference reports.

    python3 bench/make_inputs.py

Writes bench/inputs/NAME.txt for every algebra algebras.py builds, after
checking that it passes Jacobi and round-trips through liechar's file
format, and bench/reference/*.json with the CLI report of each reference
job. A report is kept only if it agrees with the oracles that do not use
liechar: Betti numbers from Poincare polynomials, trace forms from the
permutation sum.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import algebras
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent


def record(argv: list[str], key: str, check) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "liechar.cli", *argv], env=env, capture_output=True, text=True)
    problem = check(proc.returncode, proc.stdout)
    if problem:
        raise SystemExit(f"{key}: {problem}")
    report = json.loads(proc.stdout)
    report.pop("timing", None)
    path = workloads.reference_path(key)
    path.write_text(json.dumps({"argv": argv, "exit_code": proc.returncode, "report": report}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from liechar import parse_algebra, serialize_algebra

    workloads.INPUTS.mkdir(exist_ok=True)
    workloads.REFERENCE.mkdir(exist_ok=True)
    for stale in workloads.REFERENCE.glob("*.json"):
        stale.unlink()
    for name, alg in algebras.base_algebras().items():
        text = alg.text()
        parsed = parse_algebra(text)
        assert parsed.c == {key: Fraction(v) for key, v in alg.constants.items()}, name
        assert parse_algebra(serialize_algebra(parsed)).c == parsed.c, name
        assert algebras.jacobi_ok(alg.constants, alg.dim) and parsed.validate().ok, name
        (workloads.INPUTS / f"{name}.txt").write_text(text)
        print(f"wrote bench/inputs/{name}.txt")

    jobs = workloads.Jobs(rng=None, workdir=ROOT)
    base = jobs.base
    for name in workloads.ANALYZE_REFERENCE:
        betti = jobs.expected_betti(name)
        record(["analyze", jobs.source(name)], f"analyze {name}", lambda c, o: oracles.check_betti(c, o, betti))
    for name, k in workloads.FORMS_REFERENCE:
        alg = base[name]
        expected = oracles.brute_trace_form(alg.constants, alg.dim, k)
        record(
            ["forms", jobs.source(name), "--degree", str(k)],
            f"forms {name} {k}",
            lambda c, o: oracles.check_components(c, o, expected, alg.dim, k),
        )
    for name, k in workloads.COHOMOLOGY_REFERENCE:
        betti = jobs.expected_betti(name)[k]
        record(
            ["cohomology", jobs.source(name), "--degree", str(k)],
            f"cohomology {name} {k}",
            lambda c, o: oracles.check_betti(c, o, betti),
        )


if __name__ == "__main__":
    main()
