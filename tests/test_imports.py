"""Import boundary: the exact lane runs without numpy; FD names load on first use."""

import json
import subprocess
import sys

import pytest

from liechar import catalog
from liechar.fileformat import serialize_algebra

FD_MODULES = ("numpy", "liechar.geometry", "liechar.jets", "liechar.verify")


def run_fresh(script: str) -> dict:
    """Run script in a new interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_commands_do_not_load_numpy(tmp_path) -> None:
    good = tmp_path / "sl2.txt"
    good.write_text(serialize_algebra(catalog.get("sl2", kind="algebra").payload))
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n1 2 1 1\n1 3 2 1\n")
    commands = [
        [command, source, *extra]
        for source in ("catalog:sl2", "catalog:heisenberg3", str(good))
        for command, extra in (("analyze", []), ("forms", ["--degree", "3"]), ("cohomology", ["--degree", "3"]))
    ] + [
        ["analyze", str(bad)],
        ["forms", str(bad), "--degree", "1"],
        ["analyze", "catalog:sl2", "--format", "text"],
        ["catalog", "list"],
    ]
    script = f"""
import contextlib, io, json, sys
import liechar
after_package = sorted(m for m in {FD_MODULES!r} if m in sys.modules)
import liechar.cli
after_cli = sorted(m for m in {FD_MODULES!r} if m in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [liechar.cli.run(argv) for argv in {commands!r}]
after_runs = sorted(m for m in {FD_MODULES!r} if m in sys.modules)
print(json.dumps({{"package": after_package, "cli": after_cli, "runs": after_runs, "codes": codes}}))
"""
    result = run_fresh(script)
    assert result["codes"] == [0] * 9 + [1, 1, 0, 0]
    assert result["package"] == result["cli"] == result["runs"] == []


def test_every_public_name_resolves_and_star_import_works() -> None:
    script = """
import json, sys
import liechar
from liechar import *
missing = [name for name in liechar.__all__ if name not in globals()]
from liechar import geometry, jets
same = liechar.r1 is geometry.r1 and liechar.Chart is jets.Chart and liechar.get is liechar.catalog.get
print(json.dumps({"missing": missing, "same": same, "verify": "liechar.verify" in sys.modules}))
"""
    result = run_fresh(script)
    assert result == {"missing": [], "same": True, "verify": True}


def test_first_fd_module_loads_the_whole_lane() -> None:
    # a tracer that imports geometry finds verify loaded as well
    script = """
import json, sys
import liechar.cli
from liechar import algebra, geometry, jets, linalg
print(json.dumps(sorted(m for m in ("liechar.geometry", "liechar.jets", "liechar.verify") if m in sys.modules)))
"""
    assert run_fresh(script) == ["liechar.geometry", "liechar.jets", "liechar.verify"]


@pytest.mark.parametrize(
    "argv", [["curvature", "--frame", "borel_frame"], ["catalog", "show", "frame:borel_frame"]]
)
def test_fd_commands_load_geometry_but_not_the_verify_suites(argv) -> None:
    script = f"""
import contextlib, io, json, sys
import liechar.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = liechar.cli.run({argv!r})
print(json.dumps({{"code": code, "loaded": sorted(m for m in {FD_MODULES!r} if m in sys.modules)}}))
"""
    assert run_fresh(script) == {"code": 0, "loaded": ["liechar.geometry", "liechar.jets", "numpy"]}
