"""Import boundary: each command loads only its own lane; public names load on first use."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from liechar import catalog
from liechar.fileformat import serialize_algebra

EXACT_LANE = [
    "liechar.algebra",
    "liechar.catalog",
    "liechar.cohomology",
    "liechar.fileformat",
    "liechar.forms",
    "liechar.linalg",
]
# the liechar modules and numpy (not its submodules) that a fresh interpreter has loaded
LOADED = 'sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "liechar")'
# the costlier library modules a command should load only when it runs them;
# dataclasses imports inspect, ast, dis and tokenize
LIBRARY = 'sorted(m for m in ("dataclasses", "fractions", "inspect", "json", "numpy.random") if m in sys.modules)'


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
    ]
    # json only for the result, after the module sets are read
    script = f"""
import contextlib, io, sys
import liechar
after_package = {LOADED}
import liechar.cli
after_cli = {LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    list_code = liechar.cli.run(["catalog", "list"])
    after_list = {LOADED}
    list_library = {LIBRARY}
    codes = [liechar.cli.run(argv) for argv in {commands!r}]
after_runs = {LOADED}
runs_library = {LIBRARY}
import json
print(json.dumps({{"package": after_package, "cli": after_cli, "list": after_list, "runs": after_runs,
                  "list_library": list_library, "runs_library": runs_library, "codes": [list_code, *codes]}}))
"""
    result = run_fresh(script)
    assert result["codes"] == [0] * 10 + [1, 1, 0]
    assert result["package"] == ["liechar"]
    # the catalog loads with the first command that reads it, here catalog list
    assert result["cli"] == ["liechar", "liechar.cli"]
    assert result["list"] == ["liechar", "liechar.catalog", "liechar.cli"]
    assert result["runs"] == sorted(["liechar", "liechar.cli", *EXACT_LANE])
    # no dataclasses (so no inspect) on the exact lane, and no json for a listing
    assert result["list_library"] == []
    assert result["runs_library"] == ["fractions", "json"]


def test_exact_commands_on_a_file_do_not_load_the_catalog(tmp_path) -> None:
    good = tmp_path / "sl2.txt"
    good.write_text(serialize_algebra(catalog.get("sl2", kind="algebra").payload))
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n1 2 1 1\n1 3 2 1\n")
    commands = [
        ["analyze", str(good)],
        ["forms", str(good), "--degree", "3"],
        ["cohomology", str(good), "--degree", "3"],
        ["analyze", str(bad)],
        ["cohomology", str(tmp_path / "missing.txt"), "--degree", "1"],
    ]
    script = f"""
import contextlib, io, json, sys
import liechar.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [liechar.cli.run(argv) for argv in {commands!r}]
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
"""
    result = run_fresh(script)
    assert result["codes"] == [0, 0, 0, 1, 2]
    assert "liechar.catalog" not in result["loaded"]
    assert result["loaded"] == sorted(["liechar", "liechar.cli", *(m for m in EXACT_LANE if m != "liechar.catalog")])


def test_forms_loads_no_cohomology(tmp_path) -> None:
    # the cochain basis the report enumerates lives in liechar.forms
    good = tmp_path / "sl2.txt"
    good.write_text(serialize_algebra(catalog.get("sl2", kind="algebra").payload))
    script = f"""
import contextlib, io, json, sys
import liechar.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [liechar.cli.run(["forms", {str(good)!r}, "--degree", str(k)]) for k in (1, 3)]
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
"""
    result = run_fresh(script)
    assert result["codes"] == [0, 0]
    assert result["loaded"] == [
        "liechar", "liechar.algebra", "liechar.cli", "liechar.fileformat", "liechar.forms", "liechar.linalg"
    ]


# the liechar modules (and numpy) that each verify suite loads besides liechar, cli and verify:
# no fileformat anywhere, and no exact module for jets
SUITE_MODULES = {
    "algebra": ["liechar.algebra", "liechar.catalog", "liechar.linalg"],
    "forms": ["liechar.algebra", "liechar.catalog", "liechar.forms", "liechar.linalg"],
    "cohomology": ["liechar.algebra", "liechar.catalog", "liechar.cohomology", "liechar.forms", "liechar.linalg"],
    "jets": ["liechar.catalog", "liechar.geometry", "liechar.jets", "numpy"],
    "geometry": ["liechar.algebra", "liechar.catalog", "liechar.geometry", "liechar.jets", "liechar.linalg", "numpy"],
    "catalog": ["liechar.algebra", "liechar.catalog", "liechar.geometry", "liechar.jets", "liechar.linalg", "numpy"],
}


@pytest.fixture(scope="module")
def numpy_loads_random() -> bool:
    """Whether `import numpy` imports numpy.random itself, as numpy 1.x does."""
    return run_fresh('import json, sys, numpy; print(json.dumps("numpy.random" in sys.modules))')


@pytest.mark.parametrize("suite", sorted(SUITE_MODULES))
def test_each_verify_suite_loads_only_its_own_modules(suite, numpy_loads_random) -> None:
    script = f"""
import contextlib, io, sys
import liechar.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = liechar.cli.run(["verify", "--suite", {suite!r}])
loaded, library = {LOADED}, {LIBRARY}
import json
print(json.dumps({{"code": code, "loaded": loaded, "library": library}}))
"""
    result = run_fresh(script)
    assert result["code"] == 0
    assert result["loaded"] == sorted(["liechar", "liechar.cli", "liechar.verify", *SUITE_MODULES[suite]])
    # the seeded draws come from the standard library, not numpy.random
    assert ("numpy.random" in result["library"]) == ("numpy" in result["loaded"] and numpy_loads_random)
    if suite in ("algebra", "forms", "cohomology"):
        assert result["library"] == ["fractions"]
    if suite == "jets":
        assert "fractions" not in result["library"]
    # the FD records are no dataclasses either (numpy imports inspect itself)
    assert "dataclasses" not in result["library"]


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
    # nor the exact lane: the catalog builds a frame without the algebra module
    script = f"""
import contextlib, io, json, sys
import liechar.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = liechar.cli.run({argv!r})
print(json.dumps({{"code": code, "loaded": {LOADED}, "dataclasses": "dataclasses" in sys.modules}}))
"""
    loaded = ["liechar", "liechar.catalog", "liechar.cli", "liechar.geometry", "liechar.jets", "numpy"]
    # the FD records are no dataclasses; numpy imports inspect itself
    assert run_fresh(script) == {"code": 0, "loaded": loaded, "dataclasses": False}


def test_the_bench_tracer_finds_every_module_it_wraps() -> None:
    # bench/tracer.py imports liechar.cli and a few modules by name, then
    # looks up every module of its SPANS table; install() raises on a missing one
    bench = Path(__file__).resolve().parents[1] / "bench"
    script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(bench)!r})
import liechar.cli
from tracer import SPANS, Tracer
tracer = Tracer("contract")
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = liechar.cli.run(["curvature", "--frame", "borel_frame"])
finally:
    tracer.uninstall()
loaded = {{m.split(".")[-1] for m in sys.modules if m.startswith("liechar.")}}
print(json.dumps({{
    "code": code,
    "missing": sorted({{module for module, *_ in SPANS}} - loaded),
    "spans": sorted({{span[0] for span in tracer.spans}}),
    "frame_evals": tracer.counters["geometry.frame_evals"] > 0,
}}))
"""
    assert run_fresh(script) == {"code": 0, "missing": [], "spans": ["catalog.get", "cli.run"], "frame_evals": True}
