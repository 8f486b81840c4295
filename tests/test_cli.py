"""Command line interface: report content, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

from liechar import catalog, cohomology, forms, geometry
from liechar.algebra import LieAlgebra, lie_algebra
from liechar.cli import FORMS_COMPONENT_CAP, run
from liechar.jets import CURVATURE_LATTICE_CAP, Chart
from liechar.fileformat import parse_algebra, serialize_algebra


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
BENCH_REFERENCE = BENCH_INPUTS.parent / "reference"


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_sl2_report(capsys) -> None:
    code, out, err = invoke(capsys, "analyze", "catalog:sl2")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["name"] == "sl2"
    assert report["dim"] == 3
    assert report["jacobi_ok"] is True
    assert report["solvable"] is False
    assert report["nilpotent"] is False
    assert report["semisimple"] is True
    assert report["unimodular"] is True
    assert report["killing_signature"] == [2, 1, 0]
    assert report["betti"] == [1, 0, 0, 1]
    assert report["classes"] == {"1": "zero form", "3": "nonzero class"}
    assert "timing" not in report  # stdout carries no wall-clock field


def test_analyze_five_dimensional_product(capsys) -> None:
    code, out, _ = invoke(capsys, "analyze", "catalog:sl2_plus_abelian2")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 2, 1, 1, 2, 1]
    assert report["classes"] == {
        "1": "zero form",
        "3": "nonzero class",
        "5": "zero form",
    }
    assert report["unimodular"] is True
    assert report["semisimple"] is False


def test_analyze_output_is_deterministic(capsys) -> None:
    _, first, _ = invoke(capsys, "analyze", "catalog:heisenberg3")
    _, second, _ = invoke(capsys, "analyze", "catalog:heisenberg3")
    assert first == second


def test_analyze_file_source_matches_catalog(capsys, tmp_path) -> None:
    alg = catalog.get("heisenberg3", kind="algebra").payload
    path = tmp_path / "heis.lie"
    path.write_text(serialize_algebra(alg))
    _, from_file, _ = invoke(capsys, "analyze", str(path))
    _, from_catalog, _ = invoke(capsys, "analyze", "catalog:heisenberg3")
    a = json.loads(from_file)
    b = json.loads(from_catalog)
    a.pop("name")
    b.pop("name")
    assert a == b


def test_analyze_jacobi_failure_exits_one(capsys, tmp_path) -> None:
    path = tmp_path / "broken.lie"
    path.write_text("dim 3\n1 2 1 1\n1 3 2 1\n")
    code, out, _ = invoke(capsys, "analyze", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["jacobi_ok"] is False
    assert [1, 2, 3, 2] in report["jacobi_violations"]


def test_analyze_dimension_nine_reports_every_odd_class(capsys, tmp_path) -> None:
    sl2 = catalog.get("sl2", kind="algebra").payload
    constants = {
        (i + shift, j + shift, k + shift): value
        for shift in (0, 3, 6)
        for (i, j, k), value in sl2.c.items()
    }
    path = tmp_path / "sl2_cubed.lie"
    path.write_text(serialize_algebra(lie_algebra(9, constants)))
    code, out, _ = invoke(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 0, 3, 0, 0, 3, 0, 0, 1]
    assert sorted(report["classes"]) == ["1", "3", "5", "7", "9"]
    assert report["classes"]["3"] == "nonzero class"


def test_analyze_max_degree_limits_trace_forms(capsys, monkeypatch) -> None:
    # one recursion per analyze, up to the largest odd degree it reports
    tops = []
    trace_forms = cohomology.trace_forms

    def counted(alg, top):
        tops.append(top)
        return trace_forms(alg, top)

    monkeypatch.setattr(cohomology, "trace_forms", counted)
    monkeypatch.setattr(forms, "trace_form", None)
    code, out, _ = invoke(capsys, "analyze", "catalog:sl2", "--max-degree", "1")
    assert code == 0
    assert json.loads(out)["classes"] == {"1": "zero form"}
    assert tops == [1]
    code, out, _ = invoke(capsys, "analyze", "catalog:sl2_plus_abelian2", "--max-degree", "4")
    assert code == 0
    assert json.loads(out)["classes"] == {"1": "zero form", "3": "nonzero class"}
    assert tops == [1, 3]


def test_analyze_max_degree_zero_reports_no_class(capsys) -> None:
    # no odd degree up to 0, so no trace form is built
    code, out, err = invoke(capsys, "analyze", "catalog:sl2", "--max-degree", "0")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["betti"] == [1]
    assert report["classes"] == {}


def test_analyze_negative_max_degree_exits_two(capsys) -> None:
    code, out, err = invoke(capsys, "analyze", "catalog:sl2", "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err and "at least 0" in err


OVER_THE_BETTI_CAP = f"dim {cohomology.BETTI_DIM_CAP + 1}\n1 2 3 1\n"
# the message of cohomology.check_betti_size, the one Betti-cap refusal
BETTI_CAP_REFUSAL = (
    f"error: dimension {cohomology.BETTI_DIM_CAP + 1} exceeds the Betti cap {cohomology.BETTI_DIM_CAP}\n"
)


@pytest.mark.parametrize(
    "command",
    [
        (["analyze"], OVER_THE_BETTI_CAP, BETTI_CAP_REFUSAL),
        (["cohomology", "--degree", "1"], OVER_THE_BETTI_CAP, BETTI_CAP_REFUSAL),
        # fails Jacobi, but a degree outside 0..dim is refused first
        (["cohomology", "--degree", "99"], "dim 3\n1 2 1 1\n1 3 2 1\n", "error: degree 99 outside 0..3\n"),
    ],
)
def test_oversized_input_exits_two_before_jacobi(capsys, monkeypatch, tmp_path, command) -> None:
    argv, text, message = command

    def refuse(self):
        raise AssertionError("validate ran on an input that fails the size check")

    monkeypatch.setattr(LieAlgebra, "validate", refuse)
    path = tmp_path / "big.lie"
    path.write_text(text)
    code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("path", sorted(BENCH_REFERENCE.glob("*.json")), ids=lambda path: path.stem)
def test_the_bench_reference_reports_replay_byte_for_byte(capsys, path: Path) -> None:
    # the bench compares every analyze, forms and cohomology job with these
    # stored reports; replayed here, a change to any of them fails every test
    # run. The stored argv names inputs by the absolute path of the checkout
    # that wrote it, so each is re-rooted at this checkout's bench/inputs.
    reference = json.loads(path.read_text())
    argv = [str(BENCH_INPUTS / Path(arg).name) if "/bench/inputs/" in arg else arg for arg in reference["argv"]]
    code, out, err = invoke(capsys, *argv)
    report = json.loads(out)
    report.pop("timing", None)
    assert (code, report) == (reference["exit_code"], reference["report"]), err


def test_the_bench_reference_reports_are_all_replayed() -> None:
    assert len(list(BENCH_REFERENCE.glob("*.json"))) == 14


@pytest.mark.parametrize("token", ["1e10000000", "0.5"])
def test_a_decimal_or_exponent_constant_exits_two_at_once(capsys, tmp_path, token) -> None:
    # Fraction() would expand 1e10000000 to ten million digits and go on
    path = tmp_path / "exponent.lie"
    path.write_text(f"dim 2\n1 2 2 {token}\n")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "line 2, column 7: expected an integer or fraction p/q" in err


def test_forms_checks_jacobi_on_a_sparse_sixty_dimensional_file(capsys, tmp_path) -> None:
    # forms caps its output, not the dimension; Jacobi visits only the triples
    # through nonzero brackets
    path = tmp_path / "sparse60.lie"
    path.write_text("dim 60\n1 2 3 1\n")
    code, out, err = invoke(capsys, "forms", str(path), "--degree", "1")
    assert code == 0, err
    report = json.loads(out)
    assert report["dim"] == 60
    assert set(report["components"].values()) == {"0"}
    path.write_text("dim 60\n1 2 1 1\n1 3 2 1\n")
    code, out, _ = invoke(capsys, "forms", str(path), "--degree", "1")
    assert code == 1
    assert [1, 2, 3, 2] in json.loads(out)["jacobi_violations"]


def test_forms_degree_three_on_a_sparse_sixty_dimensional_file(capsys, tmp_path) -> None:
    # only the three nonzero adjoints enter the trace form; every zero
    # component is still printed
    path = tmp_path / "sparse60.lie"
    path.write_text("dim 60\n1 2 3 1\n")
    code, out, err = invoke(capsys, "forms", str(path), "--degree", "3")
    assert code == 0, err
    components = json.loads(out)["components"]
    assert len(components) == math.comb(60, 3) == 34220
    assert set(components.values()) == {"0"}


def test_analyze_b4_plus_abelian3_file(capsys) -> None:
    # b4 + C^3 (dimension 13, at most the Betti cap): Betti table (1+t)^7
    code, out, err = invoke(capsys, "analyze", str(BENCH_INPUTS / "b4_C3.txt"))
    assert code == 0, err
    report = json.loads(out)
    assert report["dim"] == 13
    assert report["betti"] == [math.comb(7, k) for k in range(14)]
    assert report["classes"] == {"1": "nonzero class", **{str(k): "zero form" for k in range(3, 14, 2)}}


def test_analyze_parse_error_exits_two(capsys, tmp_path) -> None:
    path = tmp_path / "bad.lie"
    path.write_text("dim 2\n1 2 2 x\n")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_analyze_unknown_catalog_name_exits_two(capsys) -> None:
    code, _, err = invoke(capsys, "analyze", "catalog:nope")
    assert code == 2
    assert err == "error: no catalog entry named 'nope' of kind 'algebra'\n"


def test_analyze_missing_file_exits_two(capsys, tmp_path) -> None:
    code, _, err = invoke(capsys, "analyze", str(tmp_path / "absent.lie"))
    assert code == 2
    assert err != ""


def test_text_format(capsys) -> None:
    code, out, _ = invoke(capsys, "analyze", "catalog:so3", "--format", "text")
    assert code == 0
    assert "betti: 1 0 0 1" in out
    assert "semisimple: True" in out


def test_forms_components(capsys) -> None:
    code, out, _ = invoke(capsys, "forms", "catalog:sl2", "--degree", "3")
    assert code == 0
    report = json.loads(out)
    assert report["components"] == {"1,2,3": "-8"}

    code, out, _ = invoke(capsys, "forms", "catalog:heisenberg3", "--degree", "3")
    assert code == 0
    assert json.loads(out)["components"] == {"1,2,3": "0"}


def test_forms_fractional_component(capsys, tmp_path) -> None:
    path = tmp_path / "half.lie"
    path.write_text("dim 2\n1 2 2 1/2\n")
    code, out, _ = invoke(capsys, "forms", str(path), "--degree", "1")
    assert code == 0
    assert json.loads(out)["components"] == {"1": "1/2", "2": "0"}


def test_forms_refuses_oversized_output_before_jacobi_and_trace_form(capsys, monkeypatch, tmp_path) -> None:
    calls = []
    monkeypatch.setattr(forms, "trace_form", lambda alg, k: calls.append(k))
    monkeypatch.setattr(LieAlgebra, "validate", lambda self: calls.append("validate"))
    path = tmp_path / "wide.lie"
    path.write_text("dim 200\n1 2 2 1\n")
    count = math.comb(200, 4)
    assert count > FORMS_COMPONENT_CAP >= math.comb(60, 3)
    code, out, err = invoke(capsys, "forms", str(path), "--degree", "4")
    assert code == 2
    assert out == ""
    assert f"{count} components" in err and "over the cap" in err
    assert calls == []


@pytest.mark.parametrize("dim, degree", [(20000, 10000), (1000000, 500000)])
def test_forms_refuses_a_count_too_long_to_print_at_once(capsys, monkeypatch, tmp_path, dim, degree) -> None:
    # C(20000, 10000) has over 6,000 digits, past the interpreter's limit on
    # printing an int, and C(10^6, 5 * 10^5) took seconds to compute in full
    monkeypatch.setattr(LieAlgebra, "validate", lambda self: pytest.fail("validate ran past the cap"))
    path = tmp_path / "wide.lie"
    path.write_text(f"dim {dim}\n1 2 2 1\n")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "forms", str(path), "--degree", str(degree))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "more than 10^100 components" in err and f"over the cap of {FORMS_COMPONENT_CAP}" in err


def test_forms_degree_out_of_range_exits_two(capsys) -> None:
    code, _, err = invoke(capsys, "forms", "catalog:sl2", "--degree", "4")
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("degree", ["0", "-1", "1000001"])
def test_forms_refuses_a_degree_out_of_range_before_jacobi(capsys, monkeypatch, tmp_path, degree) -> None:
    def refuse(self):
        raise AssertionError("validate ran for a degree out of range")

    monkeypatch.setattr(LieAlgebra, "validate", refuse)
    path = tmp_path / "huge.lie"
    path.write_text("dim 1000000\n1 2 2 1\n")
    code, out, err = invoke(capsys, "forms", str(path), "--degree", degree)
    assert code == 2
    assert out == ""
    assert err == f"error: degree {degree} outside [1, 1000000]\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["cohomology", "catalog:sl2", "--degree", "4"], "degree 4 outside"),
        (["cohomology", "catalog:sl2", "--degree", "-1"], "degree -1 outside"),
        (["forms", "catalog:sl2", "--degree", "-1"], "degree -1 outside"),
        (["curvature", "--frame", "identity(2)", "--h", "0"], "step h must be positive"),
        (["curvature", "--frame", "identity(2)", "--h", "-1"], "step h must be positive"),
        (["curvature", "--frame", "identity(2)", "--lattice", "1"], "at least 2 points per axis, got 1"),
        (["analyze", "FILE"], "'1/0'"),
    ],
)
def test_usage_errors_exit_two_with_empty_stdout(capsys, tmp_path, argv, message) -> None:
    path = tmp_path / "division_by_zero.lie"
    path.write_text("dim 2\n1 2 2 1/0\n")
    code, out, err = invoke(capsys, *(str(path) if arg == "FILE" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert message in err


def test_cohomology_report(capsys) -> None:
    code, out, _ = invoke(capsys, "cohomology", "catalog:affine1", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "betti": 1,
        "degree": 1,
        "dim": 2,
        "name": "affine1",
        "w_closed": True,
        "w_primitive": None,
        "w_status": "nonzero class",
    }


def test_cohomology_zero_form_status(capsys) -> None:
    code, out, _ = invoke(capsys, "cohomology", "catalog:heisenberg3", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == 2
    assert report["w_status"] == "zero form"


def test_cohomology_reports_class_in_degree_eight(capsys, tmp_path) -> None:
    path = tmp_path / "abelian8.lie"
    path.write_text("dim 8\n")
    code, out, _ = invoke(capsys, "cohomology", str(path), "--degree", "8")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == 1
    assert report["w_status"] == "zero form"
    assert report["w_primitive"] is None


def record_weight_zero_builds(monkeypatch) -> list[int]:
    """The degrees of the weight-zero differentials built from here on, with
    the full-basis references (betti, is_closed, is_exact and
    differential_matrix) unset, so that nothing reaches them."""
    built = []
    subcomplex_differential = cohomology.subcomplex_differential

    def recording(alg, k, row_basis, col_basis):
        built.append(k)
        return subcomplex_differential(alg, k, row_basis, col_basis)

    monkeypatch.setattr(cohomology, "subcomplex_differential", recording)
    for name in ("betti", "is_closed", "is_exact", "differential_matrix"):
        monkeypatch.setattr(cohomology, name, None)
    return built


def test_cohomology_builds_each_differential_once(capsys, monkeypatch) -> None:
    # betti and the class of w3 share one build each of the weight-zero
    # d_0, ..., d_3, and no degree reaches a full-basis reference
    built = record_weight_zero_builds(monkeypatch)
    code, out, _ = invoke(capsys, "cohomology", str(BENCH_INPUTS / "sl3.txt"), "--degree", "3")
    assert code == 0
    assert json.loads(out)["w_status"] == "nonzero class"
    assert built == [0, 1, 2, 3]
    # sl3 is unimodular, so no degree ranks past d_3 = d_((8 - 1) // 2): the
    # ranks above it are mirrored, and w3 is sl3's only nonzero trace form,
    # so no class builds a d_k of its own
    sl3_betti = [1, 0, 0, 1, 0, 1, 0, 0, 1]
    for k in range(9):
        built.clear()
        code, out, _ = invoke(capsys, "cohomology", str(BENCH_INPUTS / "sl3.txt"), "--degree", str(k))
        assert code == 0
        assert json.loads(out)["betti"] == sl3_betti[k], k
        assert built == list(range(min(k, 3) + 1)), k
    # gl2 ranks d_0 and d_1; the nonzero class of w3 is closed on d_3 and
    # solved on d_2, each built once on demand
    built.clear()
    code, out, _ = invoke(capsys, "cohomology", str(BENCH_INPUTS / "gl2.txt"), "--degree", "3")
    assert code == 0
    assert (json.loads(out)["betti"], json.loads(out)["w_status"]) == (1, "nonzero class")
    assert built == [0, 1, 3, 2]


def test_analyze_builds_each_differential_once_and_checks_jacobi_once(capsys, monkeypatch, tmp_path) -> None:
    # the Betti table and the classes share one build of each weight-zero d_k
    # and one run of the Jacobi check, and nothing reaches a full-basis reference
    validation = LieAlgebra._validation
    checked = []

    def counted(self):
        checked.append(self.dim)
        return validation.func(self)

    counted_validation = cached_property(counted)
    counted_validation.__set_name__(LieAlgebra, "_validation")
    monkeypatch.setattr(LieAlgebra, "_validation", counted_validation)
    built = record_weight_zero_builds(monkeypatch)
    gl3 = parse_algebra((BENCH_INPUTS / "gl3.txt").read_text())
    shifted = {(i + 2, j + 2, k + 2): value for (i, j, k), value in gl3.c.items()}
    path = tmp_path / "affine1_gl3.lie"
    path.write_text(serialize_algebra(lie_algebra(11, {(1, 2, 2): 1, **shifted})))
    code, out, _ = invoke(capsys, "analyze", str(path))
    assert code == 0
    # w1 of affine1 and w3 of gl3 are nonzero classes, every other odd form is 0
    expected = {str(k): "zero form" for k in range(5, 12, 2)}
    assert json.loads(out)["classes"] == {"1": "nonzero class", "3": "nonzero class", **expected}
    assert built == list(range(11))
    assert checked == [11]


def test_curvature_report(capsys) -> None:
    code, out, _ = invoke(
        capsys, "curvature", "--frame", "unipotent_sin", "--lattice", "3"
    )
    assert code == 0
    report = json.loads(out)
    norms = report["max_norms"]
    assert norms["r1_max"] == 0.0
    assert norms["r2_max"] == pytest.approx(0.93131, abs=1e-3)
    assert norms["dw_tr_r2_residual"] == 0.0
    assert norms["r_full_diagonal_max"] == 0.0
    assert norms["torsion_max"] == norms["w_max"]
    assert report["lattice_points"] == 9
    # residuals at the noise floor have no meaningful convergence ratio
    assert report["halved_h_ratios"]["r1_max"] is None


def test_curvature_convergence_ratio_on_borel(capsys) -> None:
    code, out, _ = invoke(
        capsys, "curvature", "--frame", "borel_frame", "--lattice", "3"
    )
    assert code == 0
    report = json.loads(out)
    ratio = report["halved_h_ratios"]["r1_max"]
    assert ratio is not None
    assert ratio >= 3.0


def test_curvature_unknown_frame_exits_two(capsys) -> None:
    code, _, err = invoke(capsys, "curvature", "--frame", "nope")
    assert code == 2
    assert err == "error: no catalog entry named 'nope' of kind 'frame'\n"


@pytest.mark.parametrize("extra", [[], ["--h", "0.01"]])
def test_curvature_lattice_over_cap_exits_two_before_any_evaluation(capsys, monkeypatch, extra) -> None:
    entry = catalog.get("identity(6)", kind="frame")

    def refuse(*args):
        raise AssertionError("a lattice was built or the frame evaluated")

    frame = SimpleNamespace(chart=entry.payload.chart, matrix=refuse)
    monkeypatch.setattr(catalog, "get", lambda name, kind=None: entry._replace(payload=frame))
    monkeypatch.setattr(Chart, "lattice", refuse)
    assert 6**6 > CURVATURE_LATTICE_CAP >= 5**6
    code, out, err = invoke(capsys, "curvature", "--frame", "identity(6)", "--lattice", "6", *extra)
    assert code == 2
    assert out == ""
    assert "over the cap" in err
    # 5**6 points is within the cap: the sweep starts and meets the refusal
    with pytest.raises(AssertionError, match="evaluated"):
        run(["curvature", "--frame", "identity(6)", "--lattice", "5"])


@pytest.mark.parametrize("h", ["1e-17", "1e-300", "2e-16"])
def test_curvature_rejects_steps_that_vanish_in_float(capsys, h) -> None:
    # 2e-16 still moves every corner of unipotent_sin's box, but the halved
    # step 1e-16 does not move 1.2
    code, out, err = invoke(capsys, "curvature", "--frame", "unipotent_sin", "--h", h)
    assert code == 2
    assert out == ""
    assert "vanishes in float" in err


def test_curvature_default_step_report_is_unchanged_by_an_explicit_step(capsys) -> None:
    code, default, _ = invoke(capsys, "curvature", "--frame", "unipotent_sin")
    assert code == 0
    code, explicit, _ = invoke(capsys, "curvature", "--frame", "unipotent_sin", "--h", "1e-3")
    assert code == 0
    assert explicit == default
    assert json.loads(explicit)["max_norms"]["r2_max"] > 0.5


@pytest.mark.parametrize(
    ("kind", "name"),
    [
        pytest.param(kind, name, id=name)
        for kind, name in (n.split(":", 1) for n in catalog.list_names())
        if kind != "algebra"
    ],
)
def test_curvature_sweep_in_blocks_equals_one_block(capsys, monkeypatch, kind, name) -> None:
    # blocks of 7 points leave an uneven last block (one point of the
    # 3**6-point lattice) and pair each block with a mirror block elsewhere;
    # dimensions 5 and 6 run at --lattice 3, as one block of 5**6 points
    # would hold about 1 GB. Frames run both sweeps, the CLI and
    # local_algebra; multiplications the log-det check and local_algebra
    # of their left-translation frame.
    entry = catalog.get(name, kind=kind)
    chart = entry.payload.chart
    lattice = 5 if chart.dim <= 4 else 3
    centre = tuple((lo + hi) / 2 for lo, hi in zip(chart.lower, chart.upper))
    frame = entry.payload if kind == "frame" else geometry.frame_from_multiplication(entry.payload)

    def local_algebra():
        try:
            return geometry.local_algebra(frame, centre, lattice).c
        except geometry.LocalAlgebraError as exc:
            return str(exc)

    def results():
        if kind == "multiplication":
            return geometry.log_det_ad_primitive_check(entry.payload, lattice), local_algebra()
        halved = geometry.FrameField(chart=chart.with_step(chart.h / 2), matrix=frame.matrix)
        maxima = [geometry.curvature_sweep(f, lattice) for f in (frame, halved)]
        return maxima, invoke(capsys, "curvature", "--frame", name, "--lattice", str(lattice)), local_algebra()

    monkeypatch.setattr(geometry, "SWEEP_BLOCK_POINTS", lattice**chart.dim)
    one_block = results()
    monkeypatch.setattr(geometry, "SWEEP_BLOCK_POINTS", 7)
    assert results() == one_block
    if kind == "frame":
        assert one_block[1][0] == 0


@pytest.mark.parametrize("name", [n.split(":", 1)[1] for n in catalog.list_names() if n.startswith("frame:")])
def test_curvature_runs_the_halved_sweep_only_when_a_ratio_reads_it(capsys, monkeypatch, name) -> None:
    frame = catalog.get(name, kind="frame").payload
    chart = frame.chart
    lattice = 5 if chart.dim <= 4 else 3
    halved = geometry.FrameField(chart=chart.with_step(chart.h / 2), matrix=frame.matrix)
    coarse, fine = (geometry.curvature_sweep(f, lattice) for f in (frame, halved))
    expected = {
        key: round(coarse[key] / fine[key], 3) if coarse[key] > 1e-10 and fine[key] > 0 else None
        for key in ("r1_max", "dw_tr_r2_residual", "r_full_diagonal_max")
    }
    steps = []
    sweep = geometry.curvature_sweep
    monkeypatch.setattr(geometry, "curvature_sweep", lambda f, n: steps.append(f.chart.h) or sweep(f, n))
    code, out, _ = invoke(capsys, "curvature", "--frame", name, "--lattice", str(lattice))
    assert code == 0
    assert json.loads(out)["halved_h_ratios"] == expected
    # identity frames and unipotent_sin have no residual above the noise
    # floor, so no ratio would read a halved sweep
    exact = name.startswith("identity(") or name == "unipotent_sin"
    assert steps == ([chart.h] if exact else [chart.h, chart.h / 2])
    assert (set(expected.values()) == {None}) == exact


def test_curvature_output_is_deterministic(capsys) -> None:
    _, first, _ = invoke(capsys, "curvature", "--frame", "affine_halfplane", "--lattice", "3")
    _, second, _ = invoke(capsys, "curvature", "--frame", "affine_halfplane", "--lattice", "3")
    assert first == second


def test_catalog_list(capsys) -> None:
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.split() == ["algebra", "sl2"] for line in lines)
    assert any(line.split() == ["frame", "borel_frame"] for line in lines)


def test_catalog_show(capsys) -> None:
    code, out, _ = invoke(capsys, "catalog", "show", "borel_frame")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "frame"
    assert report["chart"]["lower"] == [0.5, -1.0]

    code, out, _ = invoke(capsys, "catalog", "show", "sl2")
    assert code == 0
    assert "definition" in json.loads(out)


@pytest.mark.parametrize(
    ("name", "dim", "lower", "upper", "identity"),
    [
        ("multiplication:abelian(3)", 3, [-1.0] * 3, [1.0] * 3, [0.0] * 3),
        ("borel_sl2_group", 2, [0.5, -1.0], [2.5, 1.0], [1.0, 0.0]),
    ],
)
def test_catalog_show_multiplication(capsys, name, dim, lower, upper, identity) -> None:
    code, out, _ = invoke(capsys, "catalog", "show", name)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "multiplication"
    assert report["dim"] == dim
    assert report["chart"] == {"lower": lower, "upper": upper, "h": 0.001}
    assert report["identity"] == identity


def test_catalog_show_unknown_exits_two(capsys) -> None:
    code, _, err = invoke(capsys, "catalog", "show", "nope")
    assert code == 2
    assert err == "error: no catalog entry named 'nope'\n"


def test_verify_single_suite(capsys) -> None:
    code, out, _ = invoke(capsys, "verify", "--suite", "algebra")
    assert code == 0
    assert "PASS algebra.jacobi_all_catalog" in out
    assert out.strip().endswith("passed, 0 failed")


def test_verify_reports_a_failing_check_and_exits_one(capsys, monkeypatch) -> None:
    from liechar import verify

    def failing() -> None:
        raise AssertionError("residual 1 over tolerance 0")

    monkeypatch.setitem(verify.SUITES, "broken", lambda: [("always", failing)])
    code, out, err = invoke(capsys, "verify", "--suite", "broken")
    assert code == 1
    assert out == "FAIL broken.always: residual 1 over tolerance 0\n0 passed, 1 failed\n"
    assert err == ""


def test_verify_rejects_unknown_suite(capsys) -> None:
    # an empty name is a name too, not a request for every suite
    for name in ("nosuch", ""):
        code, out, err = invoke(capsys, "verify", "--suite", name)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: unknown verification suite {name!r};")
        for suite in ("algebra", "forms", "cohomology", "jets", "geometry", "catalog"):
            assert repr(suite) in err


def test_missing_required_argument_exits_two(capsys) -> None:
    code, _, _ = invoke(capsys, "curvature")
    assert code == 2


def test_no_arguments_shows_usage(capsys) -> None:
    code, _, err = invoke(capsys)
    assert code == 2
    assert "usage" in err.lower() or err == ""


def test_module_entry_point_smoke() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "liechar.cli", "analyze", "catalog:abelian(2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["betti"] == [1, 2, 1]


@pytest.mark.parametrize("argv", [["analyze", "catalog:sl2"], ["curvature", "--frame", "borel_frame"]])
def test_closed_stdout_exits_two_without_a_traceback(argv) -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["--help"], ["catalog", "--help"]])
def test_help_into_a_closed_stdout_exits_two_without_a_traceback(argv, unbuffered) -> None:
    # unbuffered, the help write itself fails, which argparse alone would ignore
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["catalog", "list"], ["--help"], ["analyze", "catalog:sl2"]])
def test_full_stdout_exits_two_with_one_error_line(argv) -> None:
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"
