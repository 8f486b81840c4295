"""The built-in check suites report structured, all-green results."""

import re
import numpy as np
import pytest

from liechar import catalog, geometry
from liechar.verify import SUITES, CheckResult, _assert_fd_zero, _check, _each, run_suites


def test_suite_registry_names() -> None:
    assert set(SUITES) == {
        "algebra",
        "forms",
        "cohomology",
        "jets",
        "geometry",
        "catalog",
    }


def test_selected_suites_pass_and_tag_results() -> None:
    results = run_suites(["forms", "jets"])
    assert results
    assert {r.suite for r in results} == {"forms", "jets"}
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.ok, f"{r.suite}.{r.name}: {r.detail}"


def test_every_suite_passes() -> None:
    results = run_suites()
    assert len(results) == 29
    assert {r.suite for r in results} == set(SUITES)
    failed = [f"{r.suite}.{r.name}: {r.detail}" for r in results if not r.ok]
    assert not failed, failed


def test_failures_are_reported_not_raised() -> None:
    # a deliberately broken check must come back as a failed result
    def boom() -> None:
        raise AssertionError("expected mismatch")

    def crash() -> None:
        raise RuntimeError("unrelated breakage")

    results = [_check("demo", "assertion", boom), _check("demo", "crash", crash)]
    assert [r.ok for r in results] == [False, False]
    assert "expected mismatch" in results[0].detail
    assert "RuntimeError" in results[1].detail


def test_each_names_the_failing_entry_first_and_stops_there() -> None:
    names = [qualified.split(":", 1)[1] for qualified in catalog.list_names() if qualified.startswith("frame:")]
    seen = []

    def second_fails(frame) -> None:
        seen.append(frame)
        if len(seen) == 2:
            raise AssertionError("second entry fails")

    result = _check("demo", "each", _each("frame", second_fails))
    assert (result.ok, result.detail) == (False, f"{names[1]}: second entry fails")
    assert [id(frame) for frame in seen] == [id(catalog.get(name, kind="frame").payload) for name in names[:2]]

    def crash(frame) -> None:
        raise RuntimeError("unrelated breakage")

    result = _check("demo", "each", _each("frame", crash))
    assert result.detail == f"{names[0]}: RuntimeError: unrelated breakage"


def test_fd_zero_failure_names_the_quantity_and_its_worst_ratio() -> None:
    # h = 0.5 puts the tolerance 10 h^2 max(1, scale) at 2.5 max(1, scale), exactly
    _assert_fd_zero("residual", np.array([1.0, 5.0]), 0.5, np.array([1.0, 2.0]))
    with pytest.raises(AssertionError, match=r"^residual reaches 3\.00x its tol$"):
        _assert_fd_zero("residual", np.array([1.0, 7.5]), 0.5, np.array([1.0, 1.0]))


def test_an_offset_splitting_gamma_fails_the_geometry_check(monkeypatch) -> None:
    # the stencil's gamma is the reference, so a mutant of the splitting
    # route must fail the one check that compares them
    route = geometry.gamma_from_splitting

    def offset(frame, x):
        return geometry.ConnectionSample(gamma=route(frame, x).gamma + 1e-3)

    monkeypatch.setattr(geometry, "gamma_from_splitting", offset)
    by_name = {r.name: r for r in run_suites(["geometry"])}
    result = by_name["splitting_gamma_and_invariant_fields"]
    first = next(q.split(":", 1)[1] for q in catalog.list_names() if q.startswith("frame:"))
    assert not result.ok
    assert re.fullmatch(rf"{re.escape(first)}: gamma from the splitting reaches \d+\.\d\dx its tol", result.detail)
    assert all(r.ok for r in by_name.values() if r is not result)
