"""The built-in check suites report structured, all-green results."""

from liechar.verify import SUITES, CheckResult, run_suites


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
    assert len(results) == 27
    assert {r.suite for r in results} == set(SUITES)
    failed = [f"{r.suite}.{r.name}: {r.detail}" for r in results if not r.ok]
    assert not failed, failed


def test_failures_are_reported_not_raised() -> None:
    # a deliberately broken check must come back as a failed result
    from liechar.verify import _check

    results: list[CheckResult] = []

    def boom() -> None:
        raise AssertionError("expected mismatch")

    def crash() -> None:
        raise RuntimeError("unrelated breakage")

    _check(results, "demo", "assertion", boom)
    _check(results, "demo", "crash", crash)
    assert [r.ok for r in results] == [False, False]
    assert "expected mismatch" in results[0].detail
    assert "RuntimeError" in results[1].detail
