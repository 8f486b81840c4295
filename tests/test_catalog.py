"""Built-in worked examples: lookup rules and entry invariants."""

import numpy as np
import pytest

from liechar import catalog
from liechar.algebra import LieAlgebra
from liechar.geometry import FrameField, LocalGroupMultiplication


def test_list_names_is_sorted_and_prefixed() -> None:
    names = catalog.list_names()
    assert names == sorted(names)
    assert "algebra:sl2" in names
    assert "frame:unipotent_sin" in names
    assert "multiplication:borel_sl2_group" in names


def test_kind_specific_name_lists() -> None:
    names = catalog.list_names()
    assert len(names) == 29
    for kind, count in (("algebra", 12), ("frame", 9), ("multiplication", 8)):
        assert sum(name.startswith(f"{kind}:") for name in names) == count, kind
    assert "algebra:abelian(6)" in names
    assert "frame:identity(1)" in names


def test_get_by_kind() -> None:
    assert isinstance(catalog.get("sl2", kind="algebra").payload, LieAlgebra)
    assert isinstance(catalog.get("borel_frame", kind="frame").payload, FrameField)
    assert isinstance(
        catalog.get("affine_group", kind="multiplication").payload,
        LocalGroupMultiplication,
    )


def test_ambiguous_name_prefers_algebra() -> None:
    # abelian(3) exists as algebra and multiplication; bare lookup gets the algebra
    entry = catalog.get("abelian(3)")
    assert entry.kind == "algebra"
    other = catalog.get("abelian(3)", kind="multiplication")
    assert other.kind == "multiplication"


def test_prefixed_lookup() -> None:
    entry = catalog.get("multiplication:abelian(2)")
    assert entry.kind == "multiplication"


def test_unknown_names_rejected() -> None:
    with pytest.raises(KeyError):
        catalog.get("abelian(7)")
    with pytest.raises(KeyError):
        catalog.get("abelian(0)")
    with pytest.raises(KeyError):
        catalog.get("abelian(01)")  # only the canonical spelling resolves
    with pytest.raises(KeyError):
        catalog.get("sl2", kind="frame")
    with pytest.raises(KeyError):
        catalog.get("nonsense")


def test_entries_carry_notes() -> None:
    for entry in catalog.list_entries():
        assert entry.note, entry.name


def test_all_algebra_entries_validate() -> None:
    for entry in catalog.list_entries():
        if entry.kind == "algebra":
            assert entry.payload.validate().ok, entry.name


def test_all_frame_entries_are_invertible_on_lattice() -> None:
    # FrameField construction itself enforces the determinant floor;
    # re-check directly so a regression in the check cannot hide
    for entry in catalog.list_entries():
        if entry.kind != "frame":
            continue
        frame = entry.payload
        for x in frame.chart.lattice(3):
            assert abs(np.linalg.det(frame.matrix(x))) >= 1e-6


def test_all_multiplications_satisfy_group_laws() -> None:
    rng = np.random.default_rng(20240801)
    for entry in catalog.list_entries():
        if entry.kind != "multiplication":
            continue
        mult = entry.payload
        lo = np.array(mult.chart.lower)
        hi = np.array(mult.chart.upper)
        for x in mult.chart.lattice(3):
            assert mult.identity_residual(x) <= 1e-12, entry.name
        for _ in range(20):
            a, b, c = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(3, mult.chart.dim))
            assert mult.associativity_residual(a, b, c) <= 1e-12, entry.name


def test_identity_frames_cover_dimensions_one_through_six() -> None:
    for n in range(1, 7):
        frame = catalog.get(f"identity({n})", kind="frame").payload
        assert frame.chart.dim == n
        x = np.zeros(n)
        assert np.array_equal(frame.matrix(x), np.eye(n))


def test_each_entry_is_built_once_and_shared() -> None:
    entries = catalog.list_entries()
    for qualified, entry in zip(catalog.list_names(), entries):
        kind, name = qualified.split(":", 1)
        assert catalog.get(name, kind=kind) is catalog.get(name, kind=kind) is entry
        assert catalog.get(qualified) is entry
    assert all(again is entry for again, entry in zip(catalog.list_entries(), entries))


def test_a_failing_build_is_not_kept(monkeypatch) -> None:
    builds = []

    def broken():
        builds.append(1)
        raise ValueError("frame is singular")

    monkeypatch.setitem(catalog._TABLE, ("frame", "broken"), ("never builds", broken))
    for _ in range(2):
        with pytest.raises(ValueError, match="singular"):
            catalog.get("frame:broken")
    assert len(builds) == 2


def test_multiplication_identity_is_a_read_only_copy() -> None:
    shared = catalog.get("multiplication:abelian(3)").payload
    with pytest.raises(ValueError):
        shared.identity[0] = 1.0
    assert np.array_equal(shared.identity, np.zeros(3))
    template = catalog.get("affine_group", kind="multiplication").payload
    own = np.array([1.0, 0.0])
    mult = LocalGroupMultiplication(chart=template.chart, multiply=template.multiply, identity=own)
    assert own.flags.writeable and not mult.identity.flags.writeable
    own[0] = 2.0
    assert np.array_equal(mult.identity, [1.0, 0.0])


@pytest.mark.parametrize(
    "name, kind, match",
    [
        ("sl2", "bogus", "unknown catalog kind 'bogus'"),
        ("sl2", "", "unknown catalog kind ''"),
        ("frame:sl2", "Algebra", "unknown catalog kind 'Algebra'"),
    ],
)
def test_get_refuses_an_unknown_kind(name, kind, match) -> None:
    with pytest.raises(KeyError, match=match):
        catalog.get(name, kind=kind)
