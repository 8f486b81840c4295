"""Text format for structure constants: parse errors carry positions."""

import tracemalloc
from fractions import Fraction

import pytest

from liechar import catalog
from liechar.fileformat import AlgebraFileError, parse_algebra, serialize_algebra


def test_parse_minimal_algebra() -> None:
    alg = parse_algebra("dim 2\n1 2 2 1\n")
    assert alg.dim == 2
    assert alg.structure_constant(1, 2, 2) == Fraction(1)
    assert alg.names == ("e1", "e2")


def test_parse_with_basis_names_comments_and_fractions() -> None:
    text = """
# three generators
dim 3
basis p q z

1 2 3 1/2   # [p, q] = z/2
"""
    alg = parse_algebra(text)
    assert alg.names == ("p", "q", "z")
    assert alg.structure_constant(1, 2, 3) == Fraction(1, 2)


def test_round_trip_catalog_algebras() -> None:
    for entry in catalog.list_entries():
        if entry.kind != "algebra":
            continue
        alg = entry.payload
        again = parse_algebra(serialize_algebra(alg))
        assert again.dim == alg.dim
        assert again.names == alg.names
        assert again.c == alg.c, entry.name


def test_serialize_negative_and_fractional_values() -> None:
    alg = parse_algebra("dim 2\nbasis a b\n1 2 1 -3/4\n")
    text = serialize_algebra(alg)
    assert "basis a b" in text
    assert "1 2 1 -3/4" in text
    assert parse_algebra(text).c == alg.c


def test_missing_dim_line() -> None:
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("1 2 2 1\n")
    assert exc.value.line == 1


def test_empty_input() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("# nothing here\n")


def test_bad_dimension_value() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim zero\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 0\n")


def test_duplicate_dim_line() -> None:
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("dim 2\ndim 3\n")
    assert exc.value.line == 2


def test_constant_line_wrong_field_count() -> None:
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("dim 2\n1 2 2\n")
    assert exc.value.line == 2


def test_constant_line_bad_token_reports_column() -> None:
    text = "dim 2\n1 2 2 x\n"
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra(text)
    assert exc.value.line == 2
    assert exc.value.column == 7


def test_indices_must_be_ascending() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 2\n2 1 2 1\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 2\n1 1 2 1\n")


def test_indices_must_be_in_range() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 2\n1 3 2 1\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 2\n0 2 2 1\n")


def test_duplicate_constant_rejected() -> None:
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("dim 2\n1 2 2 1\n1 2 2 1\n")
    assert exc.value.line == 3


def test_basis_count_must_match_dim() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 3\nbasis a b\n")


def test_basis_after_constants_rejected() -> None:
    with pytest.raises(AlgebraFileError):
        parse_algebra("dim 2\n1 2 2 1\nbasis a b\n")


def test_error_message_carries_position() -> None:
    try:
        parse_algebra("dim 2\n1 2 2 1/0\n")
    except AlgebraFileError as exc:
        assert exc.line == 2
        assert "line 2" in str(exc)
    else:
        pytest.fail("zero denominator must be rejected")


@pytest.mark.parametrize("token", ["1e10000000", "1e100000000", "0.5", "1.", "-.5", "1_000", "inf", "1/-2", "1/2/3"])
def test_constant_must_be_an_integer_or_p_over_q(token) -> None:
    # Fraction() would take the decimals and exponents, and expand 1e10000000
    with pytest.raises(AlgebraFileError, match="expected an integer or fraction p/q") as exc:
        parse_algebra(f"dim 2\n1 2 2 {token}\n")
    assert (exc.value.line, exc.value.column) == (2, 7)


@pytest.mark.parametrize("token, value", [("3", 3), ("-3", -3), ("+3", 3), ("-6/4", Fraction(-3, 2)), ("0/5", 0)])
def test_integer_and_p_over_q_constants(token, value) -> None:
    assert parse_algebra(f"dim 2\n1 2 2 {token}\n").structure_constant(1, 2, 2) == value


def test_an_integer_over_the_interpreter_digit_limit_is_refused() -> None:
    with pytest.raises(AlgebraFileError, match="expected an integer or fraction p/q"):
        parse_algebra("dim 2\n1 2 2 1/" + "7" * 5000 + "\n")


@pytest.mark.parametrize("token", ["1_0", "٣", "３", "2.0", "0x3"])
def test_dimension_must_be_an_ascii_integer(token) -> None:
    # int() would read 1_0 as 10 and the Arabic-Indic or fullwidth 3 as 3
    with pytest.raises(AlgebraFileError, match="expected an integer dimension") as exc:
        parse_algebra(f"dim {token}\n")
    assert (exc.value.line, exc.value.column) == (1, 5)


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("token", ["٢", "0_2", "2.0"])
def test_index_must_be_an_ascii_integer(token, field) -> None:
    fields = ["1", "2", "2"]
    fields[field] = token
    with pytest.raises(AlgebraFileError, match="expected an integer index") as exc:
        parse_algebra("dim 3\n" + " ".join(fields) + " 1\n")
    assert (exc.value.line, exc.value.column) == (2, 1 + 2 * field)


@pytest.mark.parametrize("text, dim", [("dim +3\n", 3), ("dim 03\n", 3), ("dim 3\n+1 +2 03 1\n", 3)])
def test_signed_and_zero_padded_ascii_integers(text, dim) -> None:
    assert parse_algebra(text).dim == dim


def test_a_two_line_file_costs_its_constants_not_its_dimension() -> None:
    # the default labels e1 ... en are built when names is first read
    tracemalloc.start()
    try:
        g = parse_algebra("dim 1000000\n1 2 2 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert "names" not in vars(g)
    assert len(g.names) == g.dim and g.names[:2] == ("e1", "e2") and g.names[-1] == "e1000000"
    assert g.names is g.names
    assert serialize_algebra(g) == "dim 1000000\n1 2 2 1\n"
