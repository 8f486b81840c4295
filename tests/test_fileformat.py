"""Text format for structure constants: parse errors carry positions."""

import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liechar import catalog
from liechar.algebra import LieAlgebra
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
        assert parse_algebra(serialize_algebra(alg)) == alg, entry.name


def test_list_labels_are_stored_as_a_tuple_and_round_trip() -> None:
    g = LieAlgebra(2, {(1, 2, 2): 1}, names=["t", "s"])
    assert g.names == ("t", "s")
    assert repr(g).endswith("names=('t', 's'))")
    assert parse_algebra(serialize_algebra(g)) == g


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


# The reader as it was written with regular expressions, kept as the oracle
# of test_the_reader_matches_the_regex_reader: the same accepted texts, the
# same algebras, the same errors.
_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _regex_tokens(raw_line: str) -> list[tuple[int, str]]:
    text = raw_line.split("#", 1)[0]
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(text)]


def _regex_int(token: str, lineno: int, column: int, what: str) -> int:
    try:
        if _INTEGER.fullmatch(token):
            return int(token)
    except ValueError:
        pass
    raise AlgebraFileError(lineno, column, f"expected an integer {what}, got {token!r}")


def _regex_fraction(token: str, lineno: int, column: int) -> Fraction:
    match = _RATIONAL.fullmatch(token)
    try:
        if match:
            numerator, denominator = match.groups()
            return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))
    except (ValueError, ZeroDivisionError):
        pass
    raise AlgebraFileError(lineno, column, f"expected an integer or fraction p/q, got {token!r}")


def regex_parse_algebra(text: str) -> LieAlgebra:
    dim: int | None = None
    names: tuple[str, ...] = ()
    constants: dict[tuple[int, int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _regex_tokens(raw)
        if not tokens:
            continue
        column, head = tokens[0]
        if dim is None:
            if head != "dim":
                raise AlgebraFileError(lineno, column, f"first line must be 'dim n', got {head!r}")
            if len(tokens) != 2:
                raise AlgebraFileError(lineno, column, "'dim' takes exactly one value")
            dim = _regex_int(tokens[1][1], lineno, tokens[1][0], "dimension")
            if dim < 1:
                raise AlgebraFileError(lineno, tokens[1][0], f"dimension must be positive, got {dim}")
            continue
        if head == "basis":
            if names:
                raise AlgebraFileError(lineno, column, "duplicate 'basis' line")
            if constants:
                raise AlgebraFileError(lineno, column, "'basis' must precede structure constants")
            if len(tokens) != dim + 1:
                raise AlgebraFileError(lineno, column, f"'basis' needs exactly {dim} labels, got {len(tokens) - 1}")
            names = tuple(tok for _, tok in tokens[1:])
            continue
        if head == "dim":
            raise AlgebraFileError(lineno, column, "duplicate 'dim' line")
        if len(tokens) != 4:
            raise AlgebraFileError(lineno, column, f"constant lines are 'i j k p/q' (4 fields), got {len(tokens)}")
        (ci, ti), (cj, tj), (ck, tk), (cv, tv) = tokens
        i = _regex_int(ti, lineno, ci, "index i")
        j = _regex_int(tj, lineno, cj, "index j")
        k = _regex_int(tk, lineno, ck, "index k")
        for col, idx, label in ((ci, i, "i"), (cj, j, "j"), (ck, k, "k")):
            if not 1 <= idx <= dim:
                raise AlgebraFileError(lineno, col, f"index {label}={idx} outside 1..{dim}")
        if i >= j:
            raise AlgebraFileError(lineno, ci, f"constants must be given with i < j, got i={i}, j={j}")
        if (i, j, k) in constants:
            raise AlgebraFileError(lineno, ci, f"duplicate constant for ({i},{j},{k})")
        constants[(i, j, k)] = _regex_fraction(tv, lineno, cv)
    if dim is None:
        raise AlgebraFileError(1, 1, "missing 'dim n' line")
    return LieAlgebra(dim=dim, c=constants, names=names)


def outcome(parse, text: str):
    """The algebra parse reads from text, or its error's position and message."""
    try:
        return parse(text)
    except AlgebraFileError as exc:
        return exc.line, exc.column, str(exc)


# the tokens the installed-script checks refuse, and more of their kind
BAD_TOKENS = ["1e100000000", "1_0", "٣", "３", "7" * 5000, "1/" + "7" * 5000, "1/0"]
BAD_TOKENS += ["0x3", "2.0", "+", "1/-2", "1/+2", "1/", "/2"]
SPACE = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0"])


def integer_token(value: int) -> st.SearchStrategy[str]:
    """value as a token, perhaps signed or zero-padded."""
    digits = str(abs(value))
    signs = ["-"] if value < 0 else ["", "+"]
    return st.sampled_from([sign + pad + digits for sign in signs for pad in ("", "0", "00")])


def value_tokens() -> st.SearchStrategy[str]:
    integer = st.integers(-9, 9).flatmap(integer_token)
    # p/q with q in 0..12, the odd ones zero-padded to two digits
    fraction = st.tuples(integer, st.integers(0, 12)).map(lambda t: f"{t[0]}/{t[1]:0{1 + t[1] % 2}d}")
    return st.one_of(integer, fraction)


@st.composite
def constant_line(draw, dim: int) -> list[str]:
    """i j k p/q, mostly with 1 <= i < j <= dim and 1 <= k <= dim."""
    i = draw(st.integers(1, dim - 1))
    j, k = draw(st.integers(i + 1, dim)), draw(st.integers(1, dim))
    if draw(st.integers(0, 4)) == 0:  # out of range or descending
        i, j, k = draw(st.permutations([i, j, draw(st.integers(-1, dim + 1))]))
    return [draw(integer_token(x)) for x in (i, j, k)] + [draw(value_tokens())]


@st.composite
def algebra_texts(draw) -> str:
    """A dim line (mostly first), then constant lines, repeated and out of
    order ones among them, misplaced dim and basis lines, the bad tokens in
    any field, blanks, comments, tabs, no-break spaces and CRLF."""
    dim = draw(st.integers(2, 4))
    constant = constant_line(dim)
    bad = st.sampled_from(BAD_TOKENS + ["x", "dim", "basis"])
    # a few of each kind of odd line among mostly well-formed constants
    odd = st.one_of(
        st.tuples(constant, st.integers(0, 3), bad).map(lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]),
        st.lists(st.one_of(value_tokens(), bad), max_size=5),
        st.tuples(st.just("dim"), st.one_of(st.integers(-1, 5).flatmap(integer_token), bad)).map(list),
        st.lists(st.sampled_from(["x", "y", "α"]), min_size=dim - 1, max_size=dim + 1).map(lambda b: ["basis", *b]),
        st.just([]),
    )
    line = st.integers(0, 9).flatmap(lambda kind: odd if kind == 0 else constant)
    lines = []
    for fields in draw(st.lists(line, max_size=10)):
        text = draw(SPACE).join(fields)
        if draw(st.booleans()):
            text = draw(SPACE) + text
        if draw(st.integers(0, 3)) == 0:
            text += draw(SPACE) + "# " + draw(st.sampled_from(["note", "1 2 3 4", "dim 2"]))
        lines.append(text)
    if draw(st.integers(0, 19)):
        lines.insert(0, "dim" + draw(SPACE) + draw(integer_token(dim)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(algebra_texts())
@example("dim 3\r\nbasis a b c\r\n1 2 3 -06/4 # x\r\n\t1 3 2 +1\n2 3 1 0/7\n")
@example("dim 3\n1\u00a0\u00a02 3 1\n1 2 3 1e100000000\n")
@example("dim 3\n1 2 3 1\n2 3 1 1_0\n")
@example("dim 3\n\t2 3 3 1/0\n")
@example("dim 2\n1 2 2 1/+2\n")
@example("dim 3\n 1  2  ٣ 1\n")
@example("dim 3\n1 3 3 1\n 1 3 3 2\n")
@example("dim 3\n3 1 1 1\n")
@example("dim 3\n1 2 4 1\n")
@example("dim 3\n1 2 3 " + "7" * 5000 + "\n")
@example("dim 2\n1 2 2 1\nbasis a b\n")
@example("dim 2\nbasis a b\nbasis a b\n")
@example("# header\n\n1 2 2 1\n")
@example("dim 2 2\n")
@example("dim 2\ndim 2\n")
def test_the_reader_matches_the_regex_reader(text: str) -> None:
    assert outcome(parse_algebra, text) == outcome(regex_parse_algebra, text)


@pytest.mark.parametrize(
    "text, line, column, match",
    [
        # 5,001 digits: past the interpreter's limit on integer digits, so
        # int() raises and the reader reports the token as no integer
        ("dim 1" + "0" * 5000 + "\n", 1, 5, "expected an integer"),
        ("dim 2\n1 2 1" + "0" * 5000 + " 1\n", 2, 5, "expected an integer"),
    ],
)
def test_reader_refusals_name_their_line_and_column(text, line, column, match) -> None:
    with pytest.raises(AlgebraFileError, match=match) as exc:
        parse_algebra(text)
    assert (exc.value.line, exc.value.column) == (line, column)
