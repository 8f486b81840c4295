"""Line-oriented text format for Lie algebras.

    # comments run to end of line
    dim 3
    basis X H Y          # optional, exactly dim labels
    1 2 1 -2             # c_{12}^1 = -2, indices 1-based, i < j
    1 3 2 1
    2 3 3 -2

Values are integers or fractions p/q. Unspecified constants are zero.
Parse errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import LieAlgebra

_TOKEN = re.compile(r"\S+")
# an integer, or p/q, in ASCII digits: int() alone would also take
# underscores and non-ASCII digits, and Fraction() decimals and exponents,
# expanding 1e10000000 digit by digit
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class AlgebraFileError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _tokens(raw_line: str) -> list[tuple[int, str]]:
    text = raw_line.split("#", 1)[0]
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(text)]


def _parse_int(token: str, lineno: int, column: int, what: str) -> int:
    try:
        if _INTEGER.fullmatch(token):
            return int(token)
    except ValueError:
        pass
    raise AlgebraFileError(lineno, column, f"expected an integer {what}, got {token!r}")


def _parse_fraction(token: str, lineno: int, column: int) -> Fraction:
    """The value of an integer or p/q token, built from the digits that
    _RATIONAL matched; the interpreter's limit on integer strings bounds the
    length of p and q."""
    match = _RATIONAL.fullmatch(token)
    try:
        if match:
            numerator, denominator = match.groups()
            return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))
    except (ValueError, ZeroDivisionError):
        pass
    raise AlgebraFileError(lineno, column, f"expected an integer or fraction p/q, got {token!r}")


def parse_algebra(text: str) -> LieAlgebra:
    dim: int | None = None
    names: tuple[str, ...] = ()
    constants: dict[tuple[int, int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        column, head = tokens[0]
        if dim is None:
            if head != "dim":
                raise AlgebraFileError(lineno, column, f"first line must be 'dim n', got {head!r}")
            if len(tokens) != 2:
                raise AlgebraFileError(lineno, column, "'dim' takes exactly one value")
            dim = _parse_int(tokens[1][1], lineno, tokens[1][0], "dimension")
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
        i = _parse_int(ti, lineno, ci, "index i")
        j = _parse_int(tj, lineno, cj, "index j")
        k = _parse_int(tk, lineno, ck, "index k")
        for col, idx, label in ((ci, i, "i"), (cj, j, "j"), (ck, k, "k")):
            if not 1 <= idx <= dim:
                raise AlgebraFileError(lineno, col, f"index {label}={idx} outside 1..{dim}")
        if i >= j:
            raise AlgebraFileError(lineno, ci, f"constants must be given with i < j, got i={i}, j={j}")
        if (i, j, k) in constants:
            raise AlgebraFileError(lineno, ci, f"duplicate constant for ({i},{j},{k})")
        constants[(i, j, k)] = _parse_fraction(tv, lineno, cv)
    if dim is None:
        raise AlgebraFileError(1, 1, "missing 'dim n' line")
    return LieAlgebra(dim=dim, c=constants, names=names)


def serialize_algebra(alg: LieAlgebra) -> str:
    lines = [f"dim {alg.dim}"]
    default = tuple(f"e{i}" for i in range(1, alg.dim + 1))
    if alg.names != default:
        lines.append("basis " + " ".join(alg.names))
    for (i, j, k) in sorted(alg.c):
        lines.append(f"{i} {j} {k} {alg.c[(i, j, k)]}")
    return "\n".join(lines) + "\n"
