"""Line-oriented text format for Lie algebras.

    # comments run to end of line
    dim 3
    basis X H Y          # optional, exactly dim labels
    1 2 1 -2             # c_{12}^1 = -2, indices 1-based, i < j
    1 3 2 1
    2 3 3 -2

Values are integers or fractions p/q. Unspecified constants are zero.
Parse errors carry 1-based line and column positions.

A line's fields are its whitespace-separated tokens before any '#'. An
integer is an optional sign and ASCII digits; a value is an integer or
p/q with an unsigned ASCII q. int() alone would also take underscores and
non-ASCII digits, and Fraction() decimals and exponents, expanding
1e10000000 digit by digit, so both are given only tokens that pass these
string tests, and an integer past the interpreter's digit limit is
refused. The reader tests tokens with str methods, not regular
expressions; the accepted language and every error's line, column and
message are unchanged by that.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra


class AlgebraFileError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _ascii_int(token: str) -> bool:
    """An optional sign, then one or more ASCII digits."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.isdigit() and digits.isascii()


def _error(lineno: int, line: str, fields: list[str], index: int, message: str) -> AlgebraFileError:
    """The error at fields[index] of line; its column is found only here,
    as the fields are line.split() and carry no positions."""
    end = 0
    for field in fields[:index]:
        end = line.index(field, end) + len(field)
    return AlgebraFileError(lineno, line.index(fields[index], end) + 1, message)


def _parse_int(lineno: int, line: str, fields: list[str], index: int, what: str) -> int:
    token = fields[index]
    if _ascii_int(token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's limit on integer digits
            pass
    raise _error(lineno, line, fields, index, f"expected an integer {what}, got {token!r}")


def _parse_fraction(lineno: int, line: str, fields: list[str], index: int) -> Fraction:
    token = fields[index]
    numerator, slash, denominator = token.partition("/")
    if _ascii_int(numerator) and (not slash or (denominator.isdigit() and denominator.isascii())):
        try:
            return Fraction(int(numerator), int(denominator)) if slash else Fraction(int(numerator))
        except (ValueError, ZeroDivisionError):
            pass
    raise _error(lineno, line, fields, index, f"expected an integer or fraction p/q, got {token!r}")


def parse_algebra(text: str) -> LieAlgebra:
    dim: int | None = None
    names: tuple[str, ...] = ()
    constants: dict[tuple[int, int, int], Fraction] = {}
    # a value token is read once per text: most constants share a few values
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        head = fields[0]
        if dim is None:
            if head != "dim":
                raise _error(lineno, line, fields, 0, f"first line must be 'dim n', got {head!r}")
            if len(fields) != 2:
                raise _error(lineno, line, fields, 0, "'dim' takes exactly one value")
            dim = _parse_int(lineno, line, fields, 1, "dimension")
            if dim < 1:
                raise _error(lineno, line, fields, 1, f"dimension must be positive, got {dim}")
            continue
        if head == "basis":
            if names:
                raise _error(lineno, line, fields, 0, "duplicate 'basis' line")
            if constants:
                raise _error(lineno, line, fields, 0, "'basis' must precede structure constants")
            if len(fields) != dim + 1:
                raise _error(lineno, line, fields, 0, f"'basis' needs exactly {dim} labels, got {len(fields) - 1}")
            names = tuple(fields[1:])
            continue
        if head == "dim":
            raise _error(lineno, line, fields, 0, "duplicate 'dim' line")
        if len(fields) != 4:
            raise _error(lineno, line, fields, 0, f"constant lines are 'i j k p/q' (4 fields), got {len(fields)}")
        i = _parse_int(lineno, line, fields, 0, "index i")
        j = _parse_int(lineno, line, fields, 1, "index j")
        k = _parse_int(lineno, line, fields, 2, "index k")
        for index, idx, label in ((0, i, "i"), (1, j, "j"), (2, k, "k")):
            if not 1 <= idx <= dim:
                raise _error(lineno, line, fields, index, f"index {label}={idx} outside 1..{dim}")
        if i >= j:
            raise _error(lineno, line, fields, 0, f"constants must be given with i < j, got i={i}, j={j}")
        if (i, j, k) in constants:
            raise _error(lineno, line, fields, 0, f"duplicate constant for ({i},{j},{k})")
        value = values.get(fields[3])
        if value is None:
            value = values[fields[3]] = _parse_fraction(lineno, line, fields, 3)
        constants[(i, j, k)] = value
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
