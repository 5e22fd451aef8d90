"""Digit matrices over {0,...,p-1} and their base-p row/column encodings.

A matrix is read row by row (or column by column) as a tuple of base-p
numerals: row i becomes the integer whose base-p digits are the entries of
that row, most significant first.  The resulting tuple of numerals is a
faithful encoding: two matrices are equal iff their row codes are equal.

Codes are stored as fixed-width digit sequences rather than machine
integers, so widths beyond 64 bits need no special handling; decimal
rendering falls back to a digit string when a value does not fit 64 bits.

`Matrix` is the named tuple (n, m, p, rows) and checks its shape and
entries whenever it is built; `RowCode` is (width, base, digits).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DigitRangeError, ParseError

_INT64_MAX = 2**63 - 1


class Matrix(namedtuple("Matrix", "n m p rows")):
    """An n x m matrix with entries in {0, ..., p-1}, row-major.

    `rows` is a tuple of row tuples, so the record hashes, and every entry
    is an `int` (not a `bool`), so it formats and parses back as itself.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, p: int, rows: tuple[tuple[int, ...], ...]):
        check_shape(n, m, p)
        if type(rows) is not tuple:
            raise ValueError(f"rows must be a tuple, got a {type(rows).__name__}")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        top = p - 1
        for row in rows:
            if type(row) is not tuple:
                raise ValueError(f"each row must be a tuple, got a {type(row).__name__}")
            if len(row) != m:
                raise ValueError(f"expected rows of length {m}, got {len(row)}")
            for e in row:
                if type(e) is not int:
                    raise DigitRangeError(f"entry {e!r} is a {type(e).__name__}, not an int")
                if not 0 <= e <= top:
                    raise DigitRangeError(f"entry {e} outside [0, {top}]")
        return tuple.__new__(cls, (n, m, p, rows))

    # The named tuple's _make, and _replace through it, would skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_rows(cls, rows, p: int) -> "Matrix":
        rows = tuple(tuple(r) for r in rows)
        return cls(n=len(rows), m=len(rows[0]) if rows else 0, p=p, rows=rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(n=self.m, m=self.n, p=self.p, rows=self.columns())


def check_shape(n: int, m: int, p: int) -> None:
    """Raise ParseError unless n, m and p are ints (not bools), n, m >= 1 and p >= 2."""
    if not (type(n) is type(m) is type(p) is int) or n < 1 or m < 1 or p < 2:
        raise ParseError(f"invalid shape/base n={n!r} m={m!r} p={p!r}")


class RowCode(namedtuple("RowCode", "width base digits")):
    """Ordered tuple of numerals, each a fixed-width base-p digit sequence.

    Serves as the row code (rows read left to right) and, under the alias
    ColCode, as the column code (columns read top to bottom).
    """

    __slots__ = ()

    @classmethod
    def from_ints(cls, values, width: int, base: int) -> "RowCode":
        return cls(width=width, base=base,
                   digits=tuple(_int_to_digits(v, width, base) for v in values))

    def values(self) -> tuple[int, ...]:
        return tuple(_digits_to_int(d, self.base) for d in self.digits)

    def render(self) -> str:
        return " ".join(render_value(d, self.base) for d in self.digits)


ColCode = RowCode


def _digits_to_int(digits, base: int) -> int:
    v = 0
    for d in digits:
        v = v * base + d
    return v


def _int_to_digits(value: int, width: int, base: int) -> tuple[int, ...]:
    if not (0 <= value <= base**width - 1):
        raise DigitRangeError(f"value {value} outside [0, {base}^{width} - 1]")
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(reversed(out))


def render_value(digits, base: int) -> str:
    """Decimal when the value fits 64 bits, else the raw base-p digit string."""
    v = _digits_to_int(digits, base)
    if v <= _INT64_MAX:
        return str(v)
    if base <= 10:
        return "".join(str(d) for d in digits)
    return ".".join(str(d) for d in digits)


def encode_rows(a: Matrix) -> RowCode:
    """Row code: the i-th element reads row i as a base-p numeral."""
    return RowCode(width=a.m, base=a.p, digits=a.rows)


def encode_cols(a: Matrix) -> ColCode:
    """Column code: the j-th element reads column j top-to-bottom as a numeral."""
    return ColCode(width=a.n, base=a.p, digits=a.columns())


def decode_rows(code: RowCode) -> Matrix:
    """Inverse of encode_rows; the digit width of the code fixes m."""
    return Matrix(n=len(code.digits), m=code.width, p=code.base, rows=code.digits)


def lex_compare(a, b) -> int:
    """Lexicographic comparison of two codes of the same shape.

    Returns -1, 0, or 1.  Works digit-sequence-wise, so no unbounded integer
    arithmetic is involved.
    """
    if a.width != b.width or a.base != b.base or len(a.digits) != len(b.digits):
        raise ValueError("cannot compare codes of different shapes")
    if a.digits < b.digits:
        return -1
    if a.digits > b.digits:
        return 1
    return 0


def numeral(text: str) -> int:
    """The value of an ASCII decimal numeral with an optional leading `-`.

    The one reader of every number canonmat takes, in matrix files and on
    the command line.  int() alone would also take `+`, `_`, surrounding
    whitespace and non-ASCII digits; this raises ParseError on those.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ParseError(f"not a decimal numeral: {text!r}")


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix text format.

    Line 1 holds `n m p`; the next n lines hold m space-separated digits.
    Every field is read by `numeral`.  `#`-prefixed lines and blank lines
    are ignored before the header and after the last row; any other line
    after the last row is an error.
    """
    lines = text.splitlines()
    content = [k for k, line in enumerate(lines)
               if line.strip() and not line.lstrip().startswith("#")]
    if not content:
        raise ParseError("missing header line")
    pos = content[0]
    header = lines[pos].split()
    if len(header) != 3:
        raise ParseError(f"header must be 'n m p', got {lines[pos]!r}")
    n, m, p = map(numeral, header)
    check_shape(n, m, p)
    rows = []
    for k in range(n):
        idx = pos + 1 + k
        if idx >= len(lines):
            raise ParseError(f"expected {n} rows, found {k}")
        fields = lines[idx].split()
        if len(fields) != m:
            raise ParseError(f"row {k + 1}: expected {m} entries, got {len(fields)}")
        try:
            rows.append(tuple(map(numeral, fields)))
        except ParseError as exc:
            raise ParseError(f"row {k + 1}: {exc}") from None
    if content[-1] > pos + n:
        extra = next(k for k in content if k > pos + n)
        raise ParseError(f"unexpected line after the {n} rows: {lines[extra]!r}")
    return Matrix(n=n, m=m, p=p, rows=tuple(rows))


def format_matrix(a: Matrix) -> str:
    """Render a matrix in the text format, trailing newline included."""
    out = [f"{a.n} {a.m} {a.p}"]
    out.extend(" ".join(str(e) for e in row) for row in a.rows)
    return "\n".join(out) + "\n"
