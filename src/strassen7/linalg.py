"""Exact small linear algebra: 2x2 matrices, 2-vectors, and one generic
Gauss-Jordan inverse for the 2x2 and 4x4 systems used by the derivation.

Entry order is row-major (a11, a12, a21, a22) everywhere, including when
matrices are flattened into the columns of a basis matrix or files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field, FieldElement, FieldMismatchError, InputError


class SingularMatrixError(InputError, ArithmeticError):
    """The matrix has determinant zero and cannot be inverted."""


class SingularSystemError(InputError, ArithmeticError):
    """The linear system has no unique solution."""


class ShapeError(InputError):
    """A matrix or linear system has the wrong number of entries."""


def _require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed fields: {a.name} and {b.name}")


class Mat2:
    """A 2x2 matrix over one field, stored row-major."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        coerced = tuple(field(e) for e in entries)
        if len(coerced) != 4:
            raise ShapeError("Mat2 needs exactly 4 entries (a11, a12, a21, a22)")
        self.entries = coerced

    @classmethod
    def identity(cls, field: Field) -> "Mat2":
        return cls(field, [1, 0, 0, 1])

    @classmethod
    def zero(cls, field: Field) -> "Mat2":
        return cls(field, [0, 0, 0, 0])

    def __add__(self, other: "Mat2") -> "Mat2":
        _require_same_field(self.field, other.field)
        return Mat2(self.field, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat2") -> "Mat2":
        _require_same_field(self.field, other.field)
        return Mat2(self.field, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat2":
        return Mat2(self.field, [-a for a in self.entries])

    def __matmul__(self, other):
        if isinstance(other, Mat2):
            _require_same_field(self.field, other.field)
            a11, a12, a21, a22 = self.entries
            b11, b12, b21, b22 = other.entries
            return Mat2(
                self.field,
                [
                    a11 * b11 + a12 * b21,
                    a11 * b12 + a12 * b22,
                    a21 * b11 + a22 * b21,
                    a21 * b12 + a22 * b22,
                ],
            )
        if isinstance(other, ColVec2):
            _require_same_field(self.field, other.field)
            a11, a12, a21, a22 = self.entries
            return ColVec2(self.field, [a11 * other.x + a12 * other.y,
                                        a21 * other.x + a22 * other.y])
        return NotImplemented

    def scale(self, c) -> "Mat2":
        c = self.field(c)
        return Mat2(self.field, [c * a for a in self.entries])

    def trace(self) -> FieldElement:
        return self.entries[0] + self.entries[3]

    def det(self) -> FieldElement:
        a11, a12, a21, a22 = self.entries
        return a11 * a22 - a12 * a21

    def inverse(self) -> "Mat2":
        """Adjugate inverse; the product with the input is re-checked."""
        d = self.det()
        if not d:
            raise SingularMatrixError("matrix has determinant zero")
        a11, a12, a21, a22 = self.entries
        dinv = d.inv()
        result = Mat2(self.field, [a22 * dinv, -a12 * dinv, -a21 * dinv, a11 * dinv])
        if self @ result != Mat2.identity(self.field):
            raise SingularMatrixError("inverse self-check failed")
        return result

    def conjugate_by(self, p: "Mat2") -> "Mat2":
        """P^-1 * self * P; raises SingularMatrixError for singular P."""
        return p.inverse() @ self @ p

    def is_scalar(self) -> bool:
        """True iff the matrix is a scalar multiple of the identity."""
        a11, a12, a21, a22 = self.entries
        return not a12 and not a21 and a11 == a22

    def flatten(self) -> tuple:
        return self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        a11, a12, a21, a22 = self.entries
        return f"[[{a11}, {a12}], [{a21}, {a22}]]"


class ColVec2:
    """A column 2-vector."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.x, self.y = (field(e) for e in entries)

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColVec2):
            return NotImplemented
        return self.field == other.field and (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.field, self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


class RowVec2:
    """A row 2-vector; multiplies matrices and column vectors from the left."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.x, self.y = (field(e) for e in entries)

    def __matmul__(self, other):
        if isinstance(other, ColVec2):
            _require_same_field(self.field, other.field)
            return self.x * other.x + self.y * other.y
        if isinstance(other, Mat2):
            _require_same_field(self.field, other.field)
            a11, a12, a21, a22 = other.entries
            return RowVec2(self.field, [self.x * a11 + self.y * a21,
                                        self.x * a12 + self.y * a22])
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, RowVec2):
            return NotImplemented
        return self.field == other.field and (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.field, self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def outer(u: ColVec2, v: RowVec2) -> Mat2:
    """Outer product u * v of a column and a row vector."""
    _require_same_field(u.field, v.field)
    return Mat2(u.field, [u.x * v.x, u.x * v.y, u.y * v.x, u.y * v.y])


def inverse(field: Field, matrix: Sequence[Sequence]) -> list:
    """Inverse of the n x n ``matrix`` over ``field``, as a list of rows, by
    exact Gauss-Jordan elimination with first-nonzero-pivot search.

    Entries are coerced into ``field``; a matrix that is not square raises
    ShapeError, a singular one SingularSystemError.  No magnitude pivoting:
    arithmetic is exact and column-order pivots keep elimination
    deterministic across backends.
    """
    n = len(matrix)
    rows = [[field(e) for e in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise ShapeError(f"a {n}-row matrix must have {n} entries per row")
    one, zero = field.one(), field.zero()
    # each row carries its row of the identity; elimination turns it into
    # the same row of the inverse
    for i, row in enumerate(rows):
        row.extend(one if j == i else zero for j in range(n))
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        scale = rows[col][col].inv()
        pivot = rows[col] = [scale * e for e in rows[col]]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(row, pivot)]
    return [row[n:] for row in rows]

