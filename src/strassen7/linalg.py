"""Exact small linear algebra: 2x2 matrices and 2-vectors over a field,
and ``matmul`` on 2x2 matrices of Python ints, where the derivation and the
table check multiply (entries cleared of denominators).  There is no
elimination: the derivation reads its one division off a determinant and
its coordinate forms off the trace pairing of its two bases (see
``construction``).

Entry order is row-major (a11, a12, a21, a22) everywhere, including when
matrices are flattened into files.
"""

from __future__ import annotations

from typing import Iterable

from .fields import Field, FieldElement, InputError, require_same_field


class ShapeError(InputError):
    """A matrix or vector has the wrong number of entries."""


class Mat2:
    """A 2x2 matrix over one field, stored row-major.  Every operation
    computes on the entries' raw values and wraps each result once."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        coerced = tuple(field(e) for e in entries)
        if len(coerced) != 4:
            raise ShapeError("Mat2 needs exactly 4 entries (a11, a12, a21, a22)")
        self.entries = coerced

    @classmethod
    def _of(cls, field: Field, values: Iterable) -> "Mat2":
        """A matrix over four canonical raw values of ``field``, kept as
        they are: a product's, the derivation's or a parser's."""
        m = cls.__new__(cls)
        m.field, m.entries = field, tuple([FieldElement(field, v) for v in values])
        return m

    def _values(self) -> tuple:
        return tuple(e.value for e in self.entries)

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        f = self.field
        require_same_field(f, other.field)
        add, mul = f.add, f.mul
        a11, a12, a21, a22 = self._values()
        b11, b12, b21, b22 = other._values()
        return Mat2._of(f, [
            add(mul(a11, b11), mul(a12, b21)),
            add(mul(a11, b12), mul(a12, b22)),
            add(mul(a21, b11), mul(a22, b21)),
            add(mul(a21, b12), mul(a22, b22)),
        ])

    def is_scalar(self) -> bool:
        """True iff the matrix is a scalar multiple of the identity."""
        a11, a12, a21, a22 = self._values()
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


class _Vec2:
    """A 2-vector (x, y) over one field."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: Field, entries: Iterable):
        coerced = tuple(field(e) for e in entries)
        if len(coerced) != 2:
            raise ShapeError(f"{type(self).__name__} needs exactly 2 entries (x, y)")
        self.field = field
        self.x, self.y = coerced

    @classmethod
    def _of(cls, field: Field, x, y):
        """A vector over two canonical raw values of ``field``, kept as they
        are: values a parser has already checked."""
        v = cls.__new__(cls)
        v.field, v.x, v.y = field, FieldElement(field, x), FieldElement(field, y)
        return v

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.field, self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


class ColVec2(_Vec2):
    """A column 2-vector."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.x and not self.y


class RowVec2(_Vec2):
    """A row 2-vector."""

    __slots__ = ()


def matmul(a, b) -> tuple:
    """The product of two 2x2 matrices of Python ints, each given and
    returned as a row-major 4-tuple."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
