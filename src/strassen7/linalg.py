"""Exact small linear algebra: 2x2 matrices and 2-vectors.  There is no
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
        they are: the results of the operations below."""
        m = cls.__new__(cls)
        m.field, m.entries = field, tuple(FieldElement(field, v) for v in values)
        return m

    def _values(self) -> tuple:
        return tuple(e.value for e in self.entries)

    @classmethod
    def identity(cls, field: Field) -> "Mat2":
        return cls(field, [1, 0, 0, 1])

    @classmethod
    def zero(cls, field: Field) -> "Mat2":
        return cls(field, [0, 0, 0, 0])

    def __add__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        require_same_field(self.field, other.field)
        return Mat2._of(self.field, map(self.field.add, self._values(), other._values()))

    def __neg__(self) -> "Mat2":
        return Mat2._of(self.field, map(self.field.neg, self._values()))

    def __matmul__(self, other):
        f = self.field
        add, mul = f.add, f.mul
        a11, a12, a21, a22 = self._values()
        if isinstance(other, Mat2):
            require_same_field(f, other.field)
            b11, b12, b21, b22 = other._values()
            return Mat2._of(f, [
                add(mul(a11, b11), mul(a12, b21)),
                add(mul(a11, b12), mul(a12, b22)),
                add(mul(a21, b11), mul(a22, b21)),
                add(mul(a21, b12), mul(a22, b22)),
            ])
        if isinstance(other, ColVec2):
            require_same_field(f, other.field)
            x, y = other.x.value, other.y.value
            return ColVec2._of(f, add(mul(a11, x), mul(a12, y)), add(mul(a21, x), mul(a22, y)))
        return NotImplemented

    def trace(self) -> FieldElement:
        a11, _, _, a22 = self._values()
        return FieldElement(self.field, self.field.add(a11, a22))

    def det(self) -> FieldElement:
        f = self.field
        a11, a12, a21, a22 = self._values()
        return FieldElement(f, f.sub(f.mul(a11, a22), f.mul(a12, a21)))

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
        """A vector over two canonical raw values of ``field``, kept as they are."""
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
    """A row 2-vector; times a column vector it gives their scalar product."""

    __slots__ = ()

    def __matmul__(self, other):
        if not isinstance(other, ColVec2):
            return NotImplemented
        f = self.field
        require_same_field(f, other.field)
        return FieldElement(f, f.add(f.mul(self.x.value, other.x.value),
                                     f.mul(self.y.value, other.y.value)))


def outer(u: ColVec2, v: RowVec2) -> Mat2:
    """Outer product u * v of a column and a row vector."""
    require_same_field(u.field, v.field)
    mul = u.field.mul
    ux, uy, vx, vy = u.x.value, u.y.value, v.x.value, v.y.value
    return Mat2._of(u.field, [mul(ux, vx), mul(ux, vy), mul(uy, vx), mul(uy, vy)])

