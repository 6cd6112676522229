"""Shared generators: random rotations via conjugation of the companion
matrix, random non-eigenvector u, and single-scalar perturbations; scalar
arithmetic on raw values."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

import pytest

from strassen7 import RATIONAL, ColVec2, FieldElement, Mat2, PrimeField, RowVec2
from strassen7.construction import (
    BilinearDecomposition,
    EigenvectorError,
    PerpPair,
    Rotation,
    Term,
    default_rotation,
    default_u,
    derive_decomposition,
    perp_vector,
    validate_rotation,
)

EXACT_FIELDS = [RATIONAL, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]
# texts that are no rational scalar: unreduced, a negative or zero
# denominator, and no number at all
RATIONAL_REJECTS = ("2/4", "4/2", "3/-4", "1/0", "0/5", "a", "1.5", "")
# texts that no field reads, by name: superscript, full-width and
# Arabic-Indic digits, a trailing newline, and integers longer than Python
# converts
NON_CANONICAL_TEXTS = {"superscript": "\u00b2", "full-width": "\uff13",
                       "arabic-indic": "\u0663", "newline": "5\n", "long": "1" * 5000,
                       "long-denominator": "1/" + "3" * 5000}


@pytest.fixture(params=EXACT_FIELDS, ids=lambda f: f.name)
def exact_field(request):
    return request.param


def standard_units(field) -> tuple:
    """The four matrix units e11, e12, e21, e22 in row-major order."""
    return tuple(Mat2(field, [int(i == k) for i in range(4)]) for k in range(4))


class SingularError(ArithmeticError):
    """The reference elimination found a column without a pivot."""


def basis_columns(basis) -> list:
    """The 4x4 matrix of raw values whose columns are the row-major
    flattenings of ``basis``."""
    return [list(row) for row in zip(*(values(m.flatten()) for m in basis))]


def values(elements) -> list:
    """The raw values of a sequence of FieldElements."""
    return [e.value for e in elements]


def times(*elements) -> FieldElement:
    """The product of FieldElements of one field, by ``Field.mul`` on raw
    values."""
    field = elements[0].field
    return FieldElement(field, reduce(field.mul, values(elements)))


def identity_matrix(field) -> Mat2:
    return Mat2(field, [1, 0, 0, 1])


def zero_matrix(field) -> Mat2:
    return Mat2(field, [0, 0, 0, 0])


def plus(*mats) -> Mat2:
    """The entrywise sum of 2x2 matrices of one field, by ``Field.add`` on
    raw values."""
    field = mats[0].field
    return Mat2(field, [reduce(field.add, entry) for entry in zip(*(values(m.flatten())
                                                                   for m in mats))])


def minus(e: FieldElement) -> FieldElement:
    """-e, coerced from the negated raw value."""
    return e.field(-e.value)


def negated(m: Mat2) -> Mat2:
    """-m, entry by entry."""
    return Mat2(m.field, [minus(e) for e in m.flatten()])


def trace(m: Mat2) -> FieldElement:
    a11, _, _, a22 = values(m.flatten())
    return FieldElement(m.field, m.field.add(a11, a22))


def det(m: Mat2) -> FieldElement:
    f = m.field
    a11, a12, a21, a22 = values(m.flatten())
    return f(f.mul(a11, a22) - f.mul(a12, a21))


def dot(row: RowVec2, col: ColVec2) -> FieldElement:
    """The scalar product row * col, by ``Field.dot`` on raw values."""
    return row.field(row.field.dot(values([row.x, row.y]), values([col.x, col.y])))


def apply(m: Mat2, col: ColVec2) -> ColVec2:
    """The column vector m * col: one scalar product per row of m."""
    a11, a12, a21, a22 = m.flatten()
    return ColVec2(m.field, [dot(RowVec2(m.field, row), col) for row in ([a11, a12], [a21, a22])])


def outer(col: ColVec2, row: RowVec2) -> Mat2:
    """The outer product col * row."""
    return Mat2(col.field, [times(a, b) for a in (col.x, col.y) for b in (row.x, row.y)])


def word_matrix(word: tuple, rot, m: Mat2) -> Mat2:
    """A normal form's matrix (construction's encoding: (a,) is D^a, (a, b)
    is D^a M D^b) by plain Mat2 products, D^0 as the identity."""
    d = (identity_matrix(rot.field), rot.d, rot.d @ rot.d)
    return d[word[0]] if len(word) == 1 else d[word[0]] @ m @ d[word[1]]


def form_at(form, x: Mat2) -> FieldElement:
    """The linear form with coefficients ``form`` over (x11, x12, x21, x22),
    evaluated at x by ``Field.dot`` on raw values."""
    field = x.field
    return field(field.dot(values(form), values(x.flatten())))


def coordinates(basis, x) -> tuple:
    """Coefficients (c1..c4) with x = sum c_i basis_i: the inverse of the
    matrix ``basis_columns(basis)`` applied to the flattening of x."""
    field = x.field
    return tuple(field(field.dot(row, values(x.flatten())))
                 for row in gauss_jordan_inverse(field, basis_columns(basis)))


def mat2_inverse(m: Mat2) -> Mat2:
    """The inverse of a 2x2 matrix by ``gauss_jordan_inverse``;
    SingularError if ``m`` is singular."""
    a = [e.value for e in m.flatten()]
    rows = gauss_jordan_inverse(m.field, [a[:2], a[2:]])
    return Mat2(m.field, rows[0] + rows[1])


def conjugate(m: Mat2, p: Mat2) -> Mat2:
    """P^-1 M P."""
    return mat2_inverse(p) @ m @ p


def gauss_jordan_inverse(field, matrix) -> list:
    """The inverse of a square matrix over ``field``, as rows of raw values,
    by Gauss-Jordan with the first nonzero pivot of each column: on
    Fractions over the rationals, on residues with pow(x, -1, p) over
    GF(p) (entries are ints there).  SingularError("no pivot in column
    k") at the first column without one."""
    if field is RATIONAL:
        scalar, reduce, invert = Fraction, (lambda x: x), (lambda x: 1 / x)
    else:
        p = field.modulus
        scalar = reduce = lambda x: x % p
        invert = lambda x: pow(x, -1, p)
    n = len(matrix)
    rows = [[scalar(e) for e in row] + [scalar(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        r = next((r for r in range(col, n) if rows[r][col]), None)
        if r is None:
            raise SingularError(f"no pivot in column {col}")
        rows[col], rows[r] = rows[r], rows[col]
        scale = invert(rows[col][col])
        pivot = rows[col] = [reduce(e * scale) for e in rows[col]]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                rows[r] = [reduce(a - factor * b) for a, b in zip(row, pivot)]
    return [row[n:] for row in rows]


def count_fraction_arithmetic(monkeypatch) -> list:
    """From here on, record in the returned list the name of every
    Fraction operator called (addition, subtraction, multiplication,
    division, reflected forms included)."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        def counting(*args, _real=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(Fraction, name, counting)
    return calls


def sample(field, rng: random.Random):
    """A small random raw value: a residue by ``PrimeField.sample``, or a
    rational with numerator in [-9, 9] and denominator in [1, 4], drawn as
    ``MatN.random`` draws each entry."""
    if field is RATIONAL:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return field.sample(rng)


def count_fraction_constructions(monkeypatch) -> list:
    """From here on, record in the returned list the arguments of every
    ``Fraction.__new__`` call: every Fraction built, normalized or not."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


def row_times(row: RowVec2, m: Mat2) -> RowVec2:
    """The row vector row * m: one scalar product per column of m."""
    a11, a12, a21, a22 = m.flatten()
    return RowVec2(m.field, [dot(row, ColVec2(m.field, col)) for col in ([a11, a21], [a12, a22])])


def random_invertible(field, rng: random.Random) -> Mat2:
    while True:
        m = Mat2(field, [sample(field, rng) for _ in range(4)])
        if det(m):
            return m


def random_rotation(field, rng: random.Random) -> Rotation:
    """Every valid rotation is a conjugate of the companion matrix, and
    conjugation preserves the defining trace/determinant conditions."""
    companion = Mat2(field, [0, -1, 1, -1])
    p = random_invertible(field, rng)
    return validate_rotation(conjugate(companion, p))

def random_perp(rot: Rotation, rng: random.Random, tries: int = 64) -> PerpPair:
    field = rot.field
    for _ in range(tries):
        u = ColVec2(field, [sample(field, rng), sample(field, rng)])
        if u.is_zero():
            continue
        try:
            return perp_vector(rot, u)
        except EigenvectorError:
            continue
    return perp_vector(rot, default_u(rot))


def random_derivation(field, rng: random.Random):
    rot = random_rotation(field, rng)
    pp = random_perp(rot, rng)
    return rot, pp, derive_decomposition(rot, pp)


def paper_decomposition(field=RATIONAL) -> BilinearDecomposition:
    """The decomposition from the default D = [[0,-1],[1,-1]] and u = e1."""
    rot = default_rotation(field)
    return derive_decomposition(rot, perp_vector(rot, default_u(rot)))


def perturb_decomposition(dec: BilinearDecomposition, rng: random.Random):
    """Bump one random scalar of one term by one (nonzero in every field)."""
    k = rng.randrange(dec.rank)
    slot = rng.randrange(3)
    pos = rng.randrange(4)
    one = dec.field(1)

    def bumped(coeffs):
        return tuple(c + one if i == pos else c for i, c in enumerate(coeffs))

    terms = list(dec.terms)
    t = terms[k]
    if slot == 0:
        terms[k] = Term(bumped(t.u_coeffs), t.v_coeffs, t.w)
    elif slot == 1:
        terms[k] = Term(t.u_coeffs, bumped(t.v_coeffs), t.w)
    else:
        terms[k] = Term(t.u_coeffs, t.v_coeffs, Mat2(dec.field, bumped(t.w.flatten())))
    return BilinearDecomposition(dec.field, tuple(terms), dec.provenance)
