"""2x2 matrix operations, the exact Gauss-Jordan inverse, and the trace
identities they must satisfy (cyclic invariance, conjugation invariance,
Cayley-Hamilton)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strassen7.fields import RATIONAL, FieldMismatchError, InputError, PrimeField
from strassen7.linalg import (
    ColVec2,
    Mat2,
    RowVec2,
    ShapeError,
    SingularMatrixError,
    SingularSystemError,
    inverse,
    outer,
)

FIELDS = [RATIONAL, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]

D_ENTRIES = [0, -1, 1, -1]
NILPOTENT = [0, 1, 0, 0]

four_ints = st.tuples(*[st.integers(-9, 9)] * 4)
NONZERO = [d for d in range(-9, 10) if d]


# permutation, strictly lower and upper entries, and diagonal of P L U
plu_factors = st.tuples(st.permutations(range(4)), st.tuples(*[st.integers(-9, 9)] * 6),
                        st.tuples(*[st.integers(-9, 9)] * 6),
                        st.tuples(*[st.sampled_from(NONZERO)] * 4))


def mat(field, entries):
    return Mat2(field, entries)


def invertible_matrix(field, perm, lower, upper, diag):
    """An invertible 4x4 matrix P L U by construction: L unit lower
    triangular, U upper triangular with a diagonal nonzero in ``field``, P a
    row permutation."""
    below, above = iter(lower), iter(upper)
    pivots = [d if field(d) else 1 for d in diag]
    unit_lower = [[1 if j == i else next(below) if j < i else 0 for j in range(4)] for i in range(4)]
    upper_rows = [[pivots[i] if j == i else next(above) if j > i else 0 for j in range(4)]
                  for i in range(4)]
    lu = [[sum(unit_lower[i][k] * upper_rows[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    return [lu[i] for i in perm]


class TestMatrixOps:
    def test_product_of_rotation_with_itself(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d @ d == mat(RATIONAL, [-1, 1, -1, 0])

    def test_identity_is_neutral(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d @ Mat2.identity(RATIONAL) == d

    def test_nilpotent_squares_to_zero(self):
        m = mat(RATIONAL, NILPOTENT)
        assert m @ m == Mat2.zero(RATIONAL)

    def test_add_sub_scale(self):
        a = mat(RATIONAL, [1, 2, 3, 4])
        b = mat(RATIONAL, [5, 6, 7, 8])
        assert a + b == mat(RATIONAL, [6, 8, 10, 12])
        assert b - a == mat(RATIONAL, [4, 4, 4, 4])
        assert a.scale(2) == mat(RATIONAL, [2, 4, 6, 8])
        assert -a == mat(RATIONAL, [-1, -2, -3, -4])

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            mat(RATIONAL, [1, 0, 0, 1]) @ mat(PrimeField(3), [1, 0, 0, 1])


class TestTraceDet:
    def test_rotation_trace_and_det(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d.trace() == RATIONAL(-1)
        assert d.det() == RATIONAL(1)

    def test_identity(self):
        i = Mat2.identity(RATIONAL)
        assert i.trace() == RATIONAL(2)
        assert i.det() == RATIONAL(1)

    def test_nilpotent_is_traceless_singular(self):
        m = mat(RATIONAL, NILPOTENT)
        assert m.trace() == RATIONAL(0)
        assert m.det() == RATIONAL(0)


class TestInverse:
    def test_rotation_inverse_is_its_square(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d.inverse() == mat(RATIONAL, [-1, 1, -1, 0])
        assert d.inverse() == d @ d
        assert d @ d @ d == Mat2.identity(RATIONAL)

    def test_identity_inverse(self):
        assert Mat2.identity(RATIONAL).inverse() == Mat2.identity(RATIONAL)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mat(RATIONAL, NILPOTENT).inverse()

    def test_singular_errors_are_input_errors(self):
        for cls in (SingularMatrixError, SingularSystemError):
            assert issubclass(cls, InputError) and issubclass(cls, ArithmeticError)

    @pytest.mark.parametrize("entries", [[1, 2, 3], [1, 2, 3, 4, 5]])
    def test_needs_four_entries(self, entries):
        with pytest.raises(ShapeError):
            Mat2(RATIONAL, entries)


class TestConjugate:
    def test_nilpotent_by_rotation(self):
        d = mat(RATIONAL, D_ENTRIES)
        m = mat(RATIONAL, NILPOTENT)
        assert m.conjugate_by(d) == mat(RATIONAL, [-1, 1, -1, 1])
        assert m.conjugate_by(d.inverse()) == mat(RATIONAL, [0, 0, -1, 0])

    def test_by_identity_is_noop(self):
        a = mat(RATIONAL, [3, 1, 4, 1])
        assert a.conjugate_by(Mat2.identity(RATIONAL)) == a

    def test_by_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mat(RATIONAL, [1, 0, 0, 1]).conjugate_by(mat(RATIONAL, NILPOTENT))


class TestVectors:
    def test_row_times_col(self):
        row = RowVec2(RATIONAL, [1, 2])
        col = ColVec2(RATIONAL, [3, 4])
        assert row @ col == RATIONAL(11)

    def test_row_times_matrix(self):
        row = RowVec2(RATIONAL, [1, 2])
        assert row @ mat(RATIONAL, [1, 2, 3, 4]) == RowVec2(RATIONAL, [7, 10])

    def test_matrix_times_col(self):
        col = ColVec2(RATIONAL, [1, 0])
        assert mat(RATIONAL, D_ENTRIES) @ col == ColVec2(RATIONAL, [0, 1])

    def test_outer_product(self):
        m = outer(ColVec2(RATIONAL, [1, 0]), RowVec2(RATIONAL, [0, 1]))
        assert m == mat(RATIONAL, NILPOTENT)


class TestGaussJordanInverse:
    @pytest.mark.parametrize("matrix", [[[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]])
    def test_not_square(self, matrix):
        with pytest.raises(ShapeError):
            inverse(RATIONAL, matrix)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_singular(self, field):
        # the third row is the sum of the first two in every field
        with pytest.raises(SingularSystemError):
            inverse(field, [[1, 2, 0], [0, 1, 1], [1, 3, 1]])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestAlgebraicProperties:
    @given(a=four_ints, b=four_ints)
    def test_cyclic_trace_invariance(self, field, a, b):
        x, y = mat(field, a), mat(field, b)
        assert (x @ y).trace() == (y @ x).trace()

    @given(a=four_ints, p=four_ints)
    def test_conjugation_preserves_trace(self, field, a, p):
        x, pm = mat(field, a), mat(field, p)
        assume(bool(pm.det()))
        conj = x.conjugate_by(pm)
        assert conj.trace() == x.trace()

    @given(a=four_ints)
    def test_cayley_hamilton(self, field, a):
        x = mat(field, a)
        ident = Mat2.identity(field)
        assert x @ x - x.scale(x.trace()) + ident.scale(x.det()) == Mat2.zero(field)

    @settings(max_examples=50)
    @given(plu=plu_factors)
    def test_inverse_is_a_right_inverse(self, field, plu):
        matrix = invertible_matrix(field, *plu)
        inv = inverse(field, matrix)
        for i in range(4):
            for j in range(4):
                acc = sum((a * inv[k][j] for k, a in enumerate(matrix[i])), field.zero())
                assert acc == int(i == j)
