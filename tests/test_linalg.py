"""2x2 matrix operations and the trace identities they must satisfy
(cyclic invariance, conjugation invariance, Cayley-Hamilton), on ``Mat2``
and on the integer product ``matmul``; every operation against a reference
on Python ints and Fractions, and the test helpers for trace, determinant,
sums and vector products against known values."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    SingularError,
    apply,
    conjugate,
    det,
    dot,
    identity_matrix,
    mat2_inverse,
    negated,
    outer,
    plus,
    times,
    trace,
    zero_matrix,
)
from strassen7.fields import RATIONAL, FieldElement, FieldMismatchError, PrimeField
from strassen7.linalg import ColVec2, Mat2, RowVec2, ShapeError, matmul

FIELDS = [RATIONAL, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]

D_ENTRIES = [0, -1, 1, -1]
NILPOTENT = [0, 1, 0, 0]

four_ints = st.tuples(*[st.integers(-9, 9)] * 4)


def mat(field, entries):
    return Mat2(field, entries)


class TestMatrixOps:
    def test_product_of_rotation_with_itself(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d @ d == mat(RATIONAL, [-1, 1, -1, 0])

    def test_identity_is_neutral(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert d @ identity_matrix(RATIONAL) == d

    def test_nilpotent_squares_to_zero(self):
        m = mat(RATIONAL, NILPOTENT)
        assert m @ m == zero_matrix(RATIONAL)

    def test_add_sub_neg(self):
        a = mat(RATIONAL, [1, 2, 3, 4])
        b = mat(RATIONAL, [5, 6, 7, 8])
        assert plus(a, b) == mat(RATIONAL, [6, 8, 10, 12])
        assert plus(b, negated(a)) == mat(RATIONAL, [4, 4, 4, 4])
        assert negated(a) == mat(RATIONAL, [-1, -2, -3, -4])

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            mat(RATIONAL, [1, 0, 0, 1]) @ mat(PrimeField(3), [1, 0, 0, 1])

    def test_add_sub_of_other_types_are_type_errors(self):
        a = mat(RATIONAL, [1, 2, 3, 4])
        with pytest.raises(TypeError):
            a + 1
        with pytest.raises(TypeError):
            a - ColVec2(RATIONAL, [1, 2])


class TestTraceDet:
    def test_rotation_trace_and_det(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert trace(d) == RATIONAL(-1)
        assert det(d) == RATIONAL(1)

    def test_identity(self):
        i = identity_matrix(RATIONAL)
        assert trace(i) == RATIONAL(2)
        assert det(i) == RATIONAL(1)

    def test_nilpotent_is_traceless_singular(self):
        m = mat(RATIONAL, NILPOTENT)
        assert trace(m) == RATIONAL(0)
        assert det(m) == RATIONAL(0)


class TestInverse:
    """2x2 inverses through the test reference ``gauss_jordan_inverse``."""

    def test_rotation_inverse_is_its_square(self):
        d = mat(RATIONAL, D_ENTRIES)
        assert mat2_inverse(d) == mat(RATIONAL, [-1, 1, -1, 0])
        assert mat2_inverse(d) == d @ d
        assert d @ d @ d == identity_matrix(RATIONAL)

    def test_identity_inverse(self):
        assert mat2_inverse(identity_matrix(RATIONAL)) == identity_matrix(RATIONAL)

    def test_singular_rejected(self):
        with pytest.raises(SingularError):
            mat2_inverse(mat(RATIONAL, NILPOTENT))

    @pytest.mark.parametrize("entries", [[1, 2, 3], [1, 2, 3, 4, 5]])
    def test_needs_four_entries(self, entries):
        with pytest.raises(ShapeError):
            Mat2(RATIONAL, entries)


class TestConjugate:
    def test_nilpotent_by_rotation(self):
        d = mat(RATIONAL, D_ENTRIES)
        m = mat(RATIONAL, NILPOTENT)
        assert conjugate(m, d) == mat(RATIONAL, [-1, 1, -1, 1])
        assert conjugate(m, mat2_inverse(d)) == mat(RATIONAL, [0, 0, -1, 0])

    def test_by_identity_is_noop(self):
        a = mat(RATIONAL, [3, 1, 4, 1])
        assert conjugate(a, identity_matrix(RATIONAL)) == a

    def test_by_singular_rejected(self):
        with pytest.raises(SingularError):
            conjugate(mat(RATIONAL, [1, 0, 0, 1]), mat(RATIONAL, NILPOTENT))


class TestVectors:
    def test_row_times_col(self):
        row = RowVec2(RATIONAL, [1, 2])
        col = ColVec2(RATIONAL, [3, 4])
        assert dot(row, col) == RATIONAL(11)

    def test_matrix_times_col(self):
        col = ColVec2(RATIONAL, [1, 0])
        assert apply(mat(RATIONAL, D_ENTRIES), col) == ColVec2(RATIONAL, [0, 1])

    def test_outer_product(self):
        m = outer(ColVec2(RATIONAL, [1, 0]), RowVec2(RATIONAL, [0, 1]))
        assert m == mat(RATIONAL, NILPOTENT)

    @pytest.mark.parametrize("cls", [ColVec2, RowVec2])
    @pytest.mark.parametrize("entries", [[1], [1, 2, 3]])
    def test_needs_two_entries(self, cls, entries):
        with pytest.raises(ShapeError):
            cls(RATIONAL, entries)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestAlgebraicProperties:
    @given(a=four_ints, b=four_ints)
    def test_cyclic_trace_invariance(self, field, a, b):
        x, y = mat(field, a), mat(field, b)
        assert trace(x @ y) == trace(y @ x)

    @given(a=four_ints, p=four_ints)
    def test_conjugation_preserves_trace(self, field, a, p):
        x, pm = mat(field, a), mat(field, p)
        assume(bool(det(pm)))
        conj = conjugate(x, pm)
        assert trace(conj) == trace(x)

    @given(a=four_ints)
    def test_cayley_hamilton(self, field, a):
        x = mat(field, a)
        trace_x = Mat2(field, [times(trace(x), e) for e in x.flatten()])
        det_id = Mat2(field, [det(x), 0, 0, det(x)])
        assert plus(x @ x, negated(trace_x), det_id) == zero_matrix(field)


# a scalar n/d: the Fraction over Q, the int n over GF(p)
scalar = st.tuples(st.integers(-9, 9), st.integers(1, 4))


def reference(field, n, d=1):
    return Fraction(n, d) if field is RATIONAL else n


def canonical(field, value):
    return Fraction(value) if field is RATIONAL else value % field.modulus


def assert_canonical(field, values):
    for v in values:
        if field is RATIONAL:
            assert type(v) is Fraction
        else:
            assert type(v) is int and 0 <= v < field.modulus


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestRawValues:
    """Each operation computes on raw values: its results equal a reference
    on ints and Fractions, are canonical, and compare and hash like the
    same values passed through the constructor."""

    @given(a=st.tuples(*[scalar] * 4), b=st.tuples(*[scalar] * 4))
    def test_operations_match_the_reference(self, field, a, b):
        a, b = ([reference(field, *s) for s in t] for t in (a, b))
        x, y = Mat2(field, a), Mat2(field, b)
        a11, a12, a21, a22 = a
        expected = [a11 * b[0] + a12 * b[2], a11 * b[1] + a12 * b[3],
                    a21 * b[0] + a22 * b[2], a21 * b[1] + a22 * b[3]]
        got = x @ y
        assert_canonical(field, [e.value for e in got.flatten()])
        assert [e.value for e in got.flatten()] == [canonical(field, e) for e in expected]
        same = Mat2(field, expected)
        assert got == same and hash(got) == hash(same)

    def test_no_element_arithmetic(self, field, monkeypatch):
        calls = []
        for name in ("__add__",):
            def counting(*args, _real=getattr(FieldElement, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(FieldElement, name, counting)
        Mat2(field, [1, 2, 3, 4]) @ Mat2(field, [5, 6, 7, 8])
        assert calls == []


@given(a=four_ints, b=four_ints, c=four_ints)
def test_integer_matmul_is_the_matrix_product(a, b, c):
    """``matmul`` on row-major int 4-tuples is the 2x2 product: it agrees
    with ``Mat2 @`` over the rationals and is associative."""
    assert Mat2(RATIONAL, matmul(a, b)) == Mat2(RATIONAL, a) @ Mat2(RATIONAL, b)
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
