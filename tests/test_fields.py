"""Field backends: worked examples, axioms, exhaustive GF inverses, and the
canonical scalar syntax."""

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import NON_CANONICAL_TEXTS, RATIONAL_REJECTS
from strassen7.engine import MatN
from strassen7.fields import (
    RATIONAL,
    FieldMismatchError,
    InputError,
    ModulusError,
    PrimeField,
    ScalarFormatError,
    UnknownFieldError,
    MAX_MODULUS,
    is_prime,
    parse_field,
)
from strassen7.linalg import Mat2

GF2, GF3, GF5, GF7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


class TestExamples:
    def test_rational_add(self):
        assert RATIONAL(Fraction(1, 2)) + RATIONAL(Fraction(1, 3)) == RATIONAL(Fraction(5, 6))

    def test_gf7_mul(self):
        assert GF7.mul(6, 6) == 1

    def test_gf3_add_wraps(self):
        assert GF3(2) + GF3(1) == GF3(0)

    def test_rational_inverse(self):
        assert RATIONAL.ratio(3, 2) == 1 / Fraction(2, 3) == Fraction(3, 2)
        assert RATIONAL.ratio(-4, 6) == Fraction(-2, 3)
        assert type(RATIONAL.ratio(6, 3)) is Fraction

    def test_gf7_inverse(self):
        assert GF7.ratio(1, 3) == 5
        assert GF7.ratio(2, 3) == GF7.ratio(-5, 10) == 3

    def test_gf2_inverse(self):
        assert GF2.ratio(1, 1) == GF2.ratio(3, -1) == 1

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF7], ids=lambda f: f.name)
    def test_inverse_of_zero(self, field):
        with pytest.raises(ZeroDivisionError):
            field.ratio(1, 0)

    def test_denominator_that_is_a_multiple_of_p(self):
        # pow(14, -1, 7) alone raises ValueError, which the CLI reports as a bug
        with pytest.raises(ZeroDivisionError):
            GF7.ratio(1, 14)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            RATIONAL(1) + GF3(1)
        with pytest.raises(FieldMismatchError):
            GF3(1) + GF7(1)

    def test_int_coercion(self):
        assert GF7(3) + 4 == GF7(0)
        assert RATIONAL(Fraction(1, 2)) + -1 == RATIONAL(Fraction(-1, 2))
        assert GF7(3) == 10 and RATIONAL(Fraction(4, 2)) == 2

    @pytest.mark.parametrize("field", [RATIONAL, GF5, GF7], ids=lambda f: f.name)
    def test_reflected_operators(self, field):
        """Elements add and negate, and nothing else: an int on the left of
        +, differences and products are no operators of FieldElement, and
        the library runs them as Field.add and Field.mul on raw values, or
        on cleared integers."""
        for n in (1, 2, 4, -3):
            x = field(n)
            for op in (lambda: 3 + x, lambda: x - 3, lambda: 3 - x, lambda: x * 3,
                       lambda: 3 * x, lambda: x * x):
                with pytest.raises(TypeError):
                    op()

    @pytest.mark.parametrize("field, other", [(RATIONAL, GF5), (GF5, GF7), (GF7, RATIONAL)],
                             ids=lambda f: f.name)
    def test_coerce_rejects_other_fields(self, field, other):
        with pytest.raises(FieldMismatchError):
            field.coerce(other(1))

    @pytest.mark.parametrize("field", [RATIONAL, GF5, GF7], ids=lambda f: f.name)
    @pytest.mark.parametrize("value", [1.5, "1", None])
    def test_coerce_rejects_other_types(self, field, value):
        with pytest.raises(TypeError):
            field.coerce(value)

    def test_canonical_representation(self):
        assert RATIONAL(Fraction(2, 4)).value == Fraction(1, 2)
        assert GF7(9).value == 2
        assert GF7(-1).value == 6

    def test_rational_coerce_keeps_fractions(self):
        class Half(Fraction):
            pass

        values = [Fraction(3, 7), Fraction(-10**40, 3), Fraction(0)]
        assert all(RATIONAL.coerce(v) is v for v in values)
        # a rational MatN keeps numerators and denominators, not the
        # Fractions: its rows are equal to them, built afresh
        assert MatN(RATIONAL, [values] * 3).rows[2] == values
        for value, expected in ((5, Fraction(5)), (True, Fraction(1)), (Half(1, 2), Fraction(1, 2))):
            coerced = RATIONAL.coerce(value)
            assert type(coerced) is Fraction and coerced == expected


class TestAxioms:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @given(a=st.integers(), b=st.integers(), c=st.integers())
    def test_gf_ring_axioms(self, p, a, b, c):
        f = PrimeField(p)
        x, y, z = (f.from_int(n) for n in (a, b, c))
        add, mul = f.add, f.mul
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, f.from_int(-a)) == 0
        assert f.is_zero(a) == (x == 0) and f.is_zero(p * b)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @given(a=st.integers())
    def test_gf_multiplicative_inverse(self, p, a):
        f = PrimeField(p)
        x = f.from_int(a)
        if x:
            assert f.mul(x, f.ratio(1, x)) == 1
            assert f.ratio(a, x) == 1

    @given(a=st.fractions(), b=st.fractions(), c=st.fractions())
    def test_rational_field_axioms(self, a, b, c):
        f = RATIONAL
        x, y, z = (f.coerce(v) for v in (a, b, c))
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.coerce(-a)) == 0
        assert f.is_zero(a.numerator) == (x == 0)
        if x:
            assert f.mul(x, f.ratio(a.denominator, a.numerator)) == 1

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF7, PrimeField(2**61 - 1)],
                             ids=lambda f: f.name)
    @given(n=st.integers(), d=st.integers())
    def test_ratio_times_denominator(self, field, n, d):
        if field.from_int(d):
            assert field.mul(field.ratio(n, d), field.from_int(d)) == field.from_int(n)
        else:
            with pytest.raises(ZeroDivisionError):
                field.ratio(n, d)

    def test_gf_inverses_exhaustive_up_to_101(self):
        for p in (p for p in range(2, 102) if is_prime(p)):
            f = PrimeField(p)
            for a in range(1, p):
                assert f.mul(f.ratio(1, a), a) == 1


class TestDescriptors:
    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 100])
    def test_modulus_must_be_prime(self, bad):
        with pytest.raises(ModulusError):
            PrimeField(bad)

    def test_parse_field(self):
        assert parse_field("rational") == RATIONAL
        assert parse_field("gf(7)") == GF7

    @pytest.mark.parametrize("text", ["gf(4)", "gf(x)", "GF(7)", "reals", "float64", "",
                                      "gf(\u0663)", "gf(\uff13)", "gf(5)\n"])
    def test_parse_field_rejects(self, text):
        with pytest.raises(ModulusError if text == "gf(4)" else UnknownFieldError):
            parse_field(text)
        assert issubclass(ModulusError, InputError) and issubclass(UnknownFieldError, InputError)

    def test_descriptor_equality(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(5)
        assert RATIONAL != GF7
        # distinct but equal fields: equal, hashed alike, and their elements mix
        f, g = PrimeField(5), PrimeField(5)
        assert f is not g and f == g and hash(f) == hash(g)
        assert f(3) + g(4) == g(2) and f(3) + g(2) == 0
        assert Mat2(f, [3, 0, 0, 3]) @ Mat2(g, [4, 0, 0, 4]) == Mat2(f, [2, 0, 0, 2])
        assert {f(1), g(1)} == {f(1)}
        with pytest.raises(FieldMismatchError):
            f(1) + PrimeField(7)(1)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class TestPrimality:
    def test_agrees_with_trial_division_below_10000(self):
        assert all(is_prime(n) == _trial_division(n) for n in range(10**4))

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
    def test_large_primes_accepted_fast(self, p):
        start = time.perf_counter()
        assert is_prime(p)
        assert time.perf_counter() - start < 0.01

    # Carmichael numbers, the least strong pseudoprimes to base 2 and to bases 2..7,
    # and the least strong pseudoprime to the first 12 prime bases
    @pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 2047, 3215031751,
                                   318665857834031151167461])
    def test_pseudoprimes_rejected(self, n):
        assert not is_prime(n)

    def test_moduli_beyond_the_exact_bound_are_errors(self):
        assert parse_field("gf(1000000000000000003)") == PrimeField(10**18 + 3)
        with pytest.raises(ModulusError, match="too large"):
            is_prime(MAX_MODULUS)
        with pytest.raises(ModulusError, match="too large"):
            parse_field(f"gf({MAX_MODULUS + 2})")
        with pytest.raises(ModulusError, match="5000-digit integer is too long"):
            parse_field(f"gf({'7' * 5000})")


class TestScalarSyntax:
    def test_rational_roundtrip(self):
        for text in ("5/6", "-5/6", "3", "-3", "0"):
            e = RATIONAL.parse_scalar(text)
            assert str(e) == text

    def test_rational_integer_form_normalizes(self):
        assert str(RATIONAL.parse_scalar("3/1")) == "3"

    @pytest.mark.parametrize("text", RATIONAL_REJECTS)
    def test_rational_rejects(self, text):
        with pytest.raises(ScalarFormatError):
            RATIONAL.parse_scalar(text)

    @pytest.mark.parametrize("field", [RATIONAL, GF5, GF7], ids=lambda f: f.name)
    @pytest.mark.parametrize("text", NON_CANONICAL_TEXTS.values(), ids=NON_CANONICAL_TEXTS.keys())
    def test_non_canonical_text_rejected(self, field, text):
        with pytest.raises(ScalarFormatError):
            field.parse_scalar(text)

    def test_gf_residue_range(self):
        assert GF7.parse_scalar("6") == GF7(6)
        with pytest.raises(ScalarFormatError):
            GF7.parse_scalar("7")
        with pytest.raises(ScalarFormatError):
            GF7.parse_scalar("-1")
        with pytest.raises(ScalarFormatError):
            GF7.parse_scalar("1/2")
