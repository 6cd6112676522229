"""The derivation pipeline: rotation validation, perp vectors, basis
construction, coordinate forms, and the seven-term decomposition, plus the
randomized claim suite over five fields."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import (
    EXACT_FIELDS,
    SingularError,
    apply,
    basis_columns,
    conjugate,
    coordinates,
    count_fraction_arithmetic,
    count_fraction_constructions,
    det,
    dot,
    form_at,
    gauss_jordan_inverse,
    identity_matrix,
    is_scalar,
    is_zero_vector,
    minus,
    negated,
    paper_decomposition,
    plus,
    random_invertible,
    random_perp,
    random_rotation,
    row_times,
    sample,
    standard_units,
    times,
    trace,
    word_matrix,
    zero_matrix,
)
from strassen7.construction import (
    COL_HEADS,
    ROW_HEADS,
    TABLE,
    W_WORDS,
    BadDeterminantError,
    BadTraceError,
    EigenvectorError,
    InvariantError,
    PerpPair,
    Rotation,
    RotationError,
    ScalarMatrixError,
    Term,
    ZeroVectorError,
    build_basis,
    default_rotation,
    default_u,
    derive_decomposition,
    evaluate_words,
    perp_vector,
    validate_rotation,
    word_name,
)
from strassen7 import construction
from strassen7.cli import cli_main
from strassen7.fields import RATIONAL, FieldMismatchError, PrimeField
from strassen7.linalg import ColVec2, Mat2, RowVec2
from strassen7.verification import verify_multiplication_table

GF2, GF3, GF5, GF7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


class TestRotation:
    def test_default_over_rationals(self):
        rot = default_rotation(RATIONAL)
        assert rot.d == Mat2(RATIONAL, [0, -1, 1, -1])
        assert rot.d_inv == Mat2(RATIONAL, [-1, 1, -1, 0])

    def test_default_over_gf3(self):
        assert default_rotation(GF3).d == Mat2(GF3, [0, 2, 1, 2])

    def test_default_over_gf2(self):
        assert default_rotation(GF2).d == Mat2(GF2, [0, 1, 1, 1])

    def test_identity_rejected_bad_trace(self):
        with pytest.raises(BadTraceError):
            validate_rotation(identity_matrix(RATIONAL))

    def test_bad_determinant(self):
        with pytest.raises(BadDeterminantError):
            validate_rotation(Mat2(RATIONAL, [0, -2, 1, -1]))

    def test_identity_over_gf3_is_scalar(self):
        # in characteristic 3 the identity has trace -1 and determinant 1,
        # so the char-poly checks pass and only the scalar check rejects it
        ident = identity_matrix(GF3)
        assert trace(ident) == GF3(-1)
        assert det(ident) == GF3(1)
        with pytest.raises(ScalarMatrixError, match="rotation must not be a multiple of the identity"):
            validate_rotation(ident)

    @pytest.mark.parametrize("field", [GF2, GF3, GF5], ids=lambda f: f.name)
    def test_every_matrix_against_the_reference(self, field):
        """Over a small field, each matrix is refused with the error of the
        first reference condition it misses (trace -1, determinant 1, not
        scalar by ``is_scalar``), and accepted if it misses none."""
        p, accepted = field.modulus, 0
        for entries in product(range(p), repeat=4):
            m = Mat2(field, entries)
            if trace(m) != field(-1):
                error = BadTraceError
            elif det(m) != field(1):
                error = BadDeterminantError
            elif is_scalar(m):
                error = ScalarMatrixError
            else:
                assert validate_rotation(m).d == m
                accepted += 1
                continue
            with pytest.raises(error):
                validate_rotation(m)
        # x^2 + x + 1 is irreducible for p = 2, 5, the char poly of p^2 - p
        # matrices, and (x - 1)^2 for p = 3, that of p^2 - 1 non-scalar ones
        assert accepted == {2: 2, 3: 3 * 3 - 1, 5: 5 * 5 - 5}[p]


class TestPerpVector:
    def test_first_unit_vector(self):
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, ColVec2(RATIONAL, [1, 0]))
        assert pp.u_perp == RowVec2(RATIONAL, [0, 1])

    def test_second_unit_vector(self):
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, ColVec2(RATIONAL, [0, 1]))
        assert pp.u_perp == RowVec2(RATIONAL, [-1, 0])

    def test_eigenvector_over_gf7(self):
        # D(1,5) = 2(1,5) mod 7: lambda = 2 is a root of x^2 + x + 1
        rot = default_rotation(GF7)
        assert apply(rot.d, ColVec2(GF7, [1, 5])) == ColVec2(GF7, [2, 3])
        with pytest.raises(EigenvectorError):
            perp_vector(rot, ColVec2(GF7, [1, 5]))

    def test_zero_vector(self):
        rng = random.Random(8)
        for field in EXACT_FIELDS:
            for rot in (default_rotation(field), random_rotation(field, rng)):
                with pytest.raises(ZeroVectorError, match="u must be nonzero"):
                    perp_vector(rot, ColVec2(field, [0, 0]))

    @pytest.mark.parametrize("entries", [[1, 0], [0, 0]], ids=["nonzero", "zero"])
    def test_u_over_another_field(self, entries):
        rot = default_rotation(GF5)
        with pytest.raises(FieldMismatchError):
            perp_vector(rot, ColVec2(GF7, entries))

    def test_default_u_is_first_unit(self):
        # D e1 = e2, so e1 is never an eigenvector of the companion matrix
        for field in EXACT_FIELDS + [PrimeField(1000003)]:
            rot = default_rotation(field)
            assert default_u(rot) == ColVec2(field, [1, 0])
            assert construction._default_perp(rot) == perp_vector(rot, default_u(rot))

    @pytest.mark.parametrize("field", [GF2, GF3, GF5, GF7], ids=lambda f: f.name)
    def test_every_u_against_the_inverse_of_u_du(self, field):
        """For every nonzero u, u_perp is row 1 of [u | Du]^-1 by the
        reference elimination, and EigenvectorError exactly where that
        matrix is singular."""
        rotations = [default_rotation(field), random_rotation(field, random.Random(23))]
        for rot in rotations:
            eigenvectors = 0
            for x in range(field.modulus):
                for y in range(field.modulus):
                    u = ColVec2(field, [x, y])
                    if is_zero_vector(u):
                        continue
                    du = apply(rot.d, u)
                    try:
                        want = gauss_jordan_inverse(field, [[x, du.x.value], [y, du.y.value]])[1]
                    except SingularError:
                        eigenvectors += 1
                        with pytest.raises(EigenvectorError):
                            perp_vector(rot, u)
                    else:
                        assert perp_vector(rot, u).u_perp == RowVec2(field, want)
            # D has an eigenvalue in GF(p) iff p = 3 or p = 1 mod 3
            assert bool(eigenvectors) == (field.modulus % 3 != 2)

    def test_default_u_falls_back_twice(self):
        # diag(2, 4) over gf(7) is a valid rotation whose eigenvectors
        # include both standard unit vectors; e1 + e2 is the one that works
        rot = validate_rotation(Mat2(GF7, [2, 0, 0, 4]))
        assert default_u(rot) == ColVec2(GF7, [1, 1])


def dual_forms(rot, pp) -> tuple:
    """(forms_x, forms_y): the coordinate forms of basis_x and basis_y that
    the derivation uses (``construction._coordinate_forms`` of the bases of
    ``construction._cleared_basis``), as elements."""
    field = rot.field
    _, xs, ys, s = construction._cleared_basis(rot, pp)
    return tuple(tuple(tuple(field(field.ratio(n, s)) for n in form) for form in side)
                 for side in construction._coordinate_forms(xs, ys))


class TestBasis:
    def test_nilpotent_and_conjugates(self):
        rot = default_rotation(RATIONAL)
        basis = build_basis(rot, perp_vector(rot, ColVec2(RATIONAL, [1, 0])))
        assert basis.m == Mat2(RATIONAL, [0, 1, 0, 0])
        assert basis.m1 == Mat2(RATIONAL, [-1, 1, -1, 1])
        assert basis.m2 == Mat2(RATIONAL, [0, 0, -1, 0])

    def test_conjugates_traceless(self):
        rot = default_rotation(RATIONAL)
        basis = build_basis(rot, perp_vector(rot, default_u(rot)))
        for m in (basis.m, basis.m1, basis.m2):
            assert trace(m) == RATIONAL(0)

    def test_forms_are_the_dual_bases(self, exact_field):
        rng = random.Random(17)
        for _ in range(10):
            rot = random_rotation(exact_field, rng)
            pp = random_perp(rot, rng)
            basis = build_basis(rot, pp)
            for forms, elements in zip(dual_forms(rot, pp), (basis.basis_x, basis.basis_y)):
                for i, form in enumerate(forms):
                    assert [form_at(form, b) for b in elements] == [int(i == j) for j in range(4)]


GRAM_FIELDS = EXACT_FIELDS + [PrimeField(1000003)]


def _gram_cases(field):
    """The default (D, u) and 200 seeded random ones over ``field``."""
    rot = default_rotation(field)
    yield rot, perp_vector(rot, default_u(rot))
    rng = random.Random(f"gram {field.name}")
    for _ in range(200):
        rot = random_rotation(field, rng)
        yield rot, random_perp(rot, rng)


def _cleared(basis_x, basis_y) -> tuple:
    """(xs, ys, s): the two bases' 32 entries cleared together, as
    row-major 4-tuples of ints over s."""
    ints, s = RATIONAL.clear([e.value for m in (*basis_x, *basis_y) for e in m.flatten()])
    return [ints[k:k + 4] for k in range(0, 16, 4)], [ints[k:k + 4] for k in range(16, 32, 4)], s


class TestTraceForm:
    """The pairing tr(basis_x[i] basis_y[j]), the Gram matrix of the trace
    form on the two bases, is read off TABLE and is its own inverse; the
    coordinate forms read off it equal those of an elimination."""

    def test_gram_inverses_over_the_integers(self):
        h = construction._PAIRING
        assert h == ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0))
        for i in range(4):
            for j in range(4):
                assert sum(h[i][k] * h[k][j] for k in range(4)) == int(i == j)
        assert round(np.linalg.det(h)) == -1

    @pytest.mark.parametrize("field", GRAM_FIELDS, ids=lambda f: f.name)
    def test_gram_matrices_and_forms_match_the_reference(self, field):
        for rot, pp in _gram_cases(field):
            basis = build_basis(rot, pp)
            assert [trace(word_matrix(w, rot, basis.m)) for w in W_WORDS] == \
                [field(t) for t in construction._TRACES]
            assert [[trace(x @ y) for y in basis.basis_y] for x in basis.basis_x] == \
                [[field(h) for h in row] for row in construction._PAIRING]
            for forms, elements in zip(dual_forms(rot, pp), (basis.basis_x, basis.basis_y)):
                want = gauss_jordan_inverse(field, basis_columns(elements))
                assert [[c.value for c in form] for form in forms] == want

    def test_wrong_pairing_is_a_degenerate_basis(self, monkeypatch):
        pairing = [list(row) for row in construction._PAIRING]
        pairing[2][3] += 1
        monkeypatch.setattr(construction, "_PAIRING", tuple(map(tuple, pairing)))
        rot = default_rotation(RATIONAL)
        with pytest.raises(InvariantError, match=r"\(2, 3\)"):
            build_basis(rot, perp_vector(rot, default_u(rot)))

    @pytest.mark.parametrize("side, cell", [
        pytest.param(0, r"\(3, 2\)", id="_GRAM_X"),
        pytest.param(1, r"\(2, 3\)", id="_GRAM_Y"),
    ])
    def test_wrong_gram_matrix_is_a_degenerate_basis(self, side, cell):
        # M2 replaced by M1 in one basis: that basis's Gram matrix is
        # singular, and its pairing with the other misses _PAIRING.
        rot = default_rotation(RATIONAL)
        basis = build_basis(rot, perp_vector(rot, default_u(rot)))
        bases = [list(basis.basis_x), list(basis.basis_y)]
        bases[side][3] = basis.m1
        with pytest.raises(InvariantError, match=cell):
            construction._check_pairing(RATIONAL, *_cleared(*bases))

    @pytest.mark.parametrize("side, cell", [
        pytest.param(0, r"\(3, 2\)", id="_GRAM_X"),
        pytest.param(1, r"\(2, 3\)", id="_GRAM_Y"),
    ])
    def test_wrong_gram_matrix_fails_basis_and_derivation(self, side, cell, monkeypatch):
        """The pairing check runs on both paths to the bases: with M2
        replaced by M1 in one cleared basis, build_basis and the
        derivation both refuse it."""
        check = construction._check_pairing

        def swapped(field, xs, ys, s):
            bases = [list(xs), list(ys)]
            bases[side][3] = bases[side][2]
            check(field, *bases, s)

        monkeypatch.setattr(construction, "_check_pairing", swapped)
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, default_u(rot))
        for build in (build_basis, derive_decomposition):
            with pytest.raises(InvariantError, match=cell):
                build(rot, pp)

    def test_forms_make_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(4)
        rot = random_rotation(RATIONAL, rng)
        pp = random_perp(rot, rng)
        basis = build_basis(rot, pp)
        elements = basis.basis_x + basis.basis_y
        assert any(e.value.denominator > 1 for m in elements for e in m.flatten())
        xs, ys, s = _cleared(basis.basis_x, basis.basis_y)
        calls = count_fraction_arithmetic(monkeypatch)
        construction._check_pairing(RATIONAL, xs, ys, s)
        forms = construction._coordinate_forms(xs, ys)
        assert calls == []
        assert tuple(tuple(tuple(RATIONAL(RATIONAL.ratio(n, s)) for n in form) for form in side)
                     for side in forms) == dual_forms(rot, pp)

    @pytest.mark.parametrize("field", [RATIONAL, GF5], ids=lambda f: f.name)
    def test_one_clear_for_both_bases(self, field, monkeypatch):
        """One clear of D, D^-1, u and u_perp serves both bases: the 32
        basis entries are never cleared."""
        rot = default_rotation(field)
        pp = perp_vector(rot, default_u(rot))
        calls = []
        real = type(field).clear
        monkeypatch.setattr(type(field), "clear", lambda self, values: calls.append(
            len(values)) or real(self, values))
        build_basis(rot, pp)
        assert calls == [12]

    def test_only_the_derivation_forms_the_dual_bases(self, monkeypatch, capsys):
        """build_basis and ``strassen7 table`` prove the bases and never
        call the form builder; the derivation calls it once."""
        calls, forms = [], construction._coordinate_forms
        monkeypatch.setattr(construction, "_coordinate_forms",
                            lambda xs, ys: calls.append(len(xs)) or forms(xs, ys))
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, default_u(rot))
        build_basis(rot, pp)
        assert cli_main(["table", "--field", "rational"]) == 0
        assert calls == [] and "passed, 16 checks" in capsys.readouterr().out
        derive_decomposition(rot, pp)
        assert calls == [4]

    def test_built_basis_is_frozen(self):
        rot = default_rotation(RATIONAL)
        basis = build_basis(rot, perp_vector(rot, default_u(rot)))
        with pytest.raises(FrozenInstanceError):
            basis.m = None


class TestSafetyChecks:
    """The identity checks fire on values built to break them."""

    def _parts(self):
        rot = default_rotation(RATIONAL)
        return rot, perp_vector(rot, default_u(rot))

    def test_wrong_inverse_fails_the_perp_check(self):
        rot, pp = self._parts()
        with pytest.raises(InvariantError, match=r"u_perp D\^-1 u != -1"):
            perp_vector(Rotation(rot.d, rot.d), pp.u)

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_wrong_ratio_fails_the_perp_check(self, field, monkeypatch):
        """The perp conditions are checked on the u_perp that is returned:
        a ``Field.ratio`` one too large gives a row they refuse."""
        rot = default_rotation(field)
        u = default_u(rot)
        real = type(field).ratio
        monkeypatch.setattr(type(field), "ratio",
                            lambda self, n, d: self.add(real(self, n, d), self.from_int(1)))
        with pytest.raises(InvariantError, match="perp vector fails its defining conditions"):
            perp_vector(rot, u)

    def test_wrong_inverse_fails_the_basis_check(self):
        rot, pp = self._parts()
        with pytest.raises(InvariantError, match=r"M D\^-1 M != -M"):
            build_basis(Rotation(rot.d, rot.d), pp)

    def test_shifted_perp_is_not_nilpotent(self):
        rot, pp = self._parts()
        shifted = RowVec2(RATIONAL, [pp.u_perp.x + 1, pp.u_perp.y])
        with pytest.raises(InvariantError, match=r"M\^2 != 0"):
            build_basis(rot, PerpPair(pp.u, shifted))

    def test_scaled_perp_fails_m_d_m(self):
        rot, pp = self._parts()
        two = RATIONAL(2)
        scaled = RowVec2(RATIONAL, [times(two, pp.u_perp.x), times(two, pp.u_perp.y)])
        with pytest.raises(InvariantError, match=r"M D M != M"):
            build_basis(rot, PerpPair(pp.u, scaled))


# The messages of the identity checks of validate_rotation and build_basis.
ROTATION_CHECKS = ("D^3 != id", "id + D + D^-1 != 0", "trace(D^-1) != -1")
BASIS_CHECKS = ("M^2 != 0", "M D M != M", "M D^-1 M != -M", "M or a conjugate is not traceless",
                "trace of basis product (0, 0) is not 2")


def _random_u(rng: random.Random) -> ColVec2:
    """A nonzero u with entries n/q, q > 1 for at least one of them."""
    return ColVec2(RATIONAL, [Fraction(rng.randrange(1, 10), rng.randrange(2, 5)),
                              sample(RATIONAL, rng)])


def _perturbed_failures(monkeypatch, field, run, nondegenerate: int = 0) -> list:
    """The message of the error that ``run()`` raises when the integer of
    one of its identity tests is moved by one, for each in turn; the other
    tests see their true integers.  An identity test is a zero test
    (``Field.is_zero``) that sees 0 on the valid input; the
    ``nondegenerate`` others see a nonzero int there, as the test that D
    is not scalar does."""
    real = type(field).is_zero
    seen = []
    monkeypatch.setattr(type(field), "is_zero", lambda self, n: seen.append(n) or real(self, n))
    run()
    identities = [k for k, n in enumerate(seen) if not n]
    assert identities and len(seen) - len(identities) == nondegenerate
    messages = []
    for k in identities:
        calls = iter(range(len(seen)))
        monkeypatch.setattr(type(field), "is_zero",
                            lambda self, n, k=k: real(self, n + (next(calls) == k)))
        with pytest.raises((InvariantError, RotationError)) as raised:
            run()
        messages.append(str(raised.value))
    return messages


class TestClearedIntegers:
    """validate_rotation, perp_vector, build_basis, derive_decomposition and
    the table check run on cleared integers: over the rationals they make
    no Fraction arithmetic, and build one Fraction per output entry at
    most."""

    def test_no_fraction_arithmetic_and_one_fraction_per_output_entry(self, monkeypatch):
        rng = random.Random(12)
        inputs = [(random_rotation(RATIONAL, rng).d, _random_u(rng)) for _ in range(10)]
        arithmetic = count_fraction_arithmetic(monkeypatch)
        built = count_fraction_constructions(monkeypatch)
        derived = 0
        for d, u in inputs:
            del built[:]
            rot = validate_rotation(d)
            assert len(built) <= 4  # D^-1
            del built[:]
            try:
                pp = perp_vector(rot, u)
            except EigenvectorError:
                continue
            assert len(built) <= 2  # u_perp
            del built[:]
            basis = build_basis(rot, pp)
            assert len(built) <= 12  # M, M1 and M2: no dual form
            del built[:]
            derive_decomposition(rot, pp)
            assert len(built) <= 7 * 12  # u, v and W of seven terms
            del built[:]
            assert verify_multiplication_table(basis).passed
            assert built == []
            derived += 1
        assert arithmetic == []
        assert derived >= 8

    @pytest.mark.parametrize("message", ROTATION_CHECKS)
    def test_each_rotation_check_fires(self, monkeypatch, message):
        d = random_rotation(RATIONAL, random.Random(5)).d
        # the scalar test stops at a12, nonzero for this D
        assert d.flatten()[1].value
        failures = _perturbed_failures(monkeypatch, RATIONAL, lambda: validate_rotation(d), 1)
        assert message in failures

    @pytest.mark.parametrize("message", BASIS_CHECKS)
    def test_each_basis_check_fires(self, monkeypatch, message):
        rng = random.Random(6)
        rot = random_rotation(RATIONAL, rng)
        pp = random_perp(rot, rng)
        failures = _perturbed_failures(monkeypatch, RATIONAL, lambda: build_basis(rot, pp))
        assert message in failures


def _coordinates_x(rot, pp, x) -> tuple:
    """The coordinates of x in basis_x, read off the forms x_i."""
    return tuple(form_at(form, x) for form in dual_forms(rot, pp)[0])


class TestCoordinates:
    def test_basis_members(self):
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, default_u(rot))
        basis = build_basis(rot, pp)
        one, zero = RATIONAL(1), RATIONAL(0)
        assert _coordinates_x(rot, pp, rot.d) == (one, zero, zero, zero)
        assert _coordinates_x(rot, pp, basis.m) == (zero, one, zero, zero)

    def test_unit_coordinates_frozen(self):
        rot = default_rotation(RATIONAL)
        pp = perp_vector(rot, default_u(rot))
        f = RATIONAL
        expected = [
            (f(-1), f(0), f(-1), f(0)),
            (f(0), f(1), f(0), f(0)),
            (f(0), f(0), f(0), f(-1)),
            (f(-1), f(-1), f(0), f(-1)),
        ]
        for unit, coords in zip(standard_units(f), expected):
            assert _coordinates_x(rot, pp, unit) == coords

    def test_reconstruction(self, exact_field):
        rng = random.Random(11)
        rot = random_rotation(exact_field, rng)
        pp = random_perp(rot, rng)
        basis = build_basis(rot, pp)
        for _ in range(10):
            x = Mat2(exact_field, [sample(exact_field, rng) for _ in range(4)])
            coords = _coordinates_x(rot, pp, x)
            total = zero_matrix(exact_field)
            for c, b in zip(coords, basis.basis_x):
                total = plus(total, Mat2(exact_field, [times(c, e) for e in b.flatten()]))
            assert total == x


class TestDerivation:
    def test_first_term_is_identity(self):
        dec = paper_decomposition()
        assert dec.terms[0].w == identity_matrix(RATIONAL)

    def test_second_term_matrix(self):
        dec = paper_decomposition()
        assert dec.terms[1].w == Mat2(RATIONAL, [-1, 0, 0, 0])

    def test_rank_is_seven(self, exact_field):
        rng = random.Random(5)
        rot = random_rotation(exact_field, rng)
        dec = derive_decomposition(rot, random_perp(rot, rng))
        assert dec.rank == 7
        assert len(dec.terms) == 7

    def test_provenance_recorded(self):
        dec = paper_decomposition()
        assert dec.provenance.d == Mat2(RATIONAL, [0, -1, 1, -1])
        assert dec.provenance.u == ColVec2(RATIONAL, [1, 0])


# The paper's two-basis product table and word traces, the one literal
# copy: the library reduces them from D^3 = 1 and M D^c M = (0, 1, -1)[c] M.
PAPER_TABLE = (
    (1, 5, 6, 7),
    (2, 0, -6, 2),
    (3, 3, 0, -7),
    (4, -5, 4, 0),
)
PAPER_TRACES = (2, -1, -1, -1, 1, 1, 1)
PAPER_NAMES = ("id", "M*D^-1", "D^-1*M", "D*M*D", "D*M", "M*D", "D^-1*M*D^-1")
# The 12 normal forms: D^a, and D^a M D^b.
NORMAL_FORMS = [(a,) for a in range(3)] + [(a, b) for a in range(3) for b in range(3)]


def _signed_product(x, y):
    """The product of two signed words (sign, word), zero as (0, None)."""
    (s, w), (t, v) = x, y
    if not s or not t:
        return 0, None
    r, u = construction._product(w, v)
    return (s * t * r, u) if r else (0, None)


class TestTable:
    def test_each_term_has_a_one_index_side(self):
        """Each term is x_i times a signed sum of y_j or a signed sum of
        x_i times y_j, and its cells are exactly those of its word."""
        assert len(construction._TERM_FORMS) == len(W_WORDS) == 7
        for k, (u, v) in enumerate(construction._TERM_FORMS, 1):
            one = u if len(u) == 1 else v
            assert len(one) == 1 and one[0][0] == 1
            cells = {(i, j, su * sv) for su, i in u for sv, j in v}
            assert cells == {(i, j, 1 if e > 0 else -1) for i, row in enumerate(TABLE)
                             for j, e in enumerate(row) if abs(e) == k}

    def test_reduced_table_is_the_papers(self):
        assert TABLE == PAPER_TABLE
        assert construction._TRACES == PAPER_TRACES
        assert construction._PAIRING == tuple(
            tuple(0 if not k else PAPER_TRACES[abs(k) - 1] * (1 if k > 0 else -1) for k in row)
            for row in PAPER_TABLE)
        assert tuple(map(word_name, W_WORDS)) == PAPER_NAMES
        assert [word_name(w) for w in ROW_HEADS] == ["D", "M", "D^-1*M*D", "D*M*D^-1"]
        assert [word_name(w) for w in COL_HEADS] == ["D^-1", "M", "D^-1*M*D", "D*M*D^-1"]
        assert [construction.cell_name(k) for k in (0, 1, -7)] == ["0", "id", "-D^-1*M*D^-1"]


class TestRewriting:
    """The table is a theorem: D^3 = 1 and M D^c M = (0, 1, -1)[c] M
    reduce every word in D and M to 0 or +-1 times one normal form."""

    def test_product_is_associative(self):
        """Associative on all 1,728 triples of normal forms, zero included,
        so the normal forms are unique: no word reduces two ways, not even
        the overlap M D^a M D^b M."""
        triples = list(product(NORMAL_FORMS, repeat=3))
        assert len(triples) == 1728
        overlaps = 0
        for x, y, z in triples:
            x, y, z = (1, x), (1, y), (1, z)
            left = _signed_product(_signed_product(x, y), z)
            assert left == _signed_product(x, _signed_product(y, z))
            overlaps += len(x[1]) == len(y[1]) == len(z[1]) == 2
        assert overlaps == 9**3

    def test_every_product_has_a_normal_form(self):
        for x, y in product(NORMAL_FORMS, repeat=2):
            sign, word = construction._product(x, y)
            assert sign in (-1, 0, 1) and word in NORMAL_FORMS

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_product_agrees_with_the_matrices(self, field):
        """For random (D, u), every one of the 144 products of normal forms
        reduces to the Mat2 product of their matrices."""
        rng = random.Random(f"rewriting {field.name}")
        for _ in range(8):
            rot = random_rotation(field, rng)
            basis = build_basis(rot, random_perp(rot, rng))
            mats = {w: word_matrix(w, rot, basis.m) for w in NORMAL_FORMS}
            signed = {1: mats, -1: {w: negated(m) for w, m in mats.items()}}
            for x, y in product(NORMAL_FORMS, repeat=2):
                sign, word = construction._product(x, y)
                want = signed[sign][word] if sign else zero_matrix(field)
                assert mats[x] @ mats[y] == want, (x, y)

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_heads_and_words_evaluate_to_the_bases(self, field):
        rng = random.Random(f"heads {field.name}")
        for _ in range(8):
            rot = random_rotation(field, rng)
            basis = build_basis(rot, random_perp(rot, rng))
            assert tuple(word_matrix(w, rot, basis.m) for w in ROW_HEADS) == basis.basis_x
            assert tuple(word_matrix(w, rot, basis.m) for w in COL_HEADS) == basis.basis_y
            ints, c = field.clear([e.value for m in (rot.d, rot.d_inv, basis.m)
                                   for e in m.flatten()])
            letters = ((ints[:4], c), (ints[4:8], c), (ints[8:], c))
            assert tuple(Mat2(field, [field.ratio(n, s) for n in w])
                         for w, s in evaluate_words(*letters)) == \
                tuple(word_matrix(w, rot, basis.m) for w in W_WORDS)

    def test_words_make_64_multiplications_and_32_additions(self):
        """The seven words cost eight 2x2 integer products: no identity
        factor is ever multiplied."""
        calls = []

        class Counted(int):
            def __mul__(self, other):
                calls.append("__mul__")
                return Counted(int(self) * int(other))

            def __add__(self, other):
                calls.append("__add__")
                return Counted(int(self) + int(other))

        rng = random.Random(8)
        rot = random_rotation(RATIONAL, rng)
        letters = construction._cleared_basis(rot, random_perp(rot, rng))[0]
        evaluate_words(*(((*map(Counted, x),), c) for x, c in letters))
        assert calls.count("__mul__") == 64
        assert calls.count("__add__") == 32
        assert len(calls) == 96


def _hand_grouped_terms(rot, pp) -> tuple:
    """The seven terms with the table's grouping written out by hand, as a
    reference that does not read ``TABLE``."""
    field = rot.field
    basis = build_basis(rot, pp)
    units = standard_units(field)
    x = list(zip(*(coordinates(basis.basis_x, e) for e in units)))
    y = list(zip(*(coordinates(basis.basis_y, e) for e in units)))

    def add(a, b):
        return tuple(p + q for p, q in zip(a, b))

    def sub(a, b):
        return tuple(p + minus(q) for p, q in zip(a, b))

    d, d_inv, m = rot.d, rot.d_inv, basis.m
    return (
        Term(x[0], y[0], identity_matrix(field)),
        Term(x[1], add(y[0], y[3]), m @ d_inv),
        Term(x[2], add(y[0], y[1]), d_inv @ m),
        Term(x[3], add(y[0], y[2]), d @ m @ d),
        Term(sub(x[0], x[3]), y[1], d @ m),
        Term(sub(x[0], x[1]), y[2], m @ d),
        Term(sub(x[0], x[2]), y[3], d_inv @ m @ d_inv),
    )


@pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
def test_derivation_matches_hand_grouping(field):
    rng = random.Random(31)
    for _ in range(40):  # 200 pairs over the five fields
        rot = random_rotation(field, rng)
        pp = random_perp(rot, rng)
        assert derive_decomposition(rot, pp).terms == _hand_grouped_terms(rot, pp)


PAIRS_PER_FIELD = 25


@pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
class TestClaimSuite:
    """The five derivation claims and the trace remark on randomized valid
    (D, u) pairs; the acceptance suite runs the same checks at 100 pairs."""

    def _pairs(self, field):
        rng = random.Random(hash(field.name) & 0xFFFF)
        for _ in range(PAIRS_PER_FIELD):
            rot = random_rotation(field, rng)
            yield rot, random_perp(rot, rng), rng

    def test_order_three_rotation(self, field):
        ident = identity_matrix(field)
        for rot, _, _ in self._pairs(field):
            assert rot.d @ rot.d @ rot.d == ident
            assert plus(ident, rot.d, rot.d_inv) == zero_matrix(field)
            assert trace(rot.d_inv) == field(-1)

    def test_inverse_is_the_square_without_elimination(self, field):
        rng = random.Random(3)
        companion = Mat2(field, [0, -1, 1, -1])
        for _ in range(PAIRS_PER_FIELD):
            rot = validate_rotation(conjugate(companion, random_invertible(field, rng)))
            assert rot.d_inv == rot.d @ rot.d
            assert rot.d @ rot.d_inv == identity_matrix(field)

    def test_perp_shifts_through_rotation(self, field):
        for rot, pp, _ in self._pairs(field):
            du = apply(rot.d, pp.u)
            shifted = row_times(pp.u_perp, rot.d_inv)
            assert dot(shifted, du) == field(0)
            assert dot(shifted, apply(rot.d, du)) == field(1)
            assert shifted == perp_vector(rot, du).u_perp

    def test_perp_against_inverse_rotation(self, field):
        for rot, pp, _ in self._pairs(field):
            assert dot(pp.u_perp, apply(rot.d_inv, pp.u)) == field(-1)

    def test_nilpotent_identities(self, field):
        zero = zero_matrix(field)
        for rot, pp, _ in self._pairs(field):
            basis = build_basis(rot, pp)
            m = basis.m
            assert m @ m == zero
            assert m @ rot.d @ m == m
            assert m @ rot.d_inv @ m == negated(m)

    def test_conjugate_sum_identity(self, field):
        ident = identity_matrix(field)
        for rot, pp, _ in self._pairs(field):
            basis = build_basis(rot, pp)
            lhs = plus(ident, rot.d) @ basis.m @ plus(ident, rot.d_inv)
            assert lhs == basis.m1

    def test_first_coordinate_is_negated_trace(self, field):
        for rot, pp, rng in self._pairs(field):
            basis = build_basis(rot, pp)
            x = Mat2(field, [sample(field, rng) for _ in range(4)])
            y = Mat2(field, [sample(field, rng) for _ in range(4)])
            assert coordinates(basis.basis_x, x)[0] == minus(trace(x))
            assert coordinates(basis.basis_y, y)[0] == minus(trace(y))
