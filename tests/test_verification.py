"""The independent checkers: unit-pair certificate, exhaustive prime-field
sweep, multiplication table and trilinear trace identity, including their
behaviour on corrupted inputs."""

import inspect
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import count, permutations, product, takewhile

import numpy as np
import pytest

from conftest import (
    EXACT_FIELDS,
    count_fraction_arithmetic,
    count_fraction_constructions,
    form_at,
    identity_matrix,
    negated,
    paper_decomposition,
    perturb_decomposition,
    plus,
    random_perp,
    random_rotation,
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
    BilinearDecomposition,
    Term,
    build_basis,
    derive_decomposition,
    word_name,
)
from strassen7.fields import PrimeField, RATIONAL
from strassen7.linalg import Mat2
from strassen7 import construction, verification
from strassen7.verification import (
    Failure,
    FieldTooLargeError,
    VerificationReport,
    verify_bilinear_identity,
    verify_exhaustive_gf,
    verify_multiplication_table,
    verify_trilinear,
)

GF2, GF3, GF5, GF7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
UNIT_NAMES = ("e11", "e12", "e21", "e22")


def _derived(field, seed=0):
    rng = random.Random(seed)
    rot = random_rotation(field, rng)
    return derive_decomposition(rot, random_perp(rot, rng))


def _unit_forms(dec):
    """The matrix units, and u_k and v_k evaluated at each of them."""
    units = standard_units(dec.field)
    us = [[form_at(t.u_coeffs, e) for t in dec.terms] for e in units]
    vs = [[form_at(t.v_coeffs, e) for t in dec.terms] for e in units]
    return units, us, vs


def _reference_bilinear(dec):
    """The unit-pair check on Mat2 objects: XY against sum u_k(X) v_k(Y) W_k."""
    units, us, vs = _unit_forms(dec)
    for checks, (i, j) in enumerate(product(range(4), repeat=2), 1):
        lhs, rhs = units[i] @ units[j], zero_matrix(dec.field)
        for t, u, v in zip(dec.terms, us[i], vs[j]):
            rhs = plus(rhs, Mat2(dec.field, [times(u, v, e) for e in t.w.flatten()]))
        if lhs != rhs:
            where = f"unit pair ({UNIT_NAMES[i]}, {UNIT_NAMES[j]})"
            return VerificationReport(False, checks, Failure(where, i, j, lhs, rhs))
    return VerificationReport(True, 16)


def _reference_trilinear(dec):
    """The unit-triple check on Mat2 objects: trace(XYZ) against
    sum u_k(X) v_k(Y) trace(W_k Z)."""
    units, us, vs = _unit_forms(dec)
    ws = [[trace(t.w @ e) for t in dec.terms] for e in units]
    for checks, (i, j, k) in enumerate(product(range(4), repeat=3), 1):
        lhs, rhs = trace(units[i] @ units[j] @ units[k]), dec.field(0)
        for u, v, w in zip(us[i], vs[j], ws[k]):
            rhs = rhs + times(u, v, w)
        if lhs != rhs:
            where = f"unit triple ({UNIT_NAMES[i]}, {UNIT_NAMES[j]}, {UNIT_NAMES[k]})"
            return VerificationReport(False, checks, Failure(where, i, j, lhs, rhs))
    return VerificationReport(True, 64)


def _pair_report(p, i, j, lhs, rhs, checks):
    where = f"gf({p}) matrix pair (#{i}, #{j})"
    field = PrimeField(p)
    return VerificationReport(False, checks, Failure(where, i, j, Mat2(field, lhs), Mat2(field, rhs)))


def _reference_exhaustive(dec):
    """Every pair in enumeration order, both sides on Python ints mod p."""
    p = dec.field.modulus
    mats = list(product(range(p), repeat=4))  # lexicographic: matrix #i is mats[i]
    us = [[sum(c.value * e for c, e in zip(t.u_coeffs, m)) for t in dec.terms] for m in mats]
    vs = [[sum(c.value * e for c, e in zip(t.v_coeffs, m)) for t in dec.terms] for m in mats]
    ws = [[w.value for w in t.w.flatten()] for t in dec.terms]
    checks = 0
    for i, (x11, x12, x21, x22) in enumerate(mats):
        for j, (y11, y12, y21, y22) in enumerate(mats):
            checks += 1
            lhs = [v % p for v in (x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
                                   x21 * y11 + x22 * y21, x21 * y12 + x22 * y22)]
            rhs = [sum(u * v * w[e] for u, v, w in zip(us[i], vs[j], ws)) % p for e in range(4)]
            if lhs != rhs:
                return _pair_report(p, i, j, lhs, rhs, checks)
    return VerificationReport(True, checks)


def _reference_per_x(dec):
    """The sweep as one int64 numpy pass over all Y per matrix X: lhs - rhs
    of the four entries, reduced mod p."""
    p = dec.field.modulus
    n = p**4
    idx = np.arange(n, dtype=np.int64)
    mats = np.stack([idx // p**e % p for e in (3, 2, 1, 0)])  # column #i is matrix #i
    u, v, w = np.array(
        [[c.value for c in t.u_coeffs + t.v_coeffs + t.w.flatten()] for t in dec.terms]
    ).reshape(-1, 3, 4).transpose(1, 0, 2)
    u_of, v_of = u @ mats % p, v @ mats % p
    # entry (a, b) of XY is x_a1 y_1b + x_a2 y_2b
    y1, y2 = mats[[0, 1, 0, 1]], mats[[2, 3, 2, 3]]
    for i in range(n):
        x = mats[:, i]
        lhs = x[[0, 0, 2, 2], None] * y1 + x[[1, 1, 3, 3], None] * y2
        rhs = (w.T * u_of[:, i]) @ v_of
        bad = np.flatnonzero(((lhs - rhs) % p).any(axis=0))
        if bad.size:
            j = int(bad[0])
            return _pair_report(p, i, j, [int(e) % p for e in lhs[:, j]],
                                [int(e) % p for e in rhs[:, j]], i * n + j + 1)
    return VerificationReport(True, n * n)


def _planted(dec, k, part, pos):
    """dec with entry pos of u (part 0), v (1) or W (2) of term k plus one."""
    t = dec.terms[k]
    parts = [list(t.u_coeffs), list(t.v_coeffs), list(t.w.flatten())]
    parts[part][pos] = parts[part][pos] + dec.field(1)
    term = Term(tuple(parts[0]), tuple(parts[1]), Mat2(dec.field, parts[2]))
    return BilinearDecomposition(dec.field, dec.terms[:k] + (term,) + dec.terms[k + 1:])


@cache
def _sweep_cases(p, derived=2):
    """The paper's and ``derived`` random decompositions over gf(p), then
    each of them with a perturbation planted in u, v and W of every term."""
    field = PrimeField(p)
    bases = [paper_decomposition(field)] + [_derived(field, s) for s in range(derived)]
    rng = random.Random(p)
    return bases + [_planted(b, k, part, rng.randrange(4))
                    for b in bases for k in range(b.rank) for part in range(3)]


def _rescaled(dec, rng):
    """``dec`` with each term's u and v scaled by random nonzero rationals
    lambda and mu and its W by 1 / (lambda mu): the same products, with
    denominators in all of U, V and W."""
    terms = []
    for t in dec.terms:
        lam, mu = (Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(2, 9))
                   for _ in range(2))
        terms.append(Term(tuple(times(c, RATIONAL(lam)) for c in t.u_coeffs),
                          tuple(times(c, RATIONAL(mu)) for c in t.v_coeffs),
                          Mat2(RATIONAL, [times(e, RATIONAL(1 / (lam * mu)))
                                          for e in t.w.flatten()])))
    return BilinearDecomposition(RATIONAL, tuple(terms), dec.provenance)


@cache
def _reference_cases():
    """Per exact field, the paper's and three random derivations, and over
    the rationals three of them rescaled (``_rescaled``), unperturbed, then
    220 single-scalar perturbations of them."""
    bases = [paper_decomposition(f) for f in EXACT_FIELDS]
    bases += [_derived(f, seed) for f in EXACT_FIELDS for seed in range(3)]
    rng = random.Random(7)
    bases += [_rescaled(dec, rng) for dec in bases if dec.field == RATIONAL]
    rng = random.Random(11)
    return bases + [perturb_decomposition(rng.choice(bases), rng) for _ in range(220)]


class TestBilinear:
    def test_paper_decomposition_passes(self):
        report = verify_bilinear_identity(paper_decomposition())
        assert report.passed
        assert report.checks_run == 16
        assert report.first_failure is None

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_random_derivations_pass(self, field):
        for seed in range(5):
            assert verify_bilinear_identity(_derived(field, seed)).passed

    def test_scaled_first_matrix_fails(self):
        dec = paper_decomposition()
        terms = list(dec.terms)
        t = terms[0]
        doubled = [times(e, dec.field(2)) for e in t.w.flatten()]
        terms[0] = Term(t.u_coeffs, t.v_coeffs, Mat2(dec.field, doubled))
        report = verify_bilinear_identity(BilinearDecomposition(dec.field, tuple(terms)))
        assert not report.passed
        assert report.first_failure is not None
        # doubling W1 = id breaks the very first unit pair (e11, e11)
        assert (report.first_failure.x_index, report.first_failure.y_index) == (0, 0)

    def test_dropped_term_fails(self):
        dec = paper_decomposition()
        truncated = BilinearDecomposition(dec.field, dec.terms[:6])
        assert truncated.rank == 6
        assert not verify_bilinear_identity(truncated).passed

    def test_every_single_scalar_perturbation_fails(self):
        dec = paper_decomposition()
        rng = random.Random(42)
        for _ in range(30):
            report = verify_bilinear_identity(perturb_decomposition(dec, rng))
            assert not report.passed
            assert report.first_failure is not None


class TestExhaustive:
    def test_gf2_all_pairs(self):
        report = verify_exhaustive_gf(paper_decomposition(GF2))
        assert report.passed
        assert report.checks_run == 256

    def test_gf3_all_pairs(self):
        report = verify_exhaustive_gf(paper_decomposition(GF3))
        assert report.passed
        assert report.checks_run == 6561

    @pytest.mark.parametrize("field", [GF2, GF3, GF5, GF7], ids=lambda f: f.name)
    def test_agrees_with_unit_pair_certificate(self, field):
        good = _derived(field, seed=3)
        assert verify_bilinear_identity(good).passed
        assert verify_exhaustive_gf(good).passed
        bad = perturb_decomposition(good, random.Random(7))
        assert not verify_bilinear_identity(bad).passed
        assert not verify_exhaustive_gf(bad).passed

    def test_failure_reports_counterexample(self):
        bad = perturb_decomposition(paper_decomposition(GF3), random.Random(1))
        report = verify_exhaustive_gf(bad)
        assert not report.passed
        f = report.first_failure
        assert f.expected != f.actual
        assert 0 < report.checks_run <= 6561

    def test_gf11_all_pairs(self):
        # |lhs - rhs| reaches 2 * 10^2 + 7 * 10^3 = 7,200 > 2^11: the first
        # sweep whose values a float16 sweep could not hold exactly
        dec = paper_decomposition(PrimeField(11))
        assert verify_exhaustive_gf(dec, budget=11**8) == VerificationReport(True, 11**8)
        bad = perturb_decomposition(dec, random.Random(11))
        assert not verify_exhaustive_gf(bad, budget=11**8).passed

    @pytest.mark.parametrize("p", [11, 101])
    def test_budget_exceeded(self, p):
        with pytest.raises(FieldTooLargeError):
            verify_exhaustive_gf(paper_decomposition(PrimeField(p)))

    def test_memory_bound_checked_before_allocating(self, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(FieldTooLargeError, match="int64 values"):
            verify_exhaustive_gf(paper_decomposition(PrimeField(101)), budget=10**20)
        with pytest.raises(FieldTooLargeError, match="int64 values"):
            verify_exhaustive_gf(paper_decomposition(PrimeField(31)), budget=10**20)
        # gf(29) and gf(7), the largest field of the default budget, pass the bound
        with pytest.raises(Allocated):
            verify_exhaustive_gf(paper_decomposition(PrimeField(29)), budget=10**20)
        with pytest.raises(Allocated):
            verify_exhaustive_gf(paper_decomposition(PrimeField(7)))

    def test_requires_prime_field(self):
        with pytest.raises(TypeError):
            verify_exhaustive_gf(paper_decomposition())

    def test_rank_zero_fails_at_first_nonzero_product(self):
        report = verify_exhaustive_gf(BilinearDecomposition(GF3, ()))
        assert report.render() == (
            "FAILED after 83 checks at gf(3) matrix pair (#1, #1): "
            "expected [[0, 0], [0, 1]], got [[0, 0], [0, 0]]"
        )

    def test_zero_eighth_term_still_passes(self):
        dec = paper_decomposition(GF3)
        zero = Term((GF3(0),) * 4, (GF3(0),) * 4, zero_matrix(GF3))
        report = verify_exhaustive_gf(BilinearDecomposition(GF3, dec.terms + (zero,)))
        assert report == VerificationReport(True, 6561)

    def test_six_terms_fail(self):
        dec = paper_decomposition(GF3)
        report = verify_exhaustive_gf(BilinearDecomposition(GF3, dec.terms[:6]))
        assert report.render().startswith("FAILED after 85 checks at gf(3) matrix pair (#1, #3)")


class TestExhaustiveAgainstReference:
    """The chunked float32 sweep gives the very reports of a per-pair
    Python evaluation (gf(2), gf(3)) and of a per-X int64 numpy pass
    (gf(5), and gf(7), whose |lhs - rhs| reaches 2(p-1)^2 + 7(p-1)^3 =
    1,584, the largest of any field the default budget admits), on
    derived decompositions and planted perturbations."""

    @pytest.mark.parametrize("p, reference", [
        (2, _reference_exhaustive), (3, _reference_exhaustive), (5, _reference_per_x),
        (7, _reference_per_x),
    ], ids=["gf2-python", "gf3-python", "gf5-per-x", "gf7-per-x"])
    def test_reports_equal_reference(self, p, reference):
        derived = 2 if p < 5 else 1
        cases = _sweep_cases(p, derived)
        failures = 0
        for dec in cases:
            got, want = verify_exhaustive_gf(dec), reference(dec)
            assert got == want
            assert got.render() == want.render()
            assert got.to_dict() == want.to_dict()
            failures += not got.passed
        assert failures == len(cases) - (derived + 1) == 21 * (derived + 1)

    def test_small_chunks(self, monkeypatch):
        """Failures at the first and last X and Y of a chunk, and partial
        last chunks in X and in Y, give the same reports."""
        seen = set()
        for p, chunks in ((2, [1, 3, 4, 5, 7, 16, 48, 64, 80, 144, 1 << 14]),
                          (3, [10, 81, 243, 324, 567])):
            n = p**4
            cases = _sweep_cases(p)
            want = [_reference_exhaustive(dec) for dec in cases]
            for chunk in chunks:
                rows = max(1, chunk // n)
                cols = min(n, chunk // rows)
                seen.update({"partial x"} if n % rows and rows > 1 else set())
                seen.update({"partial y"} if n % cols else set())
                monkeypatch.setattr(verification, "_CHUNK_PAIRS", chunk)
                for dec, reference in zip(cases, want):
                    assert verify_exhaustive_gf(dec) == reference
                    if reference.passed:
                        continue
                    f = reference.first_failure
                    if rows > 1:
                        seen.add({0: "first x", rows - 1: "last x"}.get(f.x_index % rows))
                    if cols < n:
                        seen.add({0: "first y", cols - 1: "last y"}.get(f.y_index % cols))
        assert {"first x", "last x", "first y", "last y", "partial x", "partial y"} <= seen

    def test_every_pair_is_tested(self, monkeypatch):
        """A first failure always lies among the first p^3 + 1 matrices X
        and Y, so reports alone cannot show that later chunks are swept:
        count the entries that reach the divisibility test instead."""
        tested = []
        not_equal = np.not_equal

        def counting(q, t, out):
            tested.append(out.size)
            return not_equal(q, t, out=out)

        monkeypatch.setattr(np, "not_equal", counting)
        dec = paper_decomposition(GF3)
        for chunk in (7, 81, 500, 1 << 14):
            monkeypatch.setattr(verification, "_CHUNK_PAIRS", chunk)
            tested.clear()
            assert verify_exhaustive_gf(dec).passed
            assert sum(tested) == 4 * 81**2


def test_sweep_cap_keeps_every_value_exact_in_float32():
    """The sweep is exact only while every partial sum of lhs - rhs, at
    most 2(p-1)^2 + r(p-1)^3 in magnitude, is an integer float32 holds
    exactly.  Its memory cap must imply that for every prime p and the
    largest rank r it admits there, (5 + 2r) p^4 <= _MAX_SWEEP_VALUES."""
    exact = 2 ** (np.finfo(np.float32).nmant + 1)  # 2^24
    cap = verification._MAX_SWEEP_VALUES
    admitted = takewhile(lambda p: 5 * p**4 <= cap, count(2))  # rank 0 fits
    primes = [p for p in admitted if all(p % q for q in range(2, p))]
    assert primes
    for p in primes:
        r = (cap // p**4 - 5) // 2
        assert (5 + 2 * r) * p**4 <= cap < (7 + 2 * r) * p**4
        assert 2 * (p - 1) ** 2 + r * (p - 1) ** 3 < exact, (p, r)


def _reference_table(basis):
    """The table check on Mat2 objects: every basis_x element times every
    basis_y element against the signed words of TABLE."""
    field = basis.field
    signed = {0: zero_matrix(field)}
    for k, word in enumerate(W_WORDS, 1):
        w = word_matrix(word, basis.rotation, basis.m)
        signed[k], signed[-k] = w, negated(w)
    for checks, (i, j) in enumerate(product(range(4), repeat=2), 1):
        expected, actual = signed[TABLE[i][j]], basis.basis_x[i] @ basis.basis_y[j]
        if actual != expected:
            where = f"table cell ({word_name(ROW_HEADS[i])}) * ({word_name(COL_HEADS[j])})"
            return VerificationReport(False, checks, Failure(where, i, j, expected, actual))
    return VerificationReport(True, 16)


@cache
def _table_cases():
    """Per exact field, three random bases, then each with its conjugates M,
    M1, M2 permuted and with all three negated; over the rationals also
    scaled by 2/3, which puts denominators into M."""
    cases = []
    for field in EXACT_FIELDS:
        rng = random.Random(field.name)
        scales = [1, -1] + ([Fraction(2, 3)] if field == RATIONAL else [])
        for _ in range(3):
            rot = random_rotation(field, rng)
            good = build_basis(rot, random_perp(rot, rng))
            for lam in scales:
                mats = [Mat2(field, [times(e, field(lam)) for e in m.flatten()])
                        for m in (good.m, good.m1, good.m2)]
                cases += [replace(good, m=m, m1=m1, m2=m2) for m, m1, m2 in permutations(mats)]
    return cases


class TestMultiplicationTable:
    def test_reports_equal_reference(self):
        """The check on cleared integers gives the very reports of the
        Mat2 products: verdict, check count, failure text and values."""
        cases = _table_cases()
        failures = 0
        for basis in cases:
            got, want = verify_multiplication_table(basis), _reference_table(basis)
            assert got == want
            assert got.render() == want.render()
            assert got.to_dict() == want.to_dict()
            failures += not got.passed
        assert 0 < failures < len(cases)

    def test_rational_check_adds_no_fraction_arithmetic_to_the_words(self, monkeypatch):
        """Over the rationals the words and the cells are multiplied and
        compared on cleared integers: no Fraction arithmetic, and
        Fractions built only for a failing cell's report, on passing and
        failing bases alike."""
        cases = [b for b in _table_cases() if b.field == RATIONAL]
        passed = [_reference_table(b).passed for b in cases]
        assert any(passed) and not all(passed)
        calls = count_fraction_arithmetic(monkeypatch)
        built = count_fraction_constructions(monkeypatch)
        for basis, ok in zip(cases, passed):
            del built[:]
            verify_multiplication_table(basis)
            assert len(built) == (0 if ok else 8)  # expected and actual of one cell
        assert calls == []

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_table_verifies(self, field):
        rng = random.Random(9)
        rot = random_rotation(field, rng)
        basis = build_basis(rot, random_perp(rot, rng))
        report = verify_multiplication_table(basis)
        assert report.passed
        assert report.checks_run == 16

    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_swapped_conjugates_fail_at_first_wrong_cell(self, field):
        rng = random.Random(9)
        rot = random_rotation(field, rng)
        good = build_basis(rot, random_perp(rot, rng))
        bad = replace(good, m1=good.m2, m2=good.m1)
        cells = [(i, j) for i in range(4) for j in range(4)]
        checks, (i, j) = next(
            (n, (i, j)) for n, (i, j) in enumerate(cells, 1)
            if bad.basis_x[i] @ bad.basis_y[j] != good.basis_x[i] @ good.basis_y[j]
        )
        report = verify_multiplication_table(bad)
        assert not report.passed
        assert report.checks_run == checks
        f = report.first_failure
        assert (f.x_index, f.y_index) == (i, j)
        assert f.description == f"table cell ({word_name(ROW_HEADS[i])}) * ({word_name(COL_HEADS[j])})"
        assert f.expected == good.basis_x[i] @ good.basis_y[j]
        assert f.actual == bad.basis_x[i] @ bad.basis_y[j]

    def test_table_from_a_mutated_rule_fails_at_a_named_cell(self, monkeypatch):
        """A table reduced with M D M = -M in place of M D M = M fails the
        numeric check at the first cell it changes, in every characteristic
        but 2, where -M = M and the mutated table is the true one."""
        monkeypatch.setattr(construction, "_MDM", (0, -1, -1))
        mutated = tuple(
            tuple(s and s * (W_WORDS.index(w) + 1)
                  for s, w in (construction._product(x, y) for y in COL_HEADS))
            for x in ROW_HEADS)
        assert mutated != TABLE
        monkeypatch.setattr(verification, "TABLE", mutated)
        for field in EXACT_FIELDS:
            rng = random.Random(field.name)
            rot = random_rotation(field, rng)
            basis = build_basis(rot, random_perp(rot, rng))
            report = verify_multiplication_table(basis)
            if field.name == "gf(2)":
                assert report.passed
                continue
            assert report.checks_run == 8
            assert report.first_failure.description == "table cell (M) * (D*M*D^-1)"
            assert report.first_failure.actual == basis.m @ rot.d_inv

    def test_named_cells(self):
        rng = random.Random(2)
        rot = random_rotation(RATIONAL, rng)
        basis = build_basis(rot, random_perp(rot, rng))
        d, d_inv, m = rot.d, rot.d_inv, basis.m
        assert d @ d_inv == identity_matrix(RATIONAL)
        assert m @ m == zero_matrix(RATIONAL)
        assert basis.m2 @ basis.m1 == d @ m @ d
        # the three sign-flip cells
        assert m @ basis.m1 == negated(m @ d)
        assert basis.m2 @ m == negated(d @ m)
        assert basis.m1 @ basis.m2 == negated(d_inv @ m @ d_inv)


class TestIndependence:
    def test_identity_checkers_do_not_read_the_table(self):
        table_names = {"TABLE", "W_WORDS", "ROW_HEADS", "COL_HEADS", "_TERM_FORMS",
                       "_product", "_MDM", "word_name", "cell_name", "evaluate_words",
                       "construction"}
        for checker in (verify_bilinear_identity, verify_trilinear, verify_exhaustive_gf,
                        verification._unit_tensor, verification._matmul_tensor,
                        verification._differs, verification._pair_failure):
            assert not table_names & set(checker.__code__.co_names), checker.__name__

    def test_table_check_forms_its_own_words(self):
        """The table check reads the basis it is given and the table, and
        calls no derivation code: it forms the words itself."""
        derivation = {name for name, fn in vars(construction).items()
                      if inspect.isfunction(fn) and fn.__module__ == construction.__name__}
        derivation -= {"word_name"}
        assert "evaluate_words" in derivation and "_cleared_basis" in derivation
        assert not derivation & set(verify_multiplication_table.__code__.co_names)

    def test_sweep_does_not_read_the_unit_tensor(self, monkeypatch):
        for fn in (verify_exhaustive_gf, verification._pair_failure):
            assert not {"_unit_tensor", "_MATMUL", "_matmul_tensor"} & set(fn.__code__.co_names)
        cases = _sweep_cases(3)[::4]
        want = [_reference_exhaustive(dec) for dec in cases]

        def refuse(dec):
            raise AssertionError("_unit_tensor called")

        monkeypatch.setattr(verification, "_unit_tensor", refuse)
        monkeypatch.setattr(verification, "_MATMUL", None)
        assert [verify_exhaustive_gf(dec) for dec in cases] == want

    def test_unit_checkers_do_not_multiply_matrices(self, monkeypatch):
        cases = _reference_cases()[::10]
        want = [(_reference_bilinear(d), _reference_trilinear(d)) for d in cases]
        assert any(b.passed for b, _ in want) and not all(b.passed for b, _ in want)

        def refuse(self, other):
            raise AssertionError("Mat2.__matmul__ called")

        monkeypatch.setattr(Mat2, "__matmul__", refuse)
        for dec, (bilinear, trilinear) in zip(cases, want):
            assert verify_bilinear_identity(dec) == bilinear
            assert verify_trilinear(dec) == trilinear


def test_rational_unit_checks_make_no_fraction_arithmetic(monkeypatch):
    """The unit tensor runs on cleared integers: passing rational checks
    build Fractions but never add, subtract, multiply or divide them."""
    cases = [dec for dec in _reference_cases()
             if dec.field == RATIONAL and _reference_bilinear(dec).passed]
    assert len(cases) == 8
    calls = count_fraction_arithmetic(monkeypatch)
    for dec in cases:
        verification._unit_tensor(dec)
        assert verify_bilinear_identity(dec).passed and verify_trilinear(dec).passed
    assert calls == []


class TestAgainstReference:
    """The tensor-based checkers give the very reports of the per-unit
    Mat2 evaluation: verdict, check count, failure text and values."""

    @pytest.mark.parametrize("checker, reference", [
        (verify_bilinear_identity, _reference_bilinear),
        (verify_trilinear, _reference_trilinear),
    ], ids=["bilinear", "trilinear"])
    def test_reports_equal_reference(self, checker, reference):
        cases = _reference_cases()
        failures = 0
        for dec in cases:
            got, want = checker(dec), reference(dec)
            assert got == want
            assert got.render() == want.render()
            assert got.to_dict() == want.to_dict()
            failures += not got.passed
        assert failures == 220


class TestTrilinear:
    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_derived_decompositions_pass(self, field):
        report = verify_trilinear(_derived(field, seed=4))
        assert report.passed
        assert report.checks_run == 64

    def test_identity_triple_consistent(self):
        dec = paper_decomposition()
        ident = identity_matrix(RATIONAL)
        total = RATIONAL(0)
        for t in dec.terms:
            u, v = form_at(t.u_coeffs, ident), form_at(t.v_coeffs, ident)
            total = total + times(u, v, trace(t.w @ ident))
        assert total == trace(ident @ ident @ ident)
        assert total == RATIONAL(2)

    def test_corrupted_matrix_fails(self):
        dec = paper_decomposition()
        terms = list(dec.terms)
        t = terms[2]
        terms[2] = Term(t.u_coeffs, t.v_coeffs, plus(t.w, identity_matrix(dec.field)))
        report = verify_trilinear(BilinearDecomposition(dec.field, tuple(terms)))
        assert not report.passed
        assert report.first_failure is not None


class TestReportShape:
    def test_passed_means_no_failure(self):
        from strassen7.verification import VerificationReport

        with pytest.raises(ValueError):
            VerificationReport(passed=True, checks_run=1,
                               first_failure=object())  # type: ignore[arg-type]

    def test_render_and_dict(self):
        report = verify_bilinear_identity(paper_decomposition())
        assert "passed" in report.render()
        assert report.to_dict() == {"passed": True, "checks_run": 16}
