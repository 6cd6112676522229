"""Acceptance criteria, one test per criterion.

Each test prints a single pass line once its assertions hold (visible with
``pytest -s``); stated runtime budgets are asserted, not just hoped for.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    EXACT_FIELDS,
    apply,
    coordinates,
    dot,
    identity_matrix,
    minus,
    negated,
    paper_decomposition,
    perturb_decomposition,
    plus,
    random_perp,
    random_rotation,
    row_times,
    sample,
    trace,
    zero_matrix,
)
from strassen7.construction import (
    ScalarMatrixError,
    build_basis,
    derive_decomposition,
    perp_vector,
    validate_rotation,
)
from strassen7.engine import EngineConfig, MatN, classical_multiply, strassen_multiply
from strassen7.fields import RATIONAL, PrimeField
from strassen7.fileformat import parse, serialize
from strassen7.linalg import ColVec2, Mat2
from strassen7.verification import (
    verify_bilinear_identity,
    verify_exhaustive_gf,
    verify_multiplication_table,
    verify_trilinear,
)

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)


def _report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_seven_term_reproduction():
    start = time.perf_counter()
    rot = validate_rotation(Mat2(RATIONAL, [0, -1, 1, -1]))
    dec = derive_decomposition(rot, perp_vector(rot, ColVec2(RATIONAL, [1, 0])))
    assert dec.rank == 7
    report = verify_bilinear_identity(dec)
    assert report.passed and report.checks_run == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"derivation yields 7 terms, 16/16 unit pairs exact ({elapsed:.3f}s)")


def test_criterion_02_w_matrix_spot_checks():
    rot = validate_rotation(Mat2(RATIONAL, [0, -1, 1, -1]))
    pp = perp_vector(rot, ColVec2(RATIONAL, [1, 0]))
    dec = derive_decomposition(rot, pp)
    d, d_inv = rot.d, rot.d_inv
    m = build_basis(rot, pp).m
    expected = [
        identity_matrix(RATIONAL),
        m @ d_inv,
        d_inv @ m,
        d @ m @ d,
        d @ m,
        m @ d,
        d_inv @ m @ d_inv,
    ]
    assert [t.w for t in dec.terms] == expected
    assert dec.terms[0].w == identity_matrix(RATIONAL)
    assert dec.terms[1].w == Mat2(RATIONAL, [-1, 0, 0, 0])
    _report(2, "W list is {id, MD^-1, D^-1M, DMD, DM, MD, D^-1MD^-1}, id first")


def _assert_claims(field, rot, pp, rng):
    ident, zero = identity_matrix(field), zero_matrix(field)
    # order-three rotation identities
    assert rot.d @ rot.d @ rot.d == ident
    assert plus(ident, rot.d, rot.d_inv) == zero
    assert trace(rot.d_inv) == field(-1)
    # perp shifting and the inverse pairing
    du = apply(rot.d, pp.u)
    shifted = row_times(pp.u_perp, rot.d_inv)
    assert dot(shifted, du) == field(0)
    assert dot(shifted, apply(rot.d, du)) == field(1)
    assert dot(pp.u_perp, apply(rot.d_inv, pp.u)) == field(-1)
    # nilpotent simplification identities and basis independence
    basis = build_basis(rot, pp)
    m = basis.m
    assert m @ m == zero
    assert m @ rot.d @ m == m
    assert m @ rot.d_inv @ m == negated(m)
    assert plus(ident, rot.d) @ m @ plus(ident, rot.d_inv) == basis.m1
    # first coordinate equals the negated trace
    x = Mat2(field, [sample(field, rng) for _ in range(4)])
    assert coordinates(basis.basis_x, x)[0] == minus(trace(x))
    assert coordinates(basis.basis_y, x)[0] == minus(trace(x))


def test_criterion_03_claim_suite_randomized():
    start = time.perf_counter()
    pairs_per_field = 100
    for field in EXACT_FIELDS:
        rng = random.Random(hash(field.name) & 0xFFFFFF)
        for _ in range(pairs_per_field):
            rot = random_rotation(field, rng)
            _assert_claims(field, rot, random_perp(rot, rng), rng)
    # characteristic 3: the identity passes the char-poly conditions and
    # must be rejected by the explicit scalar check
    with pytest.raises(ScalarMatrixError):
        validate_rotation(identity_matrix(GF3))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"claims 1-5 + trace remark on {pairs_per_field} pairs x "
               f"{len(EXACT_FIELDS)} fields ({elapsed:.2f}s)")


def test_criterion_04_multiplication_table():
    for field in EXACT_FIELDS:
        rng = random.Random(4)
        rot = random_rotation(field, rng)
        basis = build_basis(rot, random_perp(rot, rng))
        report = verify_multiplication_table(basis)
        assert report.passed and report.checks_run == 16
        # zero diagonal and the three sign-flip entries, explicitly
        zero = zero_matrix(field)
        d, d_inv, m = rot.d, rot.d_inv, basis.m
        assert m @ m == zero
        assert basis.m1 @ basis.m1 == zero
        assert basis.m2 @ basis.m2 == zero
        assert m @ basis.m1 == negated(m @ d)
        assert basis.m2 @ m == negated(d @ m)
        assert basis.m1 @ basis.m2 == negated(d_inv @ m @ d_inv)
    _report(4, "all 16 table entries exact, including sign flips and zero diagonal")


def test_criterion_05_exhaustive_small_fields():
    start = time.perf_counter()
    r2 = verify_exhaustive_gf(paper_decomposition(GF2))
    assert r2.passed and r2.checks_run == 256
    r3 = verify_exhaustive_gf(paper_decomposition(GF3))
    assert r3.passed and r3.checks_run == 6561
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"gf(2) 256/256 and gf(3) 6561/6561 pairs ({elapsed:.2f}s)")


def test_criterion_06_trilinear_identity():
    for field in EXACT_FIELDS:
        rng = random.Random(6)
        decs = [paper_decomposition(field)]
        for _ in range(3):
            rot = random_rotation(field, rng)
            decs.append(derive_decomposition(rot, random_perp(rot, rng)))
        for dec in decs:
            report = verify_trilinear(dec)
            assert report.passed and report.checks_run == 64
    _report(6, "trilinear trace identity holds on all 64 unit triples")


def test_criterion_07_recursion_count_law():
    start = time.perf_counter()
    dec = paper_decomposition(GF5)
    rng = random.Random(7)
    sizes = (2, 4, 8, 16, 32)
    strassen_counts = []
    for n in sizes:
        a, b = MatN.random(GF5, n, rng), MatN.random(GF5, n, rng)
        _, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=1))
        strassen_counts.append(counter.mults)
    assert strassen_counts == [7, 49, 343, 2401, 16807]
    # against the classical n^3 = 8^k: a factor 7/8 per level
    ratios = [Fraction(s, n**3) for s, n in zip(strassen_counts, sizes)]
    assert ratios == [Fraction(7, 8) ** k for k in range(1, 6)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"cutoff-1 multiplication counts are 7^k vs 8^k ({elapsed:.2f}s)")


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    pairs = 50
    dec5 = paper_decomposition(GF5)
    rng = random.Random(8)
    for n in list(range(1, 17)) + [32, 64]:
        cfg = EngineConfig(cutoff=1 if n <= 16 else 8)
        for _ in range(pairs):
            a, b = MatN.random(GF5, n, rng), MatN.random(GF5, n, rng)
            result, _ = strassen_multiply(dec5, a, b, cfg)
            assert result == classical_multiply(a, b)
    decq = paper_decomposition(RATIONAL)
    for n in range(1, 17):
        cfg = EngineConfig(cutoff=4)
        for _ in range(pairs):
            a, b = MatN.random(RATIONAL, n, rng), MatN.random(RATIONAL, n, rng)
            result, _ = strassen_multiply(decq, a, b, cfg)
            assert result == classical_multiply(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"recursive product equals classical on {pairs} pairs per size "
               f"(gf(5) to n=64, rationals to n=16) ({elapsed:.1f}s)")


def test_criterion_09_mutation_sensitivity():
    dec = paper_decomposition()
    assert verify_bilinear_identity(dec).passed
    rng = random.Random(9)
    for _ in range(20):
        report = verify_bilinear_identity(perturb_decomposition(dec, rng))
        assert not report.passed
        failure = report.first_failure
        assert failure is not None
        assert failure.expected != failure.actual
    _report(9, "20 random single-scalar perturbations each fail with a "
               "concrete counterexample pair")


def test_criterion_10_serialization_round_trip():
    count = 0
    for field in EXACT_FIELDS:
        rng = random.Random(10)
        for _ in range(10):
            rot = random_rotation(field, rng)
            dec = derive_decomposition(rot, random_perp(rot, rng))
            assert parse(serialize(dec)) == dec
            count += 1
    assert count == 50
    _report(10, f"serialize/parse identity on {count} random derived decompositions")
