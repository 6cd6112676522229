"""The recursion engine: classical oracle, operation counts, padding,
cutoff neutrality, exact runs on both sides of 2^53, CRT, BLAS threads,
and the bench timings."""

import hashlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_fraction_constructions,
    paper_decomposition,
    random_derivation,
    sample,
    times,
)
from strassen7 import engine
from strassen7.construction import (
    BilinearDecomposition,
    Term,
    default_rotation,
    derive_decomposition,
    perp_vector,
)
from strassen7.engine import (
    DimensionMismatchError,
    EngineConfig,
    MatN,
    RankError,
    SizeError,
    bench,
    bench_csv,
    bench_text,
    classical_multiply,
    strassen_multiply,
)
from strassen7.fields import RATIONAL, FieldMismatchError, PrimeField, is_prime
from strassen7.fileformat import format_matrix, parse_matrix
from strassen7.linalg import ColVec2

GF5 = PrimeField(5)
# the largest prime p with 7 (p-1)^2 < 2^63, and the next prime: both far
# above FITS_PRIME, so their products run by CRT
GATE_PRIME = 1147878283
ABOVE_GATE_PRIME = 1147878307
# the paper's decomposition has |U| = |V| = 2 and |W| = 4 (largest row sums
# of |coefficient|), so a mod-p run with 1 x 1 leaves fits while every
# product of values reduced to h = p // 2 + 1 stays within 2^53 - p:
# h^2 <= 2^53 - p.  FITS_PRIME is the largest such prime.
FITS_PRIME = 189812507
ABOVE_FITS_PRIME = 189812533
PROPERTY_FIELDS = [RATIONAL, PrimeField(2), PrimeField(3), GF5, PrimeField(7),
                   PrimeField(GATE_PRIME), PrimeField(ABOVE_GATE_PRIME), PrimeField(2**61 - 1)]
PROPERTY_DECS = {f: paper_decomposition(f) for f in PROPERTY_FIELDS}
# a rational derivation with fractional coefficients
FRACTIONAL_DEC = random_derivation(RATIONAL, random.Random(0))[2]


def closed_form_counts(dec, n, cutoff):
    """(mults, adds) of the recursion from n, the cutoff and the nonzeros of
    the decomposition's U, V and W rows: pad to m = 2^ceil(log2 n), halve
    k times down to leaves of size c <= cutoff; level l costs 7^l (m/2^(l+1))^2
    adds per nonzero beyond the first in each form."""
    m = 1 << (n - 1).bit_length()
    c, k = m, 0
    while c > cutoff:
        c, k = c // 2, k + 1
    forms = [t.u_coeffs for t in dec.terms] + [t.v_coeffs for t in dec.terms]
    forms += [[t.w.flatten()[e] for t in dec.terms] for e in range(4)]
    per_entry = sum(max(sum(1 for x in f if x.value) - 1, 0) for f in forms)
    # sum over l < k of 7^l (c 2^(k-l-1))^2 = c^2 (7^k - 4^k) / 3
    return 7**k * c**3, per_entry * c * c * (7**k - 4**k) // 3 + 7**k * c * c * (c - 1)


class TestClassical:
    def test_1x1(self):
        result = classical_multiply(MatN(RATIONAL, [[3]]), MatN(RATIONAL, [[4]]))
        assert result == MatN(RATIONAL, [[12]])

    def test_2x2_matches_hand_expansion(self):
        rng = random.Random(3)
        a = MatN.random(GF5, 2, rng)
        b = MatN.random(GF5, 2, rng)
        result = classical_multiply(a, b)
        for i in range(2):
            for j in range(2):
                assert result[i, j] == times(a[i, 0], b[0, j]) + times(a[i, 1], b[1, j])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_cubic_mult_count(self, n):
        """At depth 0 the engine runs one classical product of the padded
        size m: m^3 multiplications and m^2 (m - 1) additions."""
        rng = random.Random(n)
        a, b = MatN.random(GF5, n, rng), MatN.random(GF5, n, rng)
        m = 1 << (n - 1).bit_length()
        result, counter = strassen_multiply(paper_decomposition(GF5), a, b, EngineConfig(m))
        assert result == classical_multiply(a, b)
        assert (counter.mults, counter.adds) == (m**3, m * m * (m - 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            classical_multiply(MatN(RATIONAL, [[1]]), MatN(RATIONAL, [[1, 0], [0, 1]]))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            classical_multiply(MatN(RATIONAL, [[1]]), MatN(GF5, [[1]]))


class TestStrassenMultiply:
    @pytest.mark.parametrize("n,mults", [(2, 7), (4, 49), (8, 343)])
    def test_power_of_seven_counts(self, n, mults):
        dec = paper_decomposition(GF5)
        rng = random.Random(n)
        a, b = MatN.random(GF5, n, rng), MatN.random(GF5, n, rng)
        _, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=1))
        assert counter.mults == mults

    @pytest.mark.parametrize("field", [GF5, RATIONAL], ids=lambda f: f.name)
    def test_oracle_equivalence_small(self, field):
        dec = paper_decomposition(field)
        # identity and unit inputs at n = 2: one level, seven 1x1 products
        ident = MatN(field, [[1, 0], [0, 1]])
        e11 = MatN(field, [[1, 0], [0, 0]])
        for x in (ident, e11):
            result, counter = strassen_multiply(dec, x, x)
            assert result == x
            assert counter.mults == 7
        rng = random.Random(17)
        for n in range(1, 13):
            a, b = MatN.random(field, n, rng), MatN.random(field, n, rng)
            result, _ = strassen_multiply(dec, a, b)
            assert result == classical_multiply(a, b)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12])
    def test_padding_neutrality(self, n):
        dec = paper_decomposition(GF5)
        rng = random.Random(n)
        a, b = MatN.random(GF5, n, rng), MatN.random(GF5, n, rng)
        result, _ = strassen_multiply(dec, a, b)
        assert result.n == n
        assert result == classical_multiply(a, b)

    def test_cutoff_neutrality(self):
        dec = paper_decomposition(RATIONAL)
        rng = random.Random(23)
        a, b = MatN.random(RATIONAL, 8, rng), MatN.random(RATIONAL, 8, rng)
        results, counts = [], []
        for cutoff in (1, 2, 4, 8):
            r, c = strassen_multiply(dec, a, b, EngineConfig(cutoff=cutoff))
            results.append(r)
            counts.append(c.mults)
        assert all(r == results[0] for r in results)
        assert counts == [343, 392, 448, 512]  # 7^(3-k) * 8^k leaf pattern

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_oracle_and_closed_form_counts(self, data):
        field = data.draw(st.sampled_from(PROPERTY_FIELDS), label="field")
        n = data.draw(st.integers(1, 40), label="n")
        cutoffs = data.draw(st.lists(st.integers(1, 16), min_size=2, max_size=2), label="cutoffs")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a random (D, u) gives coefficients other than 0 and +-1
        if data.draw(st.booleans(), label="random derivation"):
            dec = random_derivation(field, rng)[2]
        else:
            dec = PROPERTY_DECS[field]
        if data.draw(st.booleans(), label="extreme entries"):
            a, b = _extreme(field, n, rng), _extreme(field, n, rng)
        else:
            a, b = MatN.random(field, n, rng), MatN.random(field, n, rng)
        expected = classical_multiply(a, b)
        # one decomposition, compiled by its first product, at two cutoffs
        for cutoff in cutoffs:
            result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=cutoff))
            assert result == expected and _canonical(result)
            assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)

    @pytest.mark.parametrize("field,n,cutoff,counts", [
        (GF5, 16, 1, (2401, 12870)),
        (RATIONAL, 12, 4, (3136, 5520)),
        (PrimeField(2**61 - 1), 16, 1, (2401, 12870)),
    ], ids=["gf(5)", "rational", "gf(2^61-1)"])
    def test_depth_first_fallback(self, monkeypatch, field, n, cutoff, counts):
        monkeypatch.setattr(engine, "_MAX_STACK_ENTRIES", 16)
        rng = random.Random(n)
        a, b = MatN.random(field, n, rng), MatN.random(field, n, rng)
        result, counter = strassen_multiply(
            paper_decomposition(field), a, b, EngineConfig(cutoff=cutoff)
        )
        assert result == classical_multiply(a, b)
        assert (counter.mults, counter.adds) == counts

    def test_rank_seven_required(self):
        dec = paper_decomposition()
        short = BilinearDecomposition(dec.field, dec.terms[:6])
        a = MatN(RATIONAL, [[1, 0], [0, 1]])
        with pytest.raises(RankError):
            strassen_multiply(short, a, a)

    def test_decomposition_field_must_match(self):
        dec = paper_decomposition(GF5)
        a = MatN(RATIONAL, [[1, 0], [0, 1]])
        with pytest.raises(FieldMismatchError):
            strassen_multiply(dec, a, a)


def _canonical(m):
    """Whether every entry of ``m`` is a residue in [0, p) of type int, or
    a Fraction."""
    if isinstance(m.field, PrimeField):
        return all(type(e) is int and 0 <= e < m.field.modulus for row in m.rows for e in row)
    return all(type(e) is Fraction for row in m.rows for e in row)


def _extreme(field, n, rng):
    """An n x n matrix at the top of the engine's bounds: every residue
    p - 1 or (p - 1) / 2, or rationals with numerators near +-2^40 and
    denominators up to 10^6."""
    if isinstance(field, PrimeField):
        p = field.modulus

        def draw():
            return rng.choice((p - 1, (p - 1) // 2))
    else:
        def draw():
            numerator = rng.choice((1, -1)) * (2**40 - rng.randrange(64))
            return Fraction(numerator, rng.randrange(1, 10**6 + 1))
    return MatN(field, [[draw() for _ in range(n)] for _ in range(n)])


def _recording_moduli(monkeypatch):
    """The modulus of every padded product the engine runs: None for one
    exact run, p for a run mod p, and the primes of a CRT product."""
    moduli = []
    pad_multiply_strip = engine._pad_multiply_strip

    def recording(plan, cutoff, a, b, bound, counter):
        moduli.append(plan.modulus)
        return pad_multiply_strip(plan, cutoff, a, b, bound, counter)

    monkeypatch.setattr(engine, "_pad_multiply_strip", recording)
    return moduli


def _counting_reductions(monkeypatch):
    """A list that gets one entry per array the engine reduces."""
    calls = []
    reduce = engine._reduce

    def counting(arr, q):
        calls.append(arr.shape)
        return reduce(arr, q)

    monkeypatch.setattr(engine, "_reduce", counting)
    return calls


def _checking_bounds(monkeypatch):
    """Fail if a stack of any run has an entry beyond the bound the plan
    holds for it."""
    reduced = engine._Plan._reduced

    def checking(plan, arr, bound, factor):
        assert np.abs(arr).max() <= bound
        return reduced(plan, arr, bound, factor)

    monkeypatch.setattr(engine._Plan, "_reduced", checking)


def _signed(field, top, n, rng):
    return MatN(field, [[rng.choice((top, -top)) for _ in range(n)] for _ in range(n)])


def _counting_plans(monkeypatch):
    """A list that gets one entry per ``_Plan`` the engine builds."""
    plans = []
    init = engine._Plan.__init__

    def counting(plan, *args, **kwargs):
        plans.append(plan)
        init(plan, *args, **kwargs)

    monkeypatch.setattr(engine._Plan, "__init__", counting)
    return plans


def _counting_coercions(monkeypatch, field):
    """A list that gets one entry per ``coerce`` call on ``field``'s class."""
    calls = []
    coerce = type(field).coerce

    def counting(self, value):
        calls.append(value)
        return coerce(self, value)

    monkeypatch.setattr(type(field), "coerce", counting)
    return calls


class TestCompileOnce:
    @pytest.mark.parametrize("field", [GF5, RATIONAL], ids=lambda f: f.name)
    def test_later_products_build_no_plan_and_coerce_nothing(self, monkeypatch, field):
        dec = paper_decomposition(field)
        rng = random.Random(4)
        a, b = MatN.random(field, 8, rng), MatN.random(field, 8, rng)
        expected = classical_multiply(a, b)
        plans = _counting_plans(monkeypatch)
        coerced = _counting_coercions(monkeypatch, field)
        strassen_multiply(dec, a, b)
        assert len(plans) == 1
        for cutoff in (1, 2, 4):
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff))
            assert len(plans) == 1 and coerced == []
            assert result.rows == expected.rows and _canonical(result)

    def test_copies_get_their_own_plan(self, monkeypatch):
        dec = paper_decomposition(GF5)
        rng = random.Random(5)
        a, b = MatN.random(GF5, 8, rng), MatN.random(GF5, 8, rng)
        expected = classical_multiply(a, b)
        copy = BilinearDecomposition(dec.field, dec.terms, dec.provenance)
        text = repr(dec)
        t = dec.terms[0]
        bumped = Term((t.u_coeffs[0] + 1,) + t.u_coeffs[1:], t.v_coeffs, t.w)
        perturbed = BilinearDecomposition(dec.field, (bumped,) + dec.terms[1:], dec.provenance)
        plans = _counting_plans(monkeypatch)
        assert strassen_multiply(dec, a, b)[0] == expected
        assert strassen_multiply(copy, a, b)[0] == expected
        assert strassen_multiply(perturbed, a, b)[0] != expected
        assert strassen_multiply(dec, a, b)[0] == expected
        assert len(plans) == 3
        assert dec == copy and hash(dec) == hash(copy) and repr(dec) == repr(copy) == text
        assert dec != perturbed


class TestPrimeFieldRuns:
    def test_mod_p_run_then_crt(self, monkeypatch):
        assert not any(map(is_prime, range(FITS_PRIME + 1, ABOVE_FITS_PRIME)))
        for p, fits in ((FITS_PRIME, True), (ABOVE_FITS_PRIME, False)):
            assert ((p // 2 + 1) ** 2 <= 2**53 - p) is fits
        moduli = _recording_moduli(monkeypatch)
        reductions = _counting_reductions(monkeypatch)
        for p in (FITS_PRIME, ABOVE_FITS_PRIME):
            field = PrimeField(p)
            top = MatN(field, [[p - 1] * 16 for _ in range(16)])
            result, counter = strassen_multiply(paper_decomposition(field), top, top)
            assert result == classical_multiply(top, top)
            assert (counter.mults, counter.adds) == (2401, 12870)
            if p == FITS_PRIME:
                # reductions inside the recursion: (p - 1)^2 16^4 is far
                # above 2^53
                assert moduli == [FITS_PRIME] and reductions
        crt = moduli[1:]
        assert len(crt) > 1 and all(map(is_prime, crt)) and p not in crt

    def test_small_prime_needs_no_reduction(self, monkeypatch):
        # gf(5), n = 16, cutoff 1: B = 4^2 16^4 < 2^53, so the residues in
        # [0, 5) run exactly and are never reduced
        reductions = _counting_reductions(monkeypatch)
        rng = random.Random(16)
        a, b = MatN.random(GF5, 16, rng), MatN.random(GF5, 16, rng)
        assert strassen_multiply(paper_decomposition(GF5), a, b)[0] == classical_multiply(a, b)
        assert reductions == []

    def test_every_run_stays_within_its_bound(self, monkeypatch):
        # an exact run over each field, a mod-p run that reduces inside the
        # recursion, and a CRT product, each from its caller's bound
        _checking_bounds(monkeypatch)
        moduli = _recording_moduli(monkeypatch)
        reductions = _counting_reductions(monkeypatch)
        rng = random.Random(22)
        p19, p61 = PrimeField(2**19 - 1), PrimeField(2**61 - 1)
        cases = (
            (MatN.random(RATIONAL, 8, rng), MatN.random(RATIONAL, 8, rng), [None], False),
            (MatN.random(GF5, 16, rng), MatN.random(GF5, 16, rng), [5], False),
            (_extreme(p19, 32, rng), _extreme(p19, 32, rng), [p19.modulus], True),
            (_extreme(p61, 8, rng), _extreme(p61, 8, rng), None, True),
        )
        for a, b, run, reduces in cases:
            moduli.clear()
            reductions.clear()
            dec = paper_decomposition(a.field)
            assert strassen_multiply(dec, a, b)[0] == classical_multiply(a, b)
            if run is None:
                assert len(moduli) > 1 and None not in moduli and p61.modulus not in moduli
            else:
                assert moduli == run
            assert bool(reductions) is reduces

    def test_depth_first_reduces_like_breadth_first(self, monkeypatch):
        # p = 2^19 - 1, n = 32, cutoff 1: a mod-p run that reduces inside
        # the recursion, at some levels and not at others.  Run one term
        # at a time, each term must start from the level's bound, so that
        # the same entries are reduced and every stack stays within its bound.
        p = 2**19 - 1
        field = PrimeField(p)
        rng = random.Random(19)
        a, b = _signed(field, p // 2, 32, rng), _signed(field, p // 2, 32, rng)
        dec = paper_decomposition(field)
        _checking_bounds(monkeypatch)
        reductions = _counting_reductions(monkeypatch)
        reduced = []
        for entries in (engine._MAX_STACK_ENTRIES, 64):
            monkeypatch.setattr(engine, "_MAX_STACK_ENTRIES", entries)
            reductions.clear()
            assert strassen_multiply(dec, a, b)[0] == classical_multiply(a, b)
            reduced.append(sum(map(math.prod, reductions)))
        assert reduced[0] > 2 * 32 * 32 and reduced[1] == reduced[0]

    # the largest prime below MAX_MODULUS has residues beyond int64
    @pytest.mark.parametrize("p", [GATE_PRIME, 2**61 - 1, 3317044064679887385961813])
    def test_top_residues_by_crt(self, monkeypatch, p):
        field = PrimeField(p)
        top = MatN(field, [[p - 1] * 16 for _ in range(16)])
        moduli = _recording_moduli(monkeypatch)
        reductions = _counting_reductions(monkeypatch)
        for dec in (paper_decomposition(field), random_derivation(field, random.Random(5))[2]):
            for cutoff in (1, 7):
                result, counter = strassen_multiply(dec, top, top, EngineConfig(cutoff))
                assert result == classical_multiply(top, top)
                assert (counter.mults, counter.adds) == closed_form_counts(dec, 16, cutoff)
        assert None not in moduli and p not in moduli
        # each run starts from its residues' bound q // 2 + 1, so no run
        # reduces its (2, 16^2) input stack again
        assert reductions and (2, 256) not in reductions


class TestRationalIntegerStacks:
    def test_single_run_then_crt(self, monkeypatch):
        # n = 2, cutoff 1: one level with 1 x 1 leaves, so one exact run
        # needs B = 16 t^2 < 2^53 for entries up to t in size
        t = math.isqrt((2**53 - 1) // 16)
        assert 16 * t * t < 2**53 <= 16 * (t + 1) ** 2
        moduli = _recording_moduli(monkeypatch)
        rng = random.Random(8)
        dec = paper_decomposition()
        for top in (t, t + 1):
            a, b = _signed(RATIONAL, top, 2, rng), _signed(RATIONAL, top, 2, rng)
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff=1))
            assert result == classical_multiply(a, b)
        primes = engine._crt_primes(1, 16 * (t + 1) ** 2)
        assert moduli == [None] + primes
        assert len(primes) == 3 and math.prod(primes) > 32 * (t + 1) ** 2

    def test_one_row_with_a_huge_denominator(self, monkeypatch):
        # rows are scaled one by one, so a 10^40 denominator in row 0 does
        # not scale the integer rows, and the product is one exact run
        rng = random.Random(40)
        rows = [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(6)]
        rows[0] = [Fraction(rng.choice((-9, -7, -3, -1, 1, 3, 7, 9)), 10**40) for _ in range(6)]
        a = MatN(RATIONAL, rows)
        b = MatN.random(RATIONAL, 6, rng)
        moduli = _recording_moduli(monkeypatch)
        result, _ = strassen_multiply(paper_decomposition(), a, b, EngineConfig(cutoff=2))
        assert result == classical_multiply(a, b)
        assert moduli == [None]

    def test_crt_with_large_entries(self, monkeypatch):
        moduli = _recording_moduli(monkeypatch)
        rng = random.Random(41)
        a, b = _extreme(RATIONAL, 6, rng), _extreme(RATIONAL, 6, rng)
        # distinct denominators near 10^40 make row 0's lcm about 10^240
        row = [Fraction(rng.choice((-9, 9)), 10**40 + j) for j in range(6)]
        a = MatN(RATIONAL, [row] + a.rows[1:])
        dec = random_derivation(RATIONAL, random.Random(0))[2]
        for cutoff in (1, 2):
            result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=cutoff))
            assert result == classical_multiply(a, b)
            assert (counter.mults, counter.adds) == closed_form_counts(dec, 6, cutoff)
        assert None not in moduli and len(moduli) > 20

    def test_fractional_coefficients(self):
        dec = random_derivation(RATIONAL, random.Random(0))[2]
        coeffs = [c.value for t in dec.terms for c in t.u_coeffs + t.v_coeffs + t.w.flatten()]
        assert any(c.denominator > 1 for c in coeffs)
        rng = random.Random(9)
        for n, cutoff in ((9, 2), (16, 1)):
            a, b = MatN.random(RATIONAL, n, rng), MatN.random(RATIONAL, n, rng)
            result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=cutoff))
            assert result == classical_multiply(a, b)
            assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)


# numerators and denominators at the int64 edges: 2^63 - 1 is the largest
# size a rational MatN stores in int64, and -2^63, which has no int64
# absolute value, is stored as a Python int
_EDGE_INTS = (2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**62 + 1, -(2**62 + 1))
# pairwise coprime: any two of them have an lcm beyond 2^63
_LARGE_DENOMINATORS = (2**31 - 1, 2**32 + 15, 2**61 - 1, 2**63 - 25)
_FRACTIONS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.sampled_from(_EDGE_INTS), st.integers(-2**64, 2**64)),
    st.one_of(st.integers(1, 4), st.sampled_from(_LARGE_DENOMINATORS), st.integers(1, 2**34)),
)


def _rational_rows(data, n):
    return data.draw(st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n),
                              min_size=n, max_size=n))


def _stored_canonically(m):
    """Whether a rational ``m`` holds the numerators and denominators of
    its entries in lowest terms, in int64 exactly when every one is below
    2^63 in size."""
    nums = [[f.numerator for f in row] for row in m.rows]
    dens = [[f.denominator for f in row] for row in m.rows]
    fits = all(abs(v) < 2**63 for row in nums + dens for v in row)
    return (m.values.tolist() == nums and m.denominators.tolist() == dens
            and m.values.dtype == m.denominators.dtype == (np.int64 if fits else object))


class TestRationalStorage:
    """A rational MatN holds each entry as an integer numerator over a
    positive denominator, in lowest terms."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_round_trip_and_equality(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        rows = _rational_rows(data, n)
        m = MatN(RATIONAL, rows)
        assert m.rows == rows and _stored_canonically(m)
        assert all(m[i, j].value == rows[i][j] for i in range(n) for j in range(n))
        other = [row.copy() for row in rows]
        if data.draw(st.booleans(), label="change an entry"):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            other[i][j] = data.draw(_FRACTIONS, label="new entry")
        assert (MatN(RATIONAL, other) == m) is (other == rows)

    @pytest.mark.parametrize("rows, dtype", [
        ([[2**63 - 1, -(2**63 - 1)], [Fraction(1, 2**62), 1]], np.int64),
        ([[-(2**63), 0], [0, 1]], object),
        ([[2**63, 0], [0, 1]], object),
        ([[Fraction(1, 2**63 - 25), 0], [0, 1]], np.int64),
        ([[Fraction(1, 2**63 + 1), 0], [0, 1]], object),
        # a row whose denominators' lcm (2^31 - 1) (2^32 + 15) passes 2^63
        ([[Fraction(1, 2**31 - 1), Fraction(1, 2**32 + 15)], [1, 1]], np.int64),
    ], ids=["edges", "-2^63", "2^63", "denominator", "2^63 + 1", "row lcm"])
    def test_dtype_at_the_int64_edges(self, rows, dtype):
        m = MatN(RATIONAL, rows)
        assert m.values.dtype == m.denominators.dtype == dtype
        assert _stored_canonically(m) and m == MatN(RATIONAL, m.rows)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_products_at_the_edges(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        a, b = MatN(RATIONAL, _rational_rows(data, n)), MatN(RATIONAL, _rational_rows(data, n))
        dec = data.draw(st.sampled_from([PROPERTY_DECS[RATIONAL], FRACTIONAL_DEC]), label="dec")
        cutoff = data.draw(st.integers(1, 4), label="cutoff")
        result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff))
        assert result == classical_multiply(a, b) and _stored_canonically(result)
        assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)

    def test_column_denominators_beyond_int64(self):
        # every row of B over its own prime near 2^40: each fits int64, the
        # lcm of a column's denominators does not
        rng = random.Random(63)
        primes = [q for q in range(2**40 + 1, 2**40 + 400, 2) if is_prime(q)][:6]
        a = MatN.random(RATIONAL, 6, rng)
        b = MatN(RATIONAL, [[Fraction(rng.randrange(-9, 10), q) for _ in range(6)] for q in primes])
        assert b.values.dtype == np.int64
        for dec in (PROPERTY_DECS[RATIONAL], FRACTIONAL_DEC):
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff=2))
            assert result == classical_multiply(a, b) and _stored_canonically(result)

    def test_result_denominators_beyond_int64(self):
        # 1/p times 1/q, p and q primes near 2^40: the integer product is
        # the identity, and the result's denominator p q passes int64
        p, q = [r for r in range(2**40 + 1, 2**40 + 400, 2) if is_prime(r)][:2]
        a = MatN(RATIONAL, [[Fraction(1, p), 0], [0, 1]])
        b = MatN(RATIONAL, [[Fraction(1, q), 0], [0, 1]])
        for dec in (PROPERTY_DECS[RATIONAL], FRACTIONAL_DEC):
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff=1))
            assert result.rows == [[Fraction(1, p * q), 0], [0, 1]]
            assert _stored_canonically(result) and result.values.dtype == object

    @pytest.mark.parametrize("n, cutoff", [(12, 4), (16, 1)])
    def test_products_build_no_fraction(self, monkeypatch, n, cutoff):
        rng = random.Random(n)
        a, b = MatN.random(RATIONAL, n, rng), MatN.random(RATIONAL, n, rng)
        expected = classical_multiply(a, b).rows
        # fresh decompositions, so that compiling them is counted too
        decs = (paper_decomposition(RATIONAL), random_derivation(RATIONAL, rng)[2])
        built = count_fraction_constructions(monkeypatch)
        for dec in decs:
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff))
            assert built == []
            # the count sees Fractions: rows builds one per entry
            assert result.rows == expected and len(built) == n * n
            built.clear()

    def test_random_draws_as_entries_would(self):
        for n in (1, 5, 12):
            ours, theirs = random.Random(n), random.Random(n)
            m = MatN.random(RATIONAL, n, ours)
            rows = [[sample(RATIONAL, theirs) for _ in range(n)] for _ in range(n)]
            assert m.rows == rows and _stored_canonically(m)
            assert ours.getstate() == theirs.getstate()


class TestCrt:
    def test_residues(self, monkeypatch):
        primes = engine._crt_primes(8, 2**300)
        small = [0, 1, -1, 255, -256, 2**62, 2**63 - 1, -(2**63)]
        large = small + [2**63, -(2**64) - 5, 3**300, -(10**100) - 7]
        # int64 residues, object ints that fit int64 (cleared rationals)
        # and object ints beyond it
        arrays = [np.array(small, dtype=np.int64), np.array(small, dtype=object),
                  np.array(large, dtype=object)]
        for block in (engine._DIGIT_BLOCK, 3):
            monkeypatch.setattr(engine, "_DIGIT_BLOCK", block)
            for values in arrays:
                res = engine._residues(values, primes)
                assert res.shape == (len(primes), len(values))
                # Python ints: an int64 v - r would overflow
                for q, row in zip(primes, res.tolist()):
                    for v, r in zip(values.tolist(), row):
                        assert r == int(r) and (v - int(r)) % q == 0 and abs(r) <= q // 2 + 1

    def test_reduce_is_exact_up_to_the_limit(self):
        rng = random.Random(53)
        for q in (engine._crt_primes(1, 1)[0], engine._crt_primes(64, 1)[0], FITS_PRIME):
            top = 2**53 - q
            values = [top, -top, top - 1, 1 - top, 0, q, -q] + [rng.randint(-top, top) for _ in range(2000)]
            res = engine._reduce(np.array(values, dtype=np.float64), q).tolist()
            for v, r in zip(values, res):
                assert r == int(r) and (v - int(r)) % q == 0 and abs(r) <= q // 2 + 1

    def test_result_as_large_as_the_bound(self):
        # one leaf (n = cutoff = 4) with every entry t: each result is
        # 4 t^2 = B, chosen between M/2 and M for the product M of some
        # CRT primes, so that M alone would read it as B - M
        primes = engine._crt_primes(4, 2**200)
        dec = paper_decomposition()
        for r in (2, 3, 4):
            t = math.isqrt((math.prod(primes[:r]) - 1) // 4)
            assert math.prod(primes[:r]) // 2 < 4 * t * t < math.prod(primes[:r])
            for sign in (1, -1):
                a = MatN(RATIONAL, [[sign * t] * 4 for _ in range(4)])
                b = MatN(RATIONAL, [[t] * 4 for _ in range(4)])
                result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff=4))
                assert result == MatN(RATIONAL, [[sign * 4 * t * t] * 4 for _ in range(4)])

    def test_lopsided_norms(self):
        # u_k / 27 and 27 v_k give the same products with |U| = 2 and
        # |V| = 54 once denominators are cleared, so a bound that read |V|
        # as |U| would let the leaves' values pass 2^53
        dec = paper_decomposition()
        terms = tuple(
            Term(tuple(times(c, RATIONAL(Fraction(1, 27))) for c in t.u_coeffs),
                 tuple(times(c, RATIONAL(27)) for c in t.v_coeffs), t.w)
            for t in dec.terms
        )
        lopsided = BilinearDecomposition(RATIONAL, terms)
        rng = random.Random(3)
        for n, cutoff in ((2, 1), (4, 2), (8, 1)):
            a, b = _extreme(RATIONAL, n, rng), _extreme(RATIONAL, n, rng)
            result, counter = strassen_multiply(lopsided, a, b, EngineConfig(cutoff))
            assert result == classical_multiply(a, b)
            assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)

    def test_prime_walk_is_kept_per_leaf(self, monkeypatch):
        def walk(leaf, bound):
            # the walk of _crt_primes, run afresh on every call
            q = 2 * math.isqrt(engine._EXACT // max(leaf, 7)) + 1
            primes, product = [], 1
            while product <= 2 * bound:
                q -= 2
                if engine._fits(q, leaf, 7 * (q // 2)) and is_prime(q):
                    primes.append(q)
                    product *= q
            return primes

        monkeypatch.setattr(engine, "_CRT_WALKS", {})
        # bounds that extend the kept walk, read a prefix of it, and repeat
        bounds = (1, 2**53, 2**200, 2**100, 2**600, 2**599 + 1, 2**600, 3)
        for leaf in (1, 2, 4, 8, 16, 32, 64):
            for bound in bounds:
                assert engine._crt_primes(leaf, bound) == walk(leaf, bound)

    def test_second_crt_product_tests_no_primes(self, monkeypatch):
        monkeypatch.setattr(engine, "_CRT_WALKS", {})
        calls = []

        def counting(q):
            calls.append(q)
            return is_prime(q)

        monkeypatch.setattr(engine, "is_prime", counting)
        moduli = _recording_moduli(monkeypatch)
        field = PrimeField(2**61 - 1)
        rng = random.Random(61)
        for _ in range(2):
            calls.clear()
            a, b = MatN.random(field, 8, rng), MatN.random(field, 8, rng)
            assert strassen_multiply(PROPERTY_DECS[field], a, b)[0] == classical_multiply(a, b)
        assert calls == [] and len(moduli) > 2 and None not in moduli

    def test_counts_come_from_the_decomposition(self, monkeypatch):
        """A coefficient that the first CRT prime q divides still counts
        in a product run by CRT: u = (q, 1) for q the first prime of 1 x 1
        leaves."""
        q = engine._crt_primes(1, 1)[0]
        assert q == 71742373
        rot = default_rotation(RATIONAL)
        dec = derive_decomposition(rot, perp_vector(rot, ColVec2(RATIONAL, [q, 1])))
        rows, _ = engine._coefficient_rows(dec)
        assert any(c and not c % q for m in rows for row in m for c in row)
        moduli = _recording_moduli(monkeypatch)
        rng = random.Random(71)
        for n in (4, 8):
            a, b = MatN.random(RATIONAL, n, rng), MatN.random(RATIONAL, n, rng)
            for cutoff in (1, 2):
                moduli.clear()
                result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff))
                assert result == classical_multiply(a, b) and len(moduli) > 1
                assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)

    @pytest.mark.parametrize("digits", [155, 300, 1000])
    def test_coefficients_beyond_float64(self, digits):
        # u = (10^digits, 1): cleared coefficients that float64 cannot hold,
        # so no plan may read them as floats; every product runs by CRT on
        # lifted per-prime plans
        rot = default_rotation(RATIONAL)
        dec = derive_decomposition(rot, perp_vector(rot, ColVec2(RATIONAL, [10**digits, 1])))
        rows, _ = engine._coefficient_rows(dec)
        assert max(abs(c) for m in rows for row in m for c in row) > 2**1024
        rng = random.Random(digits)
        a, b = MatN.random(RATIONAL, 4, rng), MatN.random(RATIONAL, 4, rng)
        expected = classical_multiply(a, b)
        for cutoff in (1, 2, 4):
            assert strassen_multiply(dec, a, b, EngineConfig(cutoff))[0] == expected

    def test_small_blocks(self, monkeypatch):
        # BLAS calls of at most 5 columns, against the classical product
        # over a mod-p run and a CRT product
        monkeypatch.setattr(engine, "_BLAS_WORK", 5 * 14 * 8)
        rng = random.Random(12)
        for field, n, cutoff in ((GF5, 20, 2), (PrimeField(2**61 - 1), 12, 1), (RATIONAL, 5, 1)):
            a, b = _extreme(field, n, rng), _extreme(field, n, rng)
            result, counter = strassen_multiply(PROPERTY_DECS[field], a, b, EngineConfig(cutoff))
            assert result == classical_multiply(a, b)
            assert (counter.mults, counter.adds) == closed_form_counts(PROPERTY_DECS[field], n, cutoff)


# The largest prime p with (p // 2 + 1)^2 64 16^2 <= 2^53 - p: n = 256 and
# cutoff 64 run mod p with values up to just below 2^53 and no reduction.
THREAD_PRIME = 1482907

_THREAD_SCRIPT = """
import hashlib, sys
import numpy as np
from strassen7 import (EngineConfig, MatN, PrimeField, default_rotation, default_u,
                       derive_decomposition, perp_vector, strassen_multiply)
field = PrimeField(int(sys.argv[1]))
rot = default_rotation(field)
dec = derive_decomposition(rot, perp_vector(rot, default_u(rot)))
a, b = np.random.default_rng(0).integers(0, field.modulus, (2, 256, 256))
product, _ = strassen_multiply(dec, MatN(field, a.tolist()), MatN(field, b.tolist()),
                               EngineConfig(cutoff=64))
print(hashlib.sha256(np.array(product.rows, dtype=np.int64).tobytes()).hexdigest())
"""


class _EchoPlan:
    """A stand-in plan whose run hands back the first operand of the stack
    it is given, and keeps that stack."""

    def __init__(self):
        self.stacks = []

    def multiply(self, xy, levels, leaf, bound, counter):
        self.stacks.append((xy, levels, leaf))
        return xy[0], bound


class TestBlockOrder:
    @pytest.mark.parametrize("leaf", [1, 2, 4, 8])
    def test_layout_round_trip(self, leaf):
        """Entry (i, j) of the padded operand lands at the block-recursive
        index read off the bits of i and j, and the permutation back
        returns every entry to its place, padded or not."""
        for k in range(7):
            m = leaf << k
            i, j = np.arange(m)[:, None], np.arange(m)[None, :]
            index = (i % leaf * leaf + j % leaf) * 4**k
            for level in range(1, k + 1):
                shift = k - level
                quadrant = 2 * (i // leaf >> shift & 1) + (j // leaf >> shift & 1)
                index = index + quadrant * 4**shift
            for n in {m, max(1, m - 1 - m // 3)}:
                if engine._depth(n, leaf) != (leaf, k):
                    continue
                a = np.arange(n * n, dtype=np.int64).reshape(n, n) + 1
                plan = _EchoPlan()
                z = engine._pad_multiply_strip(plan, leaf, a, -a, 1, engine.OpCounter())
                assert z.dtype == np.int64 and np.array_equal(z, a)
                (xy, levels, run_leaf), = plan.stacks
                assert (xy.shape, levels, run_leaf) == ((2, m * m), k, leaf)
                padded = np.zeros((m, m))
                padded[:n, :n] = a
                assert np.array_equal(xy[0][index], padded)
                assert np.array_equal(xy[1][index], -padded)

    @pytest.mark.parametrize("n,cutoff", [(256, 1), (300, 16), (512, 64)])
    def test_large_products_equal_the_int64_product(self, n, cutoff):
        """Beyond the oracle's reach: numpy's int64 product is exact while
        n (p - 1)^2 < 2^63 and never runs float BLAS.  At (256, 1) the
        lowest level passes _MAX_STACK_ENTRIES, so its terms run one by one."""
        assert n * 4**2 < 2**63
        rng = np.random.default_rng(n)
        a, b = (MatN._canonical(GF5, rng.integers(0, 5, (n, n))) for _ in range(2))
        result, counter = strassen_multiply(paper_decomposition(GF5), a, b, EngineConfig(cutoff))
        assert np.array_equal(result.values, a.values @ b.values % 5)
        assert (counter.mults, counter.adds) == closed_form_counts(PROPERTY_DECS[GF5], n, cutoff)

    @pytest.mark.parametrize("cutoff", [1, 32])
    def test_coefficient_products_stay_within_blas_work(self, monkeypatch, cutoff):
        """Every BLAS call of a coefficient product does at most _BLAS_WORK
        multiply-adds, and every level's products go through ``_times``: 84
        per entry of each level's half-size blocks, 56 forward and 28 back."""
        n = 256
        inside, pieces, work = [], [], []
        matmul, times = engine.np.matmul, engine._times

        def recording_matmul(x, y, *args, **kwargs):
            if inside:
                batch = math.prod(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]))
                pieces.append(batch * x.shape[-2] * x.shape[-1] * y.shape[-1])
            return matmul(x, y, *args, **kwargs)

        def recording_times(x, y):
            inside.append(len(pieces))
            out = times(x, y)
            split = len(pieces) > inside.pop()
            work.append(x.size * y.shape[-1])
            # a product run whole is one BLAS call, which must fit too
            assert split or work[-1] <= engine._BLAS_WORK
            return out

        monkeypatch.setattr(engine.np, "matmul", recording_matmul)
        monkeypatch.setattr(engine, "_times", recording_times)
        rng = np.random.default_rng(cutoff)
        a, b = (MatN._canonical(GF5, rng.integers(0, 5, (n, n))) for _ in range(2))
        result, _ = strassen_multiply(paper_decomposition(GF5), a, b, EngineConfig(cutoff))
        assert np.array_equal(result.values, a.values @ b.values % 5)
        leaf, k = engine._depth(n, cutoff)
        assert pieces and max(pieces) <= engine._BLAS_WORK
        assert sum(work) == 28 * leaf**2 * (7**k - 4**k)


class TestBlasThreads:
    def test_exact_whatever_the_thread_count(self):
        """One product near the 2^53 bound in two fresh interpreters, with
        one BLAS thread and with the default, equals (A @ B) mod p on int64,
        which cannot overflow at this p."""
        assert (THREAD_PRIME // 2 + 1) ** 2 * 64 * 16**2 <= 2**53 - THREAD_PRIME
        assert is_prime(THREAD_PRIME)
        src = str(Path(engine.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests = []
        for threads in ("1", None):
            env.pop("OMP_NUM_THREADS", None)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run(
                [sys.executable, "-c", _THREAD_SCRIPT, str(THREAD_PRIME)],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            digests.append(out.stdout.strip())
        a, b = np.random.default_rng(0).integers(0, THREAD_PRIME, (2, 256, 256))
        expected = hashlib.sha256(((a @ b) % THREAD_PRIME).astype(np.int64).tobytes()).hexdigest()
        assert digests == [expected, expected]


class TestBench:
    def test_counts_follow_recurrence(self):
        rows = bench(paper_decomposition(GF5), [2, 4, 8], EngineConfig(cutoff=1))
        assert [r.strassen_mults for r in rows] == [7, 49, 343]
        assert [r.classical_mults for r in rows] == [8, 64, 512]

    def test_size_one(self):
        rows = bench(paper_decomposition(GF5), [1], EngineConfig(cutoff=1))
        assert rows[0].strassen_mults == 1
        assert rows[0].classical_mults == 1

    def test_every_size_checked_before_drawing(self, monkeypatch):
        def refusing(*args):
            raise AssertionError("drew a random matrix")

        monkeypatch.setattr(MatN, "random", refusing)
        with pytest.raises(SizeError, match="matrix dimension must be >= 1"):
            bench(paper_decomposition(GF5), [2, 0])

    def test_consecutive_ratio_is_seven(self):
        rows = bench(paper_decomposition(GF5), [2, 4, 8, 16], EngineConfig(cutoff=1))
        for prev, cur in zip(rows, rows[1:]):
            assert cur.strassen_mults == 7 * prev.strassen_mults

    def test_times_are_positive_floats(self):
        for field in (RATIONAL, GF5):
            rows = bench(paper_decomposition(field), [8], EngineConfig(cutoff=4))
            for ms in (rows[0].strassen_ms, rows[0].classical_ms):
                assert isinstance(ms, float) and ms > 0

    def test_classical_column_runs_at_depth_zero(self, monkeypatch):
        shapes = []
        matmul = np.matmul

        def recording_matmul(x, y):
            shapes.append(x.shape)
            return matmul(x, y)

        monkeypatch.setattr(engine.np, "matmul", recording_matmul)
        rows = bench(paper_decomposition(GF5), [16], EngineConfig(cutoff=4))
        # each column runs once to warm up, then five timed times: the
        # recursion's leaves are one (49, 4, 4) stack, the classical run's
        # leaf is the whole padded product
        assert shapes == [(49, 4, 4)] * 6 + [(1, 16, 16)] * 6
        assert (rows[0].strassen_mults, rows[0].classical_mults) == (7**2 * 4**3, 16**3)

    def test_csv_and_text_formats(self):
        rows = bench(paper_decomposition(GF5), [2, 4], EngineConfig(cutoff=1))
        csv = bench_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == "n,strassen_mults,classical_mults,strassen_ms,classical_ms"
        assert re.fullmatch(r"2,7,8,\d+\.\d{3},\d+\.\d{3}", lines[1])
        text = bench_text(rows)
        assert "strassen_mults" in text and "343" not in text

    def test_deterministic_given_seed(self):
        def counts(rows):
            return [(r.n, r.strassen_mults, r.classical_mults) for r in rows]

        a = bench(paper_decomposition(GF5), [4], EngineConfig(cutoff=1), seed=5)
        b = bench(paper_decomposition(GF5), [4], EngineConfig(cutoff=1), seed=5)
        assert counts(a) == counts(b)


# the primes on either side of 2^63, where GF(p) residues leave int64
BELOW_2_63, ABOVE_2_63 = 2**63 - 25, 2**63 + 29


def _layout(m):
    """A matrix's arrays as (values, dtype, denominators or None), lists
    of Python ints."""
    dens = m.denominators
    return (m.values.tolist(), m.values.dtype,
            None if dens is None else (dens.tolist(), dens.dtype))


class TestArrays:
    @pytest.mark.parametrize("field, rows, dtype", [
        (RATIONAL, [[2**63 - 1, -(2**63 - 1)], [Fraction(1, 2**63 - 1), 1]], np.int64),
        (RATIONAL, [[2**63, 0], [0, 1]], object),
        (RATIONAL, [[-(2**63), 0], [0, 1]], object),
        (RATIONAL, [[Fraction(-1, 2**63), 0], [0, 1]], object),
        (PrimeField(BELOW_2_63), [[BELOW_2_63 - 1, 0], [1, 2]], np.int64),
        (PrimeField(ABOVE_2_63), [[ABOVE_2_63 - 1, 2**63 - 1], [2**63, 0]], object),
        (PrimeField(ABOVE_2_63), [[0, 1], [2, 3]], object),
    ], ids=["int64-edges", "2^63", "-2^63", "denominator-2^63", "prime-below-2^63",
            "prime-above-2^63", "small-residues-above-2^63"])
    def test_rows_and_text_build_the_same_arrays(self, field, rows, dtype):
        """MatN(field, rows) and parse_matrix lay out the same arrays, both
        through MatN._arrays."""
        built = MatN(field, rows)
        text = f"n 2 field {field.name}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
        assert built.values.dtype == dtype and built.rows == rows
        assert _layout(parse_matrix(text)) == _layout(built)

    @pytest.mark.parametrize("field", [RATIONAL, GF5, PrimeField(BELOW_2_63),
                                       PrimeField(ABOVE_2_63)], ids=lambda f: f.name)
    def test_random_builds_what_its_rows_build(self, field):
        m = MatN.random(field, 5, random.Random(3))
        assert m.values.dtype == (object if field == PrimeField(ABOVE_2_63) else np.int64)
        assert _layout(m) == _layout(MatN(field, m.rows)) == _layout(parse_matrix(format_matrix(m)))

    @pytest.mark.parametrize(
        "field", [GF5, PrimeField(2**61 - 1), PrimeField(3317044064679887385961813)],
        ids=lambda f: f.name,
    )
    def test_random_residues_as_entries_would(self, field):
        """Over GF(p) the draw is one randrange(p) per entry, row by row,
        with the dtype of MatN's own rows."""
        for n in (1, 5, 12):
            ours, theirs = random.Random(n), random.Random(n)
            m = MatN.random(field, n, ours)
            rows = MatN(field, [[sample(field, theirs) for _ in range(n)] for _ in range(n)])
            assert _layout(m) == _layout(rows)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "field", [GF5, PrimeField(2**61 - 1), PrimeField(3317044064679887385961813)],
        ids=lambda f: f.name,
    )
    def test_int64_products_read_no_rows(self, monkeypatch, field):
        rng = random.Random(7)
        a, b = MatN.random(field, 8, rng), MatN.random(field, 8, rng)
        expected = classical_multiply(a, b)

        def refusing(m):
            raise AssertionError("read MatN.rows")

        monkeypatch.setattr(MatN, "rows", property(refusing))
        result, _ = strassen_multiply(paper_decomposition(field), a, b, EngineConfig(cutoff=1))
        assert result.values.dtype == a.values.dtype and result == expected

    def test_unit_leaves_run_no_matmul(self, monkeypatch):
        shapes = []
        matmul = np.matmul

        def recording_matmul(x, y, *args, **kwargs):
            shapes.append(x.shape)
            return matmul(x, y, *args, **kwargs)

        monkeypatch.setattr(engine.np, "matmul", recording_matmul)
        for field in (GF5, RATIONAL):
            dec = PROPERTY_DECS[field]
            rng = random.Random(1)
            a, b = MatN.random(field, 16, rng), MatN.random(field, 16, rng)
            expected = classical_multiply(a, b)
            for cutoff in (1, 2):
                result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff))
                assert result == expected
                assert (counter.mults, counter.adds) == closed_form_counts(dec, 16, cutoff)
        # only the cutoff-2 runs' leaves are matmuls, one (7^3, 2, 2) stack each
        assert shapes == [(343, 2, 2)] * 2

    # residues of 2^61 - 1 are int64 entries whose squares overflow int64;
    # those of the largest prime below MAX_MODULUS do not fit int64 at all
    @pytest.mark.parametrize("p", [2**61 - 1, 3317044064679887385961813])
    def test_entries_are_python_ints(self, p):
        field = PrimeField(p)
        rng = random.Random(p % 1000)
        a, b = _extreme(field, 6, rng), MatN.random(field, 6, rng)
        result, _ = strassen_multiply(paper_decomposition(field), a, b)
        assert result == classical_multiply(a, b)
        for m in (a, b, result):
            assert all(type(m[i, j].value) is int for i in range(6) for j in range(6))
            assert all(type(e) is int for row in m.rows for e in row)
        top = a[0, 0].value
        assert field.mul(top, top) == top * top % p and top * top >= 2**63


class TestMatN:
    def test_indexing_returns_bound_elements(self):
        m = MatN(GF5, [[1, 2], [3, 9]])
        assert m[1, 1] == GF5(4)
        assert m[0, 1].field == GF5

    def test_must_be_square(self):
        with pytest.raises(DimensionMismatchError):
            MatN(RATIONAL, [[1, 2], [3]])

    def test_rational_entries_are_read_once(self, monkeypatch):
        """Over the rationals each entry's numerator and denominator are
        read as they are: int rows build no Fraction, and ints, Fractions
        and rational elements give the same matrix."""
        fractions = [[Fraction(3, 7), Fraction(-10**40, 3)], [Fraction(0), Fraction(1)]]
        elements = [[RATIONAL(v) for v in row] for row in fractions]
        built = count_fraction_constructions(monkeypatch)
        ints = MatN(RATIONAL, [[5, -(2**70)], [1, 0]])
        assert built == []
        assert ints.rows == [[5, -(2**70)], [1, 0]] and _stored_canonically(ints)
        assert MatN(RATIONAL, elements) == MatN(RATIONAL, fractions)
        assert MatN(RATIONAL, [[True, 0], [0, False]]) == MatN(RATIONAL, [[1, 0], [0, 0]])
        for bad, error in ((1.5, TypeError), ("1", TypeError), (GF5(1), FieldMismatchError)):
            with pytest.raises(error):
                MatN(RATIONAL, [[1, bad], [0, 1]])

    def test_dimension_at_least_one(self):
        with pytest.raises(SizeError):
            MatN(RATIONAL, [])

    def test_cutoff_at_least_one(self):
        with pytest.raises(SizeError, match="cutoff must be >= 1"):
            EngineConfig(cutoff=0)


class TestDimensionBound:
    """One check bounds every matrix, n >= 1 and n^2 <= engine._MAX_ENTRIES,
    on the dimension alone: the constructor, the random draw and bench
    refuse an oversized matrix before one entry is drawn or stored."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The sizes bound to 16 entries and a list of the GF5 entries drawn,
        one ``randrange(5)`` each."""
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 16)
        randrange, drawn = random.Random.randrange, []

        def counting(rng, *args):
            drawn.append(args)
            return randrange(rng, *args)

        monkeypatch.setattr(random.Random, "randrange", counting)
        return drawn

    def test_random_draws_nothing_when_oversized(self, draws):
        with pytest.raises(SizeError, match="matrix dimension 5: 25 entries exceed the bound of 16"):
            MatN.random(GF5, 5, random.Random(0))
        assert draws == []
        assert MatN.random(GF5, 4, random.Random(0)).n == 4
        assert draws == [(5,)] * 16

    def test_constructor_refuses_oversized_rows(self, draws):
        with pytest.raises(SizeError, match="matrix dimension 5: 25 entries"):
            MatN(GF5, [[1] * 5] * 5)
        assert MatN(GF5, [[1] * 4] * 4).n == 4

    def test_bench_checks_every_size_before_drawing(self, draws):
        dec = paper_decomposition(GF5)
        with pytest.raises(SizeError, match="matrix dimension 5: 25 entries"):
            bench(dec, [2, 5])
        assert draws == []
        assert [row.strassen_mults for row in bench(dec, [4])] == [49]

    def test_real_bound_admits_4096(self, monkeypatch):
        def refusing(*args):
            raise AssertionError("drew a matrix entry")

        monkeypatch.setattr(random.Random, "randrange", refusing)
        assert engine._MAX_ENTRIES == 4096**2
        MatN.check_dimension(4096)
        with pytest.raises(SizeError, match="4097: 16785409 entries exceed the bound of 16777216"):
            MatN.random(GF5, 4097, random.Random(0))
