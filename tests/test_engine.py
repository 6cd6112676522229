"""The recursion engine: classical oracle, operation counts, padding,
cutoff neutrality, rationals on integer stacks, and the float path."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_decomposition, random_derivation
from strassen7 import engine
from strassen7.construction import BilinearDecomposition
from strassen7.engine import (
    DimensionMismatchError,
    EngineConfig,
    MatN,
    OpCounter,
    RankError,
    SizeError,
    bench,
    bench_csv,
    bench_text,
    classical_multiply,
    strassen_multiply,
)
from strassen7.fields import RATIONAL, FieldMismatchError, PrimeField

GF5 = PrimeField(5)
# the largest prime p with 7 (p-1)^2 < 2^63, where GF(p) stacks can be
# int64 (cutoff <= 7), and the next prime, which needs Python ints
GATE_PRIME = 1147878283
ABOVE_GATE_PRIME = 1147878307
PROPERTY_FIELDS = [RATIONAL, PrimeField(2), PrimeField(3), GF5, PrimeField(7),
                   PrimeField(GATE_PRIME), PrimeField(ABOVE_GATE_PRIME), PrimeField(2**61 - 1)]
PROPERTY_DECS = {f: paper_decomposition(f) for f in PROPERTY_FIELDS}


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
    per_entry = sum(max(sum(1 for x in f if x) - 1, 0) for f in forms)
    # sum over l < k of 7^l (c 2^(k-l-1))^2 = c^2 (7^k - 4^k) / 3
    return 7**k * c**3, per_entry * c * c * (7**k - 4**k) // 3 + 7**k * c * c * (c - 1)


class TestClassical:
    def test_1x1(self):
        counter = OpCounter()
        result = classical_multiply(MatN(RATIONAL, [[3]]), MatN(RATIONAL, [[4]]), counter)
        assert result == MatN(RATIONAL, [[12]])
        assert counter.mults == 1
        assert counter.adds == 0

    def test_2x2_matches_hand_expansion(self):
        rng = random.Random(3)
        a = MatN.random(GF5, 2, rng)
        b = MatN.random(GF5, 2, rng)
        counter = OpCounter()
        result = classical_multiply(a, b, counter)
        for i in range(2):
            for j in range(2):
                assert result[i, j] == a[i, 0] * b[0, j] + a[i, 1] * b[1, j]
        assert counter.mults == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_cubic_mult_count(self, n):
        rng = random.Random(n)
        counter = OpCounter()
        classical_multiply(MatN.random(GF5, n, rng), MatN.random(GF5, n, rng), counter)
        assert counter.mults == n**3
        assert counter.adds == n * n * (n - 1)

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
        cutoff = data.draw(st.integers(1, 16), label="cutoff")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a random (D, u) gives coefficients other than 0 and +-1
        if data.draw(st.booleans(), label="random derivation"):
            dec = random_derivation(field, rng)[2]
        else:
            dec = PROPERTY_DECS[field]
        a, b = MatN.random(field, n, rng), MatN.random(field, n, rng)
        result, counter = strassen_multiply(dec, a, b, EngineConfig(cutoff=cutoff))
        assert result == classical_multiply(a, b)
        assert (counter.mults, counter.adds) == closed_form_counts(dec, n, cutoff)

    def test_int64_gate_boundary(self):
        below, above = PrimeField(GATE_PRIME), PrimeField(ABOVE_GATE_PRIME)
        assert engine._array_backend(below, 7)[0] is np.int64
        assert engine._array_backend(below, 8)[0] is object
        assert engine._array_backend(above, 1)[0] is object
        # every entry the largest residue, with coefficients up to p/2 in size
        top = MatN(below, [[GATE_PRIME - 1] * 16 for _ in range(16)])
        for dec in (PROPERTY_DECS[below], random_derivation(below, random.Random(5))[2]):
            for cutoff in (1, 7):
                result, _ = strassen_multiply(dec, top, top, EngineConfig(cutoff))
                assert result == classical_multiply(top, top)

    @pytest.mark.parametrize("field,n,cutoff,counts", [
        (GF5, 16, 1, (2401, 12870)),
        (RATIONAL, 12, 4, (3136, 5520)),
    ], ids=["gf(5)", "rational"])
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


def _float_product(a, b, cutoff):
    plan = engine._Plan(paper_decomposition(), cutoff, engine._FLOAT_BACKEND)
    return engine._pad_multiply_strip(plan, a, b, OpCounter())


def _recording_dtypes(monkeypatch):
    """The stack dtype of every padded product the engine runs."""
    dtypes = []
    pad_multiply_strip = engine._pad_multiply_strip

    def recording(plan, a, b, counter):
        dtypes.append(plan.dtype)
        return pad_multiply_strip(plan, a, b, counter)

    monkeypatch.setattr(engine, "_pad_multiply_strip", recording)
    return dtypes


class TestRationalIntegerStacks:
    def test_int64_bound(self, monkeypatch):
        # n = 2, cutoff 1: one level with 1 x 1 leaves, and the paper's
        # decomposition has |U| = |V| = 2 and |W| = 4 (largest row sums of
        # |coefficient|), so int64 needs 16 t^2 < 2^63 for entries up to t
        t = math.isqrt((2**63 - 1) // 16)
        assert 16 * t * t < 2**63 <= 16 * (t + 1) ** 2
        dtypes = _recording_dtypes(monkeypatch)
        rng = random.Random(8)
        dec = paper_decomposition()

        def signed(top):
            return MatN(RATIONAL, [[rng.choice((top, -top)) for _ in range(2)] for _ in range(2)])

        for top in (t, t + 1):
            a, b = signed(top), signed(top)
            result, _ = strassen_multiply(dec, a, b, EngineConfig(cutoff=1))
            assert result == classical_multiply(a, b)
        assert dtypes == [np.int64, object]

    def test_one_row_with_a_huge_denominator(self, monkeypatch):
        # rows are scaled one by one, so a 10^40 denominator in row 0 does
        # not scale the integer rows, and the stacks stay int64
        rng = random.Random(40)
        rows = [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(6)]
        rows[0] = [Fraction(rng.choice((-9, -7, -3, -1, 1, 3, 7, 9)), 10**40) for _ in range(6)]
        a = MatN(RATIONAL, rows)
        b = MatN.random(RATIONAL, 6, rng)
        dtypes = _recording_dtypes(monkeypatch)
        result, _ = strassen_multiply(paper_decomposition(), a, b, EngineConfig(cutoff=2))
        assert result == classical_multiply(a, b)
        assert dtypes == [np.int64]

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


class TestFloatPath:
    def test_float_conversion_requires_rationals(self):
        with pytest.raises(FieldMismatchError):
            bench(paper_decomposition(GF5), [2], use_float=True)

    def test_well_scaled_64x64_within_tolerance(self):
        a, b = np.random.default_rng(99).random((2, 64, 64))
        assert np.abs(_float_product(a, b, 1) - a @ b).max() <= 1e-9

    def test_padded_size_within_tolerance(self):
        a, b = np.random.default_rng(7).random((2, 37, 37))
        product = _float_product(a, b, 4)
        assert product.shape == (37, 37)
        assert np.abs(product - a @ b).max() <= 1e-9


class TestBench:
    def test_counts_follow_recurrence(self):
        rows = bench(paper_decomposition(GF5), [2, 4, 8], EngineConfig(cutoff=1))
        assert [r.strassen_mults for r in rows] == [7, 49, 343]
        assert [r.classical_mults for r in rows] == [8, 64, 512]
        assert all(r.strassen_ms is None and r.classical_ms is None for r in rows)

    def test_size_one(self):
        rows = bench(paper_decomposition(GF5), [1], EngineConfig(cutoff=1))
        assert rows[0].strassen_mults == 1
        assert rows[0].classical_mults == 1

    def test_every_size_checked_before_drawing(self, monkeypatch):
        def refusing(*args):
            raise AssertionError("drew a random matrix")

        monkeypatch.setattr(MatN, "random", refusing)
        with pytest.raises(SizeError, match="sizes must be >= 1"):
            bench(paper_decomposition(GF5), [2, 0])

    def test_consecutive_ratio_is_seven(self):
        rows = bench(paper_decomposition(GF5), [2, 4, 8, 16], EngineConfig(cutoff=1))
        for prev, cur in zip(rows, rows[1:]):
            assert cur.strassen_mults == 7 * prev.strassen_mults

    def test_float_reports_times(self):
        rows = bench(paper_decomposition(), [8], EngineConfig(cutoff=4), use_float=True)
        assert rows[0].strassen_ms is not None
        assert rows[0].classical_ms is not None

    def test_float_classical_column_times_matmul(self, monkeypatch):
        shapes = []
        matmul = np.matmul

        def recording_matmul(x, y):
            shapes.append(x.shape)
            return matmul(x, y)

        monkeypatch.setattr(engine.np, "matmul", recording_matmul)
        rows = bench(paper_decomposition(), [16], EngineConfig(cutoff=4), use_float=True)
        # each column runs once to warm up, then five timed times: the
        # engine's leaves are one (49, 4, 4) stack, classical is A @ B
        assert shapes == [(49, 4, 4)] * 6 + [(16, 16)] * 6
        assert (rows[0].strassen_mults, rows[0].classical_mults) == (7**2 * 4**3, 16**3)

    def test_csv_and_text_formats(self):
        rows = bench(paper_decomposition(GF5), [2, 4], EngineConfig(cutoff=1))
        csv = bench_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == "n,strassen_mults,classical_mults,strassen_ms,classical_ms"
        assert lines[1] == "2,7,8,,"
        text = bench_text(rows)
        assert "strassen_mults" in text and "343" not in text

    def test_deterministic_given_seed(self):
        a = bench(paper_decomposition(GF5), [4], EngineConfig(cutoff=1), seed=5)
        b = bench(paper_decomposition(GF5), [4], EngineConfig(cutoff=1), seed=5)
        assert a == b


class TestMatN:
    def test_indexing_returns_bound_elements(self):
        m = MatN(GF5, [[1, 2], [3, 9]])
        assert m[1, 1] == GF5(4)
        assert m[0, 1].field == GF5

    def test_must_be_square(self):
        with pytest.raises(DimensionMismatchError):
            MatN(RATIONAL, [[1, 2], [3]])

    def test_dimension_at_least_one(self):
        with pytest.raises(SizeError):
            MatN(RATIONAL, [])

    def test_cutoff_at_least_one(self):
        with pytest.raises(SizeError, match="cutoff must be >= 1"):
            EngineConfig(cutoff=0)
