"""Recursive n x n matrix multiplication driven by a rank-7 decomposition,
with a classical triple-loop oracle and arithmetic-operation counters.

Inputs of any size are padded with zeros to the next power of two and the
padding is stripped from the result; the recursion switches to classical
multiplication at or below the configured cutoff dimension.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .construction import BilinearDecomposition, Term
from .fields import FLOAT64, Field, FieldElement, FieldMismatchError, Rationals
from .linalg import Mat2


class DimensionMismatchError(ValueError):
    """Operand dimensions are incompatible."""


class RankError(ValueError):
    """The 2x2-block recursion needs exactly seven terms."""


@dataclass
class OpCounter:
    """Running totals of scalar operations during one multiplication.

    ``mults`` counts bilinear multiplications only: products of two values
    derived from the input matrices.  Scaling by a fixed decomposition
    coefficient is part of evaluating a linear form and is not a counted
    multiplication; the additions inside linear forms are counted, scaled
    by block size.  This is what makes the count over n = 2^k with cutoff 1
    come out to exactly 7^k.
    """

    mults: int = 0
    adds: int = 0


@dataclass(frozen=True)
class EngineConfig:
    """Recursion control. Padding is always pad-to-next-power-of-two."""

    cutoff: int = 1

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")


class MatN:
    """A dense n x n matrix over one field.

    Entries are stored as raw field values for speed; indexing returns a
    bound FieldElement.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        n = len(rows)
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        coerced = [[field.coerce(e) for e in row] for row in rows]
        if any(len(row) != n for row in coerced):
            raise DimensionMismatchError("matrix is not square")
        self.field = field
        self.n = n
        self.rows = coerced

    @classmethod
    def random(cls, field: Field, n: int, rng: random.Random) -> "MatN":
        return cls(field, [[field.sample(rng) for _ in range(n)] for _ in range(n)])

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return FieldElement(self.field, self.rows[i][j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatN):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.rows == other.rows

    def max_abs_diff(self, other: "MatN") -> float:
        """Largest elementwise |difference|; for float-backend comparisons."""
        if self.n != other.n:
            raise DimensionMismatchError("dimension mismatch")
        return max(
            abs(a - b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"MatN({self.field.name}, n={self.n})"


def _check_pair(a: MatN, b: MatN) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields: {a.field.name} and {b.field.name}")
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")


def classical_multiply(a: MatN, b: MatN, counter: Optional[OpCounter] = None) -> MatN:
    """Exact triple-loop product; n^3 multiplications, n^2 (n-1) additions."""
    _check_pair(a, b)
    counter = counter if counter is not None else OpCounter()
    rows = _classical_raw(a.field, a.rows, b.rows, a.n, counter)
    return MatN(a.field, rows)


def _classical_raw(field: Field, a, b, n: int, counter: OpCounter):
    dot = field.dot
    b_cols = list(zip(*b))
    out = [[dot(arow, bcol) for bcol in b_cols] for arow in a]
    counter.mults += n * n * n
    counter.adds += n * n * (n - 1)
    return out


def _linear_combination(field: Field, coeffs, blocks, n: int, counter: OpCounter):
    """sum_i coeffs[i] * blocks[i] over raw row-lists; zero coefficients are
    skipped, additions counted per entry."""
    zero = field.from_int(0)
    one = field.from_int(1)
    picked = [(c, blk) for c, blk in zip(coeffs, blocks) if c != zero]
    if not picked:
        return [[zero] * n for _ in range(n)]
    mul, add = field.mul, field.add
    c0, b0 = picked[0]
    if c0 == one:
        out = [row[:] for row in b0]
    else:
        out = [[mul(c0, e) for e in row] for row in b0]
    for c, blk in picked[1:]:
        if c == one:
            for i in range(n):
                orow, brow = out[i], blk[i]
                for j in range(n):
                    orow[j] = add(orow[j], brow[j])
        else:
            for i in range(n):
                orow, brow = out[i], blk[i]
                for j in range(n):
                    orow[j] = add(orow[j], mul(c, brow[j]))
    counter.adds += (len(picked) - 1) * n * n
    return out


def _split(rows, n: int):
    h = n // 2
    return (
        [row[:h] for row in rows[:h]],
        [row[h:] for row in rows[:h]],
        [row[:h] for row in rows[h:]],
        [row[h:] for row in rows[h:]],
    )


def _join(q11, q12, q21, q22):
    top = [r1 + r2 for r1, r2 in zip(q11, q12)]
    bottom = [r1 + r2 for r1, r2 in zip(q21, q22)]
    return top + bottom


def _raw_terms(dec: BilinearDecomposition):
    return [
        (
            [c.value for c in t.u_coeffs],
            [c.value for c in t.v_coeffs],
            [c.value for c in t.w.flatten()],
        )
        for t in dec.terms
    ]


def _strassen_raw(terms, field: Field, a, b, n: int, cutoff: int, counter: OpCounter):
    if n <= cutoff:
        return _classical_raw(field, a, b, n, counter)
    h = n // 2
    xq = _split(a, n)
    yq = _split(b, n)
    products = []
    for u_c, v_c, _ in terms:
        left = _linear_combination(field, u_c, xq, h, counter)
        right = _linear_combination(field, v_c, yq, h, counter)
        products.append(_strassen_raw(terms, field, left, right, h, cutoff, counter))
    quads = [
        _linear_combination(field, [t[2][entry] for t in terms], products, h, counter)
        for entry in range(4)
    ]
    return _join(*quads)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def strassen_multiply(
    dec: BilinearDecomposition,
    a: MatN,
    b: MatN,
    config: Optional[EngineConfig] = None,
):
    """Multiply via the 2x2-block recursion; returns (product, counter).

    Pads to the next power of two, recurses down to ``config.cutoff``, and
    strips the padding.  Over exact fields the result equals the classical
    product exactly, for every cutoff.
    """
    if dec.rank != 7:
        raise RankError(f"decomposition has rank {dec.rank}, the engine needs 7")
    _check_pair(a, b)
    if a.field != dec.field:
        raise FieldMismatchError(
            f"matrices over {a.field.name} but decomposition over {dec.field.name}"
        )
    cfg = config if config is not None else EngineConfig()
    counter = OpCounter()
    n = a.n
    m = _next_pow2(n)
    a_rows, b_rows = a.rows, b.rows
    if m != n:
        zero = a.field.from_int(0)
        pad = m - n
        a_rows = [row + [zero] * pad for row in a_rows] + [[zero] * m for _ in range(pad)]
        b_rows = [row + [zero] * pad for row in b_rows] + [[zero] * m for _ in range(pad)]
    result = _strassen_raw(_raw_terms(dec), a.field, a_rows, b_rows, m, cfg.cutoff, counter)
    if m != n:
        result = [row[:n] for row in result[:n]]
    return MatN(a.field, result), counter


def float_decomposition(dec: BilinearDecomposition) -> BilinearDecomposition:
    """Rational decomposition mapped into the float64 ring for timing runs.

    Only rationals embed: prime-field residues have no meaningful image in
    the reals.  The result carries no provenance, since float decompositions
    are never serialized.
    """
    if not isinstance(dec.field, Rationals):
        raise TypeError(
            f"only rational decompositions convert to float64, got {dec.field.name}"
        )
    f = FLOAT64

    def conv_coeffs(coeffs):
        return tuple(f(float(c.value)) for c in coeffs)

    terms = tuple(
        Term(
            conv_coeffs(t.u_coeffs),
            conv_coeffs(t.v_coeffs),
            Mat2(f, [float(e.value) for e in t.w.flatten()]),
        )
        for t in dec.terms
    )
    return BilinearDecomposition(f, terms)


@dataclass(frozen=True)
class BenchRow:
    n: int
    strassen_mults: int
    classical_mults: int
    strassen_ms: Optional[float]
    classical_ms: Optional[float]


def bench(
    dec: BilinearDecomposition,
    sizes: Sequence[int],
    config: Optional[EngineConfig] = None,
    use_float: bool = False,
    seed: int = 0,
) -> list:
    """Measure operation counts (and, for the float ring, wall-clock times)
    on seeded random inputs of each requested size.

    With no explicit config the cutoff is 1 for exact fields (making the
    7^k law observable) and 64 for float timing realism.  Exact fields
    report counts only: their timings say more about bignum growth than
    about the algorithm.
    """
    if use_float:
        dec = float_decomposition(dec)
    field = dec.field
    if config is None:
        config = EngineConfig(cutoff=1 if field.exact else 64)
    rng = random.Random(seed)
    rows = []
    for n in sizes:
        if n < 1:
            raise ValueError("sizes must be >= 1")
        a = MatN.random(field, n, rng)
        b = MatN.random(field, n, rng)
        t0 = time.perf_counter()
        _, s_counter = strassen_multiply(dec, a, b, config)
        t1 = time.perf_counter()
        c_counter = OpCounter()
        classical_multiply(a, b, c_counter)
        t2 = time.perf_counter()
        timed = not field.exact
        rows.append(
            BenchRow(
                n=n,
                strassen_mults=s_counter.mults,
                classical_mults=c_counter.mults,
                strassen_ms=(t1 - t0) * 1e3 if timed else None,
                classical_ms=(t2 - t1) * 1e3 if timed else None,
            )
        )
    return rows


_BENCH_COLUMNS = ("n", "strassen_mults", "classical_mults", "strassen_ms", "classical_ms")


def _row_cells(row: BenchRow) -> list:
    def fmt_ms(ms):
        return f"{ms:.3f}" if ms is not None else ""

    return [
        str(row.n),
        str(row.strassen_mults),
        str(row.classical_mults),
        fmt_ms(row.strassen_ms),
        fmt_ms(row.classical_ms),
    ]


def bench_text(rows: Sequence[BenchRow]) -> str:
    """Aligned-column rendering of a bench table."""
    table = [list(_BENCH_COLUMNS)] + [_row_cells(r) for r in rows]
    widths = [max(len(line[c]) for line in table) for c in range(len(_BENCH_COLUMNS))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table
    )


def bench_csv(rows: Sequence[BenchRow]) -> str:
    """Comma-separated records; empty time cells for exact fields."""
    lines = [",".join(_BENCH_COLUMNS)]
    lines.extend(",".join(_row_cells(r)) for r in rows)
    return "\n".join(lines)
