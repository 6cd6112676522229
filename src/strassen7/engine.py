"""Recursive n x n matrix multiplication driven by a rank-7 decomposition,
with a classical triple-loop oracle and arithmetic-operation counters.

Inputs of any size are padded with zeros to the next power of two and the
padding is stripped from the result; the recursion switches to classical
multiplication at or below the configured cutoff dimension.  The recursion
runs breadth-first on numpy stacks: each level turns a (batch, s, s) stack
into one (7 batch, s/2, s/2) stack per operand, the leaves are one batched
matmul, and the products fold back level by level.  Rational products
run on integers: the denominators of the inputs and of the decomposition
are cleared once, and the exact result is divided out at the end.  The
same engine times float64 arrays for ``bench(..., use_float=True)``.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .construction import BilinearDecomposition
from .fields import Field, FieldElement, FieldMismatchError, InputError, PrimeField, Rationals


class DimensionMismatchError(InputError):
    """Operand dimensions are incompatible."""


class RankError(InputError):
    """The 2x2-block recursion needs exactly seven terms."""


class SizeError(InputError):
    """A cutoff, matrix dimension or benchmark size is below 1."""


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
            raise SizeError("cutoff must be >= 1")


class MatN:
    """A dense n x n matrix over one field.

    Entries are stored as raw field values for speed; indexing returns a
    bound FieldElement.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        n = len(rows)
        if n < 1:
            raise SizeError("matrix dimension must be >= 1")
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

    def __repr__(self) -> str:
        return f"MatN({self.field.name}, n={self.n})"


def _check_pair(a: MatN, b: MatN) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields: {a.field.name} and {b.field.name}")
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")


def classical_multiply(a: MatN, b: MatN, counter: Optional[OpCounter] = None) -> MatN:
    """Exact triple-loop product; n^3 multiplications, n^2 (n-1) additions.

    Pure Python and independent of the recursion engine: it is the oracle
    the engine is tested against.
    """
    _check_pair(a, b)
    counter = counter if counter is not None else OpCounter()
    n, dot = a.n, a.field.dot
    b_cols = list(zip(*b.rows))
    rows = [[dot(arow, bcol) for bcol in b_cols] for arow in a.rows]
    counter.mults += n * n * n
    counter.adds += n * n * (n - 1)
    return MatN(a.field, rows)


# A level whose seven subproblems would stack more entries than this runs
# them one after another instead: breadth-first, level l of an n x n
# product holds n^2 (7/4)^l entries.
_MAX_STACK_ENTRIES = 1 << 22


def _same(v):
    return v


# bench's float path: float64 stacks, no reduction, coefficients as floats
_FLOAT_BACKEND = (np.float64, _same, float)


def _array_backend(field: PrimeField, cutoff: int):
    """(dtype, reduce, lift) for stacks of residues of ``field``.

    ``reduce`` maps an array to canonical values and ``lift`` turns a
    decomposition coefficient into the scalar the stacks are scaled by.
    GF(p) stacks are int64 only while no intermediate can overflow: a
    residue-times-coefficient sum has at most 7 terms (a W form; a U/V
    form has 4) and a leaf dot ``cutoff``, each below (p-1)^2 in size once
    coefficients are lifted to (-p/2, p/2].  Otherwise they hold Python
    ints.
    """
    p = field.modulus
    fits = max(7, cutoff) * (p - 1) ** 2 < 1 << 63
    return (
        np.int64 if fits else object,
        lambda arr: arr % p,
        lambda c: c - p if c > p // 2 else c,
    )


def _form(coeffs, blocks, reduce):
    """sum_i coeffs[i] * blocks[i], reduced; zero coefficients are skipped
    and a form with none left is a zero block."""
    acc = None
    for c, blk in zip(coeffs, blocks):
        if c == 0:
            continue
        if acc is None:
            acc = blk if c == 1 else -blk if c == -1 else c * blk
        elif c == 1:
            acc = acc + blk
        elif c == -1:
            acc = acc - blk
        else:
            acc = acc + c * blk
    return np.zeros_like(blocks[0]) if acc is None else reduce(acc)


def _quadrants(x):
    """Views of the x11, x12, x21, x22 blocks of every matrix in a stack."""
    batch, s, _ = x.shape
    h = s // 2
    q = x.reshape(batch, 2, h, 2, h)
    return [q[:, 0, :, 0], q[:, 0, :, 1], q[:, 1, :, 0], q[:, 1, :, 1]]


class _Plan:
    """A rank-7 decomposition lifted onto one array backend ``(dtype,
    reduce, lift)``: the rows of U and V (one per term, over x11..x22) and
    of W transposed (one per output block, over the seven terms)."""

    def __init__(self, dec: BilinearDecomposition, cutoff: int, backend):
        if dec.rank != 7:
            raise RankError(f"decomposition has rank {dec.rank}, the engine needs 7")
        self.dtype, self.reduce, lift = backend
        self.u = [[lift(c.value) for c in t.u_coeffs] for t in dec.terms]
        self.v = [[lift(c.value) for c in t.v_coeffs] for t in dec.terms]
        self.w = [[lift(t.w.flatten()[e].value) for t in dec.terms] for e in range(4)]
        self.cutoff = cutoff
        # additions of one level per entry of a half-size block
        self.adds_per_entry = sum(
            max(sum(c != 0 for c in row) - 1, 0) for row in self.u + self.v + self.w
        )

    def multiply(self, x, y, counter: OpCounter):
        """Products of two (batch, s, s) stacks, s a power of two.

        Each level forms the seven terms' operands over the whole stack and
        recurses once on the (7 batch, s/2, s/2) stacks, unless those would
        exceed ``_MAX_STACK_ENTRIES``; then it recurses once per term.
        """
        batch, s, _ = x.shape
        if s <= self.cutoff:
            counter.mults += batch * s**3
            counter.adds += batch * s * s * (s - 1)
            return self.reduce(np.matmul(x, y))
        h = s // 2
        counter.adds += batch * h * h * self.adds_per_entry
        xq, yq = _quadrants(x), _quadrants(y)
        if 7 * batch * h * h <= _MAX_STACK_ENTRIES:
            left = np.stack([_form(c, xq, self.reduce) for c in self.u])
            right = np.stack([_form(c, yq, self.reduce) for c in self.v])
            products = self.multiply(
                left.reshape(7 * batch, h, h), right.reshape(7 * batch, h, h), counter
            ).reshape(7, batch, h, h)
        else:
            products = [
                self.multiply(_form(cu, xq, self.reduce), _form(cv, yq, self.reduce), counter)
                for cu, cv in zip(self.u, self.v)
            ]
        blocks = np.stack([_form(c, products, self.reduce) for c in self.w])
        return blocks.reshape(2, 2, batch, h, h).transpose(2, 0, 3, 1, 4).reshape(batch, s, s)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _pad_multiply_strip(plan: _Plan, a, b, counter: OpCounter):
    """``plan``'s product of two n x n arrays (or nested lists): padded with
    zeros to the next power of two, multiplied, and stripped to n x n."""
    n = len(a)
    m = _next_pow2(n)
    x = np.zeros((1, m, m), dtype=plan.dtype)
    y = np.zeros((1, m, m), dtype=plan.dtype)
    x[0, :n, :n] = a
    y[0, :n, :n] = b
    return plan.multiply(x, y, counter)[0, :n, :n]


def _scaled(values, d):
    """Rationals ``values`` times d, a common multiple of their
    denominators, as ints."""
    return [v.numerator * (d // v.denominator) for v in values]


def _denominator_lcm(values) -> int:
    return lcm(*(v.denominator for v in values))


def _rational_multiply(dec: BilinearDecomposition, cutoff: int, a, b, counter: OpCounter):
    """Exact product of two n x n rational matrices (nested lists), run on
    integer stacks.

    Row i of A is scaled by the lcm r_i of its denominators, column j of B
    by c_j, and the U, V and W rows by the lcms of theirs, whose product is
    ``scale``.  Each of the k levels multiplies the product by ``scale``,
    so entry (i, j) of the integer run is r_i c_j scale^k times the exact
    entry.  No operand, leaf partial sum or fold exceeds
    max|X| max|Y| c (|U| |V| |W|)^k in size, with c the leaf size and |.|
    the largest row sum of |coefficient|: the stacks are int64 while that
    is below 2^63, and Python ints otherwise.
    """
    plan = _Plan(dec, cutoff, (None, _same, _same))  # dtype chosen below
    scale = growth = 1
    for rows in (plan.u, plan.v, plan.w):
        d = _denominator_lcm(c for row in rows for c in row)
        rows[:] = [_scaled(row, d) for row in rows]
        scale *= d
        growth *= max(1, *(sum(map(abs, row)) for row in rows))
    cols = list(zip(*b))
    rs = [_denominator_lcm(row) for row in a]
    cs = [_denominator_lcm(col) for col in cols]
    x = list(map(_scaled, a, rs))
    y = list(zip(*map(_scaled, cols, cs)))
    leaf, k = _next_pow2(len(a)), 0
    while leaf > cutoff:
        leaf, k = leaf // 2, k + 1
    size = [max(1, *(abs(e) for row in m for e in row)) for m in (x, y)]
    bound = size[0] * size[1] * leaf * growth**k
    plan.dtype = np.int64 if bound < 1 << 63 else object
    z = _pad_multiply_strip(plan, x, y, counter).tolist()
    den = scale**k
    return [[Fraction(e, r * c * den) for e, c in zip(row, cs)] for row, r in zip(z, rs)]


def strassen_multiply(
    dec: BilinearDecomposition,
    a: MatN,
    b: MatN,
    config: Optional[EngineConfig] = None,
):
    """Multiply via the 2x2-block recursion; returns (product, counter).

    Pads to the next power of two, recurses breadth-first down to
    ``config.cutoff``, and strips the padding.  Rational products run on
    integers (see ``_rational_multiply``).  The result equals the
    classical product exactly, for every cutoff.
    """
    cfg = config if config is not None else EngineConfig()
    _check_pair(a, b)
    if a.field != dec.field:
        raise FieldMismatchError(
            f"matrices over {a.field.name} but decomposition over {dec.field.name}"
        )
    counter = OpCounter()
    if isinstance(dec.field, Rationals):
        rows = _rational_multiply(dec, cfg.cutoff, a.rows, b.rows, counter)
    else:
        plan = _Plan(dec, cfg.cutoff, _array_backend(dec.field, cfg.cutoff))
        rows = _pad_multiply_strip(plan, a.rows, b.rows, counter).tolist()
    return MatN(a.field, rows), counter


@dataclass(frozen=True)
class BenchRow:
    n: int
    strassen_mults: int
    classical_mults: int
    strassen_ms: Optional[float]
    classical_ms: Optional[float]


# timed calls per bench --float column, after one warm-up call
_TIMED_REPEATS = 5


def _median_ms(call) -> float:
    """Median wall time of ``_TIMED_REPEATS`` calls of ``call``, in ms."""
    times = []
    for _ in range(_TIMED_REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def bench(
    dec: BilinearDecomposition,
    sizes: Sequence[int],
    config: Optional[EngineConfig] = None,
    use_float: bool = False,
    seed: int = 0,
) -> list:
    """Measure operation counts (and, with ``use_float``, wall-clock times)
    on seeded random inputs of each requested size.

    Exact fields report counts only: their timings say more about bignum
    growth than about the algorithm.  ``use_float`` lifts a rational
    decomposition's coefficients to float64 and times the engine on float64
    arrays against ``numpy.matmul`` on the same arrays: each column is the
    median of ``_TIMED_REPEATS`` calls after one warm-up.  With no explicit
    config the cutoff is 1 for exact fields (making the 7^k law observable)
    and 64 for float timing realism.
    """
    if use_float and not isinstance(dec.field, Rationals):
        raise FieldMismatchError(
            f"only rational decompositions run in float64, got {dec.field.name}"
        )
    if any(n < 1 for n in sizes):
        raise SizeError("sizes must be >= 1")
    if config is None:
        config = EngineConfig(cutoff=64 if use_float else 1)
    float_plan = _Plan(dec, config.cutoff, _FLOAT_BACKEND) if use_float else None
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        strassen_ms = classical_ms = None
        if use_float:
            a, b = gen.random((2, n, n))
            counter = OpCounter()
            # each column: one untimed warm-up call, whose counts the row reports
            _pad_multiply_strip(float_plan, a, b, counter)
            strassen_ms = _median_ms(lambda: _pad_multiply_strip(float_plan, a, b, OpCounter()))
            np.matmul(a, b)
            classical_ms = _median_ms(lambda: np.matmul(a, b))
        else:
            a = MatN.random(dec.field, n, rng)
            b = MatN.random(dec.field, n, rng)
            _, counter = strassen_multiply(dec, a, b, config)
        rows.append(BenchRow(n, counter.mults, n**3, strassen_ms, classical_ms))
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
