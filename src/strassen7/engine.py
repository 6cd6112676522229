"""Recursive n x n matrix multiplication driven by a rank-7 decomposition,
with a classical triple-loop oracle and arithmetic-operation counters.

Inputs of any size are padded with zeros to the next power of two and the
padding is stripped from the result; the recursion switches to classical
multiplication at or below the configured cutoff dimension.  The recursion
is one loop over its levels on float64 stacks in block-recursive order:
one permutation puts both padded operands in the mode order (leaf block,
q_1, ..., q_k), q_l the quadrant of level l.  Each level is one product of
[U; V] by the last quadrant mode that puts the seven terms first, so the
leaves end up contiguous: one entrywise product when 1 x 1, else one
batched matmul.  Each level folds back as one product by W, and one
permutation returns the result: no level copies the stack.

Exact products are integer products of bounded size.  A decomposition's
coefficients are cleared to integers (``Field.clear``: GF(p) residues as
they are, rationals over their denominators), and a plan run mod q lifts
its own coefficients into (-q/2, q/2]; GF(p) entries stay residues in
[0, p), and a rational A and B enter as their rows and columns cleared
by the lcm of their denominators.  One proven bound on every intermediate
picks the run for both fields: below 2^53 the plan runs once with no
reduction, and the result is reduced mod p or divided out at the end; a
mod-p run that fits reduces only where a product could pass 2^53 - p.
Otherwise the same plan runs modulo word-size primes and every entry is
rebuilt by direct Chinese remaindering on Python ints.

A ``MatN`` holds its entries in (n, n) arrays of ints: residues over
GF(p), int64 for p < 2^63 and ``object`` Python ints above; over the
rationals, numerators and positive denominators in lowest terms, int64
while every one is at most 2^63 - 1 in size and ``object`` Python ints
beyond, never wrapped.  Exact operands reach the integer product as
(n, n) arrays only, and a GF(p) product keeps the operands' dtype: int64
residues go onto the float64 stacks and come back with no list in
between.  A rational product builds no ``Fraction``: its result is
reduced entry by entry with ``np.gcd``.  Lists of raw values appear only
where text is read or written, where a matrix is built from rows, and in
the classical oracle, whose ``Fraction``s come from ``MatN.rows``.

A decomposition's coefficient matrices are compiled once, by its first
product, and kept on the decomposition; later products with it, at any
cutoff, only convert their inputs, run the arrays and hand back the result.
Results are built canonical (residues in [0, p), entries in lowest terms)
and are not coerced again.  The CRT primes for a leaf size are found once
per process and kept.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .construction import BilinearDecomposition
from .fields import (
    Field,
    FieldElement,
    FieldMismatchError,
    InputError,
    Rationals,
    is_prime,
    require_same_field,
)


class DimensionMismatchError(InputError):
    """Operand dimensions are incompatible."""


class RankError(InputError):
    """The 2x2-block recursion needs exactly seven terms."""


class SizeError(InputError):
    """A cutoff below 1, or a matrix dimension (a benchmark size included)
    that ``MatN.check_dimension`` refuses."""


# Each matrix holds at most 2^24 entries (N <= 4096): 128 MiB of int64 or
# object pointers.  Checked on the dimension, before any entry is drawn,
# parsed or stored, so an oversized input fails fast.
_MAX_ENTRIES = 1 << 24


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


# The largest size an entry of a rational matrix's int64 arrays may have.
# -2^63 is left out, so that np.abs of every entry is exact.
_INT64_MAX = (1 << 63) - 1


def _top(ints) -> int:
    """The largest |entry| of an int array (int64 or ``object``), at least
    1, as a Python int."""
    return max(1, int(np.abs(ints).max()))


def _fitted(num, den):
    """Numerators and denominators (arrays or sequences of ints) as arrays
    of one dtype: int64 when every entry is at most 2^63 - 1 in size,
    ``object`` Python ints else, never wrapped.  Two int64 arrays are kept
    as they are."""
    try:
        fitted = np.asarray(num, dtype=np.int64), np.asarray(den, dtype=np.int64)
    except OverflowError:
        pass
    else:
        # -2^63 converts, but its absolute value does not
        if fitted[0].min() >= -_INT64_MAX:
            return fitted
    return np.asarray(num, dtype=object), np.asarray(den, dtype=object)


def _lowest_terms(num, den):
    """Fractions num / den (den > 0) in lowest terms, entry by entry."""
    g = np.gcd(num, den)
    return num // g, den // g


def _cleared(num, den):
    """Rational entries num / den (in lowest terms) cleared along their
    rows by l_i, the lcm of row i's denominators: (num * (l // den), l),
    l of shape (n, 1).  Each l_i divides the lcm L of all the denominators,
    so where |num| L is at most 2^63 - 1 the int64 arrays are used as they
    are; else both are taken as ``object`` Python ints."""
    common, top = 1, _top(num)
    for q in set(den.ravel().tolist()):
        common = lcm(common, q)
        if top * common > _INT64_MAX:
            num, den = num.astype(object), den.astype(object)
            break
    row_lcm = np.lcm.reduce(den, axis=1, keepdims=True)
    return num * (row_lcm // den), row_lcm


class MatN:
    """A dense n x n matrix over one field.

    ``values`` is one (n, n) array.  Over GF(p) it holds the canonical
    residues: int64 for p < 2^63 and Python ints in an ``object`` array
    above, and ``denominators`` is None.  Over the rationals ``values``
    holds each entry's numerator and ``denominators``, another (n, n)
    array, its positive denominator, in lowest terms (so ``==`` is array
    equality); both arrays are int64 while every entry is at most 2^63 - 1
    in size, and ``object`` Python ints otherwise, never wrapped.
    Indexing returns a bound FieldElement, and ``rows`` is a nested-list
    copy of the raw values (``Fraction``s over the rationals), for the
    classical oracle and text output.  Every dimension passes
    ``check_dimension``.
    """

    __slots__ = ("field", "n", "values", "denominators")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        n = len(rows)
        self.check_dimension(n)
        coerce = field.coerce
        if isinstance(field, Rationals):  # an int is kept, read as n / 1: no Fraction
            coerced = [[e if type(e) is int else coerce(e) for e in row] for row in rows]
        else:
            coerced = [[coerce(e) for e in row] for row in rows]
        if any(len(row) != n for row in coerced):
            raise DimensionMismatchError("matrix is not square")
        self.field, self.n = field, n
        self.values, self.denominators = self._arrays(field, n, chain.from_iterable(coerced))

    @staticmethod
    def check_dimension(n: int) -> None:
        """Refuse an n x n matrix unless n >= 1 and it has at most
        ``_MAX_ENTRIES`` entries: the one size check of every matrix."""
        if n < 1:
            raise SizeError("matrix dimension must be >= 1")
        if n * n > _MAX_ENTRIES:
            raise SizeError(
                f"matrix dimension {n}: {n * n} entries exceed the bound of {_MAX_ENTRIES}"
            )

    @staticmethod
    def _arrays(field: Field, n: int, flat) -> tuple:
        """(values, denominators) of an n x n matrix (n >= 1) from its n^2
        canonical raw values of ``field`` in row-major order, an int i being
        i / 1 over the rationals: the one place that picks int64 or
        ``object`` arrays (residues mod p > 2^63, ``_fitted``)."""
        if isinstance(field, Rationals):
            num, den = _fitted(*zip(*[v.as_integer_ratio() for v in flat]))
            return num.reshape(n, n), den.reshape(n, n)
        dtype = object if field.modulus > 1 << 63 else np.int64
        return np.fromiter(flat, dtype=dtype, count=n * n).reshape(n, n), None

    @classmethod
    def _canonical(cls, field: Field, values, denominators=None) -> "MatN":
        """A matrix over arrays (n >= 1) already in ``field``'s canonical
        form and dtype, kept as they are: results, and ``_arrays``' output."""
        m = cls.__new__(cls)
        m.field, m.n, m.values, m.denominators = field, len(values), values, denominators
        return m

    @classmethod
    def random(cls, field: Field, n: int, rng: random.Random) -> "MatN":
        """n x n entries drawn row by row, once ``n`` passes
        ``check_dimension``: residues rng.randrange(p) over GF(p), and over
        the rationals a numerator in [-9, 9], then a denominator in [1, 4],
        the draws of Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))."""
        cls.check_dimension(n)
        if not isinstance(field, Rationals):
            draws = (rng.randrange(field.modulus) for _ in range(n * n))
            return cls._canonical(field, *cls._arrays(field, n, draws))
        pairs = ((rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n * n))
        draws = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * n * n)
        num, den = draws.reshape(n, n, 2).transpose(2, 0, 1)
        return cls._canonical(field, *_lowest_terms(num, den))

    @property
    def rows(self) -> list:
        """The entries as n lists of n raw values (Python ints or
        ``Fraction``s), a fresh copy."""
        if self.denominators is None:
            return self.values.tolist()
        return [list(map(Fraction, *pair))
                for pair in zip(self.values.tolist(), self.denominators.tolist())]

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        # item() gives a Python int from int64, and the object itself else
        value = self.values.item(i, j)
        if self.denominators is not None:
            value = Fraction(value, self.denominators.item(i, j))
        return FieldElement(self.field, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatN):
            return NotImplemented
        return (self.field == other.field and np.array_equal(self.values, other.values)
                and (self.denominators is None
                     or np.array_equal(self.denominators, other.denominators)))

    def __repr__(self) -> str:
        return f"MatN({self.field.name}, n={self.n})"


def _check_pair(a: MatN, b: MatN) -> None:
    require_same_field(a.field, b.field)
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")


def classical_multiply(a: MatN, b: MatN) -> MatN:
    """Exact triple-loop product; n^3 multiplications, n^2 (n-1) additions.

    Pure Python and independent of the recursion engine: it is the oracle
    the engine is tested against.
    """
    _check_pair(a, b)
    dot = a.field.dot
    b_cols = list(zip(*b.rows))
    rows = [[dot(arow, bcol) for bcol in b_cols] for arow in a.rows]
    return MatN(a.field, rows)


# A level whose seven terms would stack more entries than this per operand
# runs them one after another instead, each through the levels below: run
# whole, level l of an n x n product holds n^2 (7/4)^l entries.
_MAX_STACK_ENTRIES = 1 << 22

# Every value on an exact run's float64 stacks is an integer below this in
# size, so that each sum and product of them is exact, in any order.
_EXACT = 1 << 53

# Work (rows x columns x inner size) per BLAS call of a coefficient product.
# OpenBLAS runs a product this small on the calling thread; a larger one
# wakes its other threads, and on a 2-vCPU VM that took 5-16 ms per call
# between the engine's other work, against 0.4-3.5 ms on one thread.
_BLAS_WORK = 1 << 18

# Base-256 digits per product in _residues: sums of 2^18 digits below 2^8
# times powers below 2^26.1 (see _crt_primes) stay below 2^52.2.
_DIGIT_BLOCK = 1 << 18


def _reduce(arr, q):
    """Residues of the integers in float64 ``arr`` mod q (a scalar, or an
    array of moduli that broadcasts against ``arr``), each at most
    q // 2 + 1 in size.  Exact while
    |arr| <= 2^53 - q: rint(arr / q) is then within 1/2 + 1/q of arr / q,
    and q times it is an integer of at most 2^53."""
    t = arr / q
    np.rint(t, out=t)
    t *= q
    return np.subtract(arr, t, out=t)


def _norm(rows):
    """The largest row sum of |coefficient|, at least 1: a product by
    ``rows`` multiplies a bound on the entries by at most this."""
    return max(1, *(sum(map(abs, row)) for row in rows))


def _fits(q: int, leaf: int, norm: int) -> bool:
    """Whether a mod-q run with leaves of size ``leaf`` and coefficient
    rows of norm at most ``norm`` can keep every value within 2^53 - q:
    each product of values reduced to q // 2 + 1 must stay within it."""
    h = q // 2 + 1
    return max(norm, leaf * h) * h <= _EXACT - q


def _depth(n: int, cutoff: int):
    """(leaf size, levels) of the recursion on n x n inputs, padded to the
    next power of two 2^e and halved down to at most ``cutoff``."""
    e = (n - 1).bit_length()
    leaf = min(e, cutoff.bit_length() - 1)
    return 1 << leaf, e - leaf


def _times(x, y):
    """``x @ y`` for a small coefficient matrix ``x`` (with any batch axes)
    or ``y`` (both 2-D), in pieces of at most ``_BLAS_WORK`` multiply-adds
    cut along the columns of ``y`` or, through the transposes, x's rows."""
    work = x.size * y.shape[-1]
    if work <= _BLAS_WORK:
        return x @ y
    out = view = np.empty(x.shape[:-1] + y.shape[-1:])
    if x.shape[-2] > y.shape[-1]:
        x, y, view = y.T, x.T, out.T
    n = y.shape[-1]
    step = max(1, _BLAS_WORK * n // work)
    for i in range(0, n, step):
        np.matmul(x, y[..., i:i + step], out=view[..., i:i + step])
    return out


class _Plan:
    """A rank-7 decomposition as coefficient matrices applied to float64
    stacks in block-recursive order: [U; V] (2 x 7 x 4), the seven terms'
    forms in x11, x12, x21, x22 and in y11..y22, and W^T (7 x 4), one
    column per output block.

    A run starts from its caller's bound on the inputs.  With a modulus q
    the plan runs mod q: it lifts its integer ``rows`` into (-q/2, q/2]
    itself, and reduces a stack just before a product that could take a
    value past 2^53 - q.  Without one it never reduces: the caller's bound
    keeps the run's values below 2^53.

    ``rows``, as run, are kept for the CRT runs of an exact product, and
    ``scale`` is the factor by which a rational decomposition's cleared
    rows multiply each level's products (see ``_coefficient_rows``).
    """

    def __init__(self, rows, modulus: Optional[int] = None, scale: int = 1):
        # additions of one level per entry of a half-size block, counted on
        # the rows as given: their lift mod q zeroes a coefficient q divides
        self.adds_per_entry = sum(max(len(row) - row.count(0) - 1, 0) for m in rows for row in m)
        if modulus is not None:
            # each coefficient as its residue in (-q/2, q/2]
            h = (modulus - 1) // 2
            rows = [[[(c + h) % modulus - h for c in row] for row in m] for m in rows]
            self.limit = _EXACT - modulus
        u, v, w = rows
        self.norms = _norm(u), _norm(v), _norm(w)
        # read only by runs whose bound or modulus keeps the norms below 2^53
        # (_integer_product); larger ones run by CRT on lifted per-prime plans
        if max(self.norms) < _EXACT:
            self.uv = np.array([u, v], dtype=np.float64)
            self.wt = np.array(w, dtype=np.float64).T
        self.rows = rows
        self.modulus = modulus
        self.scale = scale

    def _reduced(self, arr, bound, factor):
        """``arr`` and the bound on its entries, reduced mod the modulus
        first if a product by ``factor`` could pass the limit."""
        if self.modulus is None or bound * factor <= self.limit:
            return arr, bound
        return _reduce(arr, self.modulus), self.modulus // 2 + 1

    def multiply(self, xy, levels, leaf, bound, counter):
        """(products, bound on their entries) of a (2, N) stack of operand
        pairs with entries at most ``bound`` (2^53 - q in a mod-q run), in
        the mode order (batch, q_1, ..., q_levels), the batch ending in leaf
        blocks: flat, in the mode order (batch, o_1, ..., o_levels).  Each
        level is one product by [U; V] over the last mode that puts the
        terms' mode first, or one per term through the levels below if the
        terms would exceed ``_MAX_STACK_ENTRIES``; each folds back, the last
        first, as one product by W^T that consumes the first mode and
        appends the output quadrant."""
        nuv, nw = max(self.norms[:2]), self.norms[2]
        done = 0
        while done < levels:
            size = xy.shape[1] // 4
            counter.adds += size * self.adds_per_entry
            xy, bound = self._reduced(xy, bound, nuv)
            quadrants = xy.reshape(2, size, 4).transpose(0, 2, 1)
            bound *= nuv
            done += 1
            if 7 * size > _MAX_STACK_ENTRIES:
                # from one bound, every term reduces as one run of them would
                products = np.empty((7, size))
                for t in range(7):
                    term = _times(self.uv[:, t:t + 1], quadrants).reshape(2, size)
                    products[t], end = self.multiply(term, levels - done, leaf, bound, counter)
                bound = end
                break
            xy = _times(self.uv, quadrants).reshape(2, -1)
        else:
            counter.mults += xy.shape[1] * leaf
            counter.adds += xy.shape[1] * (leaf - 1)
            xy, bound = self._reduced(xy, bound, leaf * bound)
            # 1 x 1 leaves are entrywise products: a matmul would run
            # one tiny product per leaf
            products = xy[0] * xy[1] if leaf == 1 else np.matmul(*xy.reshape(2, -1, leaf, leaf))
            bound = leaf * bound * bound
        for _ in range(done):
            products, bound = self._reduced(products, bound, nw)
            products = _times(products.reshape(7, -1).T, self.wt)
            bound *= nw
        return products.reshape(-1), bound


def _pad_multiply_strip(plan: _Plan, cutoff: int, a, b, bound: int, counter: OpCounter):
    """``plan``'s product of two n x n arrays with entries at most
    ``bound`` in size, padded with zeros to m = leaf 2^k and stripped to an
    n x n int64 array.  Viewed as ``shape``, an m x m matrix has the axes
    (r_1..r_k, leaf row, c_1..c_k, leaf column), r_l and c_l bit l from the
    top of its block row and column; the run takes them in block-recursive
    order, ``axes``: (leaf row, leaf column, r_1, c_1, ..., r_k, c_k)."""
    n = len(a)
    leaf, k = _depth(n, cutoff)
    m = leaf << k
    shape = (*[2] * k, leaf) * 2
    axes = [k, 2 * k + 1] + [i for l in range(k) for i in (l, k + 1 + l)]
    xy = np.zeros((2, m, m))
    xy[0, :n, :n] = a
    xy[1, :n, :n] = b
    xy = xy.reshape(2, *shape).transpose(0, *[1 + i for i in axes]).reshape(2, -1)
    z, _ = plan.multiply(xy, k, leaf, bound, counter)
    out = np.empty((m, m), dtype=np.int64)
    blocks = out.reshape(shape).transpose(axes)
    blocks[...] = z.reshape(blocks.shape)
    return out[:n, :n]


def _coefficient_rows(dec: BilinearDecomposition):
    """(rows, scale): U and V (one row per term, over x11..x22) and W (one
    row per output block, over the seven terms) as integer rows, each
    matrix cleared as one by ``Field.clear``, and the product of the three
    d's (1 over GF(p), whose residues are their own integers)."""
    if dec.rank != 7:
        raise RankError(f"decomposition has rank {dec.rank}, the engine needs 7")
    ws = [t.w.flatten() for t in dec.terms]
    matrices = (
        [t.u_coeffs for t in dec.terms],
        [t.v_coeffs for t in dec.terms],
        [[w[e] for w in ws] for e in range(4)],
    )
    rows, scale = [], 1
    for m in matrices:
        ints, d = dec.field.clear([c.value for row in m for c in row])
        width = len(m[0])
        rows.append([ints[i:i + width] for i in range(0, len(ints), width)])
        scale *= d
    return rows, scale


# leaf size -> the primes of its walk in _crt_primes found so far
_CRT_WALKS: dict = {}


def _crt_primes(leaf: int, bound: int) -> list:
    """The largest primes q whose mod-q runs fit with leaves of size
    ``leaf`` whatever the coefficients (within q/2, at most seven to a
    row), until their product exceeds 2 ``bound``.  Each q has
    7 (q // 2) (q // 2 + 1) <= 2^53, so q^2 < 2^55 / 7 < 2^52.2.

    The walk down from the top runs once per leaf size: its primes are
    kept in ``_CRT_WALKS``, and only a bound that needs more walks on from
    the last of them.  The longer walk replaces the kept one whole, so no
    product reads a list while another extends it."""
    walk = _CRT_WALKS.get(leaf, [])
    product, count = 1, 0
    while product <= 2 * bound and count < len(walk):
        product *= walk[count]
        count += 1
    if product <= 2 * bound:
        walk = walk.copy()
        q = walk[-1] if walk else 2 * isqrt(_EXACT // max(leaf, 7)) + 1
        while product <= 2 * bound:
            q -= 2
            if _fits(q, leaf, 7 * (q // 2)) and is_prime(q):
                walk.append(q)
                product *= q
        _CRT_WALKS[leaf] = walk
        count = len(walk)
    return walk[:count]


def _residues(values, primes):
    """The ints ``values`` (a 1-D int64 array, or an ``object`` array of
    Python ints) mod each of ``primes``, each residue at most q // 2 + 1 in
    size: a (len(primes), len(values)) float64 array.

    Each |value| is read as base-256 digits (straight from int64 when every
    value fits), and its residues are one float64 product of the powers
    256^j mod q by the digits, in blocks of ``_DIGIT_BLOCK`` digits,
    reduced after each; the sign comes last.
    """
    try:
        ints = values.astype(np.int64)
    except OverflowError:
        width = max(v.bit_length() for v in values) // 8 + 1
        data = b"".join(abs(v).to_bytes(width, "little") for v in values)
    else:
        # |-2^63| wraps to -2^63 in int64, whose bits as uint64 are 2^63
        width, data = 8, np.abs(ints).astype("<u8").tobytes()
    digits = np.frombuffer(data, dtype=np.uint8).reshape(len(values), width).T
    q = np.array(primes, dtype=np.int64)[:, None]
    powers = np.ones((len(primes), width), dtype=np.int64)
    for j in range(1, width):
        powers[:, j:j + 1] = powers[:, j - 1:j] * 256 % q
    powers, q = powers.astype(np.float64), q.astype(np.float64)
    res = np.zeros((len(primes), len(values)))
    for lo in range(0, width, _DIGIT_BLOCK):
        block = slice(lo, lo + _DIGIT_BLOCK)
        res = _reduce(res + _times(powers[:, block], digits[block]), q)
    return np.where(values < 0, -res, res)


def _crt_product(rows, cutoff: int, x, y, counter: OpCounter, bound: int):
    """The exact product of two n x n int arrays (int64, or ``object``
    arrays of Python ints) under integer coefficient ``rows``, whose
    entries are at most ``bound`` in size, as an n x n ``object`` array of
    ints.

    The plan runs once mod each q of ``_crt_primes``, whose product is M,
    and every entry is rebuilt from its residues r_q by direct Chinese
    remaindering on Python ints: the sum of r_q (M/q) ((M/q)^-1 mod q),
    mod M and lifted into (-M/2, M/2].  Only the first run is counted; the
    others repeat its operations.
    """
    n = len(x)
    primes = _crt_primes(_depth(n, cutoff)[0], bound)
    operands = _residues(np.concatenate((x, y), axis=None), primes).reshape(len(primes), 2, n, n)
    modulus = prod(primes)
    total = 0
    for i, q in enumerate(primes):
        z = _pad_multiply_strip(
            _Plan(rows, q), cutoff, *operands[i], q // 2 + 1,
            counter if i == 0 else OpCounter(),
        )
        m = modulus // q
        # both factors are below q < 2^26.1 (see _crt_primes): no overflow
        total += (z % q * pow(m, -1, q) % q).astype(object) * m
    total %= modulus
    return np.where(2 * total > modulus, total - modulus, total)


def _integer_product(plan: _Plan, cutoff: int, x, y, size, counter: OpCounter):
    """The product of two n x n int arrays (int64, or ``object`` arrays of
    Python ints) with entries at most ``size`` = (|X|, |Y|) in size, under
    ``plan``'s integer rows: an int64 array from one run, or an ``object``
    array of ints by CRT.  It is exact, or congruent to the exact product
    mod p for a mod-p plan.

    No operand, leaf partial sum or fold exceeds
    B = |X| |Y| c (|U| |V| |W|)^k in size, with c the leaf size, k the
    number of levels and |.| the largest row sum of |coefficient|.  Below
    2^53 the plan runs once on exact float64 values; a mod-p plan also runs
    once when a mod-p run fits (``_fits``), reducing only where a product
    could pass 2^53 - p.  Otherwise ``_crt_product`` rebuilds the integers.
    """
    leaf, k = _depth(len(x), cutoff)
    bound = size[0] * size[1] * leaf * prod(plan.norms) ** k
    p = plan.modulus
    if bound < _EXACT or p is not None and _fits(p, leaf, max(plan.norms)):
        return _pad_multiply_strip(plan, cutoff, x, y, max(size), counter)
    return _crt_product(plan.rows, cutoff, x, y, counter, bound)


def _rational_multiply(plan: _Plan, cutoff: int, a: MatN, b: MatN, counter: OpCounter):
    """Exact product of two rational n x n matrices, run on integers under
    the plan of a rational decomposition's cleared rows (see
    ``_coefficient_rows``), as (numerators, denominators) in lowest terms.

    Row i of A is cleared to integers by the lcm r_i of its denominators,
    and column j of B by c_j (``_cleared``).  Each of the k levels
    multiplies the product by the plan's ``scale``, so entry (i, j) of the
    integer product z (``_integer_product``) is r_i c_j scale^k times the
    exact entry, and is reduced by its gcd with that.  The reduction runs
    on int64 when z is an int64 array and every r_i c_j scale^k fits, and
    on ``object`` Python ints otherwise.
    """
    x, r = _cleared(a.values, a.denominators)
    yt, ct = _cleared(b.values.T, b.denominators.T)
    z = _integer_product(plan, cutoff, x, yt.T, (_top(x), _top(yt)), counter)
    scale = plan.scale ** _depth(len(x), cutoff)[1]
    if z.dtype == object or int(r.max()) * int(ct.max()) * scale > _INT64_MAX:
        z, r, ct = z.astype(object), r.astype(object), ct.astype(object)
    return _fitted(*_lowest_terms(z, r * ct.T * scale))


def _compiled(dec: BilinearDecomposition) -> _Plan:
    """The plan ``dec``'s products run on: its rows cleared to integers
    (``_coefficient_rows``), run mod p over GF(p) and exactly over the
    rationals.

    The first product with ``dec`` builds it and keeps it in the instance's
    ``__dict__``, next to the dataclass fields, so that ``==``, ``hash`` and
    ``repr`` do not see it and it lives and dies with ``dec``.  A new
    decomposition, even one equal to ``dec``, builds its own.
    """
    cache = vars(dec)
    plan = cache.get("_engine_plan")
    if plan is None:
        rows, scale = _coefficient_rows(dec)
        plan = _Plan(rows, getattr(dec.field, "modulus", None), scale)
        cache["_engine_plan"] = plan
    return plan


def strassen_multiply(
    dec: BilinearDecomposition,
    a: MatN,
    b: MatN,
    config: Optional[EngineConfig] = None,
):
    """Multiply via the 2x2-block recursion; returns (product, counter).

    Pads to the next power of two, runs the levels down to
    ``config.cutoff`` in block-recursive order, and strips the padding.  GF(p) and rational products
    run as integer products on float64 stacks (``_integer_product``; over
    GF(p) the residues are at most p - 1 in size), under the plan compiled
    once per decomposition (``_compiled``).  The operands are the matrices'
    arrays, of every dtype; a GF(p) product keeps their dtype, and a
    rational one is built canonical (``_rational_multiply``).  The result
    equals the classical product exactly, for every cutoff.
    """
    cfg = config if config is not None else EngineConfig()
    _check_pair(a, b)
    if a.field != dec.field:
        raise FieldMismatchError(
            f"matrices over {a.field.name} but decomposition over {dec.field.name}"
        )
    counter = OpCounter()
    plan = _compiled(dec)
    p = plan.modulus
    if p is None:
        num, den = _rational_multiply(plan, cfg.cutoff, a, b, counter)
        return MatN._canonical(a.field, num, den), counter
    z = _integer_product(plan, cfg.cutoff, a.values, b.values, (p - 1, p - 1), counter)
    # a CRT product is an object array, also where its residues fit int64
    return MatN._canonical(a.field, (z % p).astype(a.values.dtype, copy=False)), counter


@dataclass(frozen=True)
class BenchRow:
    n: int
    strassen_mults: int
    classical_mults: int
    strassen_ms: float
    classical_ms: float


# timed calls per bench column, after one warm-up call
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
    seed: int = 0,
) -> list:
    """Operation counts and wall-clock times of exact products on seeded
    random inputs of each requested size.

    The counts are those of one warm-up ``strassen_multiply`` at the
    configured cutoff (default 1, which makes the 7^k law observable), and
    ``strassen_ms`` is the median of ``_TIMED_REPEATS`` further calls.
    ``classical_ms`` times the same call at depth 0 (cutoff at the padded
    size): one leaf product, reduced like every other product.  Every
    size passes ``MatN.check_dimension`` before the first draw."""
    for n in sizes:
        MatN.check_dimension(n)
    config = config if config is not None else EngineConfig()
    rng = random.Random(seed)
    rows = []
    for n in sizes:
        a = MatN.random(dec.field, n, rng)
        b = MatN.random(dec.field, n, rng)
        _, counter = strassen_multiply(dec, a, b, config)
        strassen_ms = _median_ms(lambda: strassen_multiply(dec, a, b, config))
        classical = EngineConfig(cutoff=1 << (n - 1).bit_length())
        strassen_multiply(dec, a, b, classical)
        classical_ms = _median_ms(lambda: strassen_multiply(dec, a, b, classical))
        rows.append(BenchRow(n, counter.mults, n**3, strassen_ms, classical_ms))
    return rows


_BENCH_COLUMNS = ("n", "strassen_mults", "classical_mults", "strassen_ms", "classical_ms")


def _row_cells(row: BenchRow) -> list:
    return [str(row.n), str(row.strassen_mults), str(row.classical_mults),
            f"{row.strassen_ms:.3f}", f"{row.classical_ms:.3f}"]


def bench_text(rows: Sequence[BenchRow]) -> str:
    """Aligned-column rendering of a bench table."""
    table = [list(_BENCH_COLUMNS)] + [_row_cells(r) for r in rows]
    widths = [max(len(line[c]) for line in table) for c in range(len(_BENCH_COLUMNS))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table
    )


def bench_csv(rows: Sequence[BenchRow]) -> str:
    """Comma-separated records."""
    lines = [",".join(_BENCH_COLUMNS)]
    lines.extend(",".join(_row_cells(r)) for r in rows)
    return "\n".join(lines)
