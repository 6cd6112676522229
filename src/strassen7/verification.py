"""Independent checkers for the derived identities.

These do not trust the derivation: they re-evaluate both sides of every
identity.  The 16 standard-unit pairs certify the bilinear identity for all
matrices by bilinearity (a complete proof, not a sample); they and the 64
unit triples of the trilinear check read one tensor, sum_k u_k (x) v_k (x)
W_k, against <2,2,2> built from index rules.  The tensor is summed on
Python ints, from coefficients cleared of their denominators, and each
entry is compared once in the field; field values are built only for a
failure report, each by one ``Field.ratio`` of a sum and the
denominator.  The exhaustive prime-field sweep certifies the identity
pair by pair with no bilinearity argument at all: chunked float32 matrix
products give lhs - rhs for every pair, integers below 2^24 and so exact,
and one exact divisibility test per entry compares the sides mod p.  The
table check clears the bases' entries like the tensor's and forms the
seven words itself from their D, D^-1 and M, so its cells and words are
products of Python ints; it reads no derivation output but the basis.

Only the table check reads ``construction.TABLE``; the bilinear,
trilinear and exhaustive checkers never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import mul
from typing import Optional

import numpy as np

from .construction import (
    COL_HEADS,
    ROW_HEADS,
    TABLE,
    W_WORDS,
    BilinearDecomposition,
    StrassenBasis,
    word_name,
)
from .fields import Field, InputError, PrimeField
from .linalg import Mat2, matmul

DEFAULT_PAIR_BUDGET = 10_000_000
# For rank r the sweep holds 5 + 2r values per matrix of GF(p): its int64
# index (8 bytes), and in float32 (4 bytes) its 4 entries and its r u and r
# v forms.  Capping them at 2^24 (at most 77 MiB) admits p <= 29 at rank 7,
# so every p the default budget allows (p <= 7) runs.  The cap also keeps
# every value of the sweep an integer below 2^24, exact in float32 (see
# verify_exhaustive_gf).  A chunk adds about 0.6 MiB, whatever p.  The cap
# bounds the sweep only: matrices have their own, engine._MAX_ENTRIES.
_MAX_SWEEP_VALUES = 1 << 24
# Matrix pairs per float32 product.  On a 2-vCPU VM, 2^14 ran gf(5) and
# gf(7) fastest with OpenBLAS's default threads and with one thread.
_CHUNK_PAIRS = 1 << 14


class FieldTooLargeError(InputError):
    """The exhaustive sweep would exceed the pair budget or its memory bound."""


@dataclass(frozen=True)
class Failure:
    """First counterexample found: which inputs, what was expected, what
    came out.  Deterministic iteration order makes it reproducible."""

    description: str
    x_index: int
    y_index: int
    expected: object
    actual: object


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks_run: int
    first_failure: Optional[Failure] = None

    def __post_init__(self):
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must mean no failure recorded")

    def render(self) -> str:
        if self.passed:
            return f"passed, {self.checks_run} checks"
        f = self.first_failure
        return (
            f"FAILED after {self.checks_run} checks at {f.description}: "
            f"expected {f.expected}, got {f.actual}"
        )

    def to_dict(self) -> dict:
        out: dict = {"passed": self.passed, "checks_run": self.checks_run}
        if self.first_failure is not None:
            f = self.first_failure
            out["first_failure"] = {
                "description": f.description,
                "x_index": f.x_index,
                "y_index": f.y_index,
                "expected": str(f.expected),
                "actual": str(f.actual),
            }
        return out


_UNIT_NAMES = ("e11", "e12", "e21", "e22")
# trace(W e_rs) = W_sr: the row-major index of the transposed entry.
_TRANSPOSE = (0, 2, 1, 3)


def _matmul_tensor() -> list:
    """<2,2,2> on row-major entry indices: x_ij * y_jk contributes to z_ik."""
    t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, k in product(range(2), repeat=3):
        t[2 * i + j][2 * j + k][2 * i + k] = 1
    return t


_MATMUL = _matmul_tensor()


def _unit_tensor(dec: BilinearDecomposition) -> tuple:
    """(T, d): d >= 1 and T[a][b][c] = d sum_k u_k[a] v_k[b] W_k[c], entry
    c of d sum_k u_k(e_a) v_k(e_b) W_k for the matrix units e_a and e_b.

    The u, v and W values of all terms are cleared once each
    (``Field.clear``), so T is summed on Python ints and d is the product
    of the three denominators: 1 over GF(p), where the checkers reduce T.
    """
    field, terms = dec.field, dec.terms
    u, du = field.clear([c.value for t in terms for c in t.u_coeffs])
    v, dv = field.clear([c.value for t in terms for c in t.v_coeffs])
    w, dw = field.clear([e.value for t in terms for e in t.w.entries])
    vw = [[list(map(mul, v[b::4], w[c::4])) for c in range(4)] for b in range(4)]
    tensor = [[[sum(map(mul, u[a::4], vw[b][c])) for c in range(4)] for b in range(4)]
              for a in range(4)]
    return tensor, du * dv * dw


def _differs(field: Field, t: int, d: int, want: int) -> bool:
    """Whether the cleared entry t / d differs from ``want`` in ``field``."""
    return not field.is_zero(t - d * want)


def verify_bilinear_identity(dec: BilinearDecomposition) -> VerificationReport:
    """Check XY = sum_k u_k(X) v_k(Y) W_k on all 16 pairs of matrix units.

    Both sides are bilinear in (X, Y), so agreement on the unit pairs
    certifies the identity for every pair of matrices over the field.
    """
    field = dec.field
    tensor, d = _unit_tensor(dec)
    for checks, (i, j) in enumerate(product(range(4), repeat=2), 1):
        if any(_differs(field, t, d, m) for t, m in zip(tensor[i][j], _MATMUL[i][j])):
            actual = [field.ratio(t, d) for t in tensor[i][j]]
            failure = Failure(
                f"unit pair ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]})",
                i, j, Mat2(field, _MATMUL[i][j]), Mat2(field, actual),
            )
            return VerificationReport(False, checks, failure)
    return VerificationReport(True, checks)


def _pair_failure(dec: BilinearDecomposition, p: int, i: int, j: int) -> Failure:
    """Both sides at matrix pair (#i, #j), evaluated on Python ints."""
    x, y = ([k // p**e % p for e in (3, 2, 1, 0)] for k in (i, j))
    lhs = [x[2 * a] * y[b] + x[2 * a + 1] * y[2 + b] for a, b in product(range(2), repeat=2)]
    rhs = [0] * 4
    for t in dec.terms:
        uv = sum(c.value * e for c, e in zip(t.u_coeffs, x)) * sum(
            c.value * e for c, e in zip(t.v_coeffs, y)
        )
        rhs = [s + uv * w.value for s, w in zip(rhs, t.w.flatten())]
    return Failure(
        f"gf({p}) matrix pair (#{i}, #{j})", i, j, Mat2(dec.field, lhs), Mat2(dec.field, rhs)
    )


def verify_exhaustive_gf(
    dec: BilinearDecomposition, budget: int = DEFAULT_PAIR_BUDGET
) -> VerificationReport:
    """Brute-force the identity over ALL p^4 x p^4 matrix pairs of GF(p).

    Independent of the bilinearity argument.  Matrices are enumerated in
    lexicographic row-major entry order, so the first failure is stable.
    """
    field = dec.field
    if not isinstance(field, PrimeField):
        raise TypeError(f"exhaustive sweep requires a prime field, got {field.name}")
    p = field.modulus
    n = p**4
    total_pairs = n * n
    if total_pairs > budget:
        raise FieldTooLargeError(
            f"{total_pairs} pairs over gf({p}) exceed the budget of {budget}"
        )
    r = dec.rank
    values = (5 + 2 * r) * n
    if values > _MAX_SWEEP_VALUES:
        raise FieldTooLargeError(
            f"the sweep over gf({p}) would hold {values} float32 and int64 values, "
            f"more than its bound of {_MAX_SWEEP_VALUES}"
        )

    u, v, w = np.array(
        [[c.value for c in t.u_coeffs + t.v_coeffs + t.w.flatten()] for t in dec.terms],
        dtype=np.float32,
    ).reshape(r, 3, 4).transpose(1, 0, 2)
    # Matrix #y has the entries (a11, a12, a21, a22), the base-p digits of
    # y.  right[:4, y] holds them and right[4:, y] its v_k(Y) mod p; u_of[:,
    # x] holds u_k(X) mod p.  The digits are peeled off the index and the
    # forms reduced in place, so no temporary outgrows the count above.
    index = np.arange(n, dtype=np.int64)
    right = np.empty((4 + r, n), dtype=np.float32)
    for e in (3, 2, 1, 0):
        np.remainder(index, p, out=right[e])
        index //= p
    np.matmul(v, right[:4], out=right[4:])
    np.remainder(right[4:], p, out=right[4:])
    u_of = u @ right[:4]
    np.remainder(u_of, p, out=u_of)

    # The row of ``left`` for (X, e = (a, b)) puts x_a1, x_a2 against y_1b,
    # y_2b and -u_k(X) W_k[e] against v_k(Y), so one matmul gives d = lhs -
    # rhs of entry e for every pair of the chunk.  d is an integer sum of
    # products of residues in [0, p) whose partial sums, in whatever order
    # BLAS adds them, stay below 2(p-1)^2 + r(p-1)^3 < 2^24 in magnitude
    # (the memory bound gives (5 + 2r) p^4 <= 2^24): integers that float32
    # holds exactly.  q = d / p is correctly rounded, so it is an integer
    # when p divides d.  Otherwise the exact quotient lies 1/p or more from
    # every integer, and the rounding error, at most 2^-24 |d| / p, is less
    # than 1/p: q cannot round onto an integer.
    rows = max(1, _CHUNK_PAIRS // n)  # X matrices per chunk
    cols = min(n, _CHUNK_PAIRS // rows)  # Y matrices per chunk
    left = np.zeros((rows, 4, 4 + r), dtype=np.float32)
    minus_w = -w.T
    q_buf, t_buf = np.empty((2, 4 * rows, cols), dtype=np.float32)
    bad_buf = np.empty((4 * rows, cols), dtype=bool)
    divisor = np.float32(p)
    for x0 in range(0, n, rows):
        xs = right[:4, x0:x0 + rows].T
        c = len(xs)
        chunk = left[:c]
        for a, b in product(range(2), repeat=2):
            chunk[:, 2 * a + b, b] = xs[:, 2 * a]
            chunk[:, 2 * a + b, 2 + b] = xs[:, 2 * a + 1]
        np.multiply(u_of[:, x0:x0 + c].T[:, None, :], minus_w, out=chunk[:, :, 4:])
        flat = chunk.reshape(4 * c, 4 + r)
        for y0 in range(0, n, cols):
            ys = right[:, y0:y0 + cols]
            width = ys.shape[1]
            q, t, bad = (buf[:4 * c, :width] for buf in (q_buf, t_buf, bad_buf))
            np.matmul(flat, ys, out=q)
            np.divide(q, divisor, out=q)
            np.not_equal(q, np.trunc(q, out=t), out=bad)
            if bad.any():
                k = int(np.flatnonzero(bad.reshape(c, 4, width).any(axis=1))[0])
                i, j = x0 + k // width, y0 + k % width
                return VerificationReport(False, i * n + j + 1, _pair_failure(dec, p, i, j))
    return VerificationReport(True, total_pairs)


def verify_multiplication_table(basis: StrassenBasis) -> VerificationReport:
    """Multiply every basis_x element by every basis_y element and compare
    against the signed words of ``construction.TABLE``, zero cells
    included.

    The 32 entries of the two bases are cleared once (``Field.clear``) to
    ints over one denominator d.  The words are formed from those of D =
    basis_x[0], D^-1 = basis_y[0] and M = basis_x[1], a word of k letters
    over d^k, so every product runs on Python ints and d^k (X Y) is
    compared with d^2 (+-W) in the field; field values are built only for
    a failing cell.
    """
    field = basis.field
    ints, d = field.clear([e.value for m in (*basis.basis_x, *basis.basis_y) for e in m.entries])
    x, y = ([ints[k:k + 4] for k in range(start, start + 16, 4)] for start in (0, 16))
    powers = (None, x[0], y[0])  # d D^a, D^0 left out
    signed = {0: ((0, 0, 0, 0), 1)}
    for k, word in enumerate(W_WORDS, 1):
        spelled = (powers[word[0]], x[1], powers[word[1]]) if len(word) == 2 else (powers[word[0]],)
        letters = [f for f in spelled if f is not None]
        w = reduce(matmul, letters or [(1, 0, 0, 1)])
        signed[k], signed[-k] = (w, d ** len(letters)), ([-e for e in w], d ** len(letters))
    d2 = d * d
    for checks, (i, j) in enumerate(product(range(4), repeat=2), 1):
        cell = matmul(x[i], y[j])
        expected, e = signed[TABLE[i][j]]
        if any(_differs(field, t * e, d2, w) for t, w in zip(cell, expected)):
            failure = Failure(
                f"table cell ({word_name(ROW_HEADS[i])}) * ({word_name(COL_HEADS[j])})", i, j,
                Mat2(field, [field.ratio(w, e) for w in expected]),
                Mat2(field, [field.ratio(t, d2) for t in cell]),
            )
            return VerificationReport(False, checks, failure)
    return VerificationReport(True, checks)


def verify_trilinear(dec: BilinearDecomposition) -> VerificationReport:
    """Check trace(XYZ) = sum_k u_k(X) v_k(Y) w_k(Z) with w_k(Z) =
    trace(W_k Z), on all 64 triples of matrix units: the cyclic view of the
    bilinear check's tensor, read at the transposed entry of Z."""
    field = dec.field
    tensor, d = _unit_tensor(dec)
    for checks, (i, j, k) in enumerate(product(range(4), repeat=3), 1):
        lhs, rhs = _MATMUL[i][j][_TRANSPOSE[k]], tensor[i][j][_TRANSPOSE[k]]
        if _differs(field, rhs, d, lhs):
            failure = Failure(
                f"unit triple ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]}, {_UNIT_NAMES[k]})",
                i, j, field(lhs), field(field.ratio(rhs, d)),
            )
            return VerificationReport(False, checks, failure)
    return VerificationReport(True, checks)
