"""Independent checkers for the derived identities.

These do not trust the derivation: they re-evaluate both sides of every
identity.  The 16 standard-unit pairs certify the bilinear identity for all
matrices by bilinearity (a complete proof, not a sample); they and the 64
unit triples of the trilinear check read one tensor, sum_k u_k (x) v_k (x)
W_k, against <2,2,2> built from index rules.  The exhaustive
prime-field sweep certifies it matrix-by-matrix with no bilinearity
argument at all.  Only the table check reads ``construction.TABLE``; the
bilinear, trilinear and exhaustive checkers never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .construction import (
    COL_HEADS,
    ROW_HEADS,
    TABLE,
    BilinearDecomposition,
    StrassenBasis,
    evaluate_words,
)
from .fields import PrimeField
from .linalg import Mat2

DEFAULT_PAIR_BUDGET = 10_000_000
# The sweep holds 19 int64 values per matrix of GF(p): its index, 4
# entries, and 7 u and 7 v forms.  Capping them at 2^24 (128 MiB) admits
# p <= 29, so every p the default budget allows (p <= 7) runs, and the
# sweep's sums of at most 7 products of residues stay far below 2^63.
_MAX_SWEEP_VALUES = 1 << 24


class FieldTooLargeError(ValueError):
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


def _passed(checks: int) -> VerificationReport:
    return VerificationReport(True, checks)


def _failed(checks: int, failure: Failure) -> VerificationReport:
    return VerificationReport(False, checks, failure)


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


def _unit_tensor(dec: BilinearDecomposition) -> list:
    """T[a][b][c] = sum_k u_k[a] v_k[b] W_k[c] on raw values: entry c of
    sum_k u_k(e_a) v_k(e_b) W_k for the matrix units e_a and e_b."""
    field, terms = dec.field, dec.terms
    u = [[t.u_coeffs[a].value for t in terms] for a in range(4)]
    vw = [[[field.mul(t.v_coeffs[b].value, t.w.entries[c].value) for t in terms]
           for c in range(4)] for b in range(4)]
    return [[[field.dot(u[a], vw[b][c]) for c in range(4)] for b in range(4)] for a in range(4)]


def verify_bilinear_identity(dec: BilinearDecomposition) -> VerificationReport:
    """Check XY = sum_k u_k(X) v_k(Y) W_k on all 16 pairs of matrix units.

    Both sides are bilinear in (X, Y), so agreement on the unit pairs
    certifies the identity for every pair of matrices over the field.
    """
    tensor = _unit_tensor(dec)
    for checks, (i, j) in enumerate(product(range(4), repeat=2), 1):
        if tensor[i][j] != _MATMUL[i][j]:
            failure = Failure(
                f"unit pair ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]})",
                i, j, Mat2(dec.field, _MATMUL[i][j]), Mat2(dec.field, tensor[i][j]),
            )
            return _failed(checks, failure)
    return _passed(checks)


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
    total_matrices = p**4
    total_pairs = total_matrices * total_matrices
    if total_pairs > budget:
        raise FieldTooLargeError(
            f"{total_pairs} pairs over gf({p}) exceed the budget of {budget}"
        )
    values = 19 * total_matrices
    if values > _MAX_SWEEP_VALUES:
        raise FieldTooLargeError(
            f"the sweep over gf({p}) would hold {values} int64 values, "
            f"more than its bound of {_MAX_SWEEP_VALUES}"
        )

    # index = a11*p^3 + a12*p^2 + a21*p + a22
    idx = np.arange(total_matrices, dtype=np.int64)
    mats = np.empty((total_matrices, 4), dtype=np.int64)
    for e in range(4):
        mats[:, 3 - e] = (idx // p**e) % p

    u_coeffs = np.array(
        [[c.value for c in t.u_coeffs] for t in dec.terms], dtype=np.int64
    )
    v_coeffs = np.array(
        [[c.value for c in t.v_coeffs] for t in dec.terms], dtype=np.int64
    )
    w_flat = np.array(
        [[c.value for c in t.w.flatten()] for t in dec.terms], dtype=np.int64
    )
    u_of = mats @ u_coeffs.T % p
    v_of = mats @ v_coeffs.T % p

    y11, y12, y21, y22 = (mats[:, k] for k in range(4))
    for i in range(total_matrices):
        x11, x12, x21, x22 = mats[i]
        lhs = np.stack(
            [
                x11 * y11 + x12 * y21,
                x11 * y12 + x12 * y22,
                x21 * y11 + x22 * y21,
                x21 * y12 + x22 * y22,
            ],
            axis=1,
        ) % p
        rhs = (u_of[i] * v_of % p) @ w_flat % p
        bad = np.nonzero((lhs != rhs).any(axis=1))[0]
        if bad.size:
            j = int(bad[0])
            checks = i * total_matrices + j + 1
            failure = Failure(
                f"gf({p}) matrix pair (#{i}, #{j})",
                i,
                j,
                Mat2(field, [int(v) for v in lhs[j]]),
                Mat2(field, [int(v) for v in rhs[j]]),
            )
            return _failed(checks, failure)
    return _passed(total_pairs)


def verify_multiplication_table(basis: StrassenBasis) -> VerificationReport:
    """Multiply every basis_x element by every basis_y element and compare
    against the signed words of ``construction.TABLE``, zero cells
    included."""
    signed = {0: Mat2.zero(basis.field)}
    for k, w in enumerate(evaluate_words(basis), 1):
        signed[k], signed[-k] = w, -w
    checks = 0
    for i, row_mat in enumerate(basis.basis_x):
        for j, col_mat in enumerate(basis.basis_y):
            checks += 1
            expected = signed[TABLE[i][j]]
            actual = row_mat @ col_mat
            if actual != expected:
                failure = Failure(
                    f"table cell ({ROW_HEADS[i]}) * ({COL_HEADS[j]})",
                    i, j, expected, actual,
                )
                return _failed(checks, failure)
    return _passed(checks)


def verify_trilinear(dec: BilinearDecomposition) -> VerificationReport:
    """Check trace(XYZ) = sum_k u_k(X) v_k(Y) w_k(Z) with w_k(Z) =
    trace(W_k Z), on all 64 triples of matrix units: the cyclic view of the
    bilinear check's tensor, read at the transposed entry of Z."""
    tensor = _unit_tensor(dec)
    for checks, (i, j, k) in enumerate(product(range(4), repeat=3), 1):
        lhs, rhs = _MATMUL[i][j][_TRANSPOSE[k]], tensor[i][j][_TRANSPOSE[k]]
        if lhs != rhs:
            failure = Failure(
                f"unit triple ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]}, {_UNIT_NAMES[k]})",
                i, j, dec.field(lhs), dec.field(rhs),
            )
            return _failed(checks, failure)
    return _passed(checks)
