"""Independent checkers for the derived identities.

These do not trust the derivation: they re-evaluate both sides of every
identity.  The 16 standard-unit pairs certify the bilinear identity for all
matrices by bilinearity (a complete proof, not a sample); the exhaustive
prime-field sweep certifies it matrix-by-matrix with no bilinearity
argument at all.  Only the table check reads ``construction.TABLE``; the
bilinear, trilinear and exhaustive checkers never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construction import (
    COL_HEADS,
    ROW_HEADS,
    TABLE,
    BilinearDecomposition,
    StrassenBasis,
    evaluate_words,
    standard_units,
)
from .fields import PrimeField
from .linalg import Mat2, vectors_rank

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


def verify_bilinear_identity(dec: BilinearDecomposition) -> VerificationReport:
    """Check XY = sum_k u_k(X) v_k(Y) W_k on all 16 pairs of matrix units.

    Both sides are bilinear in (X, Y), so agreement on the unit pairs
    certifies the identity for every pair of matrices over the field.
    """
    units = standard_units(dec.field)
    checks = 0
    for i, x in enumerate(units):
        for j, y in enumerate(units):
            checks += 1
            lhs = x @ y
            rhs = Mat2.zero(dec.field)
            for term in dec.terms:
                rhs = rhs + term.w.scale(term.u(x) * term.v(y))
            if lhs != rhs:
                failure = Failure(
                    f"unit pair ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]})",
                    i, j, lhs, rhs,
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
    trace(W_k Z), on all 64 triples of matrix units."""
    units = standard_units(dec.field)
    checks = 0
    for i, x in enumerate(units):
        for j, y in enumerate(units):
            for k, z in enumerate(units):
                checks += 1
                lhs = (x @ y @ z).trace()
                rhs = dec.field.zero()
                for term in dec.terms:
                    rhs = rhs + term.u(x) * term.v(y) * (term.w @ z).trace()
                if lhs != rhs:
                    failure = Failure(
                        f"unit triple ({_UNIT_NAMES[i]}, {_UNIT_NAMES[j]}, "
                        f"{_UNIT_NAMES[k]})",
                        i, j, lhs, rhs,
                    )
                    return _failed(checks, failure)
    return _passed(checks)


def count_seven_distinct(dec: BilinearDecomposition) -> bool:
    """True iff no W_k is a scalar multiple of another (pairwise rank-2
    check on the flattened matrices)."""
    flats = [t.w.flatten() for t in dec.terms]
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            if vectors_rank([flats[i], flats[j]]) != 2:
                return False
    return True
