"""Constructive derivation of a rank-7 bilinear 2x2 multiplication.

The pipeline: pick a rotation D (trace -1, determinant 1, non-scalar), a
column vector u that is not an eigenvector of D, form the perp row vector
u_perp (u_perp u = 0, u_perp D u = 1) and the nilpotent M = u u_perp.  M
and its two conjugates under D span the traceless matrices; adding D (resp.
D^-1) yields a basis for X (resp. Y).  The multiplication table of those
two bases is reduced from D^3 = 1, M^2 = 0, MDM = M and MD^-1M = -M, not
typed in, and groups XY into exactly seven summands u_k(X) v_k(Y) W_k.

Nothing eliminates: u_perp is (-u_y, u_x) / det[u | Du], the only division,
and the coordinate forms are integer combinations of the basis matrices,
read off the bases' trace pairing, which the table's word traces fix.
Every identity used along the way is re-verified with exact arithmetic at
construction time; nothing is trusted to algebra done on paper.  Checks
and products run on 2x2 matrices of cleared ints (``Field.clear``,
``linalg.matmul``, ``Field.is_zero``); each output entry is one ``Field.ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Optional, Sequence

from .fields import Field, FieldElement, FieldMismatchError, InputError, require_same_field
from .linalg import ColVec2, Mat2, RowVec2, matmul


class RotationError(InputError):
    """The candidate matrix cannot serve as the rotation D."""


class BadTraceError(RotationError):
    """Trace is not -1."""


class BadDeterminantError(RotationError):
    """Determinant is not 1."""


class ScalarMatrixError(RotationError):
    """The matrix is a scalar multiple of the identity (possible only in
    characteristic 3, where (x - 1)^2 = x^2 + x + 1)."""


class ZeroVectorError(InputError):
    """u = 0 admits no perp vector."""


class EigenvectorError(InputError):
    """u is an eigenvector of D, so the perp conditions are inconsistent."""


class InvariantError(RuntimeError):
    """An identity that must hold for valid inputs failed; this indicates a
    bug in the arithmetic backend, not bad input."""


@dataclass(frozen=True)
class Rotation:
    """A validated order-3 rotation: D with char poly x^2 + x + 1, plus its
    cached inverse (which equals D^2)."""

    d: Mat2
    d_inv: Mat2

    @property
    def field(self) -> Field:
        return self.d.field


@dataclass(frozen=True)
class PerpPair:
    """A column vector u with its perp row vector u_perp."""

    u: ColVec2
    u_perp: RowVec2


def _vanish(field: Field, *terms) -> bool:
    """Whether the entrywise sum of 4-tuples of ints is zero in ``field``."""
    return all(map(field.is_zero, map(sum, zip(*terms))))


def _elements(field: Field, ints, s: int) -> tuple:
    """The field elements n / s for the ints n, one ``Field.ratio`` each."""
    return tuple([FieldElement(field, field.ratio(n, s)) for n in ints])


def _mat(field: Field, ints, s: int) -> Mat2:
    """The 2x2 matrix ints / s, one ``Field.ratio`` per entry."""
    return Mat2._of(field, [field.ratio(n, s) for n in ints])


def validate_rotation(d: Mat2) -> Rotation:
    """Check trace/determinant/non-scalarity, take D^-1 = D^2 (x^2 + x + 1 = 0),
    then re-verify D^3 = id, id + D + D^-1 = 0 and trace(D^-1) = -1, all on
    D cleared to integers a with one factor c (``Field.clear``): D^k = a^k / c^k."""
    field = d.field
    a, c = field.clear([e.value for e in d.entries])
    a11, a12, a21, a22 = a
    if not field.is_zero(a11 + a22 + c):
        raise BadTraceError(f"trace is {field(field.ratio(a11 + a22, c))}, want -1")
    det = a11 * a22 - a12 * a21
    if not field.is_zero(det - c * c):
        raise BadDeterminantError(f"determinant is {field(field.ratio(det, c * c))}, want 1")
    if d.is_scalar():
        raise ScalarMatrixError("rotation must not be a multiple of the identity")
    a2, c2 = matmul(a, a), c * c
    if not _vanish(field, matmul(a, a2), (-c2 * c, 0, 0, -c2 * c)):
        raise InvariantError("D^3 != id")
    if not _vanish(field, (c2, 0, 0, c2), [c * e for e in a], a2):
        raise InvariantError("id + D + D^-1 != 0")
    if not field.is_zero(a2[0] + a2[3] + c2):
        raise InvariantError("trace(D^-1) != -1")
    return Rotation(d, _mat(field, a2, c2))


def default_rotation(field: Field) -> Rotation:
    """The companion matrix of x^2 + x + 1; valid over every field since it
    is never scalar."""
    return validate_rotation(Mat2(field, [0, -1, 1, -1]))


def perp_vector(rot: Rotation, u: ColVec2) -> PerpPair:
    """The row vector u_perp with u_perp u = 0 and u_perp D u = 1: the
    form u_perp(w) = det[u | w] / det[u | Du], i.e. (-u_y, u_x) / det[u | Du].
    The determinant vanishes exactly when u is an eigenvector of D (or
    zero).  It runs on D, D^-1 and u cleared with one factor c (``Field.clear``):
    det[u | Du] is scaled by c^3, so u_perp = (-u_y c^2, u_x c^2) / det.  Its
    three checks run on the u_perp returned, its values cleared to q / e."""
    field = rot.field
    if u.field != field:
        raise FieldMismatchError(f"u is over {u.field.name}, D over {field.name}")
    if u.is_zero():
        raise ZeroVectorError("u must be nonzero")
    ints, c = field.clear([*(e.value for m in (rot.d, rot.d_inv) for e in m.entries),
                           u.x.value, u.y.value])
    (d11, d12, d21, d22), (i11, i12, i21, i22), (ux, uy) = ints[:4], ints[4:8], ints[8:]
    dux, duy = d11 * ux + d12 * uy, d21 * ux + d22 * uy
    det = ux * duy - uy * dux
    if field.is_zero(det):
        raise EigenvectorError("u is an eigenvector of D")
    c2 = c * c
    u_perp = RowVec2._of(field, field.ratio(-uy * c2, det), field.ratio(ux * c2, det))
    (qx, qy), e = field.clear([u_perp.x.value, u_perp.y.value])
    if not (field.is_zero(qx * ux + qy * uy) and field.is_zero(qx * dux + qy * duy - e * c2)):
        raise InvariantError("perp vector fails its defining conditions")
    if not field.is_zero(qx * (i11 * ux + i12 * uy) + qy * (i21 * ux + i22 * uy) + e * c2):
        raise InvariantError("u_perp D^-1 u != -1")
    return PerpPair(u, u_perp)


def _default_perp(rot: Rotation) -> PerpPair:
    """The perp pair of the first of e1, e2, e1+e2 that is not an
    eigenvector of D.

    One of the three always works: if e1 and e2 were both eigenvectors, D
    would be diagonal, and e1+e2 on top of that forces equal eigenvalues,
    i.e. a scalar D, which validation rejects.
    """
    for candidate in ([1, 0], [0, 1], [1, 1]):
        try:
            return perp_vector(rot, ColVec2(rot.field, candidate))
        except EigenvectorError:
            continue
    raise InvariantError("no standard candidate vector avoids the eigenspaces")


def default_u(rot: Rotation) -> ColVec2:
    """First of e1, e2, e1+e2 that is not an eigenvector of D."""
    return _default_perp(rot).u


# The basis-product table, the single source of the algorithm, reduced from
# D^3 = 1 and M D^c M = _MDM[c] M.  Words are normal forms mod 3: (a,) is D^a,
# (a, b) is D^a M D^b.  TABLE[i][j] = +-k says ROW_HEADS[i] COL_HEADS[j], i.e.
# basis_x[i] basis_y[j], is +-W_WORDS[k - 1] (the terms in order), 0 for zero.
W_WORDS = ((0,), (0, 2), (2, 0), (1, 1), (1, 0), (0, 1), (2, 2))
ROW_HEADS = ((1,), (0, 0), (2, 1), (1, 2))
COL_HEADS = ((2,), (0, 0), (2, 1), (1, 2))
_MDM = (0, 1, -1)  # u_perp D^c u: M D^c M = _MDM[c] M, which build_basis checks
_POWERS = ("", "D", "D^-1")


def _product(x: tuple, y: tuple) -> tuple:
    """(sign, word) with x y = sign * word; sign 0 means x y = 0."""
    if len(x) == len(y) == 2:
        return _MDM[(x[1] + y[0]) % 3], (x[0], y[1])
    return 1, (*x[:-1], (x[-1] + y[0]) % 3, *y[1:])


def word_name(word: tuple) -> str:
    """Printed form of a normal form: "D*M*D^-1" for (1, 2), "id" for (0,)."""
    letters = (_POWERS[word[0]], "M", _POWERS[word[1]]) if len(word) == 2 else (_POWERS[word[0]],)
    return "*".join(filter(None, letters)) or "id"


TABLE = tuple(tuple(s and s * (W_WORDS.index(w) + 1) for s, w in row)
              for row in ([_product(x, y) for y in COL_HEADS] for x in ROW_HEADS))
# tr W_k for every valid (D, u): tr D^a = 2, -1, -1 and tr(D^a M D^b) = _MDM[a + b].
_TRACES = tuple((2, -1, -1)[w[0]] if len(w) == 1 else _MDM[sum(w) % 3] for w in W_WORDS)
# The trace pairing tr(basis_x[i] basis_y[j]), read off TABLE: det -1 and
# _PAIRING @ _PAIRING = id, so it is its own inverse.
_PAIRING = tuple(tuple(0 if not k else _TRACES[abs(k) - 1] * (1 if k > 0 else -1) for k in row)
                 for row in TABLE)


def _coordinate_forms(field: Field, xs: Sequence, ys: Sequence, s: int) -> tuple:
    """(forms_x, forms_y) over (x11, x12, x21, x22), scaled by s, for the
    bases basis_x = xs / s and basis_y = ys / s given as row-major 4-tuples
    of ints: x_i(X) = tr(B_i X) for B_i = sum_j H_ji basis_y[j], y_j(Y) =
    tr(C_j Y) for C_j = sum_i H_ji basis_x[i], with H = _PAIRING = H^-1 (a
    form is B_i's entries transposed).  Checks tr(basis_x[i] basis_y[j]) =
    H_ij first (InvariantError otherwise), which proves both bases
    non-degenerate as det H = -1."""
    for i, ((a11, a12, a21, a22), row) in enumerate(zip(xs, _PAIRING)):
        for j, ((b11, b12, b21, b22), h) in enumerate(zip(ys, row)):
            if not field.is_zero(a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22 - h * s * s):
                raise InvariantError(f"trace of basis product ({i}, {j}) is not {h}")
    def form(coeffs, rows):
        b11, b12, b21, b22 = (sum(map(mul, coeffs, entry)) for entry in zip(*rows))
        return b11, b21, b12, b22
    return (tuple(form(col, ys) for col in zip(*_PAIRING)),
            tuple(form(row, xs) for row in _PAIRING))


@dataclass(frozen=True)
class StrassenBasis:
    """The two derived bases of the 2x2 matrix space, proved non-degenerate
    by ``build_basis``.

    ``m`` is the nilpotent u u_perp; ``m1`` its conjugate D^-1 M D and
    ``m2`` the conjugate D M D^-1.  basis_x = (D, M, M1, M2) and
    basis_y = (D^-1, M, M1, M2).
    """

    rotation: Rotation
    m: Mat2
    m1: Mat2
    m2: Mat2

    @property
    def field(self) -> Field:
        return self.rotation.field

    @property
    def basis_x(self) -> tuple:
        return (self.rotation.d, self.m, self.m1, self.m2)

    @property
    def basis_y(self) -> tuple:
        return (self.rotation.d_inv, self.m, self.m1, self.m2)


def _cleared_basis(rot: Rotation, pp: PerpPair) -> tuple:
    """(letters, basis_x, forms_x, forms_y, s) on integers.  D, D^-1, u
    and u_perp are cleared with one factor c (``Field.clear``), so D and
    D^-1 are scaled by c and M = u u_perp by c^2: ``letters`` holds the
    three as (ints, scale) pairs.  The nilpotency, simplification and
    traceless checks run on their integer products; basis_x and the
    coordinate forms come as row-major 4-tuples of ints scaled by s = c^4."""
    field = rot.field
    require_same_field(field, pp.u.field)
    require_same_field(field, pp.u_perp.field)
    ints, c = field.clear([*(e.value for m in (rot.d, rot.d_inv) for e in m.entries),
                           pp.u.x.value, pp.u.y.value, pp.u_perp.x.value, pp.u_perp.y.value])
    d, d_inv, (ux, uy, px, py) = ints[:4], ints[4:8], ints[8:]
    m = (ux * px, ux * py, uy * px, uy * py)
    md, md_inv = matmul(m, d), matmul(m, d_inv)
    c2, c3 = c * c, c * c * c
    if not _vanish(field, matmul(m, m)):
        raise InvariantError("M^2 != 0")
    if not _vanish(field, matmul(md, m), [-c3 * e for e in m]):
        raise InvariantError("M D M != M")
    if not _vanish(field, matmul(md_inv, m), [c3 * e for e in m]):
        raise InvariantError("M D^-1 M != -M")
    m1, m2 = matmul(d_inv, md), matmul(d, md_inv)
    if not all(field.is_zero(x[0] + x[3]) for x in (m, m1, m2)):
        raise InvariantError("M or a conjugate is not traceless")
    conjugates = ([c2 * e for e in m], m1, m2)
    basis_x, basis_y = ([c3 * e for e in d], *conjugates), ([c3 * e for e in d_inv], *conjugates)
    forms_x, forms_y = _coordinate_forms(field, basis_x, basis_y, c3 * c)
    return ((d, c), (d_inv, c), (m, c2)), basis_x, forms_x, forms_y, c3 * c


def build_basis(rot: Rotation, pp: PerpPair) -> StrassenBasis:
    """Form M = u u_perp and its conjugates, verifying the nilpotency and
    simplification identities.  Checking the trace pairing of the two bases
    against ``_PAIRING`` (det -1, read off TABLE) proves them non-degenerate
    in every characteristic; their dual bases stay the integer coordinate
    forms of ``_cleared_basis``, which only the derivation reads."""
    field = rot.field
    _, basis_x, _, _, s = _cleared_basis(rot, pp)
    return StrassenBasis(rot, *(_mat(field, x, s) for x in basis_x[1:]))


@dataclass(frozen=True)
class Term:
    """One summand of the decomposition: scalar forms u, v (coefficients in
    the standard dual basis, ordered by x11, x12, x21, x22) and the matrix W."""

    u_coeffs: tuple
    v_coeffs: tuple
    w: Mat2


@dataclass(frozen=True)
class Provenance:
    """The (D, u) pair a decomposition was derived from."""

    d: Mat2
    u: ColVec2


@dataclass(frozen=True)
class BilinearDecomposition:
    """A list of (u_k, v_k, W_k) terms asserting XY = sum u_k(X) v_k(Y) W_k.

    Immutable after creation; holding rank 7 is the normal case but not an
    invariant, so that files carrying other bilinear algorithms can still be
    parsed and verified (the recursion engine rejects rank != 7).
    """

    field: Field
    terms: tuple
    provenance: Optional[Provenance] = None

    @property
    def rank(self) -> int:
        return len(self.terms)


def _term_forms(table) -> tuple:
    """Group the cells of each word in ``table`` into one term: cells
    sharing row i give u = x_i, v = sum of +-y_j; cells sharing column j
    give u = sum of +-x_i, v = y_j.  Forms are (sign, index) tuples."""
    forms = []
    for k, word in enumerate(W_WORDS, 1):
        cells = [(i, j, e // k) for i, row in enumerate(table) for j, e in enumerate(row)
                 if abs(e) == k]
        rows, cols = {i for i, _, _ in cells}, {j for _, j, _ in cells}
        if len(rows) == 1:
            forms.append((((1, rows.pop()),), tuple((s, j) for _, j, s in cells)))
        elif len(cols) == 1:
            forms.append((tuple((s, i) for i, _, s in cells), ((1, cols.pop()),)))
        else:
            raise InvariantError(f"cells of {word_name(word)} share no row or column")
    return tuple(forms)


_TERM_FORMS = _term_forms(TABLE)


def cell_name(entry: int) -> str:
    """Printed form of a TABLE entry: the signed word, or 0."""
    return ("-" if entry < 0 else "") + word_name(W_WORDS[abs(entry) - 1]) if entry else "0"


def evaluate_words(d: tuple, d_inv: tuple, m: tuple) -> tuple:
    """The matrices of W_WORDS from D, D^-1 and M, each given and returned
    as an (ints, scale) pair: a row-major 4-tuple of ints and the one
    denominator they share.  No D^0 factor is multiplied."""
    powers = (None, d, d_inv)  # powers[a] = D^a, D^0 left out
    spelled = ((powers[w[0]], m, powers[w[1]]) if len(w) == 2 else (powers[w[0]],) for w in W_WORDS)
    return tuple(reduce(lambda x, y: (matmul(x[0], y[0]), x[1] * y[1]),
                        [f for f in fs if f is not None] or [((1, 0, 0, 1), 1)]) for fs in spelled)


def _signed_sum(forms: tuple, spec: tuple) -> tuple:
    """The sum of sign * forms[i] over the (sign, i) pairs of ``spec``."""
    return tuple(map(sum, zip(*([sign * e for e in forms[i]] for sign, i in spec))))


def derive_decomposition(rot: Rotation, pp: PerpPair) -> BilinearDecomposition:
    """Produce the seven terms by grouping the product of the two basis
    expansions according to the multiplication table.

    The coordinate forms x_i (of X in basis_x) and y_j (of Y in basis_y)
    are the dual bases, read off the trace pairing of the two bases while
    they are proved non-degenerate (``_cleared_basis``).
    """
    field = rot.field
    letters, _, forms_x, forms_y, s = _cleared_basis(rot, pp)
    terms = tuple(
        Term(_elements(field, _signed_sum(forms_x, u_spec), s),
             _elements(field, _signed_sum(forms_y, v_spec), s), _mat(field, *w))
        for (u_spec, v_spec), w in zip(_TERM_FORMS, evaluate_words(*letters))
    )
    return BilinearDecomposition(field, terms, Provenance(rot.d, pp.u))
