"""The benchmark's workloads: inputs generated from a seed, the timed op,
the exact check of each op's output, and the per-layer probes of a traced
op.

A workload is built by ``WORKLOADS[name](seed, workdir, perturb)``.  Ops
cycle through its ``pool`` distinct inputs; ``cycle`` is the number of
consecutive ops that together cover the workload's input mix once.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial

from strassen7 import (
    BilinearDecomposition,
    ColVec2,
    EngineConfig,
    Mat2,
    MatN,
    PrimeField,
    Term,
    build_basis,
    classical_multiply,
    default_rotation,
    default_u,
    derive_decomposition,
    parse,
    parse_field,
    parse_matrix,
    perp_vector,
    serialize,
    strassen_multiply,
    validate_rotation,
    verify_bilinear_identity,
    verify_exhaustive_gf,
    verify_multiplication_table,
    verify_trilinear,
)
from strassen7.cli import cli_main

DERIVE_FIELDS = ("rational", "gf(2)", "gf(3)", "gf(5)", "gf(7)")
EXHAUSTIVE_MAX_P = 5  # gf(7) would sweep 5.8M pairs, about 1 s per op
CLI_N = 4


class CheckFailed(Exception):
    """An op returned a wrong result or a failed verdict."""


def perturbed(dec: BilinearDecomposition) -> BilinearDecomposition:
    """``dec`` with one scalar changed: the first u coefficient of the
    first term, plus one."""
    t = dec.terms[0]
    first = Term((t.u_coeffs[0] + 1,) + t.u_coeffs[1:], t.v_coeffs, t.w)
    return BilinearDecomposition(dec.field, (first,) + dec.terms[1:], dec.provenance)


def _field_arith(field_text: str, rng: random.Random):
    """(draw, inv, reduce) over raw ints mod p or Fractions, independent of
    the library so that inputs stay fixed while the library changes."""
    if field_text == "rational":
        def draw(nonzero=False):
            while True:
                v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                if v or not nonzero:
                    return v
        return draw, lambda v: 1 / v, lambda v: v
    p = int(field_text[3:-1])

    def draw(nonzero=False):
        return rng.randrange(1 if nonzero else 0, p)
    return draw, lambda v: pow(v, -1, p), lambda v: v % p


def random_rotation_text(field_text: str, rng: random.Random):
    """A random valid (D, u) as canonical scalar text.

    D = [[a, b], [c, -1-a]] with b != 0 has trace -1, is not scalar, and
    has determinant 1 once c = (-1 - a - a^2) / b.  u is redrawn until it
    is not an eigenvector of D, i.e. det[u, Du] != 0.
    """
    draw, inv, reduce = _field_arith(field_text, rng)
    a, b = draw(), draw(nonzero=True)
    d = [a, b, reduce((-1 - a - a * a) * inv(b)), reduce(-1 - a)]
    while True:
        x, y = draw(), draw()
        if reduce(x * (d[2] * x + d[3] * y) - y * (d[0] * x + d[1] * y)) != 0:
            return [str(v) for v in d], [str(x), str(y)]


def _probe(tr, field, xs, ys, rows, cols):
    """Timed field ops on the op's own operands and Mat2 products of its
    rotation and basis matrices."""
    mul, add = field.mul, field.add
    tr.call("fields.mul", lambda: [mul(x, y) for x, y in zip(xs, ys)])
    tr.note(calls=len(xs))
    tr.call("fields.add", lambda: [add(x, y) for x, y in zip(xs, ys)])
    tr.note(calls=len(xs))
    tr.call("fields.dot", field.dot, xs, ys)
    tr.note(terms=len(xs))
    tr.call("linalg.Mat2.__matmul__", lambda: [x @ y for x in rows for y in cols])
    tr.note(calls=len(rows) * len(cols))


class EngineWorkload:
    """One exact n x n product per op through the rank-7 recursion, from
    the default (D, u) over one field, checked against the classical
    product."""

    cycle = 1
    pool = 120  # every op costs the same, so a few distinct products suffice

    def __init__(self, field_text, n, cutoff, seed, workdir, perturb=False):
        field = parse_field(field_text)
        rot = default_rotation(field)
        pp = perp_vector(rot, default_u(rot))
        dec = derive_decomposition(rot, pp)
        self.dec = perturbed(dec) if perturb else dec
        self.basis = build_basis(rot, pp)
        self.config = EngineConfig(cutoff=cutoff)
        draw = _field_arith(field_text, random.Random(seed))[0]

        def matrix():
            return MatN(field, [[draw() for _ in range(n)] for _ in range(n)])

        self.inputs = [(matrix(), matrix()) for _ in range(self.pool)]

    def op(self, i, tr):
        a, b = self.inputs[i % self.pool]
        product, counter = tr.call(
            "engine.strassen_multiply", strassen_multiply, self.dec, a, b, self.config
        )
        tr.note(mults=counter.mults, adds=counter.adds, classical_mults=a.n**3)
        return product, counter

    def check(self, i, result, tr):
        a, b = self.inputs[i % self.pool]
        if result[0] != tr.call("engine.classical_multiply", classical_multiply, a, b):
            raise CheckFailed("product differs from classical_multiply")

    def probe(self, i, result, tr):
        a, b = self.inputs[i % self.pool]
        xs = [e for row in a.rows for e in row]
        ys = [e for row in b.rows for e in row]
        _probe(tr, a.field, xs, ys, self.basis.basis_x, self.basis.basis_y)


class DeriveVerifyWorkload:
    """One derive -> verify -> multiply pipeline per op, from a random
    valid (D, u) given as scalar text over a field drawn from
    ``DERIVE_FIELDS``.  Every block of ``cycle`` ops holds each field once,
    in a seeded order, so the field mix of a run does not vary."""

    cycle = len(DERIVE_FIELDS)
    # more than a run's ops: op times vary with (D, u), and op_ms_p50 lies
    # between the clusters of two fields, so it needs every input fresh
    pool = 600

    def __init__(self, seed, workdir, perturb=False):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.pool // self.cycle):
            order = list(DERIVE_FIELDS)
            rng.shuffle(order)
            self.inputs.extend((f,) + random_rotation_text(f, rng) for f in order)
        self.transform = perturbed if perturb else (lambda dec: dec)
        self.path = workdir / "decomposition.json"

    def op(self, i, tr):
        field_text, d_text, u_text = self.inputs[i % self.pool]
        call = tr.call
        field = call("fields.parse_field", parse_field, field_text)
        d = call("linalg.Mat2", Mat2, field,
                 [call("fields.parse_scalar", field.parse_scalar, t) for t in d_text])
        u = call("linalg.ColVec2", ColVec2, field,
                 [call("fields.parse_scalar", field.parse_scalar, t) for t in u_text])
        rot = call("construction.validate_rotation", validate_rotation, d)
        pp = call("construction.perp_vector", perp_vector, rot, u)
        dec = self.transform(
            call("construction.derive_decomposition", derive_decomposition, rot, pp)
        )
        text = call("fileformat.serialize", serialize, dec)
        tr.note(bytes=len(text.encode()))
        parsed = call("fileformat.parse", parse, text)
        verdicts = {}

        def verify(name, fn, arg):
            verdicts[name] = call(f"verification.{fn.__name__}", fn, arg)
            tr.note(checks=verdicts[name].checks_run)

        verify("bilinear", verify_bilinear_identity, parsed)
        verify("trilinear", verify_trilinear, parsed)
        basis = call("construction.build_basis", build_basis, rot, pp)
        verify("table", verify_multiplication_table, basis)
        if isinstance(field, PrimeField) and field.modulus <= EXHAUSTIVE_MAX_P:
            verify("exhaustive", verify_exhaustive_gf, parsed)
        self.path.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out):
            code = call("cli.cli_main", cli_main, [
                "multiply", str(self.path), "--random", str(CLI_N), "--seed", str(i % self.pool),
            ])
        return field, basis, dec, parsed, verdicts, code, out.getvalue()

    def check(self, i, result, tr):
        field, _, dec, parsed, verdicts, code, stdout = result
        if parsed != dec:
            raise CheckFailed("parse(serialize(dec)) != dec")
        expected = {"bilinear": 16, "trilinear": 64, "table": 16}
        if "exhaustive" in verdicts:
            expected["exhaustive"] = field.modulus**8
        for name, report in verdicts.items():
            if not report.passed or report.checks_run != expected[name]:
                raise CheckFailed(f"{name}: {report.render()}, want {expected[name]} checks")
        if code != 0:
            raise CheckFailed(f"cli multiply exited {code}")
        # the CLI draws A then B from random.Random(seed)
        rng = random.Random(i % self.pool)
        a = MatN.random(field, CLI_N, rng)
        b = MatN.random(field, CLI_N, rng)
        printed = parse_matrix(stdout.split("scalar multiplications:")[0])
        if printed != tr.call("engine.classical_multiply", classical_multiply, a, b):
            raise CheckFailed("cli product differs from classical_multiply")

    def probe(self, i, result, tr):
        field, basis, dec = result[:3]
        xs = [c.value for t in dec.terms for c in t.u_coeffs + t.v_coeffs + t.w.flatten()]
        _probe(tr, field, xs, xs[::-1], basis.basis_x, basis.basis_y)


WORKLOADS = {
    "gf-deep": partial(EngineWorkload, "gf(5)", 16, 1),
    "rational-padded": partial(EngineWorkload, "rational", 12, 4),
    "derive-verify": DeriveVerifyWorkload,
}
