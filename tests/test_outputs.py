"""Golden outputs: over every exact field, the CLI's derive files and its
derive, table and verify --json stdout hash to recorded digests; over
gf(2), gf(3) and gf(5), so do the exhaustive sweep's reports; and over
every exact field, so do ``DERIVATION_CASES`` seeded derivations made
in-process.

Each field runs the default (D, u) and ``RANDOM_CASES`` seeded random
(D, u); each case also verifies a copy of its file with one scalar bumped,
so the first-failure text is covered too.  Inputs are drawn with plain int
and ``Fraction`` arithmetic, so they stay fixed while the library changes.
A change that moves one output byte fails here; a change that means to
must record the new digests and why.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import perturb_decomposition
from strassen7.cli import cli_main
from strassen7.construction import derive_decomposition, perp_vector, validate_rotation
from strassen7.fields import parse_field
from strassen7.fileformat import parse, serialize
from strassen7.linalg import ColVec2, Mat2
from strassen7.verification import verify_exhaustive_gf

RANDOM_CASES = 20
FIELDS = ("rational", "gf(2)", "gf(3)", "gf(5)", "gf(7)")

# sha256 of every case's outputs in order, each followed by a NUL byte
DIGESTS = {
    "rational": "a62780ee5b827661aedff34d305fc0ec2fb71df7961c807b2e04296d336fac99",
    "gf(2)": "499f2333d64c6277c2172a9de1856ae5c7e2ac4df7aebfeaebef15a515cbac84",
    "gf(3)": "89893fd98efe0885291985ca881695ad21772b66f1bbfd46a0216d31a8dd612c",
    "gf(5)": "973e906bb0b0cd655c110a1951f48bb9eee0cfbbfed55dd2fa913d8885f6460d",
    "gf(7)": "6fca6778d090125c9b036d03a7194394b829049df303c53454ca2146acbe3819",
}

SWEEP_FIELDS = ("gf(2)", "gf(3)", "gf(5)")
# sha256 of verify_exhaustive_gf's render() and to_dict() JSON for every case
SWEEP_DIGESTS = {
    "gf(2)": "9e91dde23d9102301f74585544b94afd43281209c21cac96db38dcaae044c86a",
    "gf(3)": "ecc7929a6d4e9830564d714a09fda95ea0a3f30dc82c8f6a5f939a27ded91768",
    "gf(5)": "24d0d3650cb6b4c4f812b0f97de6f1567c490e01b526742f4b601365a983b0f8",
}

DERIVATION_CASES = 320
# sha256 of serialize(derive_decomposition(D, u)) for every seeded (D, u)
DERIVATION_DIGESTS = {
    "rational": "450b150c4e2edb1521c7fbfcab14a714f1c7a81b999360055929392230a14417",
    "gf(2)": "ff738f3aacac0dbbf32443142cfabe6694fc0f7051d6b85442261187d5199828",
    "gf(3)": "b2eb208224e835e141bfac06c37ee8ba1edf74e07b60ee5376a40d4bf10ae7b5",
    "gf(5)": "eaa64a8928bfab60c7c3dd4003dc71b8e652842db0c3c01a19d5346b5c4f015f",
    "gf(7)": "4c0a501798cce019cd547a4ce2f18370959461cfd0a31a11336bd4f53cde9e22",
}


def _random_text(field: str, rng: random.Random):
    """--d and --u text of a random valid (D, u): D = [[a, b], [c, -1-a]]
    with b != 0 and c = (-1 - a - a^2) / b has trace -1 and determinant 1
    and is not scalar; u is redrawn until det[u, Du] != 0."""
    if field == "rational":
        def draw(nonzero=False):
            while True:
                v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                if v or not nonzero:
                    return v
        inv, reduce = (lambda v: 1 / v), (lambda v: v)
    else:
        p = int(field[3:-1])

        def draw(nonzero=False):
            return rng.randrange(1 if nonzero else 0, p)
        inv, reduce = (lambda v: pow(v, -1, p)), (lambda v: v % p)
    a, b = draw(), draw(nonzero=True)
    d = [a, b, reduce((-1 - a - a * a) * inv(b)), reduce(-1 - a)]
    while True:
        x, y = draw(), draw()
        if reduce(x * (d[2] * x + d[3] * y) - y * (d[0] * x + d[1] * y)) != 0:
            return ",".join(map(str, d)), f"{x},{y}"


def _run(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def _outputs(field: str, tmp_path):
    """Every output of the field's cases, the written path replaced by a token."""
    rng = random.Random(f"golden {field}")
    path, bumped = tmp_path / "dec.json", tmp_path / "bumped.json"
    for case in range(RANDOM_CASES + 1):
        flags = [f"--field={field}"]
        if case:
            d, u = _random_text(field, rng)
            flags += [f"--d={d}", f"--u={u}"]
        yield _run("derive", *flags, "--out", str(path)).replace(str(path), "<out>")
        text = path.read_text()
        yield text
        yield _run("table", *flags)
        yield _run("verify", str(path), "--json")
        bumped.write_text(serialize(perturb_decomposition(parse(text), rng)))
        yield _run("verify", str(bumped), "--json")


@pytest.mark.parametrize("field", FIELDS)
def test_outputs_match_the_recorded_digests(field, tmp_path):
    digest = hashlib.sha256()
    for output in _outputs(field, tmp_path):
        digest.update(output.encode() + b"\0")
    assert digest.hexdigest() == DIGESTS[field]


def _sweep_outputs(field: str, tmp_path):
    """The exhaustive report of each case and of a copy with one scalar
    bumped, rendered and as JSON."""
    rng = random.Random(f"sweep {field}")
    path = tmp_path / "dec.json"
    for case in range(RANDOM_CASES + 1):
        flags = [f"--field={field}"]
        if case:
            d, u = _random_text(field, rng)
            flags += [f"--d={d}", f"--u={u}"]
        assert _run("derive", *flags, "--out", str(path)).startswith("exit 0\n")
        dec = parse(path.read_text())
        for checked in (dec, perturb_decomposition(dec, rng)):
            report = verify_exhaustive_gf(checked)
            yield report.render()
            yield json.dumps(report.to_dict())


@pytest.mark.parametrize("field", SWEEP_FIELDS)
def test_sweep_reports_match_the_recorded_digests(field, tmp_path):
    digest = hashlib.sha256()
    for output in _sweep_outputs(field, tmp_path):
        digest.update(output.encode() + b"\0")
    assert digest.hexdigest() == SWEEP_DIGESTS[field]


def _derivations(field: str):
    """The serialized derivation of each of ``DERIVATION_CASES`` seeded (D, u)."""
    f = parse_field(field)
    rng = random.Random(f"derivation {field}")
    for _ in range(DERIVATION_CASES):
        d_text, u_text = _random_text(field, rng)
        d = Mat2(f, map(f.parse_scalar, d_text.split(",")))
        u = ColVec2(f, map(f.parse_scalar, u_text.split(",")))
        rot = validate_rotation(d)
        yield serialize(derive_decomposition(rot, perp_vector(rot, u)))


@pytest.mark.parametrize("field", FIELDS)
def test_derivations_match_the_recorded_digests(field):
    digest = hashlib.sha256()
    for text in _derivations(field):
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == DERIVATION_DIGESTS[field]
