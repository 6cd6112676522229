"""Interchange formats: the JSON decomposition file and the plain-text
matrix file.

Scalars travel in their canonical text form ("p/q" reduced with positive
denominator, or a bare integer; prime-field residues as decimals in
[0, p)).  Parsing validates structure and scalar syntax only; whether the
decomposition actually multiplies matrices is the verifier's job.
"""

from __future__ import annotations

import json
import re

from .construction import BilinearDecomposition, Provenance, Term
from .engine import MatN
from .fields import _DIGITS, Field, InputError, _decimal, parse_field
from .linalg import ColVec2, Mat2

FORMAT_VERSION = "1"
# str.splitlines breaks lines at these characters, all of them whitespace.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# From the start of a text: the whitespace up to the last break before its
# first non-space character (the blank lines), then the next line, captured.
_FIRST_LINE = re.compile(rf"(?:\s*[{_BREAKS}])?([^{_BREAKS}]*)")
# Characters read at a time from a matrix file until its header line ends.
_HEADER_CHUNK = 1 << 12


class MalformedFileError(InputError):
    """The file's structure does not match the format."""


def _scalar_strings(elements) -> list:
    return [str(e.value) for e in elements]


def serialize(dec: BilinearDecomposition) -> str:
    """Canonical text of a decomposition: stable key order, terms in
    derivation order."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "field": dec.field.name,
        "rank": dec.rank,
        "terms": [
            {
                "u": _scalar_strings(t.u_coeffs),
                "v": _scalar_strings(t.v_coeffs),
                "W": _scalar_strings(t.w.flatten()),
            }
            for t in dec.terms
        ],
    }
    if dec.provenance is not None:
        doc["provenance"] = {
            "D": _scalar_strings(dec.provenance.d.flatten()),
            "u_vector": _scalar_strings([dec.provenance.u.x, dec.provenance.u.y]),
        }
    return json.dumps(doc, indent=2) + "\n"


def _parse_scalar_list(field: Field, values, count: int, where: str) -> list:
    if not isinstance(values, list) or len(values) != count:
        raise MalformedFileError(f"{where} must be a list of {count} scalars")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise MalformedFileError(f"{where} holds a non-scalar entry {v!r}")
        out.append(field.parse_scalar(str(v)))
    return out


def parse(text: str) -> BilinearDecomposition:
    """Parse and validate a decomposition file.

    A rank other than 7 parses fine (the format can carry other bilinear
    algorithms); the recursion engine is what rejects it.  Raises
    MalformedFileError for structural problems and ScalarFormatError for
    non-canonical scalars.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge numbers, deep nesting
        raise MalformedFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise MalformedFileError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    try:
        field = parse_field(doc["field"])
    except KeyError:
        raise MalformedFileError("missing field descriptor") from None
    except (InputError, TypeError) as exc:
        raise MalformedFileError(str(exc)) from exc
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list):
        raise MalformedFileError("terms must be a list")
    rank = doc.get("rank")
    # bool is an int subclass, and 7.0 == 7: neither is a JSON integer
    if type(rank) is not int or rank != len(terms_doc):
        raise MalformedFileError(f"declared rank {rank!r} != {len(terms_doc)} terms")
    terms = []
    for k, t in enumerate(terms_doc):
        if not isinstance(t, dict):
            raise MalformedFileError(f"term {k} must be an object")
        u = _parse_scalar_list(field, t.get("u"), 4, f"term {k} u")
        v = _parse_scalar_list(field, t.get("v"), 4, f"term {k} v")
        w = _parse_scalar_list(field, t.get("W"), 4, f"term {k} W")
        terms.append(Term(tuple(u), tuple(v), Mat2._of(field, [e.value for e in w])))
    provenance = None
    if "provenance" in doc:
        prov = doc["provenance"]
        if not isinstance(prov, dict):
            raise MalformedFileError("provenance must be an object")
        d = _parse_scalar_list(field, prov.get("D"), 4, "provenance D")
        u_vec = _parse_scalar_list(field, prov.get("u_vector"), 2, "provenance u_vector")
        provenance = Provenance(Mat2._of(field, [e.value for e in d]),
                                ColVec2._of(field, *(e.value for e in u_vec)))
    return BilinearDecomposition(field, tuple(terms), provenance)


def format_matrix(mat: MatN) -> str:
    """Matrix text: header "n <dim> field <descriptor>", then one line of
    scalars per row."""
    # a raw value's str is its canonical scalar text
    lines = [f"n {mat.n} field {mat.field.name}"]
    lines.extend(" ".join(map(str, row)) for row in mat.rows)
    return "\n".join(lines) + "\n"


def _matrix_header(text: str):
    """(n, field) of the header line of a matrix text, its first line that
    is not blank.  The header's dimension passes ``MatN.check_dimension``."""
    first = _FIRST_LINE.match(text).group(1)
    header = first.split()
    if not header:
        raise MalformedFileError("empty matrix file")
    if len(header) != 4 or header[0] != "n" or header[2] != "field":
        raise MalformedFileError(f"bad matrix header {first!r}")
    if not _DIGITS.fullmatch(header[1]):
        raise MalformedFileError(f"bad dimension {header[1]!r}")
    n = _decimal(header[1], MalformedFileError)
    MatN.check_dimension(n)
    try:
        return n, parse_field(header[3])
    except InputError as exc:
        raise MalformedFileError(str(exc)) from exc


def read_matrix(file) -> MatN:
    """The matrix in an open text file, as ``parse_matrix`` reads it, but
    with its header line read and checked before the rest of the file:
    chunks are read until a line break ends the header (or the file ends),
    and the blank lines before it are dropped as they are read."""
    text = file.read(_HEADER_CHUNK)
    header = _FIRST_LINE.match(text)
    while header.end() == len(text):
        chunk = file.read(_HEADER_CHUNK)
        if not chunk:
            break
        text = text[header.start(1):] + chunk
        header = _FIRST_LINE.match(text)
    _matrix_header(text)
    return parse_matrix(text + file.read())


def parse_matrix(text: str) -> MatN:
    """Parse the matrix text format; scalars use the same canonical syntax
    as decomposition files.  The header's dimension passes
    ``MatN.check_dimension`` before the text is split or any row parsed."""
    n, field = _matrix_header(text)
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != n + 1:
        raise MalformedFileError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != n:
            raise MalformedFileError(f"expected {n} entries per row, got {len(cells)}")
        rows.append([field.parse_scalar(c) for c in cells])
    return MatN(field, rows)
