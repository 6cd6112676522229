"""Interchange formats: the JSON decomposition file and the plain-text
matrix file.

Scalars travel in their canonical text form ("p/q" reduced with positive
denominator, or a bare integer; prime-field residues as decimals in
[0, p)).  Parsing validates structure and scalar syntax only; whether the
decomposition actually multiplies matrices is the verifier's job.

``serialize`` writes the indent-2 JSON layout itself, all text through
``fields._texts``; ``parse`` reads a file's scalars in one pass of ``parse_values``.
``parse_matrix`` hands its values to ``MatN._arrays``: the layout is engine's.
"""

from __future__ import annotations

import json
import re
from functools import partial

from .construction import BilinearDecomposition, Provenance, Term
from .engine import MatN
from .fields import _DIGITS, FieldElement, InputError, _decimal, _texts, parse_field
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


def _scalar_object(lists: dict, indent: str) -> str:
    """An object of nonempty lists of scalars, laid out at ``indent`` as
    ``json.dumps(..., indent=2)`` lays it out: scalar text needs no escaping."""
    inner, item = indent + "  ", indent + "    "
    members = [f'{inner}"{key}": [\n{item}"' + f'",\n{item}"'.join(_texts(e.value for e in elements))
               + f'"\n{inner}]' for key, elements in lists.items()]
    return "{\n" + ",\n".join(members) + f"\n{indent}}}"


def serialize(dec: BilinearDecomposition) -> str:
    """Canonical text of a decomposition, written directly as ``json.dumps(doc,
    indent=2)`` lays it out, and a newline; terms in derivation order."""
    terms = ",\n".join(["    " + _scalar_object({"u": t.u_coeffs, "v": t.v_coeffs,
                                                  "W": t.w.flatten()}, "    ") for t in dec.terms])
    text = (f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "field": {json.dumps(dec.field.name)}'
            f',\n  "rank": {dec.rank},\n  "terms": ' + (f"[\n{terms}\n  ]" if terms else "[]"))
    if dec.provenance is not None:
        d, u = dec.provenance.d, dec.provenance.u
        lists = {"D": d.flatten(), "u_vector": (u.x, u.y)}
        text += f',\n  "provenance": {_scalar_object(lists, "  ")}'
    return text + "\n}\n"


def _add_scalar_texts(texts: list, values, count: int, where: str) -> None:
    """Append to ``texts`` the texts of a list of ``count`` JSON strings or integers."""
    if not isinstance(values, list) or len(values) != count:
        raise MalformedFileError(f"{where} must be a list of {count} scalars")
    for v in values:
        # bool is an int subclass, but no JSON integer
        if type(v) not in (str, int):
            raise MalformedFileError(f"{where} holds a non-scalar entry {v!r}")
        texts.append(str(v))


def parse(text: str) -> BilinearDecomposition:
    """Parse and validate a decomposition file.

    A rank other than 7 parses fine (the format can carry other bilinear
    algorithms); the recursion engine is what rejects it.  Raises
    MalformedFileError for structural problems and ScalarFormatError for
    non-canonical scalars, whichever comes first in reading order.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge numbers, deep nesting
        raise MalformedFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise MalformedFileError(f"unsupported format_version {doc.get('format_version')!r}")
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
    texts: list = []
    try:
        for k, t in enumerate(terms_doc):
            if not isinstance(t, dict):
                raise MalformedFileError(f"term {k} must be an object")
            for key in ("u", "v", "W"):
                _add_scalar_texts(texts, t.get(key), 4, f"term {k} {key}")
        if "provenance" in doc:
            prov = doc["provenance"]
            if not isinstance(prov, dict):
                raise MalformedFileError("provenance must be an object")
            _add_scalar_texts(texts, prov.get("D"), 4, "provenance D")
            _add_scalar_texts(texts, prov.get("u_vector"), 2, "provenance u_vector")
    except MalformedFileError:
        field.parse_values(texts)  # a bad scalar read before the fault comes first
        raise
    values = field.parse_values(texts)
    element = partial(FieldElement, field)
    terms = tuple([Term(tuple(map(element, values[i:i + 4])),
                        tuple(map(element, values[i + 4:i + 8])),
                        Mat2._of(field, values[i + 8:i + 12])) for i in range(0, 12 * rank, 12)])
    provenance = (Provenance(Mat2._of(field, values[-6:-2]), ColVec2._of(field, *values[-2:]))
                  if "provenance" in doc else None)
    return BilinearDecomposition(field, terms, provenance)


def format_matrix(mat: MatN) -> str:
    """Matrix text: header "n <dim> field <descriptor>", then one line of
    scalars per row."""
    lines = [f"n {mat.n} field {mat.field.name}"]
    lines.extend(" ".join(_texts(row)) for row in mat.rows)
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
    values = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != n:
            raise MalformedFileError(f"expected {n} entries per row, got {len(cells)}")
        values += field.parse_values(cells)
    return MatN._canonical(field, *MatN._arrays(field, n, values))
