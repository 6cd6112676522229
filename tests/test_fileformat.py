"""Decomposition and matrix file formats: canonical text, round trips, and
strict rejection of malformed input."""

import hashlib
import io
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    EXACT_FIELDS,
    NON_CANONICAL_TEXTS,
    RATIONAL_REJECTS,
    paper_decomposition,
    random_derivation,
    random_perp,
    random_rotation,
)
from strassen7 import engine, fileformat
from strassen7.cli import cli_main
from strassen7.construction import derive_decomposition
from strassen7.engine import MatN, SizeError
from strassen7.fields import RATIONAL, PrimeField, ScalarFormatError
from strassen7.fileformat import MalformedFileError, parse, parse_matrix, serialize
from strassen7.linalg import Mat2

GF3, GF5, GF7 = PrimeField(3), PrimeField(5), PrimeField(7)

MATRIX_FIELDS = [RATIONAL] + [PrimeField(p) for p in (2, 3, 5, 7, 1000003, 2**61 - 1)]
MATRIX_SIZES = (*range(1, 9), 64)
# sha256 of format_matrix(MatN.random(field, n, random.Random(n))) for each
# n of MATRIX_SIZES in order: seeded draws, entries and text stay fixed
MATRIX_DIGESTS = {
    "rational": "2f7f7fbb0aba10bff41d612ea1e1f0c6c0002d0f48a44cab83fff432f6c14160",
    "gf(2)": "c641b79b7a3af8b573b993a01796a07ffab2f8e5b1af82415776f06db8a4e2ca",
    "gf(3)": "50960d0e77b659198a68d2ab86db865fb6f99b9f80845dfda8dc5a4e313fd052",
    "gf(5)": "76ea275891acea3adba3ca9479c261a9ebc8004837e9f6e171a8cc6a1653f791",
    "gf(7)": "592326b51daa2163ebe3690b036fb369b35b62d822cabc2f292f3d01be46a55e",
    "gf(1000003)": "1f13e9cefeeb8f940bc2a4fd8215b30dfcf6538a214b086075d1888fb9b33124",
    "gf(2305843009213693951)": "87faddfb43add307dc63c265e0a7b48b8421c4de192c5e109ceb16903e52def1",
}

# every text that test_fields refuses as a scalar, by test id
BAD_SCALARS = {**{text: text for text in RATIONAL_REJECTS}, **NON_CANONICAL_TEXTS}
# where a bad scalar is put in a file: inside the terms, and in the provenance
SCALAR_SLOTS = (("terms", 3, "v", 2), ("provenance", "u_vector", 1))


def _file_with(field, path, value) -> str:
    """The text of the paper decomposition over ``field`` with ``value``
    put at ``path`` of its JSON document."""
    doc = json.loads(serialize(paper_decomposition(field)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


class TestSerialize:
    def test_structure(self):
        doc = json.loads(serialize(paper_decomposition()))
        assert doc["format_version"] == "1"
        assert doc["field"] == "rational"
        assert doc["rank"] == 7
        assert len(doc["terms"]) == 7
        assert doc["terms"][0]["W"] == ["1", "0", "0", "1"]
        assert doc["provenance"] == {"D": ["0", "-1", "1", "-1"], "u_vector": ["1", "0"]}

    def test_gf3_scalars_are_residues(self):
        doc = json.loads(serialize(paper_decomposition(GF3)))
        for term in doc["terms"]:
            for key in ("u", "v", "W"):
                assert all(s in {"0", "1", "2"} for s in term[key])

    def test_canonical_text_is_stable(self):
        dec = paper_decomposition()
        assert serialize(dec) == serialize(dec)

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-to-str limit")
    def test_values_beyond_the_digit_limit_are_refused(self):
        """Writing has one owner, ``fields._texts``: a value with more digits
        than Python writes is a ScalarFormatError, as it is on reading."""
        huge = Fraction(10 ** sys.get_int_max_str_digits(), 3)
        dec = paper_decomposition()
        term = dec.terms[2]
        bad = replace(dec, terms=(replace(term, w=Mat2(RATIONAL, [huge, 0, 0, 1])),))
        message = f"more than {sys.get_int_max_str_digits()} digits is too long to write"
        for write in (lambda: serialize(bad), lambda: fileformat.format_matrix(
                MatN(RATIONAL, [[1, huge], [0, 1]])), lambda: repr(RATIONAL(huge))):
            with pytest.raises(ScalarFormatError, match=message):
                write()


class TestRoundTrip:
    @pytest.mark.parametrize("field", EXACT_FIELDS, ids=lambda f: f.name)
    def test_random_derivations(self, field):
        rng = random.Random(13)
        for _ in range(10):
            rot = random_rotation(field, rng)
            dec = derive_decomposition(rot, random_perp(rot, rng))
            assert parse(serialize(dec)) == dec

    def test_serialize_of_parse_is_identity(self):
        text = serialize(paper_decomposition())
        assert serialize(parse(text)) == text


class TestParseRejects:
    def test_not_json(self):
        with pytest.raises(MalformedFileError):
            parse("not json {")

    def test_wrong_version(self):
        doc = json.loads(serialize(paper_decomposition()))
        doc["format_version"] = "2"
        with pytest.raises(MalformedFileError):
            parse(json.dumps(doc))

    def test_rank_term_count_mismatch(self):
        # a rank that is not a JSON integer never matches: true would equal
        # one term, and 7.0 seven
        for rank, terms in ((6, 7), (7.0, 7), (True, 1), (None, 7)):
            doc = json.loads(serialize(paper_decomposition()))
            doc["rank"], doc["terms"] = rank, doc["terms"][:terms]
            with pytest.raises(MalformedFileError):
                parse(json.dumps(doc))

    def test_missing_field(self):
        doc = json.loads(serialize(paper_decomposition()))
        del doc["field"]
        with pytest.raises(MalformedFileError):
            parse(json.dumps(doc))

    def test_unknown_field(self):
        doc = json.loads(serialize(paper_decomposition()))
        doc["field"] = "gf(4)"
        with pytest.raises(MalformedFileError):
            parse(json.dumps(doc))

    def test_float64_field(self):
        # float64 is an engine dtype for timing, never a file's field
        doc = json.loads(serialize(paper_decomposition()))
        doc["field"] = "float64"
        with pytest.raises(MalformedFileError):
            parse(json.dumps(doc))

    def test_residue_out_of_range(self):
        doc = json.loads(serialize(paper_decomposition(GF7)))
        doc["terms"][0]["u"][0] = "7"
        with pytest.raises(ScalarFormatError):
            parse(json.dumps(doc))

    def test_unreduced_rational(self):
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"][0]["u"][0] = "2/4"
        with pytest.raises(ScalarFormatError):
            parse(json.dumps(doc))

    def test_short_scalar_list(self):
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"][0]["u"] = ["1", "0", "0"]
        with pytest.raises(MalformedFileError):
            parse(json.dumps(doc))

    def test_top_level_not_an_object(self):
        with pytest.raises(MalformedFileError, match="top level must be an object"):
            parse(json.dumps([serialize(paper_decomposition())]))

    @pytest.mark.parametrize("path, value, message", [
        (("terms",), {}, "terms must be a list"),
        (("terms", 2), [], "term 2 must be an object"),
        (("provenance",), ["0", "-1", "1", "-1"], "provenance must be an object"),
        (("terms", 0, "u", 1), True, "non-scalar entry True"),
        (("terms", 3, "W", 0), 1.5, "non-scalar entry 1.5"),
        (("provenance", "D", 2), None, "non-scalar entry None"),
    ])
    def test_structure_rejected(self, path, value, message):
        with pytest.raises(MalformedFileError, match=message):
            parse(_file_with(RATIONAL, path, value))

    def test_rank_six_parses_with_flag(self):
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"] = doc["terms"][:6]
        doc["rank"] = 6
        dec = parse(json.dumps(doc))
        assert dec.rank == 6  # accepted; the engine is what rejects it


class TestScalarsInFiles:
    """A scalar in a file reads as ``parse_scalar`` reads its text: a bad
    one raises the same error, and the CLI exits 2 on it."""

    @pytest.mark.parametrize("field", [RATIONAL, GF5, GF7], ids=lambda f: f.name)
    @pytest.mark.parametrize("text", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
    def test_bad_scalar_raises_what_parse_scalar_raises(self, field, text, tmp_path, capsys):
        with pytest.raises(ScalarFormatError) as expected:
            field.parse_scalar(text)
        path = tmp_path / "dec.json"
        for slot in SCALAR_SLOTS:
            path.write_text(_file_with(field, slot, text))
            with pytest.raises(ScalarFormatError) as refused:
                parse(path.read_text())
            assert str(refused.value) == str(expected.value)
            assert cli_main(["verify", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {expected.value}\n"

    def test_json_integer_scalar_parses(self):
        for field, value in ((RATIONAL, 7), (RATIONAL, -3), (GF7, 6)):
            for slot in SCALAR_SLOTS:
                dec = parse(_file_with(field, slot, value))
                if slot[0] == "terms":
                    assert dec.terms[3].v_coeffs[2] == field(value)
                else:
                    assert dec.provenance.u.y == field(value)
        with pytest.raises(ScalarFormatError, match=r"residue 7 out of range \[0, 7\)"):
            parse(_file_with(GF7, SCALAR_SLOTS[0], 7))

    def test_first_fault_in_reading_order_is_reported(self):
        """Of a bad scalar and a malformed list, the one read first is
        reported, across terms and within one list."""
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"][0]["u"][1] = "2/4"
        doc["terms"][5]["W"] = "1 0 0 1"
        with pytest.raises(ScalarFormatError, match="unreduced rational '2/4'"):
            parse(json.dumps(doc))
        doc["terms"][0]["W"] = ["1", "0", "0"]
        with pytest.raises(ScalarFormatError, match="unreduced rational '2/4'"):
            parse(json.dumps(doc))
        doc["terms"][0]["u"][1] = "0"
        with pytest.raises(MalformedFileError, match="term 0 W must be a list of 4 scalars"):
            parse(json.dumps(doc))
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"][2]["v"][1:3] = ["1/0", None]
        with pytest.raises(ScalarFormatError, match="zero denominator in '1/0'"):
            parse(json.dumps(doc))
        doc["terms"][2]["v"][1:3] = [None, "1/0"]
        with pytest.raises(MalformedFileError, match="non-scalar entry None"):
            parse(json.dumps(doc))
        doc = json.loads(serialize(paper_decomposition()))
        doc["terms"][6]["W"][3] = "x"
        doc["provenance"]["D"] = {}
        with pytest.raises(ScalarFormatError, match="bad rational scalar 'x'"):
            parse(json.dumps(doc))


class TestLayout:
    """``serialize`` writes the layout of ``json.dumps(..., indent=2)``,
    also for the shapes the derivation digests do not pin."""

    @pytest.mark.parametrize("field", EXACT_FIELDS + [PrimeField(2**61 - 1)],
                             ids=lambda f: f.name)
    def test_layout_is_json_with_indent_2(self, field):
        paper = paper_decomposition(field)
        derived = random_derivation(field, random.Random(field.name))[2]
        for dec in (paper, derived, replace(paper, terms=paper.terms[:6]),
                    replace(paper, provenance=None), replace(paper, terms=()),
                    replace(paper, terms=(), provenance=None)):
            text = serialize(dec)
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert serialize(parse(text)) == text


class TestMatrixFormat:
    def test_round_trip(self):
        rng = random.Random(5)
        for field in (RATIONAL, GF7):
            m = MatN.random(field, 3, rng)
            assert parse_matrix(fileformat.format_matrix(m)) == m

    @pytest.mark.parametrize("field", MATRIX_FIELDS, ids=lambda f: f.name)
    def test_seeded_random_text_is_pinned(self, field):
        digest = hashlib.sha256()
        for n in MATRIX_SIZES:
            digest.update(fileformat.format_matrix(MatN.random(field, n, random.Random(n))).encode())
        assert digest.hexdigest() == MATRIX_DIGESTS[field.name]

    @pytest.mark.parametrize("field", MATRIX_FIELDS, ids=lambda f: f.name)
    def test_round_trip_every_size(self, field):
        for n in MATRIX_SIZES:
            m = MatN.random(field, n, random.Random(n))
            assert parse_matrix(fileformat.format_matrix(m)) == m

    def test_format(self):
        m = MatN(GF3, [[0, 1], [2, 0]])
        assert fileformat.format_matrix(m) == "n 2 field gf(3)\n0 1\n2 0\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "m 2 field gf(3)\n0 1\n2 0",
            "n two field gf(3)\n0 1\n2 0",
            "n \u0662 field gf(5)\n0 1\n2 0",
            "n +2 field gf(5)\n0 1\n2 0",
            "n \uff12 field gf(5)\n0 1\n2 0",
            "n 2 field gf(4)\n0 1\n2 0",
            "n 2 field float64\n0.5 1\n2 0",
            "n 2 field gf(3)\n0 1",
            "n 2 field gf(3)\n0 1 2\n2 0 1",
            "n 0 field gf(3)\n",
        ],
    )
    def test_rejects_bad_structure(self, text):
        # a dimension below 1 is refused by the matrices' own size check
        with pytest.raises(SizeError if text.startswith("n 0 ") else MalformedFileError):
            parse_matrix(text)

    def test_rejects_bad_scalar(self):
        with pytest.raises(ScalarFormatError):
            parse_matrix("n 1 field gf(3)\n5\n")

    def test_size_bound_checked_on_the_header(self, monkeypatch):
        """An oversized dimension is refused before any entry is parsed."""
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 16)
        assert parse_matrix("n 4 field gf(5)\n" + "1 2 3 4\n" * 4).n == 4

        def refusing(self, texts):
            raise AssertionError("parsed an entry of an oversized matrix")

        monkeypatch.setattr(PrimeField, "parse_values", refusing)
        with pytest.raises(SizeError, match="matrix dimension 5: 25 entries exceed the bound of 16"):
            parse_matrix("n 5 field gf(5)\n" + "1 1 1 1 1\n" * 5)

    def test_oversized_text_is_refused_before_its_body_is_copied(self):
        """A 4 MB text whose header asks for N = 5000 raises SizeError while
        the traced peak stays under 1 MB: the leading blank lines are
        skipped and the body is neither split nor copied."""
        text = "\n \r\n" + "n 5000 field gf(5)\n" + "1\n" * 2_000_000
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="matrix dimension 5000"):
                parse_matrix(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_lines_break_where_splitlines_breaks(self):
        """Blank lines are skipped around the header and rows, at every
        line break str.splitlines knows, and a bad header is quoted whole."""
        want = MatN(GF3, [[0, 1], [2, 0]])
        assert parse_matrix("\n  \r\n n 2 field gf(3)\r\n0 1\x0b\u2028\n2 0") == want
        assert parse_matrix("\x1c n 2 field gf(3)\x850 1\r2 0\u2029") == want
        with pytest.raises(MalformedFileError, match=r"bad matrix header ' \\tm 2 field gf\(3\)'"):
            parse_matrix("\f\n \tm 2 field gf(3)\n0 1\n2 0\n")
        with pytest.raises(MalformedFileError, match="empty matrix file"):
            parse_matrix(" \r\n\t\u2028 ")

    def test_read_matrix_reads_as_parse_matrix(self):
        """An open file reads as its text parses, also where blank lines
        or the header run past the chunks its header is sought in."""
        blank = " \r\n\t\u2028" * fileformat._HEADER_CHUNK
        long_header = "n" + " " * fileformat._HEADER_CHUNK + "2 field gf(3)"
        for text in ("n 2 field gf(3)\n0 1\n2 0", blank + "n 2 field gf(3)\f0 1\f2 0\n",
                     long_header + "\x850 1\x852 0", blank + long_header + "\r0 1\r2 0"):
            assert fileformat.read_matrix(io.StringIO(text)) == parse_matrix(text)
        for text in ("", blank, blank + "m 2 field gf(3)", blank + "n 2 field gf(3)\n0 1\n"):
            with pytest.raises(MalformedFileError) as refused:
                fileformat.read_matrix(io.StringIO(text))
            with pytest.raises(MalformedFileError) as expected:
                parse_matrix(text)
            assert str(refused.value) == str(expected.value)

    def test_real_bound_on_the_header(self):
        """N = 4096 passes the check and fails only on its missing rows;
        N = 4097 fails on the header alone."""
        with pytest.raises(MalformedFileError, match="expected 4096 rows, found 0"):
            parse_matrix("n 4096 field gf(5)\n")
        with pytest.raises(SizeError, match="4097: 16785409 entries exceed the bound of 16777216"):
            parse_matrix("n 4097 field gf(5)\n")
