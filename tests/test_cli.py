"""End-to-end CLI runs through cli_main: exit codes and printed output."""

import json
import random
import re
import sys
import tracemalloc

import pytest

from conftest import perturb_decomposition
from strassen7 import cli, construction, engine
from strassen7.cli import cli_main
from strassen7.fields import PrimeField

PASS_LINE = "passed, 16 checks"
# a bench CSV row: n and the two counts, then both times in ms
CSV_ROW = r"{},\d+\.\d{{3}},\d+\.\d{{3}}"

TABLE_GRID = """\
          D^-1    M       D^-1*M*D  D*M*D^-1
D         id      D*M     M*D       D^-1*M*D^-1
M         M*D^-1  0       -M*D      M*D^-1
D^-1*M*D  D^-1*M  D^-1*M  0         -D^-1*M*D^-1
D*M*D^-1  D*M*D   -D*M    D*M*D     0
"""


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeriveVerify:
    def test_rational_pipeline(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, stdout, _ = run(capsys, "derive", "--field", "rational", "--out", str(out))
        assert code == 0
        assert PASS_LINE in stdout
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 0
        assert "passed, 64 checks" in stdout

    def test_gf3_exhaustive(self, tmp_path, capsys):
        out = tmp_path / "s3.json"
        assert run(capsys, "derive", "--field", "gf(3)", "--out", str(out))[0] == 0
        code, stdout, _ = run(capsys, "verify", str(out), "--exhaustive")
        assert code == 0
        assert "6561 pairs checked, passed" in stdout
        assert re.search(r"6561 pairs checked, passed \(\d+\.\d ms, [\d,]+ pairs/s\)\n", stdout)

    def test_exhaustive_json_reports_time_and_rate(self, tmp_path, capsys):
        out = tmp_path / "s2.json"
        run(capsys, "derive", "--field", "gf(2)", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--exhaustive", "--json")
        assert code == 0
        reports = json.loads(stdout[stdout.index("{"):])
        sweep = reports["exhaustive"]
        assert sweep["passed"] is True and sweep["checks_run"] == 256
        assert sweep["elapsed_s"] > 0
        assert sweep["pairs_per_s"] == pytest.approx(256 / sweep["elapsed_s"])
        assert reports["bilinear"] == {"passed": True, "checks_run": 16}

    @pytest.mark.parametrize("keep, code, line", [
        (0, 1, "exhaustive sweep: 83 pairs checked, FAILED after 83 checks at "
               "gf(3) matrix pair (#1, #1): expected [[0, 0], [0, 1]], got [[0, 0], [0, 0]] ("),
        (6, 1, "exhaustive sweep: 85 pairs checked, FAILED after 85 checks at "
               "gf(3) matrix pair (#1, #3)"),
        (8, 0, "exhaustive sweep: 6561 pairs checked, passed ("),
    ], ids=["rank0", "rank6", "rank8"])
    def test_exhaustive_sweep_of_other_ranks(self, tmp_path, capsys, keep, code, line):
        out = tmp_path / "s3.json"
        run(capsys, "derive", "--field", "gf(3)", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["terms"] = (doc["terms"] + [{"u": ["0"] * 4, "v": ["0"] * 4, "W": ["0"] * 4}])[:keep]
        doc["rank"] = keep
        out.write_text(json.dumps(doc))
        got, stdout, stderr = run(capsys, "verify", str(out), "--exhaustive")
        assert (got, stderr) == (code, "")
        assert line in stdout

    def test_exhaustive_skipped_for_rationals(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--exhaustive")
        assert code == 0
        assert "skipped" in stdout

    def test_custom_d_and_u(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, stdout, _ = run(
            capsys, "derive", "--field", "rational",
            "--d=-1,1,-1,0", "--u=0,1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["D"] == ["-1", "1", "-1", "0"]

    def test_eigenvector_u_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "derive", "--field", "gf(7)", "--u", "1,5",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "eigenvector" in stderr

    def test_invalid_rotation_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "derive", "--field", "rational", "--d", "1,0,0,1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "trace" in stderr

    def test_modulus_beyond_primality_bound_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "derive", "--field", "gf(10000000000000000000000001)",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "too large" in stderr

    def test_non_text_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, _, stderr = run(capsys, "verify", str(bad))
        assert code == 2
        assert "is not text" in stderr

    def test_internal_error_has_its_own_exit_code(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("broken handler")

        monkeypatch.setattr(cli, "_cmd_table", broken)
        code, stdout, stderr = run(capsys, "table", "--field", "rational")
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert stdout == ""
        assert stderr == "internal error: RuntimeError: broken handler\n"

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        out = tmp_path / "s.json"
        assert run(capsys, "derive", "--field", "gf(5)", "--out", str(out))[0] == 0
        assert run(capsys, "verify", str(out))[0] == 0
        assert run(capsys, "multiply", str(out), "--random", "4")[0] == 0
        assert len(built) == 1

    def test_derivation_that_fails_verification_writes_nothing(self, tmp_path, capsys,
                                                                monkeypatch):
        real = cli.derive_decomposition
        monkeypatch.setattr(cli, "derive_decomposition", lambda rot, pp: perturb_decomposition(
            real(rot, pp), random.Random(0)))
        out = tmp_path / "s.json"
        code, stdout, stderr = run(capsys, "derive", "--field", "rational", "--out", str(out))
        assert code == cli.EXIT_VERIFICATION_FAILED == 1
        assert stdout == ""
        assert stderr.startswith("derivation failed verification: FAILED after ")
        assert not out.exists()

    def test_corrupted_file_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["terms"][0]["W"] = ["2", "0", "0", "2"]  # still canonical scalars
        out.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 1
        assert "FAILED" in stdout

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(capsys, "verify", str(bad))[0] == 2

    def test_float64_decomposition_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["field"] = "float64"
        out.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "verify", str(out))
        assert code == 2
        assert "float64" in stderr

    def test_bad_scalar_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "s7.json"
        run(capsys, "derive", "--field", "gf(7)", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["terms"][0]["u"][0] = "7"
        out.write_text(json.dumps(doc))
        assert run(capsys, "verify", str(out))[0] == 2

    def test_json_reports(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--json")
        assert code == 0
        payload = stdout[stdout.index("{"):]
        reports = json.loads(payload)
        assert reports["bilinear"]["passed"] is True
        assert reports["trilinear"]["checks_run"] == 64


class TestTable:
    def test_prints_entries_and_verdict(self, capsys):
        code, stdout, _ = run(capsys, "table", "--field", "rational")
        assert code == 0
        assert stdout == TABLE_GRID + f"verification: {PASS_LINE}\n"

    def test_gf2(self, capsys):
        assert run(capsys, "table", "--field", "gf(2)")[0] == 0

    @pytest.mark.parametrize("command", ["derive", "table"])
    def test_help_describes_the_rotation_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--help"])
        assert exit_info.value.code == 0
        stdout = capsys.readouterr().out
        assert "rational | gf(p)" in stdout
        assert "rotation matrix entries" in stdout and "column vector entries" in stdout


@pytest.mark.parametrize("command", ["derive", "table"])
def test_default_perp_is_computed_once(command, tmp_path, capsys, monkeypatch):
    """diag(2, 4) over gf(7) has e1 and e2 as eigenvectors, so the default
    u is e1 + e2: one perp_vector call per candidate, and the pair found
    for e1 + e2 is the one the command uses."""
    calls = []
    real = construction.perp_vector

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construction, "perp_vector", counted)
    monkeypatch.setattr(cli, "perp_vector", counted)
    out = ["--out", str(tmp_path / "s.json")] if command == "derive" else []
    assert run(capsys, command, "--field", "gf(7)", "--d=2,0,0,4", *out)[0] == 0
    assert len(calls) == 3


class TestMultiply:
    def test_from_files(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        (tmp_path / "a.txt").write_text("n 2 field rational\n1 2\n3 4\n")
        (tmp_path / "b.txt").write_text("n 2 field rational\n5 6\n7 8\n")
        code, stdout, _ = run(
            capsys, "multiply", str(dec),
            "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"),
        )
        assert code == 0
        assert "19 22\n43 50" in stdout
        assert "scalar multiplications: 7" in stdout

    def test_float64_matrix_file_is_input_error(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        (tmp_path / "a.txt").write_text("n 2 field float64\n1 2\n3 4\n")
        code, _, stderr = run(
            capsys, "multiply", str(dec),
            "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "a.txt"),
        )
        assert code == 2
        assert "float64" in stderr

    def test_matrix_files_are_size_bounded(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s5.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))
        for n in (4, 5):
            rows = "".join(" ".join(["1"] * n) + "\n" for _ in range(n))
            (tmp_path / f"{n}.txt").write_text(f"n {n} field gf(5)\n{rows}")
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 16)

        def refusing(*args):
            raise AssertionError("multiplied an oversized matrix")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "strassen_multiply", refusing)
            for a, b in (("5", "4"), ("4", "5")):
                code, _, stderr = run(capsys, "multiply", str(dec), "--a", str(tmp_path / f"{a}.txt"),
                                      "--b", str(tmp_path / f"{b}.txt"))
                assert code == 2
                assert "matrix dimension 5: 25 entries exceed the bound of 16" in stderr
        code, stdout, _ = run(capsys, "multiply", str(dec), "--a", str(tmp_path / "4.txt"),
                              "--b", str(tmp_path / "4.txt"))
        assert code == 0
        assert stdout.startswith("n 4 field gf(5)\n4 4 4 4\n")

    def test_oversized_matrix_file_is_rejected_on_its_header(self, tmp_path, capsys, monkeypatch):
        """The bound is checked on the n of the header: no entry is parsed.
        The decomposition is rational, so every gf(5) scalar parsed would
        be a matrix entry."""
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        a = tmp_path / "a.txt"
        a.write_text("n 5 field gf(5)\n" + "1 1 1 1 1\n" * 5)
        monkeypatch.setattr(engine, "_MAX_ENTRIES", 16)

        def refusing(self, texts):
            raise AssertionError("parsed an entry of an oversized matrix")

        monkeypatch.setattr(PrimeField, "parse_values", refusing)
        code, _, stderr = run(capsys, "multiply", str(dec), "--a", str(a), "--b", str(a))
        assert code == 2
        assert "matrix dimension 5: 25 entries exceed the bound of 16" in stderr

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\f", "\u2028"],
                             ids=["lf", "crlf", "ff", "line-separator"])
    def test_oversized_matrix_file_is_refused_on_its_header_line(self, tmp_path, capsys, brk):
        """Only the header line (after blank lines) is read before the
        dimension is refused: a 4 MB file headed N = 5000 exits 2 without
        its body being read, whichever line break ends its lines."""
        dec = tmp_path / "s5.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))
        big = tmp_path / "big.txt"
        big.write_text(f"{brk} {brk}" + f"n 5000 field gf(5){brk}" + f"1{brk}" * 2_000_000)
        argv = ["multiply", str(dec), "--a", str(big), "--b", str(big)]
        run(capsys, *argv)
        tracemalloc.start()
        try:
            code, _, stderr = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "matrix dimension 5000: 25000000 entries exceed the bound of 16777216" in stderr
        assert peak < 64 << 10
        # the same blank lines and line ends before a header that passes
        small = tmp_path / "small.txt"
        small.write_text(f"{brk} {brk}" + f"n 2 field gf(5){brk}1 2{brk}{brk}3 4")
        code, stdout, _ = run(capsys, "multiply", str(dec), "--a", str(small), "--b", str(small))
        assert code == 0 and stdout.startswith("n 2 field gf(5)\n2 0\n0 2\n")

    def test_random_demo_is_seeded(self, tmp_path, capsys):
        dec = tmp_path / "s5.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))
        _, first, _ = run(capsys, "multiply", str(dec), "--random", "4", "--seed", "3")
        _, second, _ = run(capsys, "multiply", str(dec), "--random", "4", "--seed", "3")
        assert first == second

    def test_random_size_bounded_before_drawing(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s5.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))

        def refusing(*args):
            raise AssertionError("drew a matrix entry")

        with monkeypatch.context() as patch:
            patch.setattr(PrimeField, "sample", refusing)
            code, _, stderr = run(capsys, "multiply", str(dec), "--random", "5000")
        assert code == 2
        assert "25000000 entries" in stderr
        code, stdout, _ = run(capsys, "multiply", str(dec), "--random", "4")
        assert code == 0
        assert "scalar multiplications: 49" in stdout

    def test_type_error_inside_the_engine_is_internal(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))

        def broken(*args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "strassen_multiply", broken)
        code, stdout, stderr = run(capsys, "multiply", str(dec), "--random", "2")
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert stdout == ""
        assert stderr == "internal error: TypeError: unsupported operand\n"

    def test_value_error_inside_the_engine_is_internal(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "strassen_multiply", broken)
        code, stdout, stderr = run(capsys, "multiply", str(dec), "--random", "2")
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert stdout == ""
        assert stderr == "internal error: ValueError: operands could not be broadcast together\n"

    def test_rank_six_rejected(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        doc = json.loads(dec.read_text())
        doc["terms"] = doc["terms"][:6]
        doc["rank"] = 6
        dec.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "multiply", str(dec), "--random", "2")
        assert code == 2
        assert "rank" in stderr

    def test_field_mismatch_between_file_and_matrices(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))
        (tmp_path / "a.txt").write_text("n 1 field rational\n1\n")
        code, _, _ = run(
            capsys, "multiply", str(dec),
            "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "a.txt"),
        )
        assert code == 2


class TestBench:
    def test_counts_table(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "gf(5)", "--out", str(dec))
        code, stdout, _ = run(
            capsys, "bench", str(dec), "--sizes", "2,4,8", "--cutoff", "1",
        )
        assert code == 0
        for expected in ("7", "49", "343", "512"):
            assert expected in stdout

    def test_csv_output(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        code, stdout, _ = run(
            capsys, "bench", str(dec), "--sizes", "2", "--cutoff", "1", "--csv",
        )
        assert code == 0
        assert stdout.splitlines()[0] == "n,strassen_mults,classical_mults,strassen_ms,classical_ms"
        assert re.fullmatch(CSV_ROW.format("2,7,8"), stdout.splitlines()[1])

    def test_float_flag_is_usage_error(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", str(dec), "--sizes", "2", "--float"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --float" in capsys.readouterr().err

    def test_sizes_bounded_before_drawing(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))

        def refusing(*args):
            raise AssertionError("drew a matrix entry")

        with monkeypatch.context() as patch:
            # MatN.random draws rational entries straight from the rng
            patch.setattr(random.Random, "randrange", refusing)
            code, _, stderr = run(capsys, "bench", str(dec), "--sizes", "2,5000")
            assert code == 2
            assert "matrix dimension 5000: 25000000 entries" in stderr
        code, stdout, _ = run(capsys, "bench", str(dec), "--sizes", "2,4", "--csv")
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert len(rows) == 2
        assert re.fullmatch(CSV_ROW.format("2,7,8"), rows[0])
        assert re.fullmatch(CSV_ROW.format("4,49,64"), rows[1])


# Python's int-to-str limit; 0 (no limit) leaves nothing to refuse
DIGIT_LIMIT = sys.get_int_max_str_digits()


class TestLargeValues:
    """Values beyond float64, or with more digits than Python writes: each
    command works, fails verification or is an input error, never exit 3."""

    def test_coefficients_beyond_float64(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        derive = ("derive", "--field", "rational", f"--u={10**155},1", "--out", path)
        assert run(capsys, *derive)[0] == 0
        assert run(capsys, "verify", path)[0] == 0
        for cutoff in ("1", "2", "4"):
            code, stdout, _ = run(capsys, "multiply", path, "--random", "4", "--cutoff", cutoff)
            assert code == 0 and "scalar multiplications:" in stdout
        assert run(capsys, "bench", path, "--sizes", "2,4")[0] == 0

    def test_file_coefficient_beyond_float64(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["terms"][0]["u"][0] = str(10**400)
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "multiply", str(path), "--random", "4")
        assert code == 0 and "scalar multiplications: 49" in stdout

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-str limit")
    def test_values_beyond_the_digit_limit_are_input_errors(self, tmp_path, capsys):
        message = f"an integer of more than {DIGIT_LIMIT} digits is too long to write"
        big = 10 ** (DIGIT_LIMIT - 300)  # readable: fewer digits than the limit
        out = tmp_path / "c.json"
        # a derivation whose coefficients have about twice u's digits
        code, _, stderr = run(capsys, "derive", "--field", "rational",
                              f"--u={10 ** (DIGIT_LIMIT // 2)},1", "--out", str(out))
        assert code == 2 and message in stderr and not out.exists()
        # a rotation whose determinant has twice its entries' digits
        code, _, stderr = run(capsys, "derive", "--field", "rational",
                              f"--d={big},1,0,{-1 - big}", "--out", str(out))
        assert code == 2 and message in stderr
        path = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(path))
        (tmp_path / "a.txt").write_text(f"n 2 field rational\n{big} 1\n1 1\n")
        code, _, stderr = run(capsys, "multiply", str(path), "--a", str(tmp_path / "a.txt"),
                              "--b", str(tmp_path / "a.txt"))
        assert code == 2 and message in stderr
        doc = json.loads(path.read_text())
        doc["terms"][0]["u"][0] = doc["terms"][0]["v"][0] = str(big)
        path.write_text(json.dumps(doc))
        for flags in ((), ("--json",)):
            code, _, stderr = run(capsys, "verify", str(path), *flags)
            assert code == 2 and message in stderr


def _input_error_cases():
    """(setup, argv, stderr snippet): one per kind of input error.  setup
    writes files into the directory and returns nothing."""

    def derived(field):
        def setup(d):
            cli_main(["derive", "--field", field, "--out", str(d / "s.json")])
        return setup

    def matrices(a, b, field="rational"):
        def setup(d):
            derived(field)(d)
            (d / "a.txt").write_text(a)
            (d / "b.txt").write_text(b)
        return setup

    def nothing(d):
        pass

    def out(d):
        return ["--out", str(d / "x.json")]

    two = "n 2 field rational\n1 2\n3 4\n"
    return {
        "scalar-count": (nothing, lambda d: ["derive", "--field", "rational", "--d", "1,2"] + out(d),
                         "--d needs 4 comma-separated scalars"),
        "scalar-format": (nothing, lambda d: ["derive", "--field", "gf(5)", "--u", "1,9"] + out(d),
                          "out of range"),
        "non-ascii-flag": (nothing, lambda d: ["derive", "--field", "gf(5)", "--d=\u00b2,0,0,4"] + out(d),
                           "bad gf(5) scalar"),
        "long-modulus": (nothing, lambda d: ["derive", "--field", f"gf({'7' * 5000})"] + out(d),
                         "5000-digit integer"),
        "unknown-field": (nothing, lambda d: ["derive", "--field", "real"] + out(d),
                          "unknown field descriptor"),
        "composite-modulus": (nothing, lambda d: ["derive", "--field", "gf(9)"] + out(d),
                              "modulus 9 is not prime"),
        "rotation": (nothing, lambda d: ["table", "--field", "rational", "--d", "1,0,0,1"],
                     "trace"),
        "zero-vector": (nothing, lambda d: ["derive", "--field", "rational", "--u", "0,0"] + out(d),
                        "u must be nonzero"),
        "eigenvector": (nothing, lambda d: ["derive", "--field", "gf(7)", "--u", "1,5"] + out(d),
                        "eigenvector"),
        "missing-file": (nothing, lambda d: ["verify", str(d / "none.json")], "No such file"),
        "malformed-json": (lambda d: (d / "s.json").write_text("{"),
                           lambda d: ["verify", str(d / "s.json")], "not valid JSON"),
        "not-an-object": (lambda d: (d / "s.json").write_text("[]"),
                          lambda d: ["verify", str(d / "s.json")], "top level must be an object"),
        "nested-json": (lambda d: (d / "s.json").write_text("[" * 10**5 + "]" * 10**5),
                        lambda d: ["verify", str(d / "s.json")], "maximum recursion depth"),
        "sweep-budget": (derived("gf(11)"), lambda d: ["verify", str(d / "s.json"), "--exhaustive"],
                         "exceed the budget"),
        "missing-matrices": (derived("rational"), lambda d: ["multiply", str(d / "s.json")],
                             "provide --a and --b"),
        "random-bound": (derived("gf(5)"),
                         lambda d: ["multiply", str(d / "s.json"), "--random", "5000"],
                         "exceed the bound"),
        "random-size": (derived("gf(5)"),
                        lambda d: ["multiply", str(d / "s.json"), "--random", "-3"],
                        "dimension must be >= 1"),
        "cutoff": (derived("gf(5)"),
                   lambda d: ["multiply", str(d / "s.json"), "--random", "2", "--cutoff", "0"],
                   "cutoff must be >= 1"),
        "dimension-mismatch": (matrices(two, "n 1 field rational\n1\n"),
                               lambda d: ["multiply", str(d / "s.json"),
                                          "--a", str(d / "a.txt"), "--b", str(d / "b.txt")],
                               "dimension mismatch"),
        "field-mismatch": (matrices(two, "n 2 field gf(5)\n1 2\n3 4\n"),
                           lambda d: ["multiply", str(d / "s.json"),
                                      "--a", str(d / "a.txt"), "--b", str(d / "b.txt")],
                           "mixed fields"),
        "non-ascii-scalar": (matrices("n 2 field gf(5)\n1 2\n3 \u00b2\n",
                                      "n 2 field gf(5)\n1 2\n3 4\n", "gf(5)"),
                             lambda d: ["multiply", str(d / "s.json"),
                                        "--a", str(d / "a.txt"), "--b", str(d / "b.txt")],
                             "bad gf(5) scalar"),
        "long-json-number": (lambda d: (d / "s.json").write_text(
                                 '{"format_version": "1", "field": "gf(5)", "rank": %s, "terms": []}'
                                 % ("1" * 5000)),
                             lambda d: ["verify", str(d / "s.json")], "not valid JSON"),
        "sizes-format": (derived("gf(5)"), lambda d: ["bench", str(d / "s.json"), "--sizes", "2,x"],
                         "not comma-separated integers"),
        "sizes-range": (derived("gf(5)"), lambda d: ["bench", str(d / "s.json"), "--sizes", "0"],
                        "matrix dimension must be >= 1"),
        "sizes-non-ascii": (derived("gf(5)"),
                            lambda d: ["bench", str(d / "s.json"), "--sizes", "\u0662, \uff14"],
                            "not comma-separated integers"),
        "sizes-sign": (derived("gf(5)"), lambda d: ["bench", str(d / "s.json"), "--sizes", "+4"],
                       "not comma-separated integers"),
        "sizes-empty": (derived("gf(5)"), lambda d: ["bench", str(d / "s.json"), "--sizes", ""],
                        "no sizes given"),
        "sizes-only-commas": (derived("gf(5)"),
                              lambda d: ["bench", str(d / "s.json"), "--sizes", " , "],
                              "no sizes given"),
        "dimension-non-ascii": (matrices("n \u0662 field gf(5)\n1 2\n3 4\n",
                                         "n 2 field gf(5)\n1 2\n3 4\n", "gf(5)"),
                                lambda d: ["multiply", str(d / "s.json"),
                                           "--a", str(d / "a.txt"), "--b", str(d / "b.txt")],
                                "bad dimension"),
    }


@pytest.mark.parametrize("kind", list(_input_error_cases()))
def test_each_input_error_exits_2(kind, tmp_path, capsys):
    setup, argv, snippet = _input_error_cases()[kind]
    setup(tmp_path)
    capsys.readouterr()
    code, _, stderr = run(capsys, *argv(tmp_path))
    assert code == cli.EXIT_INPUT_ERROR == 2
    assert stderr.startswith("error: ") and snippet in stderr, stderr
