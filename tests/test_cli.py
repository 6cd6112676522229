"""End-to-end CLI runs through cli_main: exit codes and printed output."""

import json

import pytest

from strassen7 import cli, engine
from strassen7.cli import cli_main

PASS_LINE = "passed, 16 checks"

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

    def test_internal_error_has_its_own_exit_code(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("broken handler")

        monkeypatch.setattr(cli, "_cmd_table", broken)
        code, stdout, stderr = run(capsys, "table", "--field", "rational")
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert stdout == ""
        assert stderr == "internal error: RuntimeError: broken handler\n"

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
            raise AssertionError("drew a random matrix")

        with monkeypatch.context() as patch:
            patch.setattr(cli.MatN, "random", refusing)
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
        assert stdout.splitlines()[1] == "2,7,8,,"

    def test_float_timings(self, tmp_path, capsys):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))
        code, stdout, _ = run(
            capsys, "bench", str(dec), "--sizes", "8", "--float", "--csv",
        )
        assert code == 0
        cells = stdout.splitlines()[1].split(",")
        assert cells[3] != "" and cells[4] != ""

    def test_float_on_prime_field_is_input_error(self, tmp_path, capsys):
        dec = tmp_path / "s3.json"
        run(capsys, "derive", "--field", "gf(3)", "--out", str(dec))
        assert run(capsys, "bench", str(dec), "--sizes", "2", "--float")[0] == 2

    def test_sizes_bounded_before_drawing(self, tmp_path, capsys, monkeypatch):
        dec = tmp_path / "s.json"
        run(capsys, "derive", "--field", "rational", "--out", str(dec))

        def refusing(*args):
            raise AssertionError("drew a random matrix")

        with monkeypatch.context() as patch:
            patch.setattr(cli.MatN, "random", refusing)
            patch.setattr(engine.np.random, "default_rng", refusing)
            for extra in ([], ["--float"]):
                code, _, stderr = run(capsys, "bench", str(dec), "--sizes", "2,5000", *extra)
                assert code == 2
                assert "--sizes 5000: 25000000 entries" in stderr
        code, stdout, _ = run(capsys, "bench", str(dec), "--sizes", "2,4", "--csv")
        assert code == 0
        assert stdout.splitlines()[1:] == ["2,7,8,,", "4,49,64,,"]
