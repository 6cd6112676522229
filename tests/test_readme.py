"""Every ``strassen7 ...`` line of README's "Command line" block runs
through ``cli_main`` and exits 0, so the README cannot drift from the CLI.
The block runs twice in one process, which shares one parser: a parser
that kept state between calls would fail here."""

import re
import shlex
from pathlib import Path

from strassen7.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands() -> list:
    block = re.search(r"## Command line\n+```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("strassen7 ")]


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("n 2 field rational\n1 2\n3 4\n")
    (tmp_path / "b.txt").write_text("n 2 field rational\n1/2 0\n-1 5\n")
    commands = _commands()
    assert len(commands) >= 9
    for argv in commands + commands:
        assert cli_main(argv) == 0, (argv, capsys.readouterr().err)
