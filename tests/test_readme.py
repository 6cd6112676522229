"""Every ``strassen7 ...`` line of README's "Command line" block runs
through ``cli_main`` and exits 0, and its "Library" block runs and has the
values its comments state, so the README cannot drift from the CLI or the
library.  The command block runs twice in one process, which shares one
parser: a parser that kept state between calls would fail here."""

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


def test_library_example_has_the_values_it_states():
    """Each line of the "Library" block runs in turn; a line with a comment
    is an expression whose repr, on one line, the comment starts with,
    followed by ":", "," or a space, or which is the whole comment."""
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, stated = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        value, comment = " ".join(repr(eval(code, namespace)).split()), comment.strip()
        assert comment == value or comment.startswith(tuple(value + end for end in ":, ")), line
        stated += 1
    assert stated >= 10
