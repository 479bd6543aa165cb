"""README.md's Python examples and command lines run as written, so a
renamed API or flag cannot leave them stale."""

import pathlib
import re
import shlex

from click.testing import CliRunner

from membrane_spectra.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_quick_start_runs(capsys):
    blocks = _blocks("python")
    assert blocks, "README.md has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints slacks and budgets, all positive for the disc
    printed = capsys.readouterr().out.split()
    assert printed and all(float(x) > 0 for x in printed)


def test_command_line_example_runs(tmp_path, monkeypatch):
    commands = [shlex.split(line)[1:] for block in _blocks("sh")
                for line in block.splitlines()
                if line.startswith("membrane-spectra ")]
    assert commands, "README.md has no membrane-spectra command line"
    monkeypatch.chdir(tmp_path)     # each command reads the one before's files
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output, result.stderr)
