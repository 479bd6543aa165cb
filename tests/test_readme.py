"""The Python examples and command lines of README.md and PAPER.md run as
written, so a renamed API or flag cannot leave them stale."""

import pathlib
import re
import shlex

from click.testing import CliRunner

from membrane_spectra.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "PAPER.md"]


def _blocks(doc, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", doc.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_quick_start_runs(capsys):
    for doc in DOCS:
        blocks = _blocks(doc, "python")
        assert blocks, f"{doc.name} has no ```python block"
        for block in blocks:
            exec(compile(block, str(doc), "exec"), {})
        # the quick start prints slacks and budgets, all positive for the disc
        printed = capsys.readouterr().out.split()
        assert printed and all(float(x) > 0 for x in printed)


def test_command_line_example_runs(tmp_path, monkeypatch):
    for doc in DOCS:
        commands = [shlex.split(line)[1:] for block in _blocks(doc, "sh")
                    for line in block.splitlines()
                    if line.startswith("membrane-spectra ")]
        assert commands, f"{doc.name} has no membrane-spectra command line"
        (tmp_path / doc.stem).mkdir()
        # each command reads the one before's files
        monkeypatch.chdir(tmp_path / doc.stem)
        runner = CliRunner()
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (doc.name, args, result.output,
                                           result.stderr)
