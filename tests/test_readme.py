"""README.md's Python examples run as written, so a renamed API cannot
leave them stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_quick_start_runs(capsys):
    blocks = _python_blocks()
    assert blocks, "README.md has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints slacks and budgets, all positive for the disc
    printed = capsys.readouterr().out.split()
    assert printed and all(float(x) > 0 for x in printed)
