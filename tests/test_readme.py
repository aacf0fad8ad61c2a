"""The README's Python blocks run, in order, in one namespace.

A `print(...)  # value` line must print that value (the first word of
its comment), so the quick start's stated results stay true.
"""
from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
PRINT = re.compile(r"^print\(.*\)(?:\s+# ([^\s,:]+))?", re.M)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = BLOCK.findall(README.read_text())
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        expected = [m.group(1) for m in PRINT.finditer(block)]
        assert len(printed) == len(expected)
        for line, value in zip(printed, expected):
            if value is not None:
                assert line == value
