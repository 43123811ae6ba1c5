"""README's "Library use" example runs as written against the package."""

from __future__ import annotations

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_use_runs(capsys):
    exec(compile(_library_use_block(), str(_README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    status, min_defect = lines[0].split()
    assert status in ("NoViolationFound", "Violated")
    float(min_defect)
    assert len(lines) == 5  # the status line, three chain links, the integral
    float(lines[-1])
