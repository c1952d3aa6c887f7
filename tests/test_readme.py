"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
