"""README.md's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    """The body of each fenced ```python block of ``text``, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_every_python_block_of_the_readme_runs(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
