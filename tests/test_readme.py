"""The README's Python examples run: its ```python blocks, in order, in one namespace, so a renamed API cannot
leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_blocks_run_in_order():
    text = README.read_text()
    namespace = {"__name__": "readme"}
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, flags=re.S | re.M))
    assert len(blocks) >= 4
    for block in blocks:
        line = text.count("\n", 0, block.start(1))  # a traceback names the README line
        exec(compile("\n" * line + block.group(1), str(README), "exec"), namespace)
