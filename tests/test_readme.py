"""The README's Library example runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_library_block_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README holds one python block, the Library example"
    monkeypatch.chdir(REPO)  # the example loads configs/ by a relative path
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
