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


def key_table() -> list[tuple[str, str]]:
    """Each backticked name in the first column of the config key table, and its "required" cell."""
    text = (REPO / "README.md").read_text()
    table = text[text.index("| key | required | meaning |"):]
    rows = re.findall(r"^\| (.*?) \| (yes|no) \|", table[:table.index("\n\n")], re.MULTILINE)
    return [(name, required) for first, required in rows for name in re.findall(r"`(\w+)`", first)]


def test_key_table_lists_every_config_key():
    from routegame import cli
    table = key_table()
    assert sorted(name for name, _ in table) == sorted(cli._KEYS)
    assert {name: required == "yes" for name, required in table} == {
        key: required for key, (_, required) in cli._KEYS.items()}
