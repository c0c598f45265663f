"""The README's library examples run as written.

Every fenced ``python`` block of README.md runs in order, in one namespace,
in a directory that holds the ``train.conll`` the examples read. A public
API change that leaves an example stale fails here.
"""

import re
from pathlib import Path

from conftest import AIRLINE_CONLL

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(first line number, source) of each fenced python block."""
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    ]


def test_every_python_block_of_the_readme_runs(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    (tmp_path / "train.conll").write_text(AIRLINE_CONLL, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for line, source in blocks:
        # padded so that a traceback names the README's own line
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)
