"""The README's library examples run as written, and its tree documents load.

Every fenced ``python`` block of README.md runs in order, in one namespace,
in a directory that holds the ``train.conll`` the examples read. A public
API change that leaves an example stale fails here. Every fenced ``json``
block that holds a tree document (an ``"intent"`` and a ``"root"``) must
pass ``deserialize``.
"""

import re
from pathlib import Path

import pytest

from conftest import AIRLINE_CONLL
from eastgen import deserialize
from eastgen.errors import EastgenError

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text: str, language: str) -> list[tuple[int, str]]:
    """(first line number, source) of each fenced block in `language`."""
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)
    ]


def test_every_python_block_of_the_readme_runs(tmp_path, monkeypatch):
    blocks = fenced_blocks(README.read_text(encoding="utf-8"), "python")
    assert blocks
    (tmp_path / "train.conll").write_text(AIRLINE_CONLL, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for line, source in blocks:
        # padded so that a traceback names the README's own line
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)


def test_every_tree_document_of_the_readme_loads():
    blocks = [(line, source)
              for line, source in fenced_blocks(README.read_text(encoding="utf-8"), "json")
              if '"intent"' in source and '"root"' in source]
    assert blocks
    for line, source in blocks:
        try:
            deserialize(source)
        except EastgenError as exc:
            pytest.fail(f"README.md line {line}: {exc}")
