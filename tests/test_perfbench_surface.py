"""The library surface that `perfbench/` uses, checked from its source.

`perfbench/` runs only as the benchmark and in CI's benchmark smoke job.
These tests read its files with `ast` and import nothing from them, so a
name the benchmark needs that a change renames or removes fails here.
"""

import ast
import dataclasses
import importlib
import sys
from collections import Counter
from pathlib import Path

from eastgen import GenerationConfig, generator
from eastgen.cli import main

from conftest import AIRLINE_CONLL

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parsed() -> dict[str, ast.Module]:
    sources = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in sorted(PERFBENCH.glob("*.py"))}
    assert {"check.py", "inputs.py", "run.py", "traced.py"} <= set(sources)
    return sources


def _is_eastgen(module: str | None) -> bool:
    return module is not None and (module == "eastgen" or module.startswith("eastgen."))


def _resolves(module: str, attr: str) -> bool:
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


def test_names_imported_from_eastgen_resolve():
    imported, missing = 0, []
    for name, tree in _parsed().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_eastgen(node.module):
                for alias in node.names:
                    imported += 1
                    if not _resolves(node.module, alias.name):
                        missing.append(f"{name}: from {node.module} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_eastgen(alias.name):
                        imported += 1
                        if not _resolves(alias.name, "__name__"):
                            missing.append(f"{name}: import {alias.name}")
    assert imported
    assert missing == []


def test_traced_layers_resolve():
    (layers,) = (
        node.value for node in _parsed()["traced.py"].body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    pairs = [(v.elts[0].value, v.elts[1].value) for v in layers.values]
    assert pairs
    assert [pair for pair in pairs if not _resolves(*pair)] == []


def test_generation_config_keywords_are_fields():
    fields = {f.name for f in dataclasses.fields(GenerationConfig) if f.init}
    keywords, unknown = 0, []
    for name, tree in _parsed().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called != "GenerationConfig":
                continue
            for keyword in node.keywords:
                keywords += 1
                if keyword.arg not in fields:
                    unknown.append(f"{name}:{node.lineno}: {keyword.arg}")
    assert keywords
    assert unknown == []


def test_generate_calls_the_traced_functions_by_name(tmp_path, monkeypatch):
    """`traced.py` times `generate_batch` and `emit` by rebinding every
    `eastgen.*` module attribute that is the function. A `generate` that
    reached their work some other way would leave those spans at 0, as the
    `k_nearest` span reads since `generate` stopped calling it, where this
    test fails."""
    calls: Counter = Counter()
    rebound: Counter = Counter()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "eastgen" or n.startswith("eastgen.")]
    for original in (generator.generate_batch, generator.emit):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
                    rebound[module.__name__] += 1
    assert rebound["eastgen.cli"] == 2

    corpus = tmp_path / "train.conll"
    corpus.write_text(AIRLINE_CONLL, encoding="utf-8")
    assert main(["build", str(corpus), "--out", str(tmp_path / "trees")]) == 0
    assert main(["generate", "--trees", str(tmp_path / "trees"), "--corpus", str(corpus),
                 "--no-embeddings", "--seed", "1", "--out", str(tmp_path / "aug.conll")]) == 0
    assert calls == {"generate_batch": 1, "emit": 1}
