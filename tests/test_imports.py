"""Checks on `src/eastgen/` that no linter makes, since none runs on it.

Every top-level import is used by its module: an import left behind when the
code that used it goes would otherwise stay. A module uses a name when it
reads it anywhere in its code, annotations included, or lists it in
`__all__`. Every private top-level name is read somewhere in the package.
Outside `corpus.py`, only `cli._dump_lexicon` reads a lexicon's `.entries`.
"""

import ast
from pathlib import Path

import eastgen

PACKAGE = Path(eastgen.__file__).resolve().parent


def _imported(module: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, with their lines."""
    names: dict[str, int] = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(module: ast.Module) -> set[str]:
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def test_no_module_imports_a_name_it_never_uses():
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
        for name, line in _imported(module).items():
            if name not in read | _exported(module):
                dead.append(f"{path.name}:{line}: {name}")
    assert dead == []


def _defined(module: ast.Module) -> dict[str, ast.stmt]:
    """The private names the module's top-level functions, classes and
    assignments bind, with their statements."""
    names: dict[str, ast.stmt] = {}
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node
    return names


def _reads(node: ast.AST) -> set[str]:
    """The names the code under `node` reads, as a bare name, an attribute
    or an import."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def test_every_private_top_level_name_is_read_in_the_package():
    """A private function, class or constant that no code of the package
    reads, other than its own definition, is dead."""
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    statements = [(name, s) for name, m in modules.items() for s in m.body]
    dead = []
    for name, module in modules.items():
        for private, definition in _defined(module).items():
            if not any(
                private in _reads(s) for _, s in statements if s is not definition
            ):
                dead.append(f"{name}:{definition.lineno}: {private}")
    assert dead == []


# the one function outside corpus.py that may read a lexicon's `.entries`:
# it writes the whole lexicon, so it checks no slot's entry
ENTRIES_READERS = {("cli.py", "_dump_lexicon")}


def test_only_corpus_reads_lexicon_entries():
    """Sampling, regex export and the CLI take a slot's entry from
    EntityLexicon.entry, which checks it; a second reader of `.entries`
    would be a second rule for what a usable entry is."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "corpus.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            id(n) for s in module.body if (path.name, getattr(s, "name", None)) in ENTRIES_READERS
            for n in ast.walk(s)
        }
        readers += [
            f"{path.name}:{n.lineno}" for n in ast.walk(module)
            if isinstance(n, ast.Attribute) and n.attr == "entries" and id(n) not in allowed
        ]
    assert readers == []
