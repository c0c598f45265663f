"""Every top-level import in `src/eastgen/` is used by its module.

No linter runs on the package, so an import left behind when the code that
used it goes would otherwise stay. A module uses a name when it reads it
anywhere in its code, annotations included, or lists it in `__all__`.
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
