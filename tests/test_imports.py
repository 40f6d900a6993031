"""Every name a failprop module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import failprop

SRC = Path(failprop.__file__).parent

# (module, name) pairs bound on purpose though the module never uses them:
# the benchmark's tracer wraps and checks failprop.cli.run at that binding
KEPT = {("cli", "run")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert [n for n in unused if (path.stem, n) not in KEPT] == []


def test_checker_sees_an_unused_import():
    tree = ast.parse("from typing import IO, Iterable\nimport json\nx: Iterable[int] = []\n")
    assert _unused_imports(tree) == ["IO", "json"]
