"""Every name a module of the package imports is used in that module, and
every function and class the package defines is used somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvg"
# __init__.py imports to re-export, so its imports are no use either.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The code that may use a definition: the package, the demos and the benchmark.
USERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# Definitions with no user yet, each with the reason it stays.
UNUSED_ALLOWED = {
    "graph_stats": "ROADMAP item 5 gives the per-graph statistics a caller",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import json\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n") == [
        "json (line 1)",
        "b (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[str]:
    """The module-level functions and classes of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def references(source: str) -> set[str]:
    """Every name a module reads: names, attributes, and imported names (so
    ``from a import erf as _erf`` refers to ``erf``)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_reference_scan_sees_aliases_and_attributes():
    source = "from a import erf as _erf\nimport b.c as d\nd.f(_erf)\ndef g():\n    pass\n"
    assert definitions(source) == ["g"]
    assert {"erf", "c", "f"} <= references(source)
    assert "g" not in references(source)


def test_every_definition_has_a_user():
    used = set().union(*(references(p.read_text(encoding="utf-8")) for p in USERS))
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in definitions(path.read_text(encoding="utf-8"))
        if name not in used and name not in UNUSED_ALLOWED
    ]
    assert unused == []
    assert not set(UNUSED_ALLOWED) & used, "an allowed definition found a user: drop it from the list"
