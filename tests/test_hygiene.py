"""Package hygiene: every exported name exists and no import is unused."""

import ast
import importlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "brokerfee"
# __init__.py imports only to re-export the public API
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_all_names_resolve():
    missing = []
    for path in MODULES:
        module = importlib.import_module(f"brokerfee.{path.stem}")
        missing += [f"{path.stem}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for lineno, name in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{lineno}: {name}")
    assert unused == []
