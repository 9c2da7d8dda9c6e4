"""The library stays dependency-free: each of its modules imports only
the standard library and mapcalc itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mapcalc"


def imported_names(tree: ast.AST) -> list[str]:
    """Absolute module names imported anywhere in a module; relative
    imports stay inside the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for name in imported_names(ast.parse(path.read_text(), filename=str(path))):
            top = name.split(".")[0]
            assert top == "mapcalc" or top in sys.stdlib_module_names, f"{path.name} imports {name}"
