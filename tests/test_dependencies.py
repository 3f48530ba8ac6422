"""The package's only runtime dependency is numpy (pyproject's dependencies)."""

import ast
import sys
from pathlib import Path

import dysplat

PACKAGE = Path(dysplat.__file__).parent


def imported_roots(path):
    """Top-level names of every absolute import in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {p.name: sorted(imported_roots(p) - allowed) for p in modules}
    assert not {name: roots for name, roots in foreign.items() if roots}
