"""Modules of the package share only public names."""

import ast
from pathlib import Path

import hqrsim

PACKAGE = Path(hqrsim.__file__).parent


def private_imports(path: Path):
    """`from <hqrsim module> import _name` statements in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # module is None only in a relative "from . import name"
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hqrsim")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def test_no_private_cross_module_imports():
    assert [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)] == []
