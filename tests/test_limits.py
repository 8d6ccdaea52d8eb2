"""Every resource cap is a module constant: nothing reads the environment."""

import ast
from pathlib import Path

import graphqss

SRC = Path(graphqss.__file__).parent


def _environment_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: _environment_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in modules
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
