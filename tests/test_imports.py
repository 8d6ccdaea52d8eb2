"""Every name that a module of src/graphqss or a demo imports is used in it.

The package's ``__init__.py`` imports names only to re-export them, so it is
left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.AST) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted((ROOT / "src" / "graphqss").glob("*.py")) if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(modules) > 5 and len(demos) > 3
    found = {
        path.relative_to(ROOT).as_posix(): _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in modules + demos
    }
    assert {name: unused for name, unused in found.items() if unused} == {}
