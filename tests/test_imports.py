"""Every module of the package reads each name it imports.

An import line commented "not called here" binds a name only so that the
benchmark's tracer can wrap it, and is exempt; so is `from __future__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa"


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                alias.asname or alias.name.partition(".")[0] for alias in node.names
                if "not called here" not in lines[alias.lineno - 1]
            ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []
