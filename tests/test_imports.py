"""Every module of the package reads each name it imports.

An import line commented "not called here" binds a name only so that the
benchmark's tracer can wrap it, and is exempt; so is `from __future__`.
Each such binding must be one that perfbench/tracer.py's COUNTED lists.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def imported_names(source: str) -> list[tuple[str, bool]]:
    """(bound name, whether its line is marked "not called here") of each
    import but `from __future__`, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                (alias.asname or alias.name.partition(".")[0], "not called here" in lines[alias.lineno - 1])
                for alias in node.names
            ]
    return imported


def unused_imports(source: str) -> list[str]:
    """The names the source imports, unmarked, and never reads, in import order."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name, marked in imported_names(source) if not marked and name not in read]


def counted_bindings(tracer_source: str) -> set[tuple[str, str]]:
    """The (module, attribute) bindings listed in the tracer's COUNTED, read
    from its source without importing it."""
    for node in ast.parse(tracer_source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTED"]:
            return {tuple(binding) for bindings in ast.literal_eval(node.value).values() for binding in bindings}
    raise AssertionError("perfbench/tracer.py assigns no COUNTED")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []


def test_every_marked_import_is_a_binding_the_tracer_counts():
    counted = counted_bindings(TRACER.read_text(encoding="utf-8"))
    marked = [
        (f"bioqa.{path.stem}", name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name, is_marked in imported_names(path.read_text(encoding="utf-8"))
        if is_marked
    ]
    assert marked
    assert [binding for binding in marked if binding not in counted] == []
