"""The rules of resource files are stated once, in textproc.

textproc.text_lines states which lines of a resource carry data, and
textproc.data_fields how a tab-separated line splits into fields. No other
module of the package splits a string at a "\\n" or "\\t" literal, so no
loader restates either rule.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa"


def literal_splits(source: str) -> list[int]:
    """The line of each .split or .rsplit call whose separator is a "\\n" or
    "\\t" literal, given by position or as sep=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("split", "rsplit"):
            separators = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "sep"]
            if any(isinstance(sep, ast.Constant) and sep.value in ("\n", "\t") for sep in separators):
                lines.append(node.lineno)
    return sorted(lines)


def test_literal_splits_finds_each_form():
    source = 'a.split("\\n")\nb.rsplit(sep="\\t")\nc.split("|")\nd.split()\n"x\\ty".split("\\t", 1)\n'
    assert literal_splits(source) == [1, 2, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "textproc.py"))
def test_module_splits_no_line_or_field_literal(module):
    assert literal_splits((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []


def test_textproc_states_each_rule_once():
    assert len(literal_splits((PACKAGE_DIR / "textproc.py").read_text(encoding="utf-8"))) == 2
