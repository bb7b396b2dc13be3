"""Rules the package states once.

textproc.text_lines states which lines of a resource carry data, and
textproc.data_fields how a tab-separated line splits into fields. No other
module of the package splits a string at a "\\n" or "\\t" literal, so no
loader restates either rule.

Greedy concept matching runs only where a text is analysed: in
conceptlex.question_of for a question, in conceptlex.recognize for
mentions with offsets, and in retrieval.analyse for indexed text. The word
memo is filled by one function, retrieval.word_terms.
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


def calls_by_function(source: str, is_wanted) -> list[str]:
    """The innermost enclosing function (or "<module>") of each call for
    which is_wanted(call) holds, in source order."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and is_wanted(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def package_calls(is_wanted) -> list[tuple[str, str]]:
    """(module, function) of each wanted call in the package."""
    return [
        (path.stem, owner)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for owner in calls_by_function(path.read_text(encoding="utf-8"), is_wanted)
    ]


def test_calls_by_function_names_the_innermost_function():
    source = "f(1)\ndef outer():\n    f(2)\n    def inner():\n        g(f(3))\n    f(4)\n"
    assert calls_by_function(source, lambda call: called_name(call) == "f") == ["<module>", "outer", "inner", "outer"]


def test_longest_matches_is_called_only_where_a_text_is_analysed():
    assert package_calls(lambda call: called_name(call) == "longest_matches") == [
        ("conceptlex", "recognize"), ("conceptlex", "question_of"), ("retrieval", "analyse"),
    ]


def test_one_function_fills_the_word_memo():
    def passes_word_term(call):
        return called_name(call) == "memo_of" and any(
            isinstance(arg, ast.Name) and arg.id == "_word_term" for arg in call.args)

    assert package_calls(passes_word_term) == [("retrieval", "word_terms")]
