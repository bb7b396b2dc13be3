"""Rules the package states once.

textproc.text_lines states which lines of a resource carry data, and
textproc.data_fields how a tab-separated line splits into fields. No other
module of the package splits a string at a "\\n" or "\\t" literal, so no
loader restates either rule.

Greedy concept matching runs only where a text is analysed: in
conceptlex.question_of, which retrieval.analyse reads for any text, and in
conceptlex.recognize for mentions with offsets. The word memo is filled by
one function, retrieval.word_terms, and only retrieval calls it.

The idf of a BM25 query term, and which query terms score, are stated by
retrieval._idf_weights, the one place a logarithm is taken.

Each CLI subcommand is bound to its handler where its parser is declared;
no table maps command names to handlers. Each CLI flag is stated once, in
its declaration: every numeric flag's type carries its value rule, no
default is a number written in cli.py, and no check reads the parsed
flags after parsing.

Where a question-pattern element can start is stated by qclass._start; only
it and qclass._compile, which dispatches on the element kind, test for a
TagMatch.
"""

import argparse
import ast
from pathlib import Path

import pytest

from bioqa import cli

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
        ("conceptlex", "recognize"), ("conceptlex", "question_of"),
    ]


def test_one_function_fills_the_word_memo():
    def passes_word_term(call):
        return called_name(call) == "memo_of" and any(
            isinstance(arg, ast.Name) and arg.id == "_word_term" for arg in call.args)

    assert package_calls(passes_word_term) == [("retrieval", "word_terms")]


def test_only_retrieval_calls_word_terms():
    assert {module for module, _ in package_calls(lambda call: called_name(call) == "word_terms")} == {"retrieval"}


def test_a_logarithm_is_taken_only_for_the_idf_weights():
    assert package_calls(lambda call: called_name(call) == "log") == [("retrieval", "_idf_weights")]


def test_each_subcommand_is_bound_to_its_handler_where_it_is_declared():
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: p.get_default("handler") for name, p in subcommands.choices.items()} == {
        name: getattr(cli, "cmd_" + name.replace("-", "_")) for name in subcommands.choices
    }


def test_cli_has_no_table_of_handlers():
    source = (PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")
    assert [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict) and any(
        isinstance(value, ast.Name) and value.id.startswith("cmd_") for value in node.values)] == []


def test_only_the_start_rule_and_the_compiler_test_for_a_tag_match():
    def tests_tag_match(call):
        return called_name(call) == "isinstance" and any(
            isinstance(arg, ast.Name) and arg.id == "TagMatch" for arg in call.args[1:])

    assert package_calls(tests_tag_match) == [("qclass", "_start"), ("qclass", "_compile")]


def cli_tree() -> ast.Module:
    return ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))


def test_cli_reads_no_flag_that_a_command_may_lack():
    def probes_args(node):
        return (isinstance(node, ast.Call) and called_name(node) == "getattr" and len(node.args) == 3
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "args")

    assert [node.lineno for node in ast.walk(cli_tree()) if probes_args(node)] == []


def test_every_numeric_flag_carries_a_rule():
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [(name, action.dest) for name, p in subcommands.choices.items() for action in p._actions
            if action.type in (int, float)] == []


def is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_is_number_finds_each_form():
    values = [ast.parse(text, mode="eval").body for text in ("42", "-1.5", "+3", "True", "None", "'7'", "x")]
    assert [is_number(value) for value in values] == [True, True, True, False, False, False, False]


def test_no_cli_default_is_a_number_literal():
    defaults = []
    for node in ast.walk(cli_tree()):
        if isinstance(node, ast.Call):
            defaults += [kw.value for kw in node.keywords if kw.arg == "default"]
        if isinstance(node, ast.Dict):
            defaults += [v for k, v in zip(node.keys, node.values) if isinstance(k, ast.Constant) and k.value == "default"]
    assert defaults and [node.lineno for node in defaults if is_number(node)] == []
