"""Design guard: only `models` and `symfunc` know family and alphabet names.

The layers above them read what a family offers from its ModelSpec (its
alphabet, weights and default tail) and what an alphabet holds through
`symfunc`, so none of them compares a `.family` or `.kind` attribute with
a string literal.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modpoisson"
LAYERS = ("metrics.py", "schemes.py", "suites.py", "cli.py", "io.py")
NAMED_ATTRIBUTES = {"family", "kind"}


def _is_string_literal(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string_literal(elt) for elt in node.elts)
    return False


def _name_comparisons(tree):
    """(line, source) of each comparison of .family or .kind with a string."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(op, ast.Attribute) and op.attr in NAMED_ATTRIBUTES
                for op in operands)
                and any(_is_string_literal(op) for op in operands)):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("module", LAYERS)
def test_layer_compares_no_family_or_kind_with_a_string(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _name_comparisons(tree) == []


def test_the_guard_sees_each_form_of_comparison():
    tree = ast.parse("a.family == 'omega'\n'finite' != b.kind\n"
                     "c.family in ('ewens', 'omega')\nd.model == 'fq'\n")
    assert [line for line, _ in _name_comparisons(tree)] == [1, 2, 3]
