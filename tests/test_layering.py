"""Design guards.

Only `models` and `symfunc` know family and alphabet names.  The layers
above them read what a family offers from its ModelSpec (its alphabet and
default tail) and what an alphabet holds through `symfunc`, so
none of them compares a `.family` or `.kind` attribute with a string
literal.

Masses have one representation, the measure's read-only array.  No module
builds a measure from a `.tolist()`, `tuple(...)` or `list(...)`
conversion, or wraps a measure's `.masses` in `np.asarray` or `np.array`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modpoisson"
LAYERS = ("metrics.py", "schemes.py", "suites.py", "cli.py", "io.py")
NAMED_ATTRIBUTES = {"family", "kind"}
MODULES = sorted(path.name for path in SRC.glob("*.py"))
#: calls that build a measure from masses
MEASURE_BUILDERS = {"SignedMeasure", "Pmf", "from_masses"}


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


def _called_name(node):
    """The name a call goes through: f(...) -> f, a.b.f(...) -> f."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_conversion(node):
    return isinstance(node, ast.Call) and _called_name(node) in {"tolist", "tuple", "list"}


def _mass_round_trips(tree):
    """(line, source) of each measure built from a converted sequence and of
    each np.asarray/np.array wrapped around a `.masses`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = [*node.args, *(kw.value for kw in node.keywords)]
        name = _called_name(node)
        if ((name in MEASURE_BUILDERS and any(map(_is_conversion, args)))
                or (name in {"asarray", "array"}
                    and any(isinstance(arg, ast.Attribute) and arg.attr == "masses"
                            for arg in args))):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_builds_no_measure_from_a_converted_sequence(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _mass_round_trips(tree) == []


def test_the_guard_sees_each_mass_round_trip():
    tree = ast.parse("Pmf.from_masses(0, row.tolist())\n"
                     "SignedMeasure(offset, tuple(out.tolist()))\n"
                     "cls.from_masses(offset, masses=list(masses))\n"
                     "np.asarray(base.masses)\n"
                     "numpy.array(nu.masses, dtype=float)\n"
                     "Pmf.from_masses(0, [c / n for c in coeffs])\n"
                     "Pmf(0, masses)\nnp.asarray(weights)\nlen(nu.masses.tolist())\n")
    assert [line for line, _ in _mass_round_trips(tree)] == [1, 2, 3, 4, 5]
