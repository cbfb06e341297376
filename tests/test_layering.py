"""Design guards.

Only `models` and `symfunc` know family and alphabet names.  The layers
above them read what a family offers from its ModelSpec (its alphabet and
default tail) and what an alphabet holds through `symfunc`, so
none of them compares a `.family` or `.kind` attribute with a string
literal.

Masses have one representation, the measure's read-only array.  No module
builds a measure from a `.tolist()`, `tuple(...)` or `list(...)`
conversion, or wraps a measure's `.masses` in `np.asarray` or `np.array`.

Each library object has one public name: a module lists in `__all__`
only the classes and functions it defines, and the package root binds
none of them.

Only the command touches the garbage collector (it freezes the heap at
exit); the library leaves collection to its caller.

Every public function and class of the library is reached: some module,
script or benchmark, or the acceptance suite, names it.  A name that only
its own tests call is dead weight, apart from the one exemption below.

The records are plain slot classes: importing the command compiles no
generated code, so `dataclasses` stays unimported.  Every record but the
mutable SuiteResult refuses assignment and deletion after construction.

Importing the command loads every layer module that the benchmark's tracer
wraps, and nothing that only some commands use: `json` is loaded by the
JSON writers, `fractions` by the exact modes, `_suites` by the first suite
run and `_omega` by the first omega count.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modpoisson
from modpoisson import _suites, suites
from modpoisson.metrics import BoundReport
from modpoisson.models import ModelSpec, Pmf, SignedMeasure
from modpoisson.symfunc import Alphabet, ResidueCoeffs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "modpoisson"
LAYERS = ("metrics.py", "schemes.py", "suites.py", "_suites.py", "cli.py", "io.py")
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


def _gc_references(tree):
    """Lines that import or name the `gc` module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if "gc" in names:
            found.append(node.lineno)
    return found


def test_importing_the_command_leaves_dataclasses_unimported():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", "import sys, numpy, modpoisson.cli; "
                           "print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _traced_layers():
    """perfbench/child.py's LAYERS: the modules whose functions its tracer wraps."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])


#: prints, after the import and after each command, the layers not loaded and
#: the lazily loaded modules that are; printing with repr loads no json
LAZY_IMPORT_PROBE = """
import contextlib, io, sys
import numpy
import modpoisson, modpoisson.cli
LAYERS = {layers!r}
LAZY = ("json", "fractions", "decimal", "modpoisson._suites", "modpoisson._omega")

def state(label):
    missing = [layer for layer in LAYERS if "modpoisson." + layer not in sys.modules]
    print(label, missing, [name for name in LAZY if name in sys.modules])

state("import")
for label, argv in (("csv", ["pmf", "--model", "bernoulli", "--weights", "0.1,0.2"]),
                    ("json", ["pmf", "--model", "ewens", "--theta", "1", "--n", "5",
                              "--rational", "--format", "json"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert modpoisson.cli.main(argv) == 0
    state(label)
"""


def test_each_command_loads_only_what_it_uses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = LAZY_IMPORT_PROBE.format(layers=_traced_layers())
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "import [] []",
        "csv [] []",
        "json [] ['json', 'fractions', 'decimal']",
    ]


def test_suite_names_are_the_suite_table_in_order():
    assert suites.SUITE_NAMES == tuple(_suites.SUITES)


def test_an_unknown_suite_is_refused_before_the_suites_are_compiled():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys\nfrom modpoisson import suites\ntry:\n"
             "    suites.run_suite('unknown')\nexcept ValueError as exc:\n    print(exc)\n"
             "print('modpoisson._suites' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"unknown suite 'unknown'; choose from {suites.SUITE_NAMES}", "False"]


IMMUTABLE_RECORDS = {
    "Alphabet": Alphabet.finite([0.25, 0.5]),
    "ResidueCoeffs": ResidueCoeffs(2.0, (0.0, -0.125)),
    "SignedMeasure": SignedMeasure(0, (-0.25, 1.25)),
    "Pmf": Pmf(1, (Fraction(1, 4), Fraction(3, 4))),
    "ModelSpec": ModelSpec.ewens(1.5, 20),
    "BoundReport": BoundReport("m", "f", 3, 1, 2.0, 0.5, 0.1, 0.2, "theorem-b", True, 2.0),
}


@pytest.mark.parametrize("record", IMMUTABLE_RECORDS.values(), ids=IMMUTABLE_RECORDS)
def test_record_fields_refuse_assignment_and_deletion(record):
    fields = [name for cls in type(record).__mro__ for name in getattr(cls, "__slots__", ())]
    assert fields
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_alphabets_compare_and_hash_by_value():
    a, b = Alphabet.finite([0.25, 0.5]), Alphabet("finite", (0.25, 0.5))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert {Alphabet.harmonic(1e-9): "h"}[Alphabet.ewens_limit(1, 1e-9)] == "h"
    for other in (Alphabet.finite([0.25, 0.5], 1e-9), Alphabet.finite([0.5, 0.25]),
                  Alphabet.harmonic()):
        assert a != other
    assert Alphabet.fq_limit(2) != Alphabet.fq_limit(3)
    assert a != (0.25, 0.5) and a != "finite"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"])
def test_library_module_leaves_gc_alone(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _gc_references(tree) == []


def test_the_guard_sees_each_gc_reference():
    tree = ast.parse("import gc\nfrom gc import freeze\ngc.disable()\n"
                     "import gcd\nx.gc = 1\n")
    assert _gc_references(tree) == [1, 2, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_module_exports_only_what_it_defines(module):
    mod = importlib.import_module(f"modpoisson.{module[:-3]}")
    foreign = [name for name in getattr(mod, "__all__", ())
               if callable(value := getattr(mod, name))
               and getattr(value, "__module__", mod.__name__) != mod.__name__]
    assert foreign == []


def test_package_root_binds_only_its_version_and_submodules():
    submodules = {module[:-3] for module in MODULES if module != "__init__.py"}
    for name in submodules:
        importlib.import_module(f"modpoisson.{name}")
    assert {name for name in vars(modpoisson) if not name.startswith("__")} == submodules
    assert isinstance(modpoisson.__version__, str)


def _span(node):
    """The 0-based slice of a module's lines that holds node, decorators included."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return slice(first - 1, node.end_lineno)


def _unreached(library, others):
    """The public module-level functions and classes of the `library` module
    texts that no text names outside their own definition and `__all__`."""
    modules, definitions = [], []
    for index, source in enumerate(library):
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                lines[_span(node)] = [""] * (node.end_lineno - node.lineno + 1)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                definitions.append((node.name, index, _span(node)))
        modules.append(lines)
    unreached = []
    for name, index, span in definitions:
        own = list(modules[index])
        del own[span]
        texts = [*others, *("\n".join(lines) for i, lines in enumerate(modules) if i != index),
                 "\n".join(own)]
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unreached.append(name)
    return unreached


#: public names that only tests reach, each with its reason
REACHED_ONLY_BY_TESTS = {
    # the moment bridge: the README documents it as library API
    "stirling2_elementary_bridge",
}


def test_every_public_function_is_reached():
    library = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    others = [path.read_text(encoding="utf-8")
              for path in [*sorted((ROOT / "scripts").rglob("*.py")),
                           *sorted((ROOT / "perfbench").rglob("*.py")),
                           ROOT / "tests" / "test_acceptance.py"]]
    assert [name for name in _unreached(library, others)
            if name not in REACHED_ONLY_BY_TESTS] == []


def test_the_guard_sees_each_unreached_name():
    library = ['__all__ = [\n    "used",\n    "exported",\n    "recursive",\n    "Kept",\n]\n'
               "def used():\n    return 1\n"
               'def exported():\n    """exported() -> None"""\n'
               "@cache\ndef recursive(n):\n    return recursive(n - 1)\n"
               "class Kept:\n    pass\n"
               "def _private():\n    pass\n",
               "from .a import used\n"]
    assert _unreached(library, ["print(a.Kept)\n"]) == ["exported", "recursive"]
