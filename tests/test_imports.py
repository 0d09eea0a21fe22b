"""Source hygiene: each module of the package uses every name it imports.

``__init__.py`` is exempt, because its imports are the package's
re-exports.  A name counts as used when it is read anywhere in the module,
including inside a string annotation such as ``-> "CoordinateSpace"``.
The CLI reads input only through public ``serialize`` names, only
``spaces`` reads a measure's integer row or places a kernel's laws, the
oracle's ``_oracle_*`` functions read no fast-path function, and only
``gaussian`` and ``examples`` load numpy when they are imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalkit

MODULES = sorted(p for p in Path(causalkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every name the module reads, string annotations parsed."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_reported():
    tree = ast.parse("from typing import Iterable, Mapping\n"
                     "def f(x: 'Iterable[int]') -> None:\n    pass\n")
    assert [n for n, _ in imported_names(tree) if n not in used_names(tree)] == ["Mapping"]


def private_serialize_names(tree):
    """Underscore names a module takes from ``causalkit.serialize``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module, node.level) in (("serialize", 1),
                                                  ("causalkit.serialize", 0))):
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "serialize" and node.attr.startswith("_")):
            yield node.attr


def test_cli_reads_input_only_through_public_serialize_names():
    path = Path(causalkit.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(private_serialize_names(tree)) == []


def test_a_private_serialize_import_is_reported():
    tree = ast.parse("from .serialize import _require, load\n"
                     "from causalkit.serialize import _coord_list\n"
                     "from . import serialize\nserialize._outcome_table\n")
    assert list(private_serialize_names(tree)) == [
        "_require", "_coord_list", "_outcome_table"]


# a measure's integer row is spaces.py's alone: every other module gets
# (numerators, denominator) pairs or measures from its row primitives; and
# only spaces.py places a kernel's laws, deriving each atom's offset and
# shifting a law when a kernel's rows are read
ROW_FIELDS = {"_nums", "_den"}
PLACERS = {"_shift", "_law_offsets"}


def row_field_reads(tree):
    """(field, line) of each read of a measure's integer row, as an attribute
    or as a string such as a ``getattr`` or ``__dict__`` key, and of each use
    of ``_shift`` or ``_law_offsets``: imported, read by name or attribute,
    or named in a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ROW_FIELDS | PLACERS:
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and node.value in ROW_FIELDS | PLACERS:
            yield node.value, node.lineno
        elif isinstance(node, ast.Name) and node.id in PLACERS and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((a.name, node.lineno) for a in node.names if a.name in PLACERS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "spaces.py"],
                         ids=lambda p: p.name)
def test_only_spaces_reads_a_measures_integer_row(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(row_field_reads(tree)) == []


def test_an_integer_row_read_is_reported():
    tree = ast.parse("def f(m, den):\n    return m._nums, den, m.space\n"
                     "n = getattr(m, '_den')\n_nums = 1\n")
    assert sorted(row_field_reads(tree)) == [("_den", 3), ("_nums", 2)]


def test_a_shift_outside_spaces_is_reported():
    tree = ast.parse("from .spaces import _shift as move, project\n"
                     "from . import spaces\n"
                     "def f(law, offset):\n    return move(law, offset), spaces._shift(law, 1)\n"
                     "g = getattr(spaces, '_shift')\n"
                     "from causalkit.spaces import _shift\nrows = [_shift(m, 2) for m in ms]\n"
                     "def _shift(m):\n    pass\n")
    assert sorted(row_field_reads(tree)) == [
        ("_shift", 1), ("_shift", 4), ("_shift", 5), ("_shift", 6), ("_shift", 7)]


def test_an_offset_derivation_outside_spaces_is_reported():
    tree = ast.parse("from .spaces import StochKernel, _law_offsets as place\n"
                     "def make(k):\n    return place(k.domain, k.codomain, k.read)\n"
                     "from . import spaces\npairs = spaces._law_offsets(d, c, r)\n"
                     "f = getattr(spaces, '_law_offsets')\n"
                     "from causalkit.spaces import _law_offsets\n"
                     "n = len(_law_offsets(d, c, r))\n")
    assert sorted(row_field_reads(tree)) == [
        ("_law_offsets", 1), ("_law_offsets", 5), ("_law_offsets", 6), ("_law_offsets", 7),
        ("_law_offsets", 8)]


# the brute-force oracle shares no checking code with the fast path: its
# agreement with the fast path only means something if they share none.  The
# fast path is every function the fast-path modules define and every private
# method of their classes (such as ``FiniteMeasure._sparse``), but for the two
# enumerators the oracle may share; public methods are the objects' data
FAST_PATH_MODULES = ("spaces", "causal", "transform", "scm", "gaussian", "tolerance")
SHARED_ENUMERATORS = {"subsets_of", "atoms"}


def module_functions(name):
    """Names of a module's functions and of its classes' private methods."""
    path = Path(causalkit.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.endswith("__")]
    return {node.name for node in tree.body + methods if isinstance(node, ast.FunctionDef)}


FAST_PATH_NAMES = set().union(*map(module_functions, FAST_PATH_MODULES)) - SHARED_ENUMERATORS


def fast_path_reads(tree):
    """(function, name) of each fast-path function that an ``_oracle_*``
    function reads, as a name or as an attribute."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_oracle_"):
            for node in ast.walk(fn):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else "")
                if name in FAST_PATH_NAMES:
                    yield fn.name, name


def test_oracle_reads_no_fast_path_checker():
    path = Path(causalkit.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(isinstance(n, ast.FunctionDef) and n.name.startswith("_oracle_")
               for n in ast.walk(tree))
    assert list(fast_path_reads(tree)) == []


def test_a_fast_path_read_in_the_oracle_is_reported():
    tree = ast.parse("def _oracle_a(c):\n    return validate_causal_space(c), spaces._tensor\n"
                     "def _oracle_b(c):\n    return causal.classify_effect_on(c), project(c)\n"
                     "def helper(c):\n    return check_all(c)\n"
                     "def _oracle_x(c, k, m):\n"
                     "    _kernel_part_sums(k, m, 2), spaces._first_difference(m, m)\n"
                     "    spaces._sparse(m), intervene(c, (), m), kernel_compose(k, k)\n"
                     "    transform._push_kernels(k), is_global_source(c, ())\n"
                     "    return subsets_of(c), atoms(c, ())\n")
    assert sorted(fast_path_reads(tree)) == [
        ("_oracle_a", "_tensor"), ("_oracle_a", "validate_causal_space"),
        ("_oracle_b", "classify_effect_on"), ("_oracle_b", "project"),
        ("_oracle_x", "_first_difference"), ("_oracle_x", "_kernel_part_sums"),
        ("_oracle_x", "_push_kernels"), ("_oracle_x", "_sparse"),
        ("_oracle_x", "intervene"), ("_oracle_x", "is_global_source"),
        ("_oracle_x", "kernel_compose")]
    assert {"check_all", "check_tolerance", "rename", "_shift", "_numerator"} <= FAST_PATH_NAMES
    assert not {"subsets_of", "atoms", "kernel", "outcome", "__init__"} & FAST_PATH_NAMES


# numpy is the Gaussian scale's alone: a finite import or check never loads it
NUMPY_MODULES = {"gaussian", "examples"}


def import_time_imports(tree):
    """(module, line) of each import that runs when the module is imported:
    outside functions and ``if TYPE_CHECKING:`` blocks.  A package module is
    named without its package (``from .gaussian import x`` and ``from .
    import gaussian`` give ``gaussian``), any other by its top-level name."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.split(".")
                yield (name[1] if name[0] == "causalkit" and len(name) > 1
                       else name[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0 and parts[0] != "causalkit":
                yield parts[0], node.lineno
            else:  # from .m import x, from . import m, from causalkit.m import x
                inner = parts[1:] if node.level == 0 else parts
                for target in inner[:1] or [alias.name for alias in node.names]:
                    yield target, node.lineno
        elif (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
              and node.test.id == "TYPE_CHECKING"):
            todo += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += [child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.stmt, ast.excepthandler))]


def numpy_at_import(trees):
    """Module name -> (import, line) by which importing it loads numpy,
    directly or through another module of ``trees``."""
    loads = {}
    grew = True
    while grew:
        grew = False
        for name, tree in trees.items():
            if name not in loads:
                for target, line in import_time_imports(tree):
                    if target == "numpy" or target in loads:
                        loads[name] = (target, line)
                        grew = True
                        break
    return loads


def test_only_the_gaussian_modules_import_numpy_when_imported():
    package = Path(causalkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in package.glob("*.py")}
    loads = numpy_at_import(trees)
    assert "gaussian" in loads
    assert {m: why for m, why in loads.items() if m not in NUMPY_MODULES} == {}


def test_an_import_time_numpy_import_is_reported():
    trees = {name: ast.parse(text) for name, text in {
        "gaussian": "import numpy as np\n",
        "direct": "import json\ntry:\n    from numpy import linalg\nexcept ImportError:\n"
                  "    pass\n",
        "through": "from typing import TYPE_CHECKING\nfrom . import report, gaussian\n",
        "absolute": "class A:\n    import causalkit.through\n",
        "deferred": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
                    "    import numpy as np\n    from .gaussian import x\n"
                    "def f():\n    import numpy\n    from .gaussian import x\n",
        "report": "from dataclasses import dataclass\n",
    }.items()}
    assert numpy_at_import(trees) == {"gaussian": ("numpy", 1), "direct": ("numpy", 3),
                                      "through": ("gaussian", 2),
                                      "absolute": ("through", 2)}


FINITE_COMMANDS = """
import contextlib, io, sys
import causalkit, causalkit.cli
fork = sys.argv[1]
commands = [["validate", fork, "--json"], ["classify", fork, "--on", "X", "--target", "Y1"],
            ["source", fork, "--on", "X", "--target", "Y1"],
            ["independence", fork, "--on", "X", "--first", "Y1", "--second", "Y2"]]
commands += [["lemma", lemma_id, "--trials", "1"] for lemma_id in causalkit.LEMMA_IDS]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = causalkit.cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules)
causalkit.check_linear_transform
print("gaussian", "numpy" in sys.modules)
print(sorted(n for n in causalkit.__all__ if getattr(causalkit, n, None) is None))
print(sorted(set(causalkit.__all__) - set(dir(causalkit))))
"""


def test_finite_commands_leave_numpy_unloaded_and_gaussian_names_load_it():
    # a fresh interpreter: this test process has loaded numpy already
    package = Path(causalkit.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", FINITE_COMMANDS,
                           str(package / "corpus" / "fork.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:-3] == ["validate 0 False", "classify 0 False", "source 0 False",
                          "independence 0 False"] + ["lemma 0 False"] * len(causalkit.LEMMA_IDS)
    assert lines[-3:] == ["gaussian True", "[]", "[]"]
