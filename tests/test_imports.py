"""Source hygiene: each module of the package uses every name it imports.

``__init__.py`` is exempt, because its imports are the package's
re-exports.  A name counts as used when it is read anywhere in the module,
including inside a string annotation such as ``-> "CoordinateSpace"``.
The CLI reads input only through public ``serialize`` names, and the
oracle's ``_oracle_*`` functions read no fast-path checker.
"""

import ast
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


# the brute-force oracle shares no checking code with the fast path: its
# agreement with the fast path only means something if they share none
FAST_PATH_NAMES = {"validate_causal_space", "is_source", "rigidity_check", "_classify",
                   "_first_failing_row", "_part_sums", "_mixture", "_push", "_tensor",
                   "project"}
FAST_PATH_PREFIXES = ("classify_effect", "causally_independent", "check_")


def fast_path_reads(tree):
    """(function, name) of each fast-path checker or row primitive that an
    ``_oracle_*`` function reads, as a name or as an attribute."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_oracle_"):
            for node in ast.walk(fn):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else "")
                if name in FAST_PATH_NAMES or name.startswith(FAST_PATH_PREFIXES):
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
                     "def helper(c):\n    return check_all(c)\n")
    assert sorted(fast_path_reads(tree)) == [
        ("_oracle_a", "_tensor"), ("_oracle_a", "validate_causal_space"),
        ("_oracle_b", "classify_effect_on"), ("_oracle_b", "project")]
