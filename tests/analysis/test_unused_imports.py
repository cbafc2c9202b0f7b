"""No unused imports in ``src``, ``tests`` or ``benchmarks``.

The CI lint lane runs ``ruff check src tests benchmarks`` with pyflakes
(``F``) selected; this is its unused-import half (F401) as a plain AST
scan, so the tier-1 run catches an unused import without ruff
installed.  Like pyflakes, a name counts as used when it is read
anywhere in the module, listed in ``__all__``, or named inside a string
annotation.  ``__init__.py`` files (re-exports), the seeded-bug lint
fixtures and imports carrying ``# noqa`` are skipped.
"""

import ast
import os

import pytest

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
ROOTS = ("src", "tests", "benchmarks")
FIXTURES = os.path.join("tests", "analysis", "fixtures")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source):
    """``(line, name)`` for each import *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append((node.lineno, name))
    return found


def _modules(root):
    for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, root)):
        dirnames.sort()
        rel = os.path.relpath(dirpath, REPO)
        if rel == FIXTURES or rel.startswith(FIXTURES + os.sep):
            continue
        for filename in sorted(filenames):
            if filename.endswith(".py") and filename != "__init__.py":
                yield os.path.join(dirpath, filename)


def test_scanner_sees_what_pyflakes_sees():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional, TYPE_CHECKING\n"
        "from json import dumps, loads\n"
        "if TYPE_CHECKING:\n"
        "    from x import Edge\n"
        "__all__ = ['dumps']\n"
        "def f(a: List['Edge']) -> None:\n"
        "    pass\n")
    assert unused_imports(source) == [(1, "os"), (3, "Optional"),
                                      (4, "loads")]


@pytest.mark.parametrize("root", ROOTS)
def test_tree_has_no_unused_imports(root):
    offenders = []
    for path in _modules(root):
        with open(path, encoding="utf-8") as fh:
            for line, name in unused_imports(fh.read()):
                offenders.append(
                    f"{os.path.relpath(path, REPO)}:{line}: {name}")
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
