"""Every two-decimal number the package writes comes from one writer.

The SVG coordinates are the text of ``"%.2f" % v``. ``viz._fixed2`` writes
them as byte rows from word tables, and hands each value it cannot write
from the tables to ``viz._px``, which also writes the few scalar axis and
legend numbers. ``_px`` holds the package's only ``.2f`` format. A ``.2f``
format anywhere else (a ``%`` format, a format spec or an f-string) would
be a second writer that could drift from it. This scan of the package
source turns that rule into a check; docstrings may name the format.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "distdyn").glob("*.py"))
WRITER = "_px"


def two_decimal_formats(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each string that holds a ``.2f`` format."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".2f" in node.value and id(node) not in docstrings):
            hits.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return hits


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_writer_formats_two_decimals(path):
    hits = two_decimal_formats(path.read_text())
    assert [h for h in hits if h[0] != WRITER] == []


def test_the_writer_has_one_format():
    hits = two_decimal_formats((REPO_ROOT / "src" / "distdyn" / "viz.py").read_text())
    assert [f for f, _ in hits] == [WRITER]


@pytest.mark.parametrize("source", [
    'text = "%.2f" % x',
    'text = "%8.2f" % x',
    'text = " ".join(["M%.2f %.2f"] * n) % tuple(ends)',
    'text = f"{x:.2f}"',
    'text = f"M{x:.2f} {y}"',
    'text = format(x, ".2f")',
    'text = "{:.2f}".format(x)',
])
def test_each_form_is_found(source):
    assert two_decimal_formats(source) == [(None, 1)]


def test_a_format_inside_a_function_is_named_by_it():
    source = "def f(x):\n    return '%.2f,%.2f' % x\n"
    assert two_decimal_formats(source) == [("f", 2)]


def test_docstrings_may_name_the_format():
    source = ('"""Coordinates are "%.2f" text."""\n'
              "def f(x):\n"
              '    """As "%.2f" writes x."""\n'
              '    return "%.3g" % x\n')
    assert two_decimal_formats(source) == []
