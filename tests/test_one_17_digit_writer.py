"""Every 17-significant-digit number the package writes comes from one formatter.

``_format17._format17`` writes the CSV numbers byte for byte as ``"%.17g"``
would; only its fallback, for values near a rounding tie, formats a value
by itself. The fallback sits in ``_format17._format_rows``, which formats one
block of rows for ``_format17``. A ``.17g`` format anywhere else (a ``%``
format, a format spec or an f-string) would be a second writer that could
drift from it. This scan of the package source turns that rule into a
check; docstrings may name the format.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "distdyn").glob("*.py"))
FORMATTER = "_format_rows"


def seventeen_digit_formats(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each string that holds a ``.17g`` format."""
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
                and ".17g" in node.value and id(node) not in docstrings):
            hits.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return hits


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_formatter_writes_17_digits(path):
    hits = seventeen_digit_formats(path.read_text())
    assert [h for h in hits if h[0] != FORMATTER] == []


def test_the_formatter_has_one_fallback():
    hits = seventeen_digit_formats((REPO_ROOT / "src" / "distdyn" / "_format17.py").read_text())
    assert [f for f, _ in hits] == [FORMATTER]


@pytest.mark.parametrize("source", [
    'text = "%.17g" % x',
    'text = ",".join(["%.17g"] * n)',
    'text = f"{x:.17g}"',
    'text = format(x, ".17g")',
    'text = "{:.17g}".format(x)',
])
def test_each_form_is_found(source):
    assert seventeen_digit_formats(source) == [(None, 1)]


def test_docstrings_may_name_the_format():
    source = ('"""Numbers are "%.17g" text."""\n'
              "def f(x):\n"
              '    """As "%.17g" writes x."""\n'
              '    return "%.6g" % x\n')
    assert seventeen_digit_formats(source) == []
