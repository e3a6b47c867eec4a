"""The three byte writers share one padded-table builder and one row joiner.

The CSV numbers (``_format17._format_rows``), the panel rows
(``panel.dump_panel``) and the SVG numbers (``viz._fixed2``) are padded byte
rows. ``_format17._padded`` builds every table of texts padded with
``_PAD``, and ``_format17._joined`` puts tables side by side. A ``.ljust(``
call anywhere else would be a second table builder, and a ``concatenate``
along the rows' bytes (``axis=1``) a second joiner. This scan of the package
source turns that rule into a check; docstrings may name either form.
"""

import ast

import numpy as np
import pytest

from conftest import REPO_ROOT
from distdyn._format17 import _PAD, _joined, _padded

MODULES = sorted((REPO_ROOT / "src" / "distdyn").glob("*.py"))
BUILDER = "_padded"


def table_calls(source: str) -> list[tuple[str, str | None, int]]:
    """(form, enclosing function, line) of each ``.ljust(`` call and each
    ``concatenate`` call along axis 1, by keyword or by position."""
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            axis = [k.value for k in node.keywords if k.arg == "axis"] + node.args[1:2]
            if name == "ljust":
                hits.append(("ljust", function, node.lineno))
            elif name == "concatenate" and any(
                    isinstance(a, ast.Constant) and a.value == 1 for a in axis):
                hits.append(("concatenate", function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return hits


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_builder_pads_texts(path):
    hits = table_calls(path.read_text())
    assert [h for h in hits if h[:2] != ("ljust", BUILDER)] == []


def test_the_builder_is_in_format17():
    hits = table_calls((REPO_ROOT / "src" / "distdyn" / "_format17.py").read_text())
    assert [h[:2] for h in hits] == [("ljust", BUILDER)]


@pytest.mark.parametrize("source, form", [
    ("row = text.ljust(45, _PAD)", "ljust"),
    ('row = "a".ljust(3)', "ljust"),
    ('table = b"".join(t.ljust(w, b"\\xff") for t in texts)', "ljust"),
    ("rows = np.concatenate((a, b), axis=1)", "concatenate"),
    ("rows = numpy.concatenate([a, b, c], axis=1)", "concatenate"),
    ("rows = concatenate((a, b), axis=1)", "concatenate"),
    ("rows = np.concatenate((a, b), 1)", "concatenate"),
])
def test_each_form_is_found(source, form):
    assert table_calls(source) == [(form, None, 1)]


def test_a_call_inside_a_function_is_named_by_it():
    source = "def f(a, b):\n    return np.concatenate((a, b), axis=1)\n"
    assert table_calls(source) == [("concatenate", "f", 2)]


@pytest.mark.parametrize("source", [
    "rows = np.concatenate((a, b))",
    "rows = np.concatenate((a, b), axis=0)",
    "rows = np.concatenate((a, b), 0)",
    "rows = np.concatenate(parts, axis=None)",
    "rows = just(text, 8)",
])
def test_other_calls_pass(source):
    assert table_calls(source) == []


def test_docstrings_may_name_the_forms():
    source = ('"""Rows as text.ljust(w) and np.concatenate((a, b), axis=1) would build them."""\n'
              "def f(a):\n"
              '    """Not a.ljust(8), nor concatenate(a, axis=1)."""\n'
              "    return a\n")
    assert table_calls(source) == []


def rows_text(rows: np.ndarray) -> list[bytes]:
    return [bytes(r) for r in rows]


class TestPadded:
    def test_rows_are_padded_to_the_longest(self):
        rows = _padded([b"ab", b"", b"cde"])
        assert rows.shape == (3, 3)
        assert rows_text(rows) == [b"ab" + _PAD, _PAD * 3, b"cde"]

    def test_a_width_above_every_text_pads_to_it(self):
        rows = _padded([b"ab", b"c"], 5)
        assert rows.shape == (2, 5)
        assert rows_text(rows) == [b"ab" + _PAD * 3, b"c" + _PAD * 4]

    def test_a_width_below_the_longest_text_is_the_longest(self):
        assert _padded([b"abcd", b"c"], 2).shape == (2, 4)

    @pytest.mark.parametrize("width", [0, 1, 45])
    def test_no_texts_is_an_empty_table_of_the_width(self, width):
        rows = _padded([], width)
        assert rows.shape == (0, width)
        assert rows.dtype == np.uint8


class TestJoined:
    def test_columns_side_by_side(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 256, (5, 3), np.uint8), rng.integers(0, 256, (5, 7), np.uint8)
        each = np.frombuffer(b"<>", np.uint8)
        want = np.concatenate((np.tile(each, (5, 1)), a, b, a[:, :1]), axis=1)
        assert np.array_equal(_joined(b"<>", a, b, a[:, :1]), want)

    def test_a_column_zero_bytes_wide_adds_nothing(self):
        a = np.frombuffer(b"abcdef", np.uint8).reshape(3, 2)
        empty = np.empty((3, 0), np.uint8)
        rows = _joined(empty, b"", a, b",", empty)
        assert rows_text(rows) == [b"ab,", b"cd,", b"ef,"]

    def test_zero_rows(self):
        rows = _joined(np.empty((0, 2), np.uint8), b"xy", np.empty((0, 3), np.uint8))
        assert rows.shape == (0, 7)

    def test_a_strided_column_is_copied_in_order(self):
        a = np.arange(24, dtype=np.uint8).reshape(4, 6)
        assert np.array_equal(_joined(a[:, ::2], a[::-1, 1:3]),
                              np.concatenate((a[:, ::2], a[::-1, 1:3]), axis=1))
