"""The package's sums never go through LAPACK or a BLAS matrix product.

A matrix product or a LAPACK call can split its sums by the BLAS thread
count, so its bits could depend on ``OPENBLAS_NUM_THREADS``; the outputs
must not. Sums run through numpy's own reductions, the default ``einsum``
(a fixed-order C loop) and ``np.vecdot`` rows, each one single-thread dot
product. This scan of the package source turns that rule into a check.
"""

import ast

import pytest

from conftest import REPO_ROOT

# attributes (np.linalg, a.dot, np.matmul, ...) and imported names that reach
# a matrix product or LAPACK
FORBIDDEN = {"linalg", "dot", "matmul", "tensordot", "inner", "vdot"}
MODULES = sorted((REPO_ROOT / "src" / "distdyn").glob("*.py"))


def blas_products(source: str) -> list[tuple[int, str]]:
    """(line, what) of each matrix product, LAPACK reach or optimized einsum."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            hits.append((node.lineno, "the @ operator"))
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            hits.append((node.lineno, f"attribute {node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            for part in {p for n in names for p in n.split(".")} & FORBIDDEN:
                hits.append((node.lineno, f"import of {part}"))
        elif isinstance(node, ast.Call) and "einsum" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)) \
                and any(k.arg == "optimize" for k in node.keywords):
            hits.append((node.lineno, "einsum with optimize"))
    return hits


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_blas_products(path):
    assert blas_products(path.read_text()) == []


@pytest.mark.parametrize("source, what", [
    ("y = a @ b", "the @ operator"),
    ("a @= b", "the @ operator"),
    ("x = np.linalg.solve(a, b)", "attribute linalg"),
    ("y = a.dot(b)", "attribute dot"),
    ("y = np.matmul(a, b)", "attribute matmul"),
    ("y = np.tensordot(a, b)", "attribute tensordot"),
    ("y = np.inner(a, b)", "attribute inner"),
    ("y = np.vdot(a, b)", "attribute vdot"),
    ("from numpy.linalg import solve", "import of linalg"),
    ("from numpy import dot", "import of dot"),
    ("y = np.einsum('i,iy->y', c, k, optimize=True)", "einsum with optimize"),
])
def test_each_rule_fires(source, what):
    assert [w for _, w in blas_products(source)] == [what]


def test_allowed_sums_pass():
    source = ("y = np.einsum('i,iy->y', c, k)\n"
              "z = np.vecdot(a, b)\n"
              "s = np.sum(w * v)\n"
              "inner = s + 1\n")
    assert blas_products(source) == []
