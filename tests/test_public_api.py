"""The package namespace, and the names its callers import from distdyn."""

import ast
import importlib
import re

import pytest

import distdyn

from conftest import REPO_ROOT

PUBLIC = [
    "DEMO_SPEC", "DistDynError", "Grid", "MalformedRow", "NonFiniteSample", "ProcessSpec",
    "analyze_group", "club_assignments", "default_grid", "dump_panel", "evolve", "load_panel",
    "prepare_panel", "simulate", "stationary_density",
]


def caller_sources():
    """(name, source) of every bench module, the demo generator and README's python blocks."""
    for path in sorted((REPO_ROOT / "bench").glob("*.py")) + [REPO_ROOT / "demo" / "make_demo.py"]:
        yield path.relative_to(REPO_ROOT).as_posix(), path.read_text()
    readme = (REPO_ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)):
        yield f"README.md python block {k}", block


def distdyn_imports(source):
    """(module, name) of each name a ``from distdyn[.module] import ...`` binds."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "distdyn":
            yield from ((node.module, alias.name) for alias in node.names)


CALLERS = list(caller_sources())


@pytest.mark.parametrize("name, source", CALLERS, ids=[name for name, _ in CALLERS])
def test_every_name_a_caller_imports_resolves(name, source):
    for module, attr in distdyn_imports(source):
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):  # a submodule, as in ``from distdyn import cli``
            importlib.import_module(f"{module}.{attr}")


def test_callers_import_from_the_package():
    names = {n for _, source in CALLERS for m, n in distdyn_imports(source) if m == "distdyn"}
    assert {"DEMO_SPEC", "ProcessSpec", "simulate", "load_panel", "analyze_group"} <= names


def test_namespace_is_the_public_names():
    assert sorted(distdyn.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from distdyn import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
