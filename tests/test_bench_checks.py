"""The benchmark's own output checks (bench/checks.py) pass on a small run.

Every timed benchmark call goes through ``checks.check_output`` and the
accuracy measures, which read the output files and rebuild the true law
from ``distdyn``'s synthesis API. Running them here at a small grid shows
a change that breaks them before the benchmark does.
"""

import importlib

import pytest

from distdyn import cli, dump_panel

ARGV = ["analyze", "--config", "demo/config.json", "--groups", "pooled",
        "--grid-count", "32", "--threads", "1"]


@pytest.fixture
def bench(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)  # the demo config names its input relative to the root
    monkeypatch.syspath_prepend(str(repo_root / "bench"))
    return {name: importlib.import_module(name) for name in ("checks", "run", "workloads")}


@pytest.fixture
def out(bench, tmp_path):
    out = tmp_path / "out"
    assert cli.main(ARGV + ["--out-dir", str(out)]) == 0
    return out


def test_output_passes_the_checks(bench, out):
    assert bench["checks"].check_output(out, 0, None) == []


def test_solver_error_within_the_limit(bench, out):
    error, per_group = bench["checks"].max_solver_l1_error(out)
    assert set(per_group) == {"pooled"}
    assert error <= bench["run"].SOLVER_L1_LIMIT


def test_truth_error_is_finite(bench, out):
    workloads = bench["workloads"]
    spec = workloads.process_spec("two_club", workloads.DEMO_SEED)
    error = bench["checks"].truth_l1_error(out, spec)
    assert 0.0 <= error < float("inf")


def test_demo_workload_panel_is_the_committed_demo(bench, repo_root):
    workloads = bench["workloads"]
    panel = workloads.build_panel(workloads.process_spec("two_club", workloads.DEMO_SEED))
    assert dump_panel(panel) == (repo_root / "demo" / "panel.csv").read_bytes()
