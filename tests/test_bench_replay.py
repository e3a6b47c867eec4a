"""The benchmark's traced replay (bench/replay.py) writes what the CLI writes.

The replay re-runs the per-group chain through each layer's public API to
time it, so it must stay the same program as `distdyn analyze`: this is
the check the benchmark's trace mode makes, at a small grid.
"""

import importlib

import pytest

from distdyn import cli

ARGV = ["analyze", "--config", "demo/config.json", "--grid-count", "32", "--threads", "1"]


@pytest.fixture
def replay(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)  # the demo config names its input relative to the root
    monkeypatch.syspath_prepend(str(repo_root / "bench"))
    return importlib.import_module("replay")


def test_replay_bytes_equal_the_cli_files(replay, tmp_path):
    out = tmp_path / "out"
    assert cli.main(ARGV + ["--out-dir", str(out)]) == 0
    files, _ = replay.replay(replay.config_for(ARGV), replay.Tracer())
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(files) == written - {"manifest.json"}
    differ = sorted(name for name, data in files.items() if (out / name).read_bytes() != data)
    assert differ == []
