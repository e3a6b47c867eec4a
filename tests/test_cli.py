"""Command line interface: argument handling, outputs, manifests, exit codes."""

import argparse
import csv
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import strict_json
from distdyn import cli, load_panel, pipeline
from distdyn.cli import ENV_OUT_DIR, main
from distdyn.dynamics import ergodic_distribution
from distdyn.panel import build_transition_pairs, to_relative
from distdyn.report import build_report, find_modes
from distdyn.synthesis import ProcessSpec

HEADER = "unit_id,sector,region,year,income\n"


def write_panel(path, n_units=30, years=(1999, 2000, 2001, 2002), seed=77):
    rng = np.random.default_rng(seed)
    rows = [HEADER]
    for u in range(n_units):
        sector = "urban" if u % 2 == 0 else "rural"
        region = ("east", "central", "west")[u % 3]
        base = rng.uniform(0.5, 4.0)
        for year in years:
            rows.append(
                f"h{u:02d},{sector},{region},{year},{base * rng.uniform(0.8, 1.25)!r}\n"
            )
    path.write_text("".join(rows))
    return path


def run_analyze(tmp_path, panel, out_name="out", *extra):
    out_dir = tmp_path / out_name
    code = main(
        [
            "analyze",
            "--input", str(panel),
            "--out-dir", str(out_dir),
            "--grid-count", "64",
            *extra,
        ]
    )
    return code, out_dir


class TestAnalyze:
    def test_writes_expected_files(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        expected = {
            "pairs.csv", "kernel.csv", "contour.svg", "surface.svg",
            "ntp.csv", "ntp.svg", "ergodic.csv", "ergodic.svg", "report.json",
        }
        assert {p.name for p in (out / "pooled").iterdir()} == expected
        assert (out / "manifest.json").is_file()

    def test_manifest_hashes_are_correct(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["grid"]["count"] == 64
        for rel, digest in manifest["files"].items():
            data = (out / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_rerun_is_byte_identical(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        _, out1 = run_analyze(tmp_path, panel, "out1")
        _, out2 = run_analyze(tmp_path, panel, "out2")
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        m = json.loads((out1 / "manifest.json").read_text())
        for rel in m["files"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        _, out1 = run_analyze(tmp_path, panel, "out1", "--groups", "pooled,per-sector", "--threads", "1")
        _, out2 = run_analyze(tmp_path, panel, "out2", "--groups", "pooled,per-sector", "--threads", "6")
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_group_expansion(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(
            tmp_path, panel, "out", "--groups", "pooled,per-sector,poorest-fraction"
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        labels = [g["label"] for g in manifest["groups"]]
        assert labels == ["pooled", "urban", "rural", "poorest"]

    def test_reported_counts_match_inputs(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", n_units=20, years=(1999, 2000, 2001))
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        report = json.loads((out / "pooled" / "report.json").read_text())
        assert report["group_label"] == "pooled"
        assert report["sample_counts"]["observations"] == 60
        assert report["sample_counts"]["units"] == 20
        assert report["sample_counts"]["pairs"] == 40
        assert abs(sum(report["region_shares"].values()) - 1.0) < 1e-12

    def test_pairs_csv_round_trips(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        lines = (out / "pooled" / "pairs.csv").read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 1 + 90  # 30 units x 3 consecutive pairs

    def test_not_converged_keeps_partial_outputs(self, tmp_path):
        # no solve meets tol 1e-300: the deltas stop shrinking at the rounding floor
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel, "out", "--tol", "1e-300")
        assert code == 4
        manifest = strict_json(out / "manifest.json")
        entry = manifest["groups"][0]
        assert entry["status"] == "not_converged"
        assert len(entry["last_deltas"]) == 2
        assert all(isinstance(d, float) and math.isfinite(d) for d in entry["last_deltas"])
        files = {p.name for p in (out / "pooled").iterdir()}
        assert "ntp.csv" in files
        assert "kernel.csv" in files
        assert "ergodic.csv" not in files
        assert "report.json" not in files

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_thread_runs_groups_in_the_calling_thread(self, tmp_path, monkeypatch, threads):
        seen = []
        run_group = cli._run_group

        def recording(*args):
            seen.append(threading.current_thread())
            return run_group(*args)

        monkeypatch.setattr(cli, "_run_group", recording)
        panel = write_panel(tmp_path / "panel.csv")
        code, _ = run_analyze(tmp_path, panel, "out", "--groups", "pooled,per-sector",
                              "--threads", str(threads))
        assert code == 0
        assert len(seen) == 3
        on_main = [t is threading.main_thread() for t in seen]
        assert on_main == [threads == 1] * 3

    def test_failed_group_recorded_without_aborting(self, tmp_path):
        # the east region has a single unit observed in a single year, so no
        # transition pairs exist for it; other groups must still complete
        rows = [HEADER]
        rng = np.random.default_rng(5)
        for u in range(12):
            for year in (1999, 2000, 2001):
                rows.append(f"w{u},urban,west,{year},{rng.uniform(1.0, 4.0)!r}\n")
        rows.append("lone,urban,east,1999,2.5\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("".join(rows))
        code, out = run_analyze(tmp_path, panel, "out", "--groups", "pooled,per-region")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        status = {g["label"]: g["status"] for g in manifest["groups"]}
        assert status["east"] == "failed"
        assert status["pooled"] == "ok"
        assert status["west"] == "ok"
        assert "error" in next(g for g in manifest["groups"] if g["label"] == "east")

    def test_input_path_with_comma(self, tmp_path):
        (tmp_path / "a,b").mkdir()
        panel = write_panel(tmp_path / "a,b" / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        assert (out / "manifest.json").is_file()

    def test_manifest_echoes_groups_in_normal_form(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        manifests = []
        for k, groups in enumerate(("pooled", "pooled,pooled", " pooled ")):
            code, out = run_analyze(tmp_path, panel, f"out{k}", "--groups", groups)
            assert code == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]
        assert json.loads(manifests[0])["config"]["groups"] == "pooled"

    def test_missing_input_flag(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path / "o")]) == 2

    def test_nonexistent_input_file(self, tmp_path):
        code = main(
            ["analyze", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 3

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,panel\n1,2,3\n")
        code = main(["analyze", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("row, error", [
        (b"a,urban,east,99999999999999999999,1\n", "row 2: year '99999999999999999999' is not an integer"),
        (b"a,urban,east,1999,\xff\n", "byte 52: input is not UTF-8 (invalid start byte)"),
    ])
    def test_year_out_of_range_or_bytes_not_utf8(self, tmp_path, capsys, row, error):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(HEADER.encode() + row)
        code = main(["analyze", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("head, row", [("unit_id{long}", 1), ("unit_id", 2)])
    def test_over_long_field_exits_3(self, tmp_path, capsys, head, row):
        limit = csv.field_size_limit()
        data = head + ",sector,region,year,income\n{long},urban,east,1999,1\na,urban,east,1999,-1\n"
        bad = tmp_path / "bad.csv"
        bad.write_text(data.format(long="u" * (limit + 1)))
        code = main(["analyze", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"error: row {row}: field larger than field limit ({limit})\n"

    def test_header_only_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER)
        code = main(["analyze", "--input", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 3

    def test_bad_grid_count(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, _ = run_analyze(tmp_path, panel, "out", "--grid-count", "8")
        assert code == 2

    def test_bad_group_token(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, _ = run_analyze(tmp_path, panel, "out", "--groups", "pooled,per-planet")
        assert code == 2

    def test_bad_scope(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, _ = run_analyze(tmp_path, panel, "out", "--scope", "galactic")
        assert code == 2

    def test_bad_fraction(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, _ = run_analyze(tmp_path, panel, "out", "--fraction", "0")
        assert code == 2

    @pytest.mark.parametrize("flags, config", [
        (["--bandwidth-x", "inf"], None),
        (["--prominence", "nan"], None),
        (["--tol", "inf"], None),
        (["--grid-upper-factor", "inf"], None),
        ([], '"tol": Infinity'),  # json.load accepts Infinity and NaN
        ([], '"tol": 1' + "0" * 400),  # an integer no float can hold
    ], ids=["bandwidth-x", "prominence", "tol", "grid-upper-factor", "config", "config-overflow"])
    def test_non_finite_setting_rejected_before_reading(self, tmp_path, monkeypatch, flags, config):
        panel = write_panel(tmp_path / "panel.csv")
        if config is None:
            flags = ["--input", str(panel), *flags]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(f'{{"input": {json.dumps(str(panel))}, {config}}}')
            flags = ["--config", str(cfg)]
        reads = []
        monkeypatch.setattr(cli, "load_panel", reads.append)
        out = tmp_path / "out"
        assert main(["analyze", "--out-dir", str(out), *flags]) == 2
        assert not (out / "manifest.json").exists()
        assert reads == []

    @pytest.mark.parametrize("bandwidths", [
        ["--bandwidth-x", "1e-9"],
        ["--bandwidth-y", "1e-9"],
        ["--bandwidth-x", "1e-300"],  # z*z overflows
        ["--bandwidth-y", "1e-300"],
        ["--bandwidth-x", "1e-300", "--bandwidth-y", "1e-300"],  # 1/(n*h_x*h_y) overflows
    ], ids=["--bandwidth-x", "--bandwidth-y", "--bandwidth-x-1e-300", "--bandwidth-y-1e-300",
            "both-1e-300"])
    def test_kde_without_mass_fails_group(self, tmp_path, demo_panel_path, bandwidths):
        # a bandwidth far below the grid spacing puts no mass on the grid
        code = main(["analyze", "--input", str(demo_panel_path), "--out-dir", str(tmp_path),
                     "--grid-count", "32", *bandwidths])
        assert code == 3
        entry = json.loads((tmp_path / "manifest.json").read_text())["groups"][0]
        assert entry["status"] == "failed"
        assert "puts no mass on the grid" in entry["error"]

    @pytest.mark.parametrize("groups", ["per-sector", "pooled"])
    @pytest.mark.parametrize("factor", ["1e170", "1e200", "1e300"])
    def test_huge_grid_upper_factor_fails_groups(self, tmp_path, demo_panel_path, groups, factor):
        # the KDE's mass overflows, or its values underflow when divided by it
        code = main(["analyze", "--input", str(demo_panel_path), "--out-dir", str(tmp_path),
                     "--grid-count", "16", "--groups", groups, "--grid-upper-factor", factor])
        assert code == 3
        entries = json.loads((tmp_path / "manifest.json").read_text())["groups"]
        assert len(entries) == (2 if groups == "per-sector" else 1)
        for entry in entries:
            assert entry["status"] == "failed"
            assert re.match(r"joint KDE at bandwidths \(.*\) (has a mass beyond the floating-point "
                            r"range|cannot be normalized) on the grid of spacing ", entry["error"])

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        panel = write_panel(tmp_path / "panel.csv")
        target = tmp_path / "env-out"
        monkeypatch.setenv(ENV_OUT_DIR, str(target))
        code = main(["analyze", "--input", str(panel), "--grid-count", "64"])
        assert code == 0
        assert (target / "manifest.json").is_file()

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch):
        panel = write_panel(tmp_path / "panel.csv")
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "env-out"))
        code, out = run_analyze(tmp_path, panel, "flag-out")
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert not (tmp_path / "env-out").exists()


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class TestStrictJson:
    @pytest.fixture(scope="class")
    def demo_out(self, tmp_path_factory, demo_config_path, demo_panel_path):
        out = tmp_path_factory.mktemp("strict") / "out"
        code = main(["analyze", "--config", str(demo_config_path), "--input", str(demo_panel_path),
                     "--grid-count", "32", "--out-dir", str(out)])
        assert code == 0
        return out

    def test_reports_are_strict_json_with_numbers(self, demo_out):
        manifest = strict_json(demo_out / "manifest.json")
        assert len(manifest["groups"]) == 7
        for g in manifest["groups"]:
            report = strict_json(demo_out / g["label"] / "report.json")
            assert is_number(report["ergodic_residual"])
            assert is_number(report["ergodic_error_bound"])
            assert report["modes"]
            for mode in report["modes"]:
                assert list(mode) == ["location", "value", "prominence"]
                assert all(is_number(v) for v in mode.values())
            assert all(is_number(c) for c in report["ntp_crossings"])
            assert all(is_number(v) for v in report["region_shares"].values())

    def test_manifest_is_strict_json_with_numbers(self, demo_out):
        manifest = strict_json(demo_out / "manifest.json")
        for g in manifest["groups"]:
            assert g["status"] == "ok"
            assert is_number(g["ergodic_residual"])
            report = strict_json(demo_out / g["label"] / "report.json")
            assert g["ergodic_residual"] == report["ergodic_residual"]
            assert is_number(g["ergodic_error_bound"])
            assert g["ergodic_error_bound"] == report["ergodic_error_bound"] <= 1e-10
            assert g["support_components"]
            for block in g["support_components"]:
                assert len(block) == 2 and all(is_number(v) for v in block)
        assert all(is_number(manifest["grid"][k]) for k in ("lower", "upper", "count"))

    def test_manifest_lists_each_file_once(self, demo_out):
        raw = (demo_out / "manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(raw)
        written = {p.relative_to(demo_out).as_posix() for p in demo_out.rglob("*") if p.is_file()}
        assert set(manifest["files"]) == written - {"manifest.json"}
        assert len(manifest["files"]) == 63
        for name in manifest["files"]:
            assert raw.count(json.dumps(name)) == 1, name
        assert all("files" not in g for g in manifest["groups"])


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(panel), "grid-count": 64, "tau": 2}))
        out = tmp_path / "out"
        code = main(["analyze", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tau"] == 2
        assert manifest["config"]["grid-count"] == 64

    def test_flag_beats_config_file(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(panel), "grid-count": 64, "tau": 1}))
        out = tmp_path / "out"
        code = main(["analyze", "--config", str(cfg), "--out-dir", str(out), "--tau", "2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tau"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"inputs": "x.csv"}))
        assert main(["analyze", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, extra", [
        ("analyze", {"seed": 5, "kind": "bogus"}),
        ("simulate", {"tau": 2}),
        ("compare-years", {"groups": "pooled"}),
    ], ids=["analyze", "simulate", "compare-years"])
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys, command, extra):
        panel = write_panel(tmp_path / "panel.csv")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(panel), **extra} if command != "simulate"
                                  else extra))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"is not a setting of {command}" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_type_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": "x.csv", "tau": "one"}))
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_bad_json_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_manifest_config_echo_omits_out_dir(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "out-dir" not in manifest["config"]
        assert "threads" not in manifest["config"]

    def test_manifest_config_echo_keys(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["config"]) == [
            "input", "tau", "grid-count", "grid-upper-factor", "scope", "groups",
            "fraction", "base-year", "bandwidth-x", "bandwidth-y", "tol", "max-iter",
            "prominence",
        ]


class TestSimulate:
    def test_writes_panel(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--kind", "ar1_log", "--units", "12", "--years", "4",
             "--seed", "9", "--out-dir", str(out)]
        )
        assert code == 0
        panel = load_panel(out / "panel.csv")
        assert len(panel) == 48
        assert set(panel.sector) == {"urban"}
        assert set(panel.region) == {"other"}

    def test_deterministic_across_runs(self, tmp_path):
        args = ["simulate", "--kind", "two_club", "--units", "20", "--years", "5", "--seed", "4"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()

    def test_invalid_spec_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "--kind", "ar1_log", "--rho", "1.0", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--kind", "two_club", "--club-pull", "1e-17"],  # 1 - (1 - pull)^2 rounds to 0
        ["--sigma", "1e10"],  # exp overflows
    ])
    def test_spec_it_cannot_produce_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["simulate", *flags, "--units", "3", "--years", "3", "--out-dir", str(out)]) == 2
        assert "floating-point range" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_bad_club_centers_string(self, tmp_path):
        code = main(
            ["simulate", "--kind", "two_club", "--club-centers", "0.5",
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2


class TestCompareYears:
    def test_writes_csv_and_svg(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", years=(1999, 2005, 2013))
        out = tmp_path / "cmp"
        code = main(["compare-years", "--input", str(panel), "--out-dir", str(out),
                     "--grid-count", "64"])
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "x"
        assert "urban 1999" in header and "urban 2013" in header
        assert "rural 1999" in header and "rural 2013" in header
        assert len(lines) == 65
        assert (out / "compare.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("flags", [["--grid-count", "8"], ["--scope", "bogus"]])
    def test_bad_setting_is_config_error(self, tmp_path, flags):
        panel = write_panel(tmp_path / "panel.csv", years=(1999, 2005))
        code = main(["compare-years", "--input", str(panel),
                     "--out-dir", str(tmp_path / "o"), *flags])
        assert code == 2

    def test_missing_input_flag(self, tmp_path):
        assert main(["compare-years", "--out-dir", str(tmp_path / "o")]) == 2

    def test_single_year_panel_fails(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", years=(1999,))
        code = main(["compare-years", "--input", str(panel), "--out-dir", str(tmp_path / "o")])
        assert code == 3


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "distdyn", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
    assert "simulate" in proc.stdout
    assert "compare-years" in proc.stdout


def test_manifest_same_at_any_blas_thread_count(tmp_path, demo_config_path, demo_panel_path):
    """The demo analysis writes the same bytes with 1 and 2 OpenBLAS threads.

    The joint KDE contracts through BLAS ddot; a gemm would block its sums
    by thread count. OpenBLAS uses at most as many threads as there are
    cores, so on one core both runs are the same configuration.
    """
    manifests = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas-{blas_threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "distdyn", "analyze", "--config", str(demo_config_path),
             "--input", str(demo_panel_path), "--out-dir", str(out), "--threads", "1"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": blas_threads},
        )
        assert proc.returncode == 0, proc.stderr
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_help_lists_documented_flags():
    """Every documented flag shows up on the subcommand where it has effect."""
    def help_for(sub):
        proc = subprocess.run(
            [sys.executable, "-m", "distdyn", sub, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        return proc.stdout

    analyze = help_for("analyze")
    for flag in ("--config", "--input", "--out-dir", "--tau", "--grid-count",
                 "--scope", "--groups", "--fraction", "--base-year", "--tol",
                 "--max-iter", "--prominence", "--threads"):
        assert flag in analyze
    # Analysis is deterministic, so --seed belongs to simulate only.
    assert "--seed" not in analyze

    simulate = help_for("simulate")
    for flag in ("--config", "--out-dir", "--seed", "--units", "--years"):
        assert flag in simulate


def subcommand_flags() -> dict[str, set[str]]:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_offers_exactly_its_settings():
    assert subcommand_flags() == {
        "analyze": {
            "--config", "--input", "--out-dir", "--tau", "--grid-count",
            "--grid-upper-factor", "--scope", "--groups", "--fraction", "--base-year",
            "--bandwidth-x", "--bandwidth-y", "--tol", "--max-iter", "--prominence",
            "--threads",
        },
        "simulate": {
            "--config", "--out-dir", "--kind", "--rho", "--sigma", "--club-centers",
            "--club-pull", "--units", "--years", "--seed",
        },
        "compare-years": {
            "--config", "--input", "--out-dir", "--grid-count", "--grid-upper-factor",
            "--scope",
        },
    }


def test_help_shows_declared_default(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--grid-count GRID_COUNT grid points (default 256)" in text


def test_readme_flags_are_declared(repo_root):
    """Every flag README names exists on some subcommand. The Install and
    Benchmark sections are skipped: their flags belong to pip and bench/run.py."""
    sections = (repo_root / "README.md").read_text().split("\n## ")
    text = "\n".join(s for s in sections if not s.startswith(("Install", "Benchmark")))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", text))
    assert named  # the CLI section names flags
    assert named <= set().union(*subcommand_flags().values(), {"--help"})


@pytest.mark.parametrize("argv, config, message", [
    (["simulate", "--club-centers", "a,b"], None,
     "club-centers must be two comma-separated numbers, got 'a,b'"),
    (["analyze", "--config", "{tmp}/missing.json"], None, "cannot read config file: "),
    (["analyze", "--config", "{tmp}/run.json"], "[1, 2]", "config file must hold a flat JSON object"),
    (["analyze", "--config", "{tmp}/run.json"], '"input"', "config file must hold a flat JSON object"),
    (["analyze", "--input", "{tmp}/panel.csv", "--max-iter", "1"], None,
     "max-iter must be at least 3 (the third solve is the first that can stop), got 1"),
    (["analyze", "--input", "{tmp}/panel.csv", "--max-iter", "2"], None,
     "max-iter must be at least 3 (the third solve is the first that can stop), got 2"),
], ids=["club-centers", "unreadable-config", "config-list", "config-string", "max-iter-1",
        "max-iter-2"])
def test_rejections(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.json").write_text(config)
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()


def _param_default(fn, name):
    return inspect.signature(fn).parameters[name].default


# (RunConfig field, library callable, its parameter): the CLI and a library
# caller that leaves the parameter out must run the same analysis.
_SHARED_DEFAULTS = [
    ("tau", pipeline.analyze_group, "tau"),
    ("bandwidth_x", pipeline.analyze_group, "bandwidth_x"),
    ("bandwidth_y", pipeline.analyze_group, "bandwidth_y"),
    ("tol", pipeline.analyze_group, "tol"),
    ("max_iter", pipeline.analyze_group, "max_iter"),
    ("prominence", pipeline.analyze_group, "min_prominence"),
    ("tau", pipeline.estimate_kernel, "tau"),
    ("bandwidth_x", pipeline.estimate_kernel, "bandwidth_x"),
    ("bandwidth_y", pipeline.estimate_kernel, "bandwidth_y"),
    ("tol", ergodic_distribution, "tol"),
    ("max_iter", ergodic_distribution, "max_iter"),
    ("prominence", find_modes, "min_prominence"),
    ("prominence", build_report, "min_prominence"),
    ("grid_count", pipeline.default_grid, "count"),
    ("grid_upper_factor", pipeline.default_grid, "upper_factor"),
    ("scope", pipeline.prepare_panel, "scope"),
    ("scope", to_relative, "scope"),
    ("fraction", pipeline.expand_groups, "fraction"),
    ("base_year", pipeline.expand_groups, "base_year"),
    ("tau", build_transition_pairs, "tau"),
    ("rho", ProcessSpec, "rho"),
    ("sigma", ProcessSpec, "sigma"),
    ("club_pull", ProcessSpec, "club_pull"),
    ("units", ProcessSpec, "units"),
    ("years", ProcessSpec, "years"),
    ("seed", ProcessSpec, "seed"),
]


@pytest.mark.parametrize("setting, fn, param", _SHARED_DEFAULTS,
                         ids=[f"{s}-{fn.__name__}" for s, fn, _ in _SHARED_DEFAULTS])
def test_cli_default_is_the_library_default(setting, fn, param):
    want = _param_default(fn, param)
    assert want is not inspect.Parameter.empty
    assert cli.RunConfig.__dataclass_fields__[setting].default == want


def test_club_centers_default_is_the_process_default():
    text = cli.RunConfig.__dataclass_fields__["club_centers"].default
    assert cli._club_centers(text) == _param_default(ProcessSpec, "club_centers")
