"""Command line interface: argument handling, outputs, manifests, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from distdyn import load_panel
from distdyn.cli import ENV_OUT_DIR, main

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
        panel = write_panel(tmp_path / "panel.csv")
        code, out = run_analyze(tmp_path, panel, "out", "--max-iter", "1")
        assert code == 4
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["groups"][0]
        assert entry["status"] == "not_converged"
        assert len(entry["last_deltas"]) == 2
        files = {p.name for p in (out / "pooled").iterdir()}
        assert "ntp.csv" in files
        assert "kernel.csv" in files
        assert "ergodic.csv" not in files
        assert "report.json" not in files

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
