"""A derandomized property test of ``cli.main`` over generated argv and
analyze config files: every run returns a documented exit code, raises
nothing (numpy warnings included, which the suite turns into errors), and a
successful analyze writes strict JSON.

Each example sets some settings to ordinary values and up to two to edge
values. Every example stays small: a 30-unit panel, 16 to 32 grid points,
at most 2 threads and 300 solves per component, and at most 40 units over
6 years for simulate. The explicit examples are inputs that once ended in
a traceback or a numpy warning.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import strict_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distdyn import ProcessSpec, dump_panel, simulate
from distdyn.cli import main
from distdyn.panel import REGIONS, Panel

FLOAT_EDGES = (0.0, -1.0, 5e-324, 1e-300, 1e170, 1e300, 1e308, math.nan, math.inf)
INT_EDGES = (0, -1)
EXIT_CODES = {0, 2, 3, 4}

# setting -> (ordinary values, edge values), by subcommand
PANEL = {
    "input": (("sim",), ("missing",)),
    "grid-upper-factor": ((1.1, 2.0), FLOAT_EDGES),
    "scope": (("pooled", "per_sector", "per-sector"), ("bogus",)),
}
SETTINGS = {
    "analyze": {
        **PANEL,
        "grid-count": ((16, 24, 32), INT_EDGES),
        "threads": ((1, 2), INT_EDGES),
        "max-iter": ((3, 50, 300), INT_EDGES),
        "tau": ((1, 2), INT_EDGES + (9,)),
        "groups": (("pooled", "per-sector,poorest-fraction", "per-region",
                    "pooled,per-sector,per-region,poorest-fraction"), ("bogus", "")),
        "fraction": ((1.0 / 3.0, 1.0), FLOAT_EDGES),
        "base-year": ((1999, 2001), INT_EDGES + (1990,)),
        "bandwidth-x": ((0.05, 0.3), FLOAT_EDGES),
        "bandwidth-y": ((0.05, 0.3), FLOAT_EDGES),
        "tol": ((1e-10, 1e-6), FLOAT_EDGES),
        "prominence": ((0.05, 0.5), FLOAT_EDGES),
    },
    "compare-years": {**PANEL, "grid-count": ((16, 32), INT_EDGES)},
    "simulate": {
        "units": ((1, 5, 30, 40), INT_EDGES),
        "years": ((1, 2, 6), INT_EDGES),
        "kind": (("iid_lognormal", "ar1_log", "two_club"), ("bogus",)),
        "rho": ((0.5, 0.9), FLOAT_EDGES),
        "sigma": ((0.1, 0.5, 3.0), FLOAT_EDGES),
        "club-centers": (("0.48,1.1", "0.3,2"), ("1.1,0.48", "0,1", "a,b", "1e300,1e308")),
        "club-pull": ((0.3, 1.0), FLOAT_EDGES),
        "seed": ((7, 2**64 - 1), INT_EDGES + (2**64,)),
    },
}
# Always passed as flags, which beat the config file, so that the large
# defaults (256 grid points, 10,000 steps, 400 units) never run.
ALWAYS = {"input", "grid-count", "threads", "max-iter", "units", "years"}


@st.composite
def drawn_settings(draw, command: str, always=ALWAYS) -> dict:
    """Some settings of ``command`` at ordinary values, then up to two at edge values."""
    table = SETTINGS[command]
    ordinary = {key: st.sampled_from(values) for key, (values, _) in table.items()}
    chosen = draw(st.fixed_dictionaries(
        {k: v for k, v in ordinary.items() if k in always},
        optional={k: v for k, v in ordinary.items() if k not in always}))
    for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=2, unique=True)):
        chosen[key] = draw(st.sampled_from(table[key][1]))
    return chosen


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Input paths by name: a simulated 30-unit, 5-year panel relabeled into
    both sectors and three regions, and a path with no file."""
    base = tmp_path_factory.mktemp("fuzz-inputs")
    sim = simulate(ProcessSpec(kind="two_club", units=30, years=5, seed=3))
    unit = np.arange(len(sim)) // 5
    sim = Panel(unit_id=sim.unit_id, sector=np.array(["urban", "rural"], dtype=object)[unit % 2],
                region=np.array(REGIONS[:3], dtype=object)[unit % 3], year=sim.year,
                income=sim.income)
    (base / "sim.csv").write_bytes(dump_panel(sim))
    return {"sim": base / "sim.csv", "missing": base / "missing.csv"}


def run(command: str, flags: dict, inputs: dict, config: dict | None = None):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--out-dir", str(out)]
        if config is not None:
            if "input" in config:
                config = {**config, "input": str(inputs[config["input"]])}
            (Path(tmp) / "run.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp) / "run.json")]
        for key, value in flags.items():
            argv += [f"--{key}", str(inputs[value]) if key == "input" else str(value)]
        code = main(argv)
        assert code in EXIT_CODES
        if command == "analyze" and code == 0:
            manifest = strict_json(out / "manifest.json")
            for entry in manifest["groups"]:
                if entry["status"] == "ok":
                    strict_json(out / entry["label"] / "report.json")


@given(flags=drawn_settings("analyze"),
       config=st.none() | drawn_settings("analyze", always=()))
@example(flags={"input": "sim", "grid-count": 16, "threads": 1, "max-iter": 50,
                "grid-upper-factor": 1e300}, config=None)  # the KDE's mass overflows
@settings(max_examples=60, deadline=None, derandomize=True)
def test_analyze(inputs, flags, config):
    run("analyze", flags, inputs, config)


@given(flags=drawn_settings("simulate"))
@example(flags={"units": 5, "years": 6, "kind": "two_club", "club-pull": 5e-324})
@example(flags={"units": 5, "years": 6, "sigma": 1e170})  # exp overflows
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simulate(inputs, flags):
    run("simulate", flags, inputs)


@given(flags=drawn_settings("compare-years"))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compare_years(inputs, flags):
    run("compare-years", flags, inputs)
