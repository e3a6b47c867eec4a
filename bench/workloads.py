"""The benchmark's workloads and their seeded input panels.

Each workload is a `distdyn analyze` configuration plus the synthetic
process its input panel comes from. Panels are generated from the
benchmark's --seed; the program under test only ever sees the CSV file.

Functions that build panels import distdyn, so they run in worker
processes whose sys.path starts with the checkout's src/ directory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

# Regions assigned round-robin to units, as demo/make_demo.py does.
DEMO_REGIONS = ("east", "central", "west")

# panel-300k: 20,000 units x 15 years of an AR(1) in log income.
AR1_PARAMS = {"kind": "ar1_log", "rho": 0.8, "sigma": 0.2, "units": 20000, "years": 15}

# Seed of the committed demo panel (DEMO_SPEC.seed).
DEMO_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    process: str  # "two_club" (the demo process) or "ar1_log"
    config: str | None  # repo-relative config file, or None
    settings: dict  # analyze settings on top of the config, keyed like the flags


# demo is the path users run (many small groups); panel-300k is bound by the
# sample size n and grid-512 by the grid size G, so a change that trades one
# for the other shows on one of them. README.md gives the details.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo", "two_club", "demo/config.json", {}),
        Workload("panel-300k", "ar1_log", None, {"groups": "pooled", "grid-count": 128}),
        Workload("grid-512", "two_club", "demo/config.json", {"groups": "pooled", "grid-count": 512}),
    )
}


def analyze_argv(workload: Workload, root: Path, panel_csv: Path) -> list[str]:
    """`distdyn analyze` arguments for the workload, without --out-dir."""
    argv = ["analyze", "--input", str(panel_csv)]
    if workload.config is not None:
        argv += ["--config", str(root / workload.config)]
    for key, value in workload.settings.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--threads", "1"]


def process_spec(process: str, seed: int):
    from distdyn import DEMO_SPEC, ProcessSpec

    if process == "two_club":
        return dataclasses.replace(DEMO_SPEC, seed=seed)
    return ProcessSpec(seed=seed, **AR1_PARAMS)


def build_panel(spec):
    """Simulate the spec; two-club panels are relabeled like the demo panel.

    The low club becomes the rural sector and the high club the urban
    sector, and units are spread round-robin over three regions.
    """
    import numpy as np

    from distdyn import club_assignments, simulate
    from distdyn.panel import Panel

    base = simulate(spec)
    if spec.kind != "two_club":
        return base
    clubs = club_assignments(spec)
    width = max(4, len(str(spec.units - 1)))
    sector_of, region_of = {}, {}
    for u in range(spec.units):
        uid = f"u{u:0{width}d}"
        sector_of[uid] = "rural" if clubs[u] == 0 else "urban"
        region_of[uid] = DEMO_REGIONS[u % len(DEMO_REGIONS)]
    return Panel(
        unit_id=base.unit_id,
        sector=np.array([sector_of[u] for u in base.unit_id], dtype=object),
        region=np.array([region_of[u] for u in base.unit_id], dtype=object),
        year=base.year,
        income=base.income,
        cpi=None,
        is_relative=False,
    )
