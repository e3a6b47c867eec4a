"""Regenerate the bundled demo panel (demo/panel.csv).

The demo is a two-club synthetic process (clubs at 0.48 and 1.1 times the
average income) relabeled so the low club is the rural sector and the high
club the urban sector, with units spread round-robin over the east, central
and west regions. Regeneration is deterministic; the committed CSV should
only change if the generator itself changes.
"""

from pathlib import Path

import numpy as np

from distdyn import DEMO_SPEC, club_assignments, dump_panel, simulate
from distdyn.panel import Panel

_REGIONS = ("east", "central", "west")


def build_demo_panel() -> Panel:
    base = simulate(DEMO_SPEC)
    sector = np.array(["rural", "urban"], dtype=object)[club_assignments(DEMO_SPEC)]
    region = np.array(_REGIONS, dtype=object)[np.arange(DEMO_SPEC.units) % len(_REGIONS)]
    return Panel(
        unit_id=base.unit_id,
        sector=np.repeat(sector, DEMO_SPEC.years),
        region=np.repeat(region, DEMO_SPEC.years),
        year=base.year,
        income=base.income,
    )


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "panel.csv"
    out.write_bytes(dump_panel(build_demo_panel()))
    print(f"wrote {out}")
