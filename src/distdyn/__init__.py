"""Distribution dynamics for income panels.

Estimate a stochastic kernel g(y|x) from pooled transition pairs of a
long-format panel, push densities through it, solve for the ergodic
(long-run) income distribution, and summarize mobility with net transition
probability curves. Includes synthetic processes with known long-run
behavior for verification, SVG/CSV output, and a CLI (``distdyn``).
Everything outside ``__all__`` is imported from its submodule.
"""

from .dynamics import evolve
from .errors import DistDynError, MalformedRow, NonFiniteSample
from .kde import Grid
from .panel import dump_panel, load_panel
from .pipeline import analyze_group, default_grid, prepare_panel
from .synthesis import DEMO_SPEC, ProcessSpec, club_assignments, simulate, stationary_density

__version__ = "0.1.0"

__all__ = [
    "DEMO_SPEC", "DistDynError", "Grid", "MalformedRow", "NonFiniteSample", "ProcessSpec",
    "analyze_group", "club_assignments", "default_grid", "dump_panel", "evolve", "load_panel",
    "prepare_panel", "simulate", "stationary_density",
]
