"""Distribution dynamics for income panels.

Estimate a stochastic kernel g(y|x) from pooled transition pairs of a
long-format panel, push densities through it, solve for the ergodic
(long-run) income distribution, and summarize mobility with net transition
probability curves. Includes synthetic processes with known long-run
behavior for verification, SVG/CSV output, and a CLI (``distdyn``).
"""

from .errors import (
    DegenerateGrid,
    DegenerateSurface,
    DistDynError,
    DuplicateKey,
    EmptyPlot,
    EmptySamples,
    EmptySelection,
    EmptyYear,
    GridMismatch,
    InsufficientData,
    InvalidSpec,
    MalformedRow,
    MissingBaseYear,
    MissingCpi,
    MissingYear,
    NoClosedForm,
    NonFiniteSample,
    NonPositiveIncome,
    NoPairs,
    NoSupportedRows,
    NotConverged,
    ZeroSpread,
)
from .kde import (
    Bandwidths,
    DensityCurve,
    DensitySurface,
    Grid,
    StochasticKernel,
    conditional_density,
    density_1d,
    density_1d_raw,
    density_2d,
    density_2d_raw,
    silverman_bandwidth,
)
from .panel import (
    Panel,
    TransitionPairs,
    build_transition_pairs,
    deflate,
    dump_panel,
    filter_group,
    group_shares,
    load_panel,
    poorest_fraction,
    to_relative,
)
from .dynamics import (
    ErgodicSolution,
    NTPCurve,
    ergodic_distribution,
    evolve,
    net_transition_probability,
    ntp_crossings,
    support_components,
)
from .synthesis import (
    DEMO_SPEC,
    ProcessSpec,
    club_assignments,
    club_share,
    simulate,
    stationary_density,
    stationary_log_sd,
)
from .report import (
    AnalysisReport,
    Mode,
    build_report,
    compare_years,
    find_modes,
    report_to_json,
)
from .viz import (
    PlotStyle,
    export_csv,
    render_contour,
    render_curves,
    render_surface,
)
from .pipeline import (
    GroupResult,
    KernelEstimate,
    analyze_group,
    default_grid,
    estimate_kernel,
    expand_groups,
    prepare_panel,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
