"""End-to-end analysis steps shared by the CLI and the test suite.

The full chain for one group of a relative-income panel:

    transition pairs -> joint KDE -> conditional kernel -> ergodic density,
    NTP curve, report

with bandwidths from the Silverman rule unless overridden.
:func:`analyze_group` is the one place this chain runs; its ``on_estimate``
hook lets a caller (the CLI) persist the estimation-stage artifacts before
the ergodic solve, so they survive a solve that does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    ErgodicSolution,
    NTPCurve,
    ergodic_distribution,
    net_transition_probability,
    support_components,
)
from .kde import (
    Bandwidths,
    DensityCurve,
    DensitySurface,
    Grid,
    StochasticKernel,
    conditional_density,
    density_1d,
    joint_and_marginal,
    silverman_bandwidth,
)
from .panel import (
    Panel,
    REGIONS,
    SECTORS,
    TransitionPairs,
    build_transition_pairs,
    deflate,
    filter_group,
    poorest_fraction,
    to_relative,
)
from .report import AnalysisReport, build_report

GROUP_TOKENS = ("pooled", "per-sector", "per-region", "poorest-fraction")


def prepare_panel(panel: Panel, scope: str = "pooled") -> Panel:
    """Deflate (when a CPI column is present) and convert to relative incomes."""
    if panel.cpi is not None:
        panel = deflate(panel)
    return to_relative(panel, scope=scope)


def default_grid(panel: Panel, count: int = 256, upper_factor: float = 1.1) -> Grid:
    """The grid of both kernel axes, from 0 to ``upper_factor`` times the largest income."""
    if upper_factor <= 0:
        raise ValueError(f"grid upper factor must be positive, got {upper_factor}")
    top = float(np.max(panel.income))
    return Grid.uniform(0.0, upper_factor * top, count)


def parse_groups(groups) -> list[str]:
    """Normalize group tokens: the one grammar of the ``groups`` setting.

    ``groups`` is a sequence of tokens or one comma-separated string.
    Surrounding blanks and empty tokens are dropped, underscores are
    accepted in place of dashes, and a repeated token counts once. Raises
    ValueError on an unknown token or when no token is left.
    """
    if isinstance(groups, str):
        groups = groups.split(",")
    tokens: list[str] = []
    for raw in groups:
        token = raw.strip().replace("_", "-")
        if not token or token in tokens:
            continue
        if token not in GROUP_TOKENS:
            raise ValueError(f"unknown group {token!r}, expected one of {', '.join(GROUP_TOKENS)}")
        tokens.append(token)
    if not tokens:
        raise ValueError("groups must name at least one group")
    return tokens


def expand_groups(
    panel: Panel,
    groups,
    base_year: int | None = None,
    fraction: float = 1.0 / 3.0,
) -> list[tuple[str, Panel]]:
    """Resolve group tokens (see :func:`parse_groups`) into (label, sub-panel) pairs.

    Tokens: ``pooled`` (everything), ``per-sector`` (each sector present),
    ``per-region`` (each region present), ``poorest-fraction`` (the poorest
    units ranked in ``base_year``, defaulting to the panel's first year).
    Labels follow the member names; the poorest selection is labeled
    ``poorest``.
    """
    out: list[tuple[str, Panel]] = []
    by_member = {"per-sector": ("sector", SECTORS), "per-region": ("region", REGIONS)}
    for token in parse_groups(groups):
        if token == "pooled":
            out.append(("pooled", panel))
        elif token in by_member:
            column, members = by_member[token]
            present = set(getattr(panel, column))
            out += [(m, filter_group(panel, **{column: m})) for m in members if m in present]
        else:  # poorest-fraction
            year = base_year if base_year is not None else int(panel.years().min())
            out.append(("poorest", poorest_fraction(panel, year, fraction)))
    return out


@dataclass(frozen=True)
class KernelEstimate:
    """Estimation-stage artifacts for one group."""

    pairs: TransitionPairs
    bandwidths: Bandwidths
    marginal: DensityCurve
    joint: DensitySurface
    kernel: StochasticKernel


def estimate_kernel(
    panel: Panel,
    grid: Grid,
    tau: int = 1,
    bandwidth_x: float | None = None,
    bandwidth_y: float | None = None,
    floor: float = 1e-4,
) -> KernelEstimate:
    """Transition pairs to conditional kernel, both axes on one grid.

    The joint surface uses the bivariate Silverman rule per axis; the
    conditioning marginal is the x-sample KDE at the joint's x bandwidth,
    taken from the same pass, so it matches the joint's own x margin where
    the support floor is applied.
    """
    pairs = build_transition_pairs(panel, tau=tau)
    h_x = bandwidth_x if bandwidth_x is not None else silverman_bandwidth(pairs.x, 2)
    h_y = bandwidth_y if bandwidth_y is not None else silverman_bandwidth(pairs.y, 2)
    bw = Bandwidths(h_x=h_x, h_y=h_y)
    joint, marginal = joint_and_marginal(pairs, bw, grid)
    kernel = conditional_density(joint, marginal, floor=floor)
    return KernelEstimate(
        pairs=pairs, bandwidths=bw, marginal=marginal, joint=joint, kernel=kernel
    )


@dataclass(frozen=True)
class GroupResult:
    """Everything the pipeline produces for one analysis group."""

    label: str
    estimate: KernelEstimate
    ergodic: ErgodicSolution
    ntp: NTPCurve
    report: AnalysisReport
    components: list[tuple[float, float]]


def analyze_group(
    label: str,
    panel: Panel,
    grid: Grid,
    tau: int = 1,
    bandwidth_x: float | None = None,
    bandwidth_y: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 10000,
    min_prominence: float = 0.05,
    on_estimate: Callable[[KernelEstimate, NTPCurve], None] | None = None,
) -> GroupResult:
    """Run one group end to end: estimate, NTP, solve, summarize.

    ``on_estimate(est, ntp)``, when given, is called once the kernel and the
    NTP curve exist and before the ergodic solve, which starts from the
    univariate-rule KDE of the pooled x samples. Raises NotConverged when
    the solve does not reach ``tol``; whatever ``on_estimate`` kept of the
    estimate stays with the caller.
    """
    est = estimate_kernel(
        panel, grid, tau=tau, bandwidth_x=bandwidth_x, bandwidth_y=bandwidth_y
    )
    ntp = net_transition_probability(est.kernel)
    if on_estimate is not None:
        on_estimate(est, ntp)
    init = density_1d(est.pairs.x, silverman_bandwidth(est.pairs.x, 1), grid)
    ergodic = ergodic_distribution(est.kernel, init, tol=tol, max_iter=max_iter)
    rep = build_report(label, panel, est.pairs, ergodic, ntp, min_prominence)
    return GroupResult(
        label=label,
        estimate=est,
        ergodic=ergodic,
        ntp=ntp,
        report=rep,
        components=support_components(est.kernel),
    )
