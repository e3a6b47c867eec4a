"""Synthetic income processes with known long-run behavior.

Three generators cover the verification needs of the estimation stack:

* ``iid_lognormal``: each year an independent lognormal draw; the kernel's
  rows should all match the stationary marginal.
* ``ar1_log``: log income follows an AR(1), initialized from its stationary
  law, so the exact ergodic density is lognormal(0, sigma/sqrt(1-rho^2)).
* ``two_club``: each unit's log income mean-reverts to one of two club
  centers; the long-run density is bimodal with a mode near each center.

Determinism contract: random numbers come from numpy's Philox counter-based
generator. Unit u of a simulation with seed s uses the stream keyed by the
two 64-bit words (s, u) and draws all of the unit's standard normals in
one batch: the first sets the initial level, the others are the
innovations of the later years. The sequence is therefore independent of
evaluation order and reproducible from the (seed, unit) pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NoClosedForm
from .kde import DensityCurve, Grid
from .panel import Panel

KINDS = ("iid_lognormal", "ar1_log", "two_club")

START_YEAR = 1999


@dataclass(frozen=True)
class ProcessSpec:
    """Parameters of a synthetic income process.

    ``rho`` only applies to ``ar1_log`` (``iid_lognormal`` forces 0);
    ``club_centers`` and ``club_pull`` only to ``two_club``. Centers are in
    relative-income units and must straddle 1 for the built-in share
    calibration to keep them in place after normalization.
    """

    kind: str
    rho: float = 0.0
    sigma: float = 0.2
    club_centers: tuple[float, float] = (0.48, 1.1)
    club_pull: float = 0.3
    units: int = 400
    years: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown process kind {self.kind!r}, expected one of {KINDS}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidSpec(f"sigma must be positive, got {self.sigma}")
        if not (0.0 <= self.rho < 1.0):
            raise InvalidSpec(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "iid_lognormal" and self.rho != 0.0:
            raise InvalidSpec("iid_lognormal fixes rho = 0; use ar1_log for persistence")
        centers = tuple(float(c) for c in self.club_centers)
        if len(centers) != 2 or not all(math.isfinite(c) and c > 0 for c in centers):
            raise InvalidSpec(f"club_centers must be two positive reals, got {self.club_centers}")
        if not centers[0] < centers[1]:
            raise InvalidSpec("club_centers must be strictly increasing")
        object.__setattr__(self, "club_centers", centers)
        if not (0.0 < self.club_pull <= 1.0):
            raise InvalidSpec(f"club_pull must lie in (0, 1], got {self.club_pull}")
        if self.kind == "two_club":
            try:
                club_share(self)
            except (ZeroDivisionError, OverflowError):
                raise InvalidSpec(
                    f"sigma {self.sigma} and club_pull {self.club_pull} put the within-club sd "
                    "of log income, sigma / sqrt(1 - (1 - club_pull)^2), or the mean income "
                    "factor exp(sd^2 / 2) that sets the club shares, out of floating-point range"
                ) from None
        if self.units < 1 or self.years < 1:
            raise InvalidSpec("units and years must be positive integers")
        if not (0 <= self.seed < 2**64):
            raise InvalidSpec("seed must fit in an unsigned 64-bit integer")


def stationary_log_sd(spec: ProcessSpec) -> float:
    """Standard deviation of log income under the stationary law."""
    if spec.kind == "two_club":
        raise NoClosedForm("two_club has no single stationary log-sd; see club_log_sd")
    return spec.sigma / math.sqrt(1.0 - spec.rho * spec.rho)


def club_log_sd(spec: ProcessSpec) -> float:
    """Within-club stationary sd of log income for the two_club process."""
    a = 1.0 - spec.club_pull
    return spec.sigma / math.sqrt(1.0 - a * a)


def club_share(spec: ProcessSpec) -> float:
    """Low-club population share that puts the stationary mean income at 1.

    With centers c1 < c2 and within-club log variance v, club j's mean
    income is c_j * k with k = exp(v/2); solving s*c1*k + (1-s)*c2*k = 1
    gives s = (c2*k - 1) / (k*(c2 - c1)), clipped to [0, 1]. Keeping the
    mean at 1 means relative-income normalization leaves the club centers
    where the process parameters put them.
    """
    if spec.kind != "two_club":
        raise InvalidSpec("club_share applies to the two_club process only")
    c1, c2 = spec.club_centers
    k = math.exp(0.5 * club_log_sd(spec) ** 2)
    s = (c2 * k - 1.0) / (k * (c2 - c1))
    return min(1.0, max(0.0, s))


def club_assignments(spec: ProcessSpec) -> np.ndarray:
    """Club index (0 = low center, 1 = high center) per unit.

    The first round(share * units) units belong to the low club, the rest to
    the high club, so membership is deterministic and the realized shares
    match :func:`club_share` as closely as integer counts allow.
    """
    if spec.kind != "two_club":
        raise InvalidSpec("club assignments apply to the two_club process only")
    n_low = int(round(club_share(spec) * spec.units))
    out = np.ones(spec.units, dtype=int)
    out[:n_low] = 0
    return out


def simulate(spec: ProcessSpec) -> Panel:
    """Generate a panel from the process, deterministic given the seed.

    Rows are unit-major, years ascending from 1999, unit u's rows with unit
    code u, sector "urban" and region "other"; callers wanting richer group
    structure can relabel. Raises InvalidSpec when an income is not finite
    and positive, as a sigma too large for exp gives.
    """
    if spec.kind == "two_club":
        mu = np.log(np.asarray(spec.club_centers))[club_assignments(spec)]
        a = 1.0 - spec.club_pull
        init_sd = club_log_sd(spec)
    else:
        mu = np.zeros(spec.units)
        a = spec.rho
        init_sd = stationary_log_sd(spec)

    z = np.empty((spec.units, spec.years))  # each unit's normals, then its log income
    # one Philox re-keyed to (seed, u) per unit: the fresh stream, without
    # building a generator per unit
    bits = np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bits), bits.state
    for u in range(spec.units):
        fresh["state"]["key"][1] = u
        bits.state = fresh
        rng.standard_normal(out=z[u])
    with np.errstate(over="ignore", invalid="ignore"):  # such incomes are refused below
        z[:, 0] = mu + init_sd * z[:, 0]  # a stationary start, then one year at a time
        for t in range(1, spec.years):
            z[:, t] = mu + a * (z[:, t - 1] - mu) + spec.sigma * z[:, t]
        np.exp(z, out=z)
    bad = ~((z > 0) & (z < np.inf))
    if bad.any():
        u, t = np.argwhere(bad)[0]
        raise InvalidSpec(f"the spec gives unit {u} in year {START_YEAR + t} an income of "
                          f"{z[u, t]}, outside the positive floating-point range")

    width = max(4, len(str(spec.units - 1)))
    ids = np.array([f"u{u:0{width}d}" for u in range(spec.units)], dtype=object)
    return Panel(
        unit_id=np.repeat(ids, spec.years),
        sector=np.full(z.size, "urban", dtype=object),
        region=np.full(z.size, "other", dtype=object),
        year=np.tile(np.arange(START_YEAR, START_YEAR + spec.years), spec.units),
        income=z.ravel(),
    )._with_unit_code(np.repeat(np.arange(spec.units), spec.years))


def stationary_density(spec: ProcessSpec, grid: Grid, relative: bool = False) -> DensityCurve:
    """Exact stationary density on a grid (iid_lognormal and ar1_log only).

    The stationary law of log income is Normal(0, s^2) with
    s = sigma/sqrt(1 - rho^2), so income is lognormal. With ``relative``,
    the law of income relative to its mean exp(s^2/2), which the pipeline
    sees after ``prepare_panel``: log-location -s^2/2 in place of 0. Values
    are renormalized to unit trapezoid mass on the grid.
    """
    if spec.kind == "two_club":
        raise NoClosedForm("two_club has no closed-form stationary density")
    s = stationary_log_sd(spec)
    loc = -0.5 * s * s if relative else 0.0
    x = grid.points
    vals = np.zeros(grid.count)
    pos = x > 0
    lx = np.log(x[pos])
    vals[pos] = np.exp(-0.5 * ((lx - loc) / s) ** 2) / (x[pos] * s * math.sqrt(2.0 * math.pi))
    return DensityCurve.from_values(grid, vals)


DEMO_SPEC = ProcessSpec(
    kind="two_club",
    sigma=0.1,
    club_centers=(0.48, 1.1),
    club_pull=0.3,
    units=400,
    years=15,
    seed=11,
)
"""Process behind the bundled demo panel: two well-separated income clubs."""
