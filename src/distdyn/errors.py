"""Exception hierarchy for distdyn.

Every recoverable failure raises a named subclass of :class:`DistDynError`
so callers (and the CLI exit-code mapping) can react to the specific
condition rather than parsing messages.
"""


class DistDynError(Exception):
    """Base class for all distdyn errors."""


# --- panel ingestion / preprocessing -----------------------------------------

class MalformedRow(DistDynError):
    """A CSV row (or the header) could not be parsed into an observation."""


class NonPositiveIncome(DistDynError):
    """An income value was zero or negative."""


class DuplicateKey(DistDynError):
    """The same (unit_id, sector, year) appeared more than once."""


class MissingCpi(DistDynError):
    """Deflation was requested but some observation carries no CPI value."""


class EmptyYear(DistDynError):
    """A normalization scope contained no observations."""


class EmptySelection(DistDynError):
    """A group filter matched no observations."""


class MissingBaseYear(DistDynError):
    """The base year for the poorest-fraction selection is absent."""


class NoPairs(DistDynError):
    """No transition pairs could be formed at the requested horizon."""


# --- density estimation -------------------------------------------------------

class InsufficientData(DistDynError):
    """Fewer samples than the estimator requires."""


class ZeroSpread(DistDynError):
    """The sample has no usable spread, so no bandwidth can be derived."""


class EmptySamples(DistDynError):
    """A density estimate was requested for an empty sample."""


class NonFiniteSample(DistDynError):
    """A density estimate was given a NaN or infinite sample."""


class DegenerateGrid(DistDynError):
    """Grid construction arguments do not describe a valid uniform grid."""


class GridMismatch(DistDynError):
    """Two objects that must share a grid are on different grids."""


# --- distribution dynamics ----------------------------------------------------

class NoSupportedRows(DistDynError):
    """The stochastic kernel has no supported rows carrying input mass."""


class NotConverged(DistDynError):
    """The ergodic solve did not reach its tolerance: it hit its cap of
    solves, or its L1 delta stopped shrinking at the rounding floor above it.

    Carries the last two L1 deltas so a stall is distinguishable from slow
    convergence.
    """

    def __init__(self, message, last_deltas=()):
        super().__init__(message)
        self.last_deltas = tuple(last_deltas)


# --- synthetic processes --------------------------------------------------------

class InvalidSpec(DistDynError):
    """A synthetic process specification is out of range or inconsistent."""


class NoClosedForm(DistDynError):
    """The requested process has no closed-form stationary density."""


# --- reporting / plotting -------------------------------------------------------

class MissingYear(DistDynError):
    """A requested calendar year is not present in the panel."""


class DegenerateSurface(DistDynError):
    """A surface is constant (or otherwise unplottable)."""


class EmptyPlot(DistDynError):
    """A plot was requested with no curves to draw."""
