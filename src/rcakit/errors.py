"""Exception types raised across the package."""


class RcakitError(Exception):
    """Base class for all package-specific errors."""


class WindowOutOfRange(RcakitError):
    """A case's series do not cover the span required by its windows."""


class MissingSeries(RcakitError):
    """A scorer needs a metric that the case has no series for."""


class CyclicCallGraph(RcakitError):
    """The service call graph contains a dependency cycle."""


class UnknownMetaMetric(RcakitError):
    """A metric maps to a (service, dimension) pair absent from the skeleton."""


class InsufficientData(RcakitError):
    """Too few rows to fit a regression model."""


class DimensionMismatch(RcakitError):
    """A feature row does not match the model's feature count."""


class EdgeBudgetInfeasible(RcakitError):
    """Requested edge count cannot be realized on the requested node count."""


class NoEffectiveFault(RcakitError):
    """No sampled root set produced a usable effect on the SLI."""


class EmptyCaseSet(RcakitError):
    """An evaluation was requested over zero cases."""


class OutputNotEmpty(RcakitError):
    """A dataset was to be written into a directory that already holds files."""


class MalformedInput(RcakitError, ValueError):
    """An input file does not describe what it should: a case, an
    architecture or a graph."""
