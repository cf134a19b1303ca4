"""Exception hierarchy shared by all tripsmith modules.

Every error the package raises on purpose derives from `TripsmithError`. The
DSL's syntax and evaluation errors share `DslError`, which also carries the
line and column its message points at.
"""


class TripsmithError(Exception):
    """Base class for every error raised by this package."""


class LoadError(TripsmithError):
    """A data file is missing or unreadable."""


class IntegrityError(TripsmithError):
    """Loaded data violates a structural invariant (duplicate names, bad hours)."""


class NotFoundError(TripsmithError):
    """A named POI, city or record does not exist."""


class StateError(TripsmithError):
    """An operation was called out of sequence (e.g. paging with no query)."""


class SchemaError(TripsmithError):
    """A plan document is structurally valid JSON but misses mandatory fields."""


class PlanParseError(TripsmithError):
    """A plan document is not parseable at all."""

    def __init__(self, message, path=""):
        super().__init__(message if not path else f"{path}: {message}")
        self.path = path


class DslError(TripsmithError):
    """Base for DSL front-end and runtime errors; each carries its 1-based position."""

    def __init__(self, message, line=1, col=1):
        super().__init__(message)
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    """Source text could not be parsed into a program."""


class DslEvalError(DslError):
    """A program failed while being evaluated."""


class ConfigError(TripsmithError):
    """Invalid configuration value."""


class InputError(TripsmithError):
    """Caller supplied inconsistent inputs (mismatched sets, bad params)."""


class BuildError(TripsmithError):
    """MILP model construction failed (params/slice mismatch)."""


class SolveRefusedError(TripsmithError):
    """micro_solve refused a model above its size limit."""


class MetricError(TripsmithError):
    """Metrics are undefined for the given report set."""
