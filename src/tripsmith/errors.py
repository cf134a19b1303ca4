"""Exception hierarchy shared by all tripsmith modules.

Every error the package raises on purpose derives from `TripsmithError`. The
DSL's syntax and evaluation errors share `DslError`, which also carries the
line and column its message points at.

An error's class says whose fault it is. Bad input, which the caller can fix,
is an `InputError`: arguments and parameters, artifact files, and its
subclasses for the data root (`LoadError`, `IntegrityError`) and for plan
records (`SchemaError`). The command line reports an `InputError` (or an
`OSError`) as one `error:` line and exit 2; any other error is a fault of the
program and exits 1.
"""


class TripsmithError(Exception):
    """Base class for every error raised by this package."""


class InputError(TripsmithError):
    """Caller supplied bad or inconsistent input (arguments, params, artifacts)."""


class LoadError(InputError):
    """A data file is missing or unreadable."""


class IntegrityError(InputError):
    """Loaded data violates a structural invariant (duplicate names, bad hours)."""


class SchemaError(InputError):
    """A plan document is not a JSON object with every mandatory field typed."""


class NotFoundError(TripsmithError):
    """A named POI, city or record does not exist."""


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


class BuildError(TripsmithError):
    """MILP model construction failed: a row family reads an undeclared variable
    name, the rows written per category differ from `count_sizes`, a slice
    carries a list of the wrong length, or a route uses an unknown station."""


class SolveRefusedError(TripsmithError):
    """micro_solve refused a model above its size limit."""
