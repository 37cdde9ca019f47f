"""Exception hierarchy shared across the package, the CLI's exit codes, and
the one field-minimum check. Each class states the exit code and stderr
prefix with which cli.main reports it: input-constraint errors exit as
config errors, internal-invariant errors as the base class does (1).
"""

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


class TowersimError(Exception):
    """Base class for all package errors."""
    exit_code, prefix = EXIT_ERROR, "error"


class DomainError(TowersimError, ValueError):
    """An argument is outside its documented domain (bad rank, bad range, ...)."""
    exit_code = EXIT_CONFIG


class ConfigError(TowersimError, ValueError):
    """A run configuration failed cross-validation; message carries the field path."""
    exit_code, prefix = EXIT_CONFIG, "config error"


class ProtocolError(TowersimError, RuntimeError):
    """A simulated collective was fed malformed payload lists."""


class ShapeError(TowersimError, ValueError):
    """Array shapes disagree with the operation contract."""


class PlanError(TowersimError, ValueError):
    """Feature/tower/shard placement is inconsistent."""
    exit_code = EXIT_CONFIG


class LayoutError(TowersimError, ValueError):
    """Output layout descriptors disagree (realign, comparisons)."""


class TableLookupError(TowersimError, ValueError):
    """Embedding lookup hit an out-of-range index or an invalid bag."""


class ConstraintError(TowersimError, ValueError):
    """A balance/capacity constraint is infeasible."""
    exit_code = EXIT_CONFIG


class NumericError(TowersimError, ArithmeticError):
    """An iterative solver produced non-finite values."""
    exit_code, prefix = EXIT_NUMERIC, "numeric error"


class IngestionError(TowersimError, ValueError):
    """An input file could not be parsed; message names file and position."""
    exit_code, prefix = EXIT_IO, "i/o error"


class ReportError(TowersimError, ValueError):
    """A trace or breakdown could not be interpreted (unknown step label, ...)."""


class InvariantError(TowersimError, RuntimeError):
    """An internal consistency check failed: a defect in towersim, not in its input."""


def check_minimums(values: dict, minimums: dict[str, int]) -> None:
    """Raise a DomainError, its message led by the field's name, for the first
    field of ``values`` below its entry in ``minimums``."""
    for name, low in minimums.items():
        if values[name] < low:
            raise DomainError(f"{name}: must be >= {low}")
