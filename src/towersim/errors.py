"""Exception hierarchy shared across the package, and the one field-minimum check.

cli.main maps each of these onto a process exit code through cli.EXIT_CODES:
input-constraint errors exit as config errors, internal-invariant errors
exit 1.
"""


class TowersimError(Exception):
    """Base class for all package errors."""


class DomainError(TowersimError, ValueError):
    """An argument is outside its documented domain (bad rank, bad range, ...)."""


class ConfigError(TowersimError, ValueError):
    """A run configuration failed cross-validation; message carries the field path."""


class ProtocolError(TowersimError, RuntimeError):
    """A simulated collective was fed malformed payload lists."""


class ShapeError(TowersimError, ValueError):
    """Array shapes disagree with the operation contract."""


class PlanError(TowersimError, ValueError):
    """Feature/tower/shard placement is inconsistent."""


class LayoutError(TowersimError, ValueError):
    """Output layout descriptors disagree (realign, comparisons)."""


class TableLookupError(TowersimError, ValueError):
    """Embedding lookup hit an out-of-range index or an invalid bag."""


class ConstraintError(TowersimError, ValueError):
    """A balance/capacity constraint is infeasible."""


class NumericError(TowersimError, ArithmeticError):
    """An iterative solver produced non-finite values."""


class IngestionError(TowersimError, ValueError):
    """An input file could not be parsed; message names file and position."""


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
