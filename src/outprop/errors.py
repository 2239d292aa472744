"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Error):
    """Malformed tabular input (bad header, ragged row, unparseable cell)."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column!r})" if column is not None else ")")
        super().__init__(message + where)


class MissingValueError(ParseError):
    """A cell is empty; missing values are not supported."""

    def __init__(self, row: int, column: str):
        super().__init__("missing value", row=row, column=column)


class SchemaError(Error):
    """Condition or hint does not match the dataset schema."""


class EmptySampleError(Error):
    """An operation that needs at least one value received none."""


class DegenerateDensityError(Error):
    """A density query was made against a degenerate (zero-bandwidth) model."""


class DegenerateSampleError(Error):
    """A sample cannot be fitted: too few distinct values, or values that
    take the mixture fit or the density window out of float64's range."""


class PreconditionError(Error):
    """A documented call precondition was violated."""


class ConfigError(Error):
    """Invalid mining or interval-search configuration."""


class InternalError(Error):
    """An internal consistency check failed; indicates a bug."""


class OracleTooLargeError(Error):
    """The brute-force reference path refuses inputs past its size guard."""
