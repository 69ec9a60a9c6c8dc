"""Exception taxonomy shared across the package.

CLI exit codes map onto these: UsageError -> 1, DataError -> 2,
NumericalError -> 3, WorkerDiedError -> 4.
"""


class ShapgateError(Exception):
    """Base class for all package errors."""


class UsageError(ShapgateError):
    """Bad CLI arguments or inconsistent configuration."""


class DataError(ShapgateError):
    """Unparseable or invalid input data."""


class ParseError(DataError):
    """Delimited-text parse failure; carries file position."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class NumericalError(ShapgateError):
    """Non-finite values or a diverging optimization."""


class TrainingDivergedError(NumericalError):
    """Network training produced a non-finite loss."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")


class WorkerDiedError(ShapgateError):
    """A worker process of a parallel map could not be started, or ended
    before returning its share."""
