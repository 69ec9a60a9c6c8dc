"""Exception taxonomy shared across the package.

CLI exit codes map onto these: UsageError -> 1, DataError -> 2,
NumericalError -> 3, WorkerDiedError -> 4.

A worker of a parallel map sends its exception back as a pickle, so each
class with its own constructor rebuilds itself from that constructor's
arguments (__reduce__); the default pickle would call it with the message.
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
        self.message = message
        self.line = line
        self.column = column
        loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)

    def __reduce__(self):
        return type(self), (self.message, self.line, self.column)


class NumericalError(ShapgateError):
    """Non-finite values or a diverging optimization."""


class TrainingDivergedError(NumericalError):
    """Network training produced a non-finite loss."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")

    def __reduce__(self):
        return type(self), (self.epoch,)


class WorkerDiedError(ShapgateError):
    """A worker process of a parallel map could not be started, or ended
    before returning its share."""
