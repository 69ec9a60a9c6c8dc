"""Exception taxonomy shared across the package.

Each class below the base carries its CLI exit code and stderr prefix, and a
subclass inherits its parent's: UsageError -> 1, DataError -> 2,
NumericalError -> 3, WorkerDiedError -> 4.

A worker of a parallel map sends its exception back as a pickle, so each
class with its own constructor rebuilds itself from that constructor's
arguments (__reduce__); the default pickle would call it with the message.
"""


class ShapgateError(Exception):
    """Base class for all package errors; raise one of its subclasses."""


class UsageError(ShapgateError):
    """Bad CLI arguments or configuration, or an output that cannot be written."""

    exit_code, prefix = 1, "usage error"


class DataError(ShapgateError):
    """Unparseable or invalid input data."""

    exit_code, prefix = 2, "data error"


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

    exit_code, prefix = 3, "numerical failure"


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

    exit_code, prefix = 4, "worker failure"
