"""Exception hierarchy shared across the package.

Each error class carries the stable exit code that the CLI returns for it:
usage errors 2, data errors 3, numeric errors 4.
"""


class SpecprecError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.message = message
        self.context = context


class UsageError(SpecprecError):
    """Bad flags / bad arguments at the API or CLI surface."""

    exit_code = 2


class DataError(SpecprecError):
    """Malformed input data: parse failures, ragged rows, schema violations."""

    exit_code = 3


class NumericError(SpecprecError):
    """Numeric contract violation: indefiniteness, invalid model state."""

    exit_code = 4
