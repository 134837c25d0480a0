"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError and
InputShapeError -> 2, NumericError -> 3.
"""


class PlausTrajError(Exception):
    """Base class for all toolkit errors."""


class InputShapeError(PlausTrajError, ValueError):
    """An input had the wrong length, shape, or layout."""


class ConfigError(PlausTrajError, ValueError):
    """Invalid or inconsistent configuration."""


class DataError(PlausTrajError, ValueError):
    """Unparseable or malformed data file."""


class ParseError(DataError):
    """A specific line of a data file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}: "
        super().__init__(f"{loc}{message}")


class NumericError(PlausTrajError, ArithmeticError):
    """A computation produced a non-finite value."""

    def __init__(self, message, layer_index=None):
        self.layer_index = layer_index
        if layer_index is not None:
            message = f"{message} (layer {layer_index})"
        super().__init__(message)
