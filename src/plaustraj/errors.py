"""Exception hierarchy shared across the toolkit, and the one check of a
config dataclass's fields.

The CLI maps these onto exit codes: ConfigError -> 1, DataError and
InputShapeError -> 2, NumericError -> 3.
"""

import dataclasses
import math
import numbers
from typing import Callable, NamedTuple


class PlausTrajError(Exception):
    """Base class for all toolkit errors."""


class InputShapeError(PlausTrajError, ValueError):
    """An input had the wrong length, shape, or layout."""


class ConfigError(PlausTrajError, ValueError):
    """Invalid or inconsistent configuration."""


class DataError(PlausTrajError, ValueError):
    """Unparseable or malformed data file."""


class NumericError(PlausTrajError, ArithmeticError):
    """A computation produced a non-finite value."""

    def __init__(self, message, layer_index=None):
        self.layer_index = layer_index
        if layer_index is not None:
            message = f"{message} (layer {layer_index})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Config field rules


class Rule(NamedTuple):
    """What a field's value must be beyond its kind: a test of a value of
    that kind, and the words that complete "<field> must be ..."."""

    ok: Callable[[object], bool]
    what: str


def is_int(value) -> bool:
    """An integer; bools are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number; an integer too large for a float is not."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def at_least(low: int) -> Rule:
    return Rule(lambda v: v >= low, f"an integer >= {low}")


def one_of(*choices: str) -> Rule:
    return Rule(lambda v: v in choices, " or ".join(choices))


POSITIVE = Rule(lambda v: v > 0, "positive")
NON_NEGATIVE = Rule(lambda v: v >= 0, "non-negative")
UNIT = Rule(lambda v: 0 <= v <= 1, "in [0, 1]")
BELOW_ONE = Rule(lambda v: 0 <= v < 1, "in [0, 1)")

# (type of a field's default, check on a value, what the value must be); bool
# comes first because a bool is also an integer
_KINDS = (
    (bool, lambda v: isinstance(v, bool), "true or false"),
    (int, is_int, "an integer"),
    (float, is_real, "a real number"),
    (str, lambda v: isinstance(v, str), "a string"),
    ((list, tuple), lambda v: isinstance(v, (list, tuple)), "a list"),
    (dict, lambda v: isinstance(v, dict), "an object"),
)


def rule(check: Rule, **field_args) -> dataclasses.Field:
    """A field of a Checked dataclass whose values must pass check."""
    return dataclasses.field(metadata={"rule": check}, **field_args)


def check_value(name: str, value, default, check: Rule | None = None):
    """Raise ConfigError "<name> must be ..., got <value>" unless value is of
    the kind of default (a nested config: of its class), finite where default
    is a float, and passes check."""
    for kind, ok, what in _KINDS:
        if isinstance(default, kind):
            break
    else:
        ok, what = (lambda v: isinstance(v, type(default))), f"a {type(default).__name__}"
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if isinstance(default, float) and not is_finite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if check is not None and not check.ok(value):
        raise ConfigError(f"{name} must be {check.what}, got {value!r}")


class Checked:
    """Base of a config dataclass: every field is checked against its
    default's kind and its rule when an object is made, so JSON load,
    overrides and direct construction agree."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            check_value(f.name, getattr(self, f.name), default, f.metadata.get("rule"))
