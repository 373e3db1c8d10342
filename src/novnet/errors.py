"""Exception hierarchy shared across the toolkit, the config value
checks that raise its ConfigError, and the JSON codec of the config
carriers.

Every error raised by novnet derives from NovnetError so callers (and the
CLI) can catch toolkit failures with a single except clause.

A config carrier is a frozen dataclass (a config section, a dataset
entry, a layer, the training config). `from_json` builds one from its
JSON object and `to_json` writes it back, so a config file's sections and
a checkpoint's `backbone` and `config` metadata blocks are one form. A
field's JSON key is its name unless its `metadata` names another key:
`TrainingConfig.lam` is `lambda`, and `Dense.in_width`/`out_width` are
`in`/`out`.
"""

import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass


class NovnetError(Exception):
    """Base class for all novnet errors."""


class ConfigError(NovnetError):
    """Invalid configuration: bad layer chain, bad hyperparameter, bad spec."""


class DimensionError(NovnetError):
    """Input shape does not match what a layer or operation expects."""


class UsageError(NovnetError):
    """API misuse, e.g. backward called without a forward cache."""


class DivergenceError(NovnetError):
    """Training produced a non-finite loss or gradient."""


class FormatError(NovnetError):
    """A file does not match its documented format (magic, header, layout)."""


class CorruptionError(FormatError):
    """A file is truncated or otherwise damaged mid-stream."""


class ConsistencyError(FormatError):
    """Two files that must agree (e.g. image/label counts) do not."""


class ParseError(FormatError):
    """A cell or token could not be parsed as the expected type."""


class DatasetError(NovnetError):
    """A dataset violates its invariants (empty, ragged, label gaps)."""


class ProtocolError(NovnetError):
    """An experiment-protocol rule was violated (splits, label spaces)."""


class CalibrationError(NovnetError):
    """Threshold calibration is impossible (e.g. no matched scores)."""


class EvaluationError(NovnetError):
    """Evaluation input is degenerate (e.g. empty score list for ROC)."""


class UnsupportedArchitectureError(NovnetError):
    """The model architecture does not support the requested analysis."""


# Config values are checked, never converted: a bool, a string or 2.0 is
# not an integer, and a bool or a string is not a number. Only int and
# float and their subclasses pass: they are the scalars a checkpoint's
# JSON metadata can encode, so a numpy integer or float32 fails here and
# not at the checkpoint write.

def check_integer(value, what: str, minimum: int):
    """`value` itself when it is an integer >= `minimum`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def check_number(value, what: str):
    """`value` itself when it is a finite real number. NaN, the infinities
    and an integer beyond the float range fail the bounds comparison."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def check_list(value, what: str) -> tuple:
    """A JSON list (or a tuple) as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def check_keys(raw, what: str, required=(), optional=()) -> dict:
    """`raw` itself when it is a JSON object that holds every `required`
    key and no key outside `required` and `optional`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{what} is missing keys {missing}")
    unknown = sorted(set(raw) - set(required) - set(optional), key=str)
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}")
    return raw


def from_json(cls, raw, what: str):
    """A `cls` built from the JSON object `raw`, one key per `init` field;
    the fields without a default are required. Errors name `what`."""
    keys = {f.metadata.get("key", f.name): f for f in fields(cls) if f.init}
    check_keys(raw, what, [key for key, f in keys.items() if f.default is MISSING], keys)
    with naming(what):
        return cls(**{keys[key].name: value for key, value in raw.items()})


@contextmanager
def naming(what: str):
    """Prefix the message of a ConfigError raised inside with `what`."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{what} {exc}") from None


def to_json(value):
    """The JSON form of a config carrier: a dataclass is an object of its
    fields that are not None, each under its JSON key; a tuple or list is
    a list."""
    if is_dataclass(value):
        return {f.metadata.get("key", f.name): to_json(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value
