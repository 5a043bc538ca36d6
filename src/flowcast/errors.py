"""Exception types shared across the package.

Two families matter to the CLI exit codes: ConfigError means the user
asked for something invalid (exit 1), DataError means the input data is
bad (exit 2). Builtin OSError/FileNotFoundError are treated like data
errors by the CLI.
"""

from __future__ import annotations


class FlowcastError(Exception):
    """Base class for all package errors."""


class ConfigError(FlowcastError):
    """Invalid flag value, unknown config key, or bad flag combination."""


class DataError(FlowcastError):
    """Base class for errors caused by the input data."""


class UnknownVehicleClass(DataError):
    """A vehicle label that is not one of the nine known classes."""

    def __init__(self, label: str, line: int | None = None):
        self.label = label
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown vehicle class {label!r}{where}")


class NegativeCount(DataError):
    """A vehicle count below zero."""


class EmptyInput(DataError):
    """An operation that needs at least one record or value got none."""


class RecordBeforeStart(DataError):
    """A record timestamp falls before the explicit aggregation start."""

    def __init__(self, timestamp: int):
        self.timestamp = timestamp
        super().__init__(f"record at t={timestamp} precedes the requested start time")


class MalformedRow(DataError):
    """A CSV row that cannot be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class NonFiniteInput(DataError):
    """A NaN or infinite value where a finite number is required."""


class InvalidParams(DataError):
    """Filter parameters or state outside their valid domain."""


class SeriesTooShort(DataError):
    """The series has fewer values than the operation requires."""


class ZeroVariance(DataError):
    """A correlation was requested on a constant series, or on one whose
    variances are too small for their product to be a float."""


class ScoreOverflow(DataError):
    """A score or statistic of finite values that is too large for a float."""

    def __init__(self, score: str):
        self.score = score
        super().__init__(f"{score} overflows a float: the values are too large to score")


class LengthMismatch(DataError):
    """Paired series of different (or zero) lengths."""


class ZeroDenominator(DataError):
    """A percent-error denominator is exactly zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero denominator value at index {index}")


class NegativeMetric(DataError):
    """A percent metric below zero passed to a band classifier."""


class InvalidScenario(DataError):
    """A synthetic scenario field outside its valid domain."""

    def __init__(self, field: str, reason: str):
        self.field = field
        super().__init__(f"invalid scenario field {field!r}: {reason}")


class UnknownPreset(DataError):
    """A preset name with no registered scenario."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown preset {name!r}")
