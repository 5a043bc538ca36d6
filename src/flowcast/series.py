"""Fixed-interval PCU flow series and count aggregation.

Bins follow the half-open convention [start + i*bin, start + (i+1)*bin):
a record exactly on a boundary opens the next bin, so no count is ever
double-placed. Interior bins with no records are zero-filled because the
downstream filter needs an evenly spaced series. Trailing partial bins
are kept as raw sums, not scaled to full-bin rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from flowcast.errors import DataError, EmptyInput, RecordBeforeStart
from flowcast.pcu import ClassifiedCount, PcuTable

DEFAULT_BIN_DURATION = 300

# Bins are zero-filled, so a pathological timestamp span would otherwise
# allocate without bound.
MAX_BINS = 1_000_000


@dataclass(frozen=True)
class FlowSeries:
    """Evenly spaced PCU values, one per bin."""

    start_time: int
    bin_duration: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.bin_duration <= 0:
            raise ValueError(f"bin_duration must be > 0, got {self.bin_duration}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def bin_starts(self) -> list[int]:
        return [self.start_time + i * self.bin_duration for i in range(len(self.values))]

    def tail(self) -> "FlowSeries":
        """The series without its first bin (the bins that get forecasts)."""
        return FlowSeries(self.start_time + self.bin_duration, self.bin_duration, self.values[1:])


@dataclass(frozen=True)
class SeriesIssue:
    """One validation finding; kind is zero_length, negative_value or non_finite_value."""

    kind: str
    index: int | None = None


def aggregate(
    records: Iterable[ClassifiedCount],
    table: PcuTable,
    bin_duration: int = DEFAULT_BIN_DURATION,
    start_time: int | None = None,
) -> FlowSeries:
    """Sum classified counts into fixed bins of PCU.

    start_time defaults to the earliest record timestamp truncated down to
    a whole bin boundary. Bins run from there through the latest record.
    An explicit start_time that excludes a record raises RecordBeforeStart.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no records to aggregate")
    if bin_duration <= 0:
        raise ValueError(f"bin_duration must be > 0, got {bin_duration}")

    earliest = min(r.timestamp for r in records)
    latest = max(r.timestamp for r in records)
    if start_time is None:
        start_time = (earliest // bin_duration) * bin_duration
    elif earliest < start_time:
        raise RecordBeforeStart(earliest)

    n_bins = (latest - start_time) // bin_duration + 1
    if n_bins > MAX_BINS:
        raise DataError(f"timestamps span {n_bins} bins, more than the {MAX_BINS} supported")
    values = [0.0] * n_bins
    for r in records:
        values[(r.timestamp - start_time) // bin_duration] += r.count * table.factor(r.vehicle_class)
    return FlowSeries(start_time, bin_duration, tuple(values))


def validate_series(series: FlowSeries) -> list[SeriesIssue]:
    """Report structural problems; an empty list means well-formed.

    Never raises: this is the check you run on data of unknown quality.
    """
    issues: list[SeriesIssue] = []
    if len(series.values) == 0:
        issues.append(SeriesIssue("zero_length"))
    for i, v in enumerate(series.values):
        if not math.isfinite(v):
            issues.append(SeriesIssue("non_finite_value", i))
        elif v < 0:
            issues.append(SeriesIssue("negative_value", i))
    return issues
