"""Fixed-interval PCU flow series and count aggregation.

Bins follow the half-open convention [start + i*bin, start + (i+1)*bin):
a record exactly on a boundary opens the next bin, so no count is ever
double-placed. Interior bins with no records are zero-filled because the
downstream filter needs an evenly spaced series. Trailing partial bins
are kept as raw sums, not scaled to full-bin rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowcast.errors import DataError, EmptyInput, RecordBeforeStart
from flowcast.pcu import VEHICLE_CLASSES, ClassifiedCounts, PcuTable

DEFAULT_BIN_DURATION = 300

# Bins are zero-filled, so a pathological timestamp span would otherwise
# allocate without bound.
MAX_BINS = 1_000_000

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


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


def aggregate(
    counts: ClassifiedCounts,
    table: PcuTable,
    bin_duration: int = DEFAULT_BIN_DURATION,
    start_time: int | None = None,
) -> FlowSeries:
    """Sum classified counts into fixed bins of PCU.

    start_time defaults to the earliest record timestamp truncated down to
    a whole bin boundary. Bins run from there through the latest record.
    An explicit start_time that excludes a record raises RecordBeforeStart.
    Each bin adds its records' PCU in row order.
    """
    if len(counts) == 0:
        raise EmptyInput("no records to aggregate")
    if bin_duration <= 0:
        raise ValueError(f"bin_duration must be > 0, got {bin_duration}")

    earliest = int(counts.timestamps.min())
    latest = int(counts.timestamps.max())
    if start_time is None:
        start_time = (earliest // bin_duration) * bin_duration
    elif earliest < start_time:
        raise RecordBeforeStart(earliest)

    span = latest - start_time
    n_bins = span // bin_duration + 1
    if n_bins > MAX_BINS:
        raise DataError(f"timestamps span {n_bins} bins, more than the {MAX_BINS} supported")
    if start_time >= _INT64_MIN and span < _INT64_MAX:
        # Every offset fits in int64; a bin wider than the span holds every record.
        bin_index = (counts.timestamps - start_time) // min(bin_duration, span + 1)
    else:
        # Offsets overflow int64: only bins wider than about 9e12 s, or
        # timestamps within a bin of the int64 minimum, get here.
        offsets = ((t - start_time) // bin_duration for t in counts.timestamps.tolist())
        bin_index = np.fromiter(offsets, dtype=np.int64, count=len(counts))
    factors = np.array([table.factor(c) for c in VEHICLE_CLASSES])
    # bincount adds the weights in row order, as a per-record loop would.
    values = np.bincount(bin_index, weights=counts.counts * factors[counts.classes], minlength=n_bins)
    return FlowSeries(start_time, bin_duration, values.tolist())
