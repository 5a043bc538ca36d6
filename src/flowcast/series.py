"""Fixed-interval PCU flow series and count aggregation.

Bins follow the half-open convention [start + i*bin, start + (i+1)*bin):
a record exactly on a boundary opens the next bin, so no count is ever
double-placed. Interior bins with no records are zero-filled because the
downstream filter needs an evenly spaced series. Trailing partial bins
are kept as raw sums, not scaled to full-bin rates.

A series holds its values as one read-only 1-D float64 array, like the
columns of a kalman.FilterTrace (see float_column).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from flowcast.errors import DataError, EmptyInput, RecordBeforeStart
from flowcast.pcu import VEHICLE_CLASSES, ClassifiedCounts, PcuTable

DEFAULT_BIN_DURATION = 300

# Bins are zero-filled, so a pathological timestamp span would otherwise
# allocate without bound.
MAX_BINS = 1_000_000

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def float_column(values) -> np.ndarray:
    """values as a read-only 1-D float64 array.

    A read-only float64 array is kept as it is; anything else is copied,
    so a caller's writable array is never shared or frozen.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable):
        values = np.array(values, dtype=np.float64)
        values.flags.writeable = False
    if values.ndim != 1:
        raise ValueError(f"a column must be 1-D, got {values.ndim} dimensions")
    return values


def columns_equal(a, b) -> bool:
    """__eq__ for the frozen dataclasses that hold columns: the same type
    and every field equal, arrays by np.array_equal."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, eq=False)
class FlowSeries:
    """Evenly spaced PCU values, one per bin, as a read-only float64 array.

    Two series are equal when their start, bin duration and values are
    (np.array_equal); a series is not hashable.
    """

    start_time: int
    bin_duration: int
    values: np.ndarray

    def __post_init__(self):
        if self.bin_duration <= 0:
            raise ValueError(f"bin_duration must be > 0, got {self.bin_duration}")
        object.__setattr__(self, "values", float_column(self.values))

    __eq__ = columns_equal

    def __len__(self) -> int:
        return len(self.values)

    def bin_starts(self) -> range:
        return range(self.start_time, self.start_time + len(self.values) * self.bin_duration, self.bin_duration)


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
    return FlowSeries(start_time, bin_duration, values)
