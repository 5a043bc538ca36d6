"""Vehicle taxonomy and Passenger Car Unit (PCU) conversion.

The default factors follow the RHD (Bangladesh, 2005) geometric design
guideline for heterogeneous urban streams, where slow non-motorized
vehicles such as cycle rickshaws weigh more than a passenger car. A
custom table can be supplied for other jurisdictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np

from flowcast.errors import NegativeCount, UnknownVehicleClass


class VehicleClass(Enum):
    """The nine vehicle classes counted in a heterogeneous stream."""

    BUS = "bus"
    TRUCK = "truck"
    CNG = "cng"
    PRIVATE_CAR = "private_car"
    COMMERCIAL_VEHICLE = "commercial_vehicle"
    UTILITY = "utility"
    MOTORCYCLE = "motorcycle"
    BICYCLE = "bicycle"
    CYCLE_RICKSHAW = "cycle_rickshaw"

    @property
    def label(self) -> str:
        """Canonical label used in CSV files."""
        return self.value


DEFAULT_FACTORS: Mapping[VehicleClass, float] = {
    VehicleClass.BUS: 3.0,
    VehicleClass.TRUCK: 3.0,
    VehicleClass.CNG: 0.75,
    VehicleClass.PRIVATE_CAR: 1.0,
    VehicleClass.COMMERCIAL_VEHICLE: 1.0,
    VehicleClass.UTILITY: 1.0,
    VehicleClass.MOTORCYCLE: 0.75,
    VehicleClass.BICYCLE: 0.5,
    VehicleClass.CYCLE_RICKSHAW: 2.0,
}

# Documented aliases accepted on input, beyond the canonical labels.
_ALIASES = {
    "car": VehicleClass.PRIVATE_CAR,
    "rickshaw": VehicleClass.CYCLE_RICKSHAW,
}


def _normalize(label: str) -> str:
    return "".join(ch for ch in label.strip().lower() if ch not in " -_")


# A class's index in a ClassifiedCounts classes column is its position here.
VEHICLE_CLASSES = tuple(VehicleClass)
_CLASS_INDEX = {c: i for i, c in enumerate(VEHICLE_CLASSES)}

_LOOKUP = {_normalize(c.label): c for c in VehicleClass}
_LOOKUP.update({_normalize(alias): c for alias, c in _ALIASES.items()})


@dataclass(frozen=True)
class PcuTable:
    """Immutable mapping from vehicle class to its PCU factor.

    Every class must have exactly one positive, finite factor.
    """

    factors: Mapping[VehicleClass, float]

    def __post_init__(self):
        factors = dict(self.factors)
        missing = [c.label for c in VehicleClass if c not in factors]
        if missing:
            raise ValueError(f"missing PCU factors for: {', '.join(missing)}")
        extra = [k for k in factors if not isinstance(k, VehicleClass)]
        if extra:
            raise ValueError(f"PCU table keys must be VehicleClass, got {extra!r}")
        for c, f in factors.items():
            f = float(f)
            if not math.isfinite(f) or f <= 0:
                raise ValueError(f"PCU factor for {c.label} must be finite and > 0, got {f}")
            factors[c] = f
        object.__setattr__(self, "factors", factors)

    @classmethod
    def default(cls) -> "PcuTable":
        """The compiled-in RHD-2005 table."""
        return cls(DEFAULT_FACTORS)

    def factor(self, vehicle_class: VehicleClass) -> float:
        return self.factors[vehicle_class]


@dataclass(frozen=True, eq=False)
class ClassifiedCounts:
    """Timestamped counts of single vehicle classes, as three columns in row order.

    timestamps are whole seconds since the epoch and counts are >= 0, both
    int64; classes index VEHICLE_CLASSES (VehicleClass order), as int8.
    """

    timestamps: np.ndarray
    classes: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        timestamps = _int_column("timestamps", self.timestamps, np.int64)
        classes = _int_column("classes", self.classes, np.int8)
        counts = _int_column("counts", self.counts, np.int64)
        if not len(timestamps) == len(classes) == len(counts):
            raise ValueError(
                f"columns differ in length: {len(timestamps)} timestamps, {len(classes)} classes, {len(counts)} counts"
            )
        bad = np.flatnonzero((classes < 0) | (classes >= len(VEHICLE_CLASSES)))
        if bad.size:
            raise ValueError(f"class index must be in [0, {len(VEHICLE_CLASSES)}), got {classes[bad[0]]} at row {bad[0]}")
        bad = np.flatnonzero(counts < 0)
        if bad.size:
            raise NegativeCount(f"count must be >= 0, got {counts[bad[0]]} at row {bad[0]}")
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, VehicleClass, int]]) -> "ClassifiedCounts":
        """Columns from (timestamp, vehicle class, count) rows."""
        rows = list(rows)
        return cls(
            [timestamp for timestamp, _, _ in rows],
            [_CLASS_INDEX[vehicle_class] for _, vehicle_class, _ in rows],
            [count for _, _, count in rows],
        )

    def rows(self) -> Iterator[tuple[int, VehicleClass, int]]:
        """(timestamp, vehicle class, count) per row, as Python objects."""
        classes = (VEHICLE_CLASSES[i] for i in self.classes.tolist())
        return zip(self.timestamps.tolist(), classes, self.counts.tolist())

    def __len__(self) -> int:
        return len(self.counts)


def _int_column(name: str, values, dtype) -> np.ndarray:
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
    if column.size and column.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {column.dtype}")
    limits = np.iinfo(dtype)
    if column.size and (column.min() < limits.min or column.max() > limits.max):
        raise ValueError(f"{name} must lie in [{limits.min}, {limits.max}]")
    return column.astype(dtype, copy=False)


def parse_vehicle_class(label: str) -> VehicleClass:
    """Parse a class label, case-insensitively, ignoring spaces/hyphens/underscores.

    Accepts the nine canonical labels plus the aliases "car" (private car)
    and "rickshaw" (cycle rickshaw). Anything else raises UnknownVehicleClass;
    unknown labels are never silently skipped.
    """
    found = _LOOKUP.get(_normalize(label))
    if found is None:
        raise UnknownVehicleClass(label)
    return found
