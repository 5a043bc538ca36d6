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
from typing import Mapping

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


@dataclass(frozen=True)
class ClassifiedCount:
    """One timestamped count of a single vehicle class.

    timestamp is in whole seconds since the epoch.
    """

    timestamp: int
    vehicle_class: VehicleClass
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise NegativeCount(f"count must be >= 0, got {self.count}")


def to_pcu(table: PcuTable, counts: Mapping[VehicleClass, int]) -> float:
    """Convert a per-class count mapping to its total PCU value.

    Exact for the default table: all factors are quarter-integers, so
    the float sum carries no rounding error.
    """
    total = 0.0
    for vehicle_class, count in counts.items():
        if count < 0:
            raise NegativeCount(f"count for {vehicle_class.label} must be >= 0, got {count}")
        total += count * table.factor(vehicle_class)
    return total


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
