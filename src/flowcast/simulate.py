"""Seeded synthetic generator of classified vehicle counts.

Each bin draws a target PCU level (base flow plus linear trend, perturbed
by multiplicative Gaussian noise truncated at zero) and decomposes it
into integer per-class counts by largest-remainder apportionment against
the class mix and the default PCU factors.

Determinism contract: the noise stream is Python's random.Random
(MT19937) run through a Box-Muller transform, both pinned here rather
than taken from numpy, so a scenario reproduces byte-for-byte across
platforms and library versions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping

from flowcast.errors import InvalidScenario, UnknownPreset
from flowcast.pcu import ClassifiedCounts, PcuTable, VehicleClass

# Rickshaw-heavy urban mix; illustrative, not calibrated to any survey.
DEFAULT_CLASS_MIX: Mapping[VehicleClass, float] = {
    VehicleClass.CYCLE_RICKSHAW: 0.30,
    VehicleClass.PRIVATE_CAR: 0.22,
    VehicleClass.MOTORCYCLE: 0.12,
    VehicleClass.BUS: 0.10,
    VehicleClass.CNG: 0.10,
    VehicleClass.TRUCK: 0.05,
    VehicleClass.COMMERCIAL_VEHICLE: 0.05,
    VehicleClass.UTILITY: 0.03,
    VehicleClass.BICYCLE: 0.03,
}

MIX_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Everything that determines a synthetic count, including the seed."""

    duration: int = 10800
    bin_duration: int = 300
    base_flow: float = 480.0
    trend: float = 6.0
    noise_cv: float = 0.15
    class_mix: Mapping[VehicleClass, float] = field(default_factory=lambda: dict(DEFAULT_CLASS_MIX))
    seed: int = 0

    def __post_init__(self):
        if self.bin_duration <= 0:
            raise InvalidScenario("bin_duration", f"must be > 0, got {self.bin_duration}")
        if self.duration < self.bin_duration:
            raise InvalidScenario("duration", f"must cover at least one bin, got {self.duration}")
        if not (math.isfinite(self.base_flow) and self.base_flow > 0):
            raise InvalidScenario("base_flow", f"must be finite and > 0, got {self.base_flow}")
        if not math.isfinite(self.trend):
            raise InvalidScenario("trend", f"must be finite, got {self.trend}")
        if not (math.isfinite(self.noise_cv) and self.noise_cv >= 0):
            raise InvalidScenario("noise_cv", f"must be >= 0, got {self.noise_cv}")
        mix = dict(self.class_mix)
        for cls, proportion in mix.items():
            if not isinstance(cls, VehicleClass):
                raise InvalidScenario("class_mix", f"keys must be VehicleClass, got {cls!r}")
            if not (math.isfinite(proportion) and proportion >= 0):
                raise InvalidScenario("class_mix", f"proportion for {cls.label} must be >= 0")
        total = sum(mix.values())
        if abs(total - 1.0) > MIX_SUM_TOLERANCE:
            raise InvalidScenario("class_mix", f"proportions must sum to 1, got {total!r}")
        object.__setattr__(self, "class_mix", mix)

    @property
    def bin_count(self) -> int:
        return self.duration // self.bin_duration


def _standard_normal(rng: random.Random) -> float:
    # Box-Muller on the MT19937 uniform stream; 1-u keeps the log argument
    # in (0, 1].
    u1 = rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _apportion(target_pcu: float, mix: Mapping[VehicleClass, float], table: PcuTable) -> dict[VehicleClass, int]:
    """Integer per-class counts whose PCU total stays within one vehicle of target.

    Floor the ideal fractional counts, then hand out single extra vehicles
    in largest-remainder order while the class factor still fits in the
    remaining deficit. The final shortfall is below the largest factor in
    the mix.
    """
    counts: dict[VehicleClass, int] = {}
    remainders: list[tuple[float, int, VehicleClass]] = []
    realized = 0.0
    for order, cls in enumerate(VehicleClass):
        proportion = mix.get(cls, 0.0)
        if proportion <= 0.0:
            continue
        ideal = target_pcu * proportion / table.factor(cls)
        whole = math.floor(ideal)
        counts[cls] = whole
        realized += whole * table.factor(cls)
        remainders.append((-(ideal - whole), order, cls))
    deficit = target_pcu - realized
    for _, _, cls in sorted(remainders):
        factor = table.factor(cls)
        if factor <= deficit:
            counts[cls] += 1
            deficit -= factor
    return counts


def generate(scenario: Scenario) -> ClassifiedCounts:
    """Deterministic classified counts for the scenario, one row per
    class per bin, timestamped at the bin start."""
    rng = random.Random(scenario.seed)
    table = PcuTable.default()
    rows: list[tuple[int, VehicleClass, int]] = []
    for i in range(scenario.bin_count):
        noise_factor = max(0.0, 1.0 + scenario.noise_cv * _standard_normal(rng))
        level = max(0.0, scenario.base_flow + scenario.trend * i)
        target = level * noise_factor
        counts = _apportion(target, scenario.class_mix, table)
        timestamp = i * scenario.bin_duration
        for cls in VehicleClass:
            count = counts.get(cls, 0)
            if count > 0:
                rows.append((timestamp, cls, count))
    return ClassifiedCounts.from_rows(rows)


def presets() -> dict[str, Scenario]:
    """The named scenarios shipped with the package, seeds fixed.

    paper-like: a busy arterial getting busier, low bin noise so the
    rising trend dominates. steady: no trend. volatile: heavy bin noise.
    """
    return {
        "paper-like": Scenario(trend=8.0, noise_cv=0.05, seed=84),
        "steady": Scenario(trend=0.0, seed=11),
        "volatile": Scenario(noise_cv=0.35, seed=35),
    }


def preset(name: str) -> Scenario:
    """Look up one preset by name."""
    try:
        return presets()[name]
    except KeyError:
        raise UnknownPreset(name) from None
