"""Seeded input generator for the benchmark, independent of flowcast.simulate.

Every input is drawn from numpy's PCG64 generator seeded by the run's
--seed, written straight to the CSV formats flowcast reads, and returned
together with the benchmark's own PCU sum for every bin. The program
under test only ever sees the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BIN_SECONDS = 300
BINS_PER_DAY = 86400 // BIN_SECONDS
YEAR_START = 1704067200  # 2024-01-01T00:00:00Z, a Monday

CLASSES = (
    "bus", "truck", "cng", "private_car", "commercial_vehicle",
    "utility", "motorcycle", "bicycle", "cycle_rickshaw",
)
# RHD (Bangladesh, 2005) PCU factors, as four times the factor so PCU sums
# are exact integers before the final division by four.
QUARTER_PCU = np.array([12, 12, 3, 4, 4, 4, 3, 2, 8], dtype=np.int64)
# Share of PCU per class: the rickshaw-heavy mix of flowcast's simulator
# (simulate.DEFAULT_CLASS_MIX), which is illustrative and not calibrated to
# any survey. Turned into shares of vehicles for the Poisson draws.
PCU_SHARE = np.array([0.10, 0.05, 0.10, 0.22, 0.05, 0.03, 0.12, 0.03, 0.30])
CLASS_SHARE = PCU_SHARE / QUARTER_PCU / np.sum(PCU_SHARE / QUARTER_PCU)
PRIVATE_CAR = CLASSES.index("private_car")


@dataclass(frozen=True)
class Op:
    """The workload's CLI invocation and what the benchmark knows about its input."""

    name: str
    command: str          # "run" (counts CSV) or "evaluate" (series CSV)
    input_path: Path
    start: int            # first bin start, epoch seconds
    pcu: tuple[float, ...]  # the benchmark's own PCU sum per bin


def pcu_sums(counts: np.ndarray) -> np.ndarray:
    """Per-bin PCU from a (bins, classes) count matrix, exact in float64."""
    return (counts @ QUARTER_PCU) / 4.0


def _year_counts(seed: int, days: int) -> np.ndarray:
    """(bins, 9) counts with daily and weekly cycles and day-to-day drift.

    The volume, daily profile, weekend factors and day-level spread are
    assumptions chosen to give a plausible urban day and night, not values
    measured on any road. Every bin carries traffic, so observed-denominator
    scores are defined.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = days * BINS_PER_DAY
    hour = (np.arange(n) % BINS_PER_DAY) * (24.0 / BINS_PER_DAY)
    daily = (
        0.30
        + 0.95 * np.exp(-(((hour - 8.5) / 1.6) ** 2))
        + 0.35 * np.exp(-(((hour - 13.0) / 2.5) ** 2))
        + 1.05 * np.exp(-(((hour - 17.75) / 1.9) ** 2))
    )
    weekday = (np.arange(n) // BINS_PER_DAY) % 7
    weekly = np.where(weekday == 5, 0.8, np.where(weekday == 6, 0.65, 1.0))
    day_level = np.repeat(rng.lognormal(0.0, 0.12, days), BINS_PER_DAY)
    vehicles = 120.0 * daily * weekly * day_level
    counts = rng.poisson(vehicles[:, None] * CLASS_SHARE[None, :])
    counts[counts.sum(axis=1) == 0, PRIVATE_CAR] = 1
    return counts


def write_year_counts(path: Path, seed: int, days: int) -> Op:
    """One row per class per bin, epoch-second timestamps, canonical labels."""
    counts = _year_counts(seed, days)
    n = counts.shape[0]
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    stamps = (YEAR_START + BIN_SECONDS * np.arange(n))[:, None] + rng.integers(0, BIN_SECONDS, size=counts.shape)
    labels = CLASSES * n
    rows = map("{},{},{}".format, stamps.ravel().tolist(), labels, counts.ravel().tolist())
    path.write_text("timestamp,vehicle_class,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return Op(path.stem, "run", path, YEAR_START, tuple(pcu_sums(counts).tolist()))


def write_year_series(path: Path, seed: int, days: int) -> Op:
    """The same bins as write_year_counts, as a bin_start,pcu series."""
    pcu = pcu_sums(_year_counts(seed, days)).tolist()
    starts = range(YEAR_START, YEAR_START + BIN_SECONDS * len(pcu), BIN_SECONDS)
    rows = map("{},{!r}".format, starts, pcu)
    path.write_text("bin_start,pcu\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return Op(path.stem, "evaluate", path, YEAR_START, tuple(pcu))


def make_inputs(workload: str, seed: int, small: bool, directory: Path) -> Op:
    """Write the workload's input file and return its invocation."""
    directory.mkdir(parents=True, exist_ok=True)
    days = 7 if small else 365
    if workload == "year-counts-run":
        return write_year_counts(directory / "year_counts.csv", seed, days)
    if workload == "year-series-evaluate":
        return write_year_series(directory / "year_series.csv", seed, days)
    raise ValueError(f"unknown workload {workload!r}")
