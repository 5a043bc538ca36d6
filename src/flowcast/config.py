"""Run configuration: defaults, flat key=value config files, CLI overrides.

Precedence, lowest to highest: built-in defaults, the config file (the
FLOWCAST_CONFIG environment variable or --config), then CLI flags.
Unknown config keys are rejected rather than ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping

from flowcast.errors import ConfigError
from flowcast.kalman import DEFAULT_INIT_VAR
from flowcast.pcu import DEFAULT_FACTORS, PcuTable, VehicleClass
from flowcast.series import DEFAULT_BIN_DURATION

ENV_CONFIG_VAR = "FLOWCAST_CONFIG"

PERCENT_DENOMINATORS = ("forecast", "observed")
EVALUATE_MODES = ("predicted", "filtered")


@dataclass
class RunConfig:
    """Validated knobs for the aggregate/filter/evaluate pipeline."""

    bin_duration: int = DEFAULT_BIN_DURATION
    init_var: float = DEFAULT_INIT_VAR
    transition: float = 1.0
    process_var: float | None = None            # None means estimate
    measurement_var: float | None = None        # None means estimate
    percent_denominator: str = "forecast"
    evaluate_mode: str = "predicted"
    histogram_bins: int = 8
    out_dir: Path | None = None
    pcu_overrides: dict[VehicleClass, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.bin_duration <= 0:
            raise ConfigError(f"bin_duration must be > 0, got {self.bin_duration}")
        if not (math.isfinite(self.init_var) and self.init_var >= 0):
            raise ConfigError(f"p0 must be finite and >= 0, got {self.init_var}")
        if not math.isfinite(self.transition):
            raise ConfigError(f"m_t must be finite, got {self.transition}")
        for key, value in (("q", self.process_var), ("r", self.measurement_var)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if self.percent_denominator not in PERCENT_DENOMINATORS:
            raise ConfigError(
                f"percent_denominator must be one of {PERCENT_DENOMINATORS}, got {self.percent_denominator!r}"
            )
        if self.evaluate_mode not in EVALUATE_MODES:
            raise ConfigError(f"evaluate_mode must be one of {EVALUATE_MODES}, got {self.evaluate_mode!r}")
        if self.histogram_bins < 1:
            raise ConfigError(f"histogram_bins must be >= 1, got {self.histogram_bins}")
        for cls, factor in self.pcu_overrides.items():
            if not (math.isfinite(factor) and factor > 0):
                raise ConfigError(f"pcu.{cls.label} must be finite and > 0, got {factor}")

    def pcu_table(self) -> PcuTable:
        if not self.pcu_overrides:
            return PcuTable.default()
        factors = dict(DEFAULT_FACTORS)
        factors.update(self.pcu_overrides)
        return PcuTable(factors)


@dataclass(frozen=True)
class Setting:
    """One run setting: its config-file key, RunConfig field, parser and help.

    The CLI flag is "--" plus the key with underscores turned into dashes.
    """

    key: str
    field: str
    parse: Callable[[str], Any]
    metavar: str | None
    help: str
    choices: tuple[str, ...] | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _out_dir(text: str) -> Path:
    # Path("") is ".", so a blank value would quietly write into the
    # current directory; "." itself has to be asked for.
    if not text.strip():
        raise ConfigError("out_dir must not be blank (use . for the current directory)")
    return Path(text)


SETTINGS = (
    Setting("bin_duration", "bin_duration", int, "SECONDS", "aggregation bin length (default 300)"),
    Setting("p0", "init_var", float, "VAR", "initial estimate variance (default 1e6)"),
    Setting("m_t", "transition", float, "X", "state transition multiplier (default 1)"),
    Setting("q", "process_var", float, "VAR", "process noise variance (default: estimated from the series)"),
    Setting("r", "measurement_var", float, "VAR", "measurement noise variance (default: estimated from the series)"),
    Setting("percent_denominator", "percent_denominator", str, None,
            "divide percent errors by the forecast (default) or the observed value", PERCENT_DENOMINATORS),
    Setting("evaluate_mode", "evaluate_mode", str, None,
            "score one-step-ahead forecasts (default) or filtered estimates", EVALUATE_MODES),
    Setting("histogram_bins", "histogram_bins", int, "N", "histogram bin count for plots (default 8)"),
    Setting("out_dir", "out_dir", _out_dir, "DIR", "directory for report.json, trace.csv and the plots"),
)

_SETTINGS_BY_KEY = {setting.key: setting for setting in SETTINGS}
_PCU_KEYS = {f"pcu.{cls.label}": cls for cls in VehicleClass}


def _parse(key: str, parse: Callable[[str], Any], text: str) -> Any:
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{key} must be {'an integer' if parse is int else 'a number'}, got {text!r}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment line.

    Only LF ends a line, and a CR before it is dropped, so a form feed or
    a Unicode line separator stays inside its line.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(file_values: Mapping[str, str] | None = None, **flag_values) -> RunConfig:
    """Merge config-file strings and typed flag values over the defaults.

    flag_values use RunConfig field names; None means "flag not given".
    """
    known_flags = {f.name for f in fields(RunConfig)}
    merged: dict = {}
    pcu_overrides: dict[VehicleClass, float] = {}

    for key, text in (file_values or {}).items():
        if key in _SETTINGS_BY_KEY:
            setting = _SETTINGS_BY_KEY[key]
            merged[setting.field] = _parse(key, setting.parse, text)
        elif key in _PCU_KEYS:
            pcu_overrides[_PCU_KEYS[key]] = _parse(key, float, text)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    for name, value in flag_values.items():
        if name not in known_flags:
            raise ConfigError(f"unknown config field {name!r}")
        if value is not None:
            merged[name] = value
    if pcu_overrides and "pcu_overrides" not in merged:
        merged["pcu_overrides"] = pcu_overrides
    return RunConfig(**merged)


def config_file_from_env() -> Path | None:
    """Path named by FLOWCAST_CONFIG, or None when unset/empty."""
    value = os.environ.get(ENV_CONFIG_VAR, "").strip()
    return Path(value) if value else None
