"""Run configuration: defaults, flat key=value config files, CLI overrides.

Precedence, lowest to highest: built-in defaults, the config file (the
FLOWCAST_CONFIG environment variable or --config), then CLI flags.
Unknown config keys are rejected rather than ignored.

A run setting is added by declaring one RunConfig field with _setting:
its config-file key, default, parser, metavar, help and rule. SETTINGS,
and through it the config-file keys and the CLI flags, is read back from
those fields, and the field's rule is its check: RunConfig rejects a set
value that fails it.
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
from flowcast.plots import MAX_HISTOGRAM_BINS
from flowcast.series import DEFAULT_BIN_DURATION

ENV_CONFIG_VAR = "FLOWCAST_CONFIG"

# A rule: the words a rejected value's error shows, and the test a value must pass.
Rule = tuple[str, Callable[[Any], bool]]
_VARIANCE: Rule = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


@dataclass(frozen=True)
class Setting:
    """One run setting: its RunConfig field, config-file key, parser, help and rule.

    The CLI flag is "--" plus the key with underscores turned into dashes.
    A setting with choices has "one of" them as its rule.
    """

    field: str
    key: str
    parse: Callable[[str], Any]
    metavar: str | None
    help: str
    rule: Rule | None = None
    choices: tuple[str, ...] | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _setting(default: Any, key: str, parse: Callable[[str], Any], metavar: str | None, help: str,
             rule: Rule | None = None, choices: tuple[str, ...] | None = None) -> Any:
    """A RunConfig field that is a run setting; SETTINGS reads it back from the field's metadata.

    None means "not set" for a setting whose default is None, and fails any other setting's rule.
    """
    rule = (f"one of {choices}", choices.__contains__) if choices else rule
    if rule:
        rule = (rule[0], lambda v, test=rule[1]: default is None if v is None else test(v))
    return field(default=default, metadata={"setting": (key, parse, metavar, help, rule, choices)})


def _check(key: str, value: Any, rule: Rule | None) -> None:
    """Reject a value that fails its rule."""
    if rule is not None and not rule[1](value):
        raise ConfigError(f"{key} must be {rule[0]}, got {repr(value) if isinstance(value, str) else value}")


def _out_dir(text: str) -> Path:
    # Path("") is ".", so a blank value would quietly write into the
    # current directory; "." itself has to be asked for.
    if not text.strip():
        raise ConfigError("out_dir must not be blank (use . for the current directory)")
    return Path(text)


@dataclass
class RunConfig:
    """Validated knobs for the aggregate/filter/evaluate pipeline."""

    bin_duration: int = _setting(DEFAULT_BIN_DURATION, "bin_duration", int, "SECONDS",
                                 "aggregation bin length (default 300)", ("> 0", lambda v: v > 0))
    init_var: float = _setting(
        DEFAULT_INIT_VAR, "p0", float, "VAR", "initial estimate variance (default 1e6)", _VARIANCE)
    transition: float = _setting(
        1.0, "m_t", float, "X", "state transition multiplier (default 1)", ("finite", math.isfinite))
    process_var: float | None = _setting(
        None, "q", float, "VAR", "process noise variance (default: estimated from the series)", _VARIANCE)
    measurement_var: float | None = _setting(
        None, "r", float, "VAR", "measurement noise variance (default: estimated from the series)", _VARIANCE)
    percent_denominator: str = _setting(
        "forecast", "percent_denominator", str, None,
        "divide percent errors by the forecast (default) or the observed value", choices=("forecast", "observed"))
    evaluate_mode: str = _setting(
        "predicted", "evaluate_mode", str, None,
        "score one-step-ahead forecasts (default) or filtered estimates", choices=("predicted", "filtered"))
    histogram_bins: int = _setting(
        8, "histogram_bins", int, "N", f"histogram bins, 1 to {MAX_HISTOGRAM_BINS} (default 8)",
        (f"from 1 to {MAX_HISTOGRAM_BINS}", lambda v: 1 <= v <= MAX_HISTOGRAM_BINS))
    out_dir: Path | None = _setting(
        None, "out_dir", _out_dir, "DIR", "directory for report.json, trace.csv and the plots")
    pcu_overrides: dict[VehicleClass, float] = field(default_factory=dict)

    def __post_init__(self):
        for setting in SETTINGS:
            _check(setting.key, getattr(self, setting.field), setting.rule)
        for cls, factor in self.pcu_overrides.items():
            _check(f"pcu.{cls.label}", factor, ("finite and > 0", lambda v: math.isfinite(v) and v > 0))

    def pcu_table(self) -> PcuTable:
        return PcuTable({**DEFAULT_FACTORS, **self.pcu_overrides})


SETTINGS = tuple(Setting(f.name, *f.metadata["setting"]) for f in fields(RunConfig) if "setting" in f.metadata)

_SETTINGS_BY_KEY = {setting.key: setting for setting in SETTINGS}
_PCU_KEYS = {f"pcu.{cls.label}": cls for cls in VehicleClass}


def _parse(key: str, parse: Callable[[str], Any], text: str) -> Any:
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{key} must be {'an integer' if parse is int else 'a number'}, got {text!r}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment line.

    The file may start with a UTF-8 BOM. Only LF ends a line, and a CR
    before it is dropped, so a form feed or a Unicode line separator stays
    inside its line.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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
        if setting := _SETTINGS_BY_KEY.get(key):
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
