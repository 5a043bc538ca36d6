"""Command line interface tying the pipeline together.

Subcommands: simulate (scenario -> counts CSV), convert (counts -> series
CSV), forecast (counts or series -> trace CSV plus next-step forecasts),
evaluate (series -> report, trace and plots), run (counts -> the same,
end to end).

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Diagnostics go to stderr; only data (CSV output, forecasts) goes to
stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from flowcast.config import SETTINGS, RunConfig, config_file_from_env, load_config_file, resolve_config
from flowcast.errors import ConfigError, DataError, InvalidParams, InvalidScenario
from flowcast.io import (
    atomic_write_text,
    counts_csv_text,
    parse_timestamp,
    read_counts_csv,
    read_series_csv,
    series_csv_text,
    sniff_input_kind,
    write_report,
    write_trace_csv,
)
from flowcast.kalman import FilterParams, FilterTrace, estimate_noise, filter_series, forecast_next
from flowcast.metrics import build_report
from flowcast.plots import render_plots
from flowcast.series import FlowSeries, aggregate
from flowcast.simulate import Scenario, generate, preset


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for data
    # errors, so route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


# The Scenario fields simulate takes as flags: field, type, metavar. Each
# flag is "--" plus the field with underscores turned into dashes.
_SCENARIO_FLAGS = (
    ("duration", int, "SECONDS"),
    ("bin_duration", int, "SECONDS"),
    ("base_flow", float, "PCU"),
    ("trend", float, "PCU_PER_BIN"),
    ("noise_cv", float, "CV"),
    ("seed", int, None),
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="key=value config file; overrides FLOWCAST_CONFIG")
    for setting in SETTINGS:
        group.add_argument(setting.flag, type=setting.parse, dest=setting.field, metavar=setting.metavar,
                           choices=setting.choices, help=setting.help)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None) or config_file_from_env()
    file_values = load_config_file(config_path) if config_path else None
    return resolve_config(file_values, **{setting.field: getattr(args, setting.field) for setting in SETTINGS})


def _filter_params(config: RunConfig, series: FlowSeries) -> FilterParams:
    process_var = config.process_var
    measurement_var = config.measurement_var
    if process_var is None or measurement_var is None:
        estimated = estimate_noise(series)
        if process_var is None:
            process_var = estimated.process_var
        if measurement_var is None:
            measurement_var = estimated.measurement_var
    try:
        return FilterParams(
            process_var=process_var,
            measurement_var=measurement_var,
            transition=config.transition,
            measurement_scale=config.measurement_scale,
        )
    except InvalidParams as exc:
        # Both noises explicitly configured to zero is a usage problem.
        raise ConfigError(str(exc)) from None


def _predictions(trace: FilterTrace, params: FilterParams, mode: str) -> tuple[float, ...]:
    if mode == "predicted":
        return trace.forecasts
    return tuple(params.measurement_scale * estimate for estimate in trace.estimates)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> None:
    scenario = preset(args.preset) if args.preset else Scenario()
    overrides = {name: getattr(args, name) for name, _, _ in _SCENARIO_FLAGS if getattr(args, name) is not None}
    try:
        scenario = dataclasses.replace(scenario, **overrides)
    except InvalidScenario as exc:
        raise ConfigError(str(exc)) from None
    counts = generate(scenario)
    if args.out:
        atomic_write_text(args.out, counts_csv_text(counts))
        _note(f"wrote {len(counts)} records over {scenario.bin_count} bins to {args.out}")
    else:
        sys.stdout.write(counts_csv_text(counts))


def _cmd_convert(args: argparse.Namespace) -> None:
    config = _resolve_config(args)
    counts = read_counts_csv(args.input)
    start_time = None
    if args.start_time is not None:
        try:
            start_time = parse_timestamp(args.start_time)
        except DataError as exc:
            raise ConfigError(f"--start-time: {exc}") from None
    series = aggregate(counts, config.pcu_table(), config.bin_duration, start_time)
    if args.out:
        atomic_write_text(args.out, series_csv_text(series))
        _note(f"wrote {len(series)} bins to {args.out}")
    else:
        sys.stdout.write(series_csv_text(series))


def _load_series(path: str, config: RunConfig) -> FlowSeries:
    kind = sniff_input_kind(path)
    if kind == "counts":
        return aggregate(read_counts_csv(path), config.pcu_table(), config.bin_duration)
    return read_series_csv(path)


def _cmd_forecast(args: argparse.Namespace) -> None:
    config = _resolve_config(args)
    series = _load_series(args.input, config)
    params = _filter_params(config, series)
    trace = filter_series(series, params, config.init_var)
    if args.out:
        write_trace_csv(series, trace, params, args.out)
        _note(f"wrote trace for {len(series)} bins to {args.out}")
    values = forecast_next(trace.estimates[-1], params, args.horizon)
    sys.stdout.write("step,pcu\n")
    for step, value in enumerate(values, start=1):
        sys.stdout.write(f"{step},{value!r}\n")


def _evaluate_series(series: FlowSeries, config: RunConfig) -> None:
    if config.out_dir is None:
        raise ConfigError("an output directory is required (--out-dir or out_dir in the config)")
    params = _filter_params(config, series)
    trace = filter_series(series, params, config.init_var)
    predictions = _predictions(trace, params, config.evaluate_mode)
    report = build_report(series, predictions, config.percent_denominator)
    paths = write_report(report, trace, series, params, config.init_var, config.out_dir)
    paths += render_plots(series.tail(), predictions, report, config.out_dir, config.histogram_bins)
    _note(
        f"MAPE {report.mape_percent:.2f}% ({report.mape_band.value}), "
        f"RMSPE {report.rmspe_percent:.2f}% ({report.rmspe_band.value}), "
        f"R^2 {report.r_squared:.3f}"
    )
    for path in paths:
        _note(f"wrote {path}")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    config = _resolve_config(args)
    _evaluate_series(read_series_csv(args.input), config)


def _cmd_run(args: argparse.Namespace) -> None:
    config = _resolve_config(args)
    counts = read_counts_csv(args.input)
    series = aggregate(counts, config.pcu_table(), config.bin_duration)
    _evaluate_series(series, config)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowcast", description="Short-duration traffic flow forecasting.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    simulate_parser = commands.add_parser("simulate", help="generate a synthetic classified-count CSV")
    simulate_parser.add_argument("--preset", help="named scenario: paper-like, steady or volatile")
    for name, parse, metavar in _SCENARIO_FLAGS:
        simulate_parser.add_argument("--" + name.replace("_", "-"), type=parse, dest=name, metavar=metavar)
    simulate_parser.add_argument("--out", type=Path, help="counts CSV path (default: stdout)")
    simulate_parser.set_defaults(handler=_cmd_simulate)

    convert_parser = commands.add_parser("convert", help="aggregate a counts CSV into a PCU series CSV")
    convert_parser.add_argument("input", help="counts CSV (timestamp,vehicle_class,count)")
    convert_parser.add_argument("--start-time", dest="start_time", metavar="T",
                                help="explicit first bin start (epoch seconds or ISO-8601 UTC)")
    convert_parser.add_argument("--out", type=Path, help="series CSV path (default: stdout)")
    _add_config_flags(convert_parser)
    convert_parser.set_defaults(handler=_cmd_convert)

    forecast_parser = commands.add_parser("forecast", help="filter a series and print next-step forecasts")
    forecast_parser.add_argument("input", help="counts or series CSV, judged by its header")
    forecast_parser.add_argument("--horizon", type=_positive_int, default=1, metavar="N",
                                 help="number of steps to forecast (default 1)")
    forecast_parser.add_argument("--out", type=Path, help="trace CSV path (optional)")
    _add_config_flags(forecast_parser)
    forecast_parser.set_defaults(handler=_cmd_forecast)

    evaluate_parser = commands.add_parser("evaluate", help="score a series CSV: report, trace and plots")
    evaluate_parser.add_argument("input", help="series CSV (bin_start,pcu)")
    _add_config_flags(evaluate_parser)
    evaluate_parser.set_defaults(handler=_cmd_evaluate)

    run_parser = commands.add_parser("run", help="end to end: counts CSV to report, trace and plots")
    run_parser.add_argument("input", help="counts CSV (timestamp,vehicle_class,count)")
    _add_config_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    return parser


def cli_main(argv: Sequence[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(list(argv))
        args.handler(args)
        return 0
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except ConfigError as exc:
        print(f"flowcast: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"flowcast: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
