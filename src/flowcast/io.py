"""CSV ingestion and report/trace serialization.

File formats (all UTF-8, LF or CRLF accepted on input, LF written):
  counts CSV:  timestamp,vehicle_class,count
  series CSV:  bin_start,pcu
  trace CSV:   bin_start,observed,forecast,filtered,gain,innovation
  report JSON: versioned schema, see write_report_json

Timestamps are integer epoch seconds or ISO-8601 UTC ('Z' or '+00:00';
a naive ISO timestamp is taken as UTC, any other offset is rejected).
Floats are written with repr so re-parsing loses nothing. All writes go
through a temp file and rename, so an interrupted run never leaves a
partial file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from flowcast.errors import EmptyInput, MalformedRow, UnknownVehicleClass
from flowcast.kalman import FilterParams, FilterTrace
from flowcast.metrics import EvaluationReport
from flowcast.pcu import ClassifiedCount, parse_vehicle_class
from flowcast.series import DEFAULT_BIN_DURATION, FlowSeries

COUNTS_HEADER = ["timestamp", "vehicle_class", "count"]
SERIES_HEADER = ["bin_start", "pcu"]
TRACE_HEADER = ["bin_start", "observed", "forecast", "filtered", "gain", "innovation"]

REPORT_FILENAME = "report.json"
TRACE_FILENAME = "trace.csv"


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file and rename; readers never see a partial file.

    The temp file has a unique name in the target's directory, so
    concurrent writers to one path never share it; the last rename wins.
    It is synced before the rename and removed if the write fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _float_repr(value: float) -> str:
    return repr(float(value))


def parse_timestamp(text: str, line: int = 0) -> int:
    """Epoch seconds from an integer or an ISO-8601 UTC string."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        moment = datetime.fromisoformat(iso)
    except ValueError:
        raise MalformedRow(line, f"timestamp {text!r} is neither epoch seconds nor ISO-8601") from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    elif moment.utcoffset() != timezone.utc.utcoffset(None):
        raise MalformedRow(line, f"timestamp {text!r} is not UTC")
    return math.floor(moment.timestamp())


def _read_rows(path: str | Path, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise MalformedRow(0, "file is not valid UTF-8") from None
    try:
        rows = [(line, row) for line, row in enumerate(csv.reader(text.splitlines()), start=1) if row]
    except csv.Error as exc:
        raise MalformedRow(0, f"unreadable CSV: {exc}") from None
    if not rows:
        raise EmptyInput(f"{path}: file is empty")
    header_line, header = rows[0]
    if [h.strip().lower() for h in header] != expected_header:
        raise MalformedRow(header_line, f"expected header {','.join(expected_header)!r}")
    body = rows[1:]
    if not body:
        raise EmptyInput(f"{path}: no data rows")
    return body


def read_counts_csv(path: str | Path) -> list[ClassifiedCount]:
    """Parse a classified-count CSV, preserving row order."""
    records = []
    for line, row in _read_rows(path, COUNTS_HEADER):
        if len(row) != 3:
            raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
        timestamp = parse_timestamp(row[0], line)
        try:
            vehicle_class = parse_vehicle_class(row[1])
        except UnknownVehicleClass as exc:
            raise UnknownVehicleClass(exc.label, line) from None
        try:
            count = int(row[2].strip())
        except ValueError:
            raise MalformedRow(line, f"count {row[2]!r} is not an integer") from None
        if count < 0:
            raise MalformedRow(line, f"count must be >= 0, got {count}")
        records.append(ClassifiedCount(timestamp, vehicle_class, count))
    return records


def read_series_csv(path: str | Path) -> FlowSeries:
    """Parse an aggregated series CSV; bins must be evenly spaced."""
    lines: list[int] = []
    starts: list[int] = []
    values: list[float] = []
    for line, row in _read_rows(path, SERIES_HEADER):
        if len(row) != 2:
            raise MalformedRow(line, f"expected 2 fields, got {len(row)}")
        lines.append(line)
        starts.append(parse_timestamp(row[0], line))
        try:
            value = float(row[1].strip())
        except ValueError:
            raise MalformedRow(line, f"pcu {row[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise MalformedRow(line, f"pcu must be finite, got {row[1]!r}")
        values.append(value)
    if len(starts) == 1:
        return FlowSeries(starts[0], DEFAULT_BIN_DURATION, tuple(values))
    spacing = starts[1] - starts[0]
    if spacing <= 0:
        raise MalformedRow(lines[1], "bin_start must be strictly increasing")
    for i in range(1, len(starts)):
        if starts[i] - starts[i - 1] != spacing:
            raise MalformedRow(lines[i], "uneven bin spacing")
    return FlowSeries(starts[0], spacing, tuple(values))


def sniff_input_kind(path: str | Path) -> str:
    """'counts' or 'series', judged by the header line."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            header = next(csv.reader(handle), None)
    except UnicodeDecodeError:
        raise MalformedRow(0, "file is not valid UTF-8") from None
    except csv.Error as exc:
        raise MalformedRow(0, f"unreadable CSV: {exc}") from None
    if header is None:
        raise EmptyInput(f"{path}: file is empty")
    normalized = [h.strip().lower() for h in header]
    if normalized == COUNTS_HEADER:
        return "counts"
    if normalized == SERIES_HEADER:
        return "series"
    raise MalformedRow(1, f"unrecognized header {','.join(header)!r}")


def counts_csv_text(records: Iterable[ClassifiedCount]) -> str:
    lines = [",".join(COUNTS_HEADER)]
    lines += [f"{r.timestamp},{r.vehicle_class.label},{r.count}" for r in records]
    return "\n".join(lines) + "\n"


def write_counts_csv(records: Iterable[ClassifiedCount], path: str | Path) -> None:
    atomic_write_text(Path(path), counts_csv_text(records))


def series_csv_text(series: FlowSeries) -> str:
    lines = [",".join(SERIES_HEADER)]
    lines += [f"{t},{_float_repr(v)}" for t, v in zip(series.bin_starts(), series.values)]
    return "\n".join(lines) + "\n"


def write_series_csv(series: FlowSeries, path: str | Path) -> None:
    atomic_write_text(Path(path), series_csv_text(series))


def trace_csv_text(series: FlowSeries, trace: FilterTrace, params: FilterParams) -> str:
    """Per-bin observed/forecast/filtered values in measurement space.

    The first bin seeded the filter, so its forecast, gain and innovation
    columns are empty.
    """
    scale = params.measurement_scale
    starts = series.bin_starts()
    lines = [",".join(TRACE_HEADER)]
    lines.append(
        f"{starts[0]},{_float_repr(series.values[0])},,"
        f"{_float_repr(scale * trace.initial_state.estimate)},,"
    )
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"{starts[i]},{_float_repr(series.values[i])},{_float_repr(step.forecast)},"
            f"{_float_repr(scale * step.posterior.estimate)},{_float_repr(step.gain)},"
            f"{_float_repr(step.innovation)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(series: FlowSeries, trace: FilterTrace, params: FilterParams, path: str | Path) -> None:
    atomic_write_text(Path(path), trace_csv_text(series, trace, params))


def report_json_text(report: EvaluationReport, params: FilterParams, init_var: float) -> str:
    document = {"schema": 1}
    document.update(report.to_dict())
    document["params"] = {
        "m_t": params.transition,
        "m_m": params.measurement_scale,
        "q": params.process_var,
        "r": params.measurement_var,
        "p0": init_var,
    }
    return json.dumps(document, indent=2) + "\n"


def write_report_json(report: EvaluationReport, params: FilterParams, init_var: float, path: str | Path) -> None:
    atomic_write_text(Path(path), report_json_text(report, params, init_var))


def write_report(
    report: EvaluationReport,
    trace: FilterTrace,
    series: FlowSeries,
    params: FilterParams,
    init_var: float,
    out_dir: str | Path,
) -> list[Path]:
    """Write report.json and trace.csv into out_dir; returns the paths."""
    out_dir = Path(out_dir)
    report_path = out_dir / REPORT_FILENAME
    trace_path = out_dir / TRACE_FILENAME
    write_report_json(report, params, init_var, report_path)
    write_trace_csv(series, trace, params, trace_path)
    return [report_path, trace_path]
