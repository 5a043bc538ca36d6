"""CSV ingestion and report/trace serialization.

File formats (all UTF-8, LF or CRLF accepted on input, LF written):
  counts CSV:  timestamp,vehicle_class,count
  series CSV:  bin_start,pcu
  trace CSV:   bin_start,observed,forecast,filtered,gain,innovation
  report JSON: versioned schema, see report_json_text

Timestamps are integer epoch seconds or ISO-8601 UTC ('Z' or '+00:00';
a naive ISO timestamp is taken as UTC, any other offset is rejected).
Floats are written with repr so re-parsing loses nothing. All writes go
through a temp file and rename, so an interrupted run never leaves a
partial file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from array import array
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from flowcast.errors import EmptyInput, MalformedRow, SeriesTooShort, UnknownVehicleClass
from flowcast.kalman import FilterParams, FilterTrace
from flowcast.metrics import EvaluationReport
from flowcast.pcu import VEHICLE_CLASSES, ClassifiedCounts, parse_vehicle_class
from flowcast.series import FlowSeries

COUNTS_HEADER = ["timestamp", "vehicle_class", "count"]
SERIES_HEADER = ["bin_start", "pcu"]
TRACE_HEADER = ["bin_start", "observed", "forecast", "filtered", "gain", "innovation"]

REPORT_FILENAME = "report.json"
TRACE_FILENAME = "trace.csv"


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write via a temp file and rename; readers never see a partial file.

    text is the whole file, or its pieces in order, which are written one
    at a time so the whole file need not be held at once. The temp file
    has a unique name in the target's directory, so concurrent writers to
    one path never share it; the last rename wins. It is synced before the
    rename and removed if the write fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
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


def _records(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank row, header included.

    The file is decoded and parsed as rows are consumed, so a byte or row
    that cannot be read is reported only when it is reached. A row's line
    number is the file line it ends on.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if row:
                    yield reader.line_num, row
    except UnicodeDecodeError:
        raise MalformedRow(0, "file is not valid UTF-8") from None
    except csv.Error as exc:
        raise MalformedRow(0, f"unreadable CSV: {exc}") from None


def _header(records: Iterator[tuple[int, list[str]]], path: str | Path) -> tuple[int, list[str]]:
    """Line number and normalized fields of the first non-blank row."""
    for line, header in records:
        return line, [h.strip().lower() for h in header]
    raise EmptyInput(f"{path}: file is empty")


def _read_rows(path: str | Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank row after the header."""
    records = _records(path)
    header_line, header = _header(records, path)
    if header != expected_header:
        raise MalformedRow(header_line, f"expected header {','.join(expected_header)!r}")
    empty = True
    for line, row in records:
        empty = False
        yield line, row
    if empty:
        raise EmptyInput(f"{path}: no data rows")


def read_counts_csv(path: str | Path) -> ClassifiedCounts:
    """Parse a classified-count CSV, preserving row order.

    Timestamps and counts must fit in a signed 64-bit integer.
    """
    timestamps = array("q")
    classes = array("b")
    counts = array("q")
    class_index: dict[str, int] = {}  # raw label -> index into VEHICLE_CLASSES
    for line, row in _read_rows(path, COUNTS_HEADER):
        if len(row) != 3:
            raise MalformedRow(line, f"expected 3 fields, got {len(row)}")
        try:
            timestamp = int(row[0])
        except ValueError:
            timestamp = parse_timestamp(row[0], line)
        try:
            timestamps.append(timestamp)
        except OverflowError:
            raise MalformedRow(line, f"timestamp {row[0]!r} is outside the int64 range") from None
        index = class_index.get(row[1])
        if index is None:
            try:
                index = class_index[row[1]] = VEHICLE_CLASSES.index(parse_vehicle_class(row[1]))
            except UnknownVehicleClass as exc:
                raise UnknownVehicleClass(exc.label, line) from None
        classes.append(index)
        try:
            count = int(row[2].strip())
        except ValueError:
            raise MalformedRow(line, f"count {row[2]!r} is not an integer") from None
        if count < 0:
            raise MalformedRow(line, f"count must be >= 0, got {count}")
        try:
            counts.append(count)
        except OverflowError:
            raise MalformedRow(line, f"count {row[2]!r} is above the int64 maximum") from None
    return ClassifiedCounts(
        np.frombuffer(timestamps, dtype=np.int64),
        np.frombuffer(classes, dtype=np.int8),
        np.frombuffer(counts, dtype=np.int64),
    )


def read_series_csv(path: str | Path) -> FlowSeries:
    """Parse an aggregated series CSV; bins must be evenly spaced, so two rows at least."""
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
        raise SeriesTooShort(f"{path}: one data row; two are needed to know the bin spacing")
    spacing = starts[1] - starts[0]
    if spacing <= 0:
        raise MalformedRow(lines[1], "bin_start must be strictly increasing")
    for i in range(1, len(starts)):
        if starts[i] - starts[i - 1] != spacing:
            raise MalformedRow(lines[i], "uneven bin spacing")
    return FlowSeries(starts[0], spacing, tuple(values))


def sniff_input_kind(path: str | Path) -> str:
    """'counts' or 'series', judged by the header: the first non-blank row."""
    line, header = _header(_records(path), path)
    if header == COUNTS_HEADER:
        return "counts"
    if header == SERIES_HEADER:
        return "series"
    raise MalformedRow(line, f"unrecognized header {','.join(header)!r}")


def counts_csv_text(counts: ClassifiedCounts) -> str:
    lines = [",".join(COUNTS_HEADER)]
    lines += [f"{timestamp},{vehicle_class.label},{count}" for timestamp, vehicle_class, count in counts.rows()]
    return "\n".join(lines) + "\n"


def series_csv_text(series: FlowSeries) -> str:
    lines = [",".join(SERIES_HEADER)]
    lines += [f"{t},{_float_repr(v)}" for t, v in zip(series.bin_starts(), series.values)]
    return "\n".join(lines) + "\n"


def trace_csv_text(series: FlowSeries, trace: FilterTrace, params: FilterParams) -> Iterator[str]:
    """Yield the lines, without terminators, of the per-bin observed,
    forecast and filtered values in measurement space.

    The first bin seeded the filter, so its forecast, gain and innovation
    columns are empty.
    """
    scale = params.measurement_scale
    starts = series.bin_starts()
    yield ",".join(TRACE_HEADER)
    yield f"{starts[0]},{_float_repr(series.values[0])},,{_float_repr(scale * trace.initial_estimate)},,"
    columns = zip(starts[1:], series.values[1:], trace.forecasts, trace.estimates, trace.gains, trace.innovations)
    for start, observed, forecast, estimate, gain, innovation in columns:
        yield (
            f"{start},{_float_repr(observed)},{_float_repr(forecast)},"
            f"{_float_repr(scale * estimate)},{_float_repr(gain)},{_float_repr(innovation)}"
        )


# trace.csv is written this many lines at a time, so the whole file is
# never held in memory.
_BLOCK_LINES = 4096


def _blocks(lines: Iterator[str]) -> Iterator[str]:
    """The lines joined _BLOCK_LINES at a time, each block ending in a newline."""
    while block := list(islice(lines, _BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def write_trace_csv(series: FlowSeries, trace: FilterTrace, params: FilterParams, path: str | Path) -> None:
    atomic_write_text(Path(path), _blocks(trace_csv_text(series, trace, params)))


def report_json_text(report: EvaluationReport, params: FilterParams, init_var: float) -> str:
    document = {"schema": 1}
    document.update(dataclasses.asdict(report))
    document["params"] = {
        "m_t": params.transition,
        "m_m": params.measurement_scale,
        "q": params.process_var,
        "r": params.measurement_var,
        "p0": init_var,
    }
    return json.dumps(document, indent=2) + "\n"


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
    atomic_write_text(report_path, report_json_text(report, params, init_var))
    write_trace_csv(series, trace, params, trace_path)
    return [report_path, trace_path]
