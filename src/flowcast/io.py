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
        return line, _normalized(header)
    raise EmptyInput(f"{path}: file is empty")


def _normalized(header: list[str]) -> list[str]:
    return [h.strip().lower() for h in header]


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

    Timestamps and counts must fit in a signed 64-bit integer. A file in
    the plain form (see _read_counts_plain), which flowcast simulate
    writes, is parsed in bulk; any other file is read row by row, with the
    same result and the same errors.
    """
    try:
        return _read_counts_plain(path)
    except _NotPlain:
        pass  # read again outside the handler, once the bulk reader's columns are freed
    return _read_counts_rows(path)


def _read_counts_rows(path: str | Path) -> ClassifiedCounts:
    """read_counts_csv for any file, a row at a time: the reference reader,
    and the only one that words an error or numbers a line."""
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


# Plain counts files are read this many bytes at a time. A block's numpy
# temporaries take several times its size: on a year of counts, 1 MiB
# blocks were no faster and held 6 MB more at peak.
_BLOCK_BYTES = 1 << 18
# The plain form's limits: every number of at most 18 digits fits in an
# int64, and a label of at most 32 bytes fits in four 8-byte words.
_MAX_DIGITS = 18
_MAX_LABEL = 32
_BOM = b"\xef\xbb\xbf"
_POWERS = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # keeps a word's first n bytes
_MIX = np.uint64(0x9E3779B97F4A7C15)


class _NotPlain(Exception):
    """The file is not in the plain form; _read_counts_rows reads it instead."""


def _read_counts_plain(path: str | Path) -> ClassifiedCounts:
    """read_counts_csv for a file in the plain form, parsed with numpy a block at a time.

    The plain form is an optional UTF-8 BOM, then lines that each end in
    an LF, maybe after a CR (the last may lack its LF). Blank lines are
    skipped. The first other line is a header that _header accepts, in
    printable ASCII. Every later one is a row of exactly three fields: an
    optional '-' and 1-18 ASCII digits, a label of at most 32 printable
    ASCII bytes that parse_vehicle_class accepts, and 1-18 ASCII digits.
    There is at least one row. csv.reader and int() read such a file just
    as this does. Any other file raises _NotPlain.

    The columns are sized by counting the file's LFs first, so the rows
    are never copied from one array to a larger one.
    """
    with open(path, "rb") as handle:
        capacity = sum(block.count(b"\n") for block in iter(lambda: handle.read(_BLOCK_BYTES), b""))
        handle.seek(0)
        header = handle.readline(_BLOCK_BYTES).removeprefix(_BOM)
        while header in (b"\n", b"\r\n"):
            header = handle.readline(_BLOCK_BYTES)
        text = header.removesuffix(b"\n").removesuffix(b"\r").decode("latin-1")
        if not (text.isascii() and text.isprintable() and _normalized(text.split(",")) == COUNTS_HEADER):
            raise _NotPlain
        columns = (np.empty(capacity, np.int64), np.empty(capacity, np.int8), np.empty(capacity, np.int64))
        class_index: dict[bytes, int] = {}  # raw label -> index into VEHICLE_CLASSES
        rows = 0
        for data, words in _line_blocks(handle):
            parts = _plain_rows(data, words, class_index)
            end = rows + len(parts[0])
            if end > capacity:  # the file grew after its LFs were counted
                raise _NotPlain
            for column, part in zip(columns, parts):
                column[rows:end] = part
            rows = end
    if not rows:
        raise _NotPlain
    return ClassifiedCounts(*(column[:rows] for column in columns))


def _line_blocks(handle) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rest of the file as blocks of whole lines, about _BLOCK_BYTES each.

    Each block comes as its bytes, a uint8 array ending in an LF, and the
    8-byte little-endian word that starts at every byte offset, a stride-1
    view of the same buffer that reads up to _MAX_LABEL bytes past the
    block. Both are reused for the next block. A last line without an LF
    is given one, and a line longer than a block raises _NotPlain.
    """
    buffer = bytearray(_BLOCK_BYTES + _MAX_LABEL)
    data = np.frombuffer(buffer, np.uint8)
    words = np.ndarray((len(buffer) - 7,), "<u8", buffer, 0, (1,))
    kept = 0  # bytes of an unfinished line at the start of the buffer
    while read := handle.readinto(memoryview(buffer)[kept:_BLOCK_BYTES]):
        end = kept + read
        cut = buffer.rfind(b"\n", 0, end) + 1
        if cut:
            yield data[:cut], words
            buffer[: end - cut] = buffer[cut:end]
        elif end == _BLOCK_BYTES:
            raise _NotPlain
        kept = end - cut
    if kept:
        buffer[kept] = ord("\n")
        yield data[: kept + 1], words


def _plain_rows(data: np.ndarray, words: np.ndarray, class_index: dict[bytes, int]):
    """Timestamps, class indices and counts of the rows in one block from _line_blocks.

    Raises _NotPlain unless every line of the block is blank or a plain row.
    """
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= data[ends - 1] == ord("\r")
    filled = ends > starts
    starts, ends = starts[filled], ends[filled]
    commas = np.flatnonzero(data == ord(","))
    if len(commas) != 2 * len(starts):
        raise _NotPlain
    # The commas in order, two a line. The fields around them must be
    # digits or a printable label, so a line with other than two commas,
    # or a CR anywhere but before its LF, fails their checks.
    first, second = commas.reshape(-1, 2).T
    classes = _class_indices(data, words, first + 1, second, class_index)
    counts = _decimals(data, second + 1, ends)
    negative = data[starts] == ord("-")
    timestamps = _decimals(data, starts + negative, first)
    np.negative(timestamps, out=timestamps, where=negative)
    return timestamps, classes, counts


def _decimals(data: np.ndarray, begin: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The number written in data[begin:stop] for each row, parsed a digit
    position at a time from the right; raises _NotPlain unless each field
    is 1 to _MAX_DIGITS ASCII digits."""
    length = stop - begin
    if length.size and (length.min() < 1 or length.max() > _MAX_DIGITS):
        raise _NotPlain
    value = np.zeros(len(stop), np.int64)
    position = stop - 1
    for power in _POWERS[: length.max(initial=0)]:
        digit = data[position] - np.uint8(ord("0"))  # uint8, so a byte below '0' wraps above 9
        digit[position < begin] = 0
        if digit.max() > 9:
            raise _NotPlain
        value += np.multiply(digit, power, dtype=np.int64)
        position -= 1
    return value


def _class_indices(data: np.ndarray, words: np.ndarray, begin: np.ndarray, stop: np.ndarray,
                   class_index: dict[bytes, int]) -> np.ndarray:
    """The VEHICLE_CLASSES index of the label in data[begin:stop] for each row.

    A label's exact key is its length and its bytes as up to four words.
    Rows are grouped by a hash of the key, and every row is checked
    against its group's first row, so a hash collision raises _NotPlain
    rather than mislabel a row. Each distinct label is parsed once per
    file, through class_index.
    """
    length = stop - begin
    if length.max(initial=0) > _MAX_LABEL:
        raise _NotPlain
    key = [length.astype(np.uint64)]
    for offset in range(0, length.max(initial=0), 8):
        key.append(words[begin + offset] & _LOW_BYTES[np.clip(length - offset, 0, 8)])
    hashed = key[0]
    for word in key[1:]:
        hashed = (hashed ^ word) * _MIX
    _, first, group = np.unique(hashed, return_index=True, return_inverse=True)
    for part in key:
        if (part != part[first][group]).any():
            raise _NotPlain
    labels = [data[begin[row] : stop[row]].tobytes() for row in first]
    return np.array([_class_of(label, class_index) for label in labels], np.int8)[group]


def _class_of(label: bytes, class_index: dict[bytes, int]) -> int:
    index = class_index.get(label)
    if index is None:
        text = label.decode("latin-1")
        if not (text.isascii() and text.isprintable()):
            raise _NotPlain
        try:
            index = class_index[label] = VEHICLE_CLASSES.index(parse_vehicle_class(text))
        except UnknownVehicleClass:
            raise _NotPlain from None
    return index


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
