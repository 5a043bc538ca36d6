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

Counts and series CSVs in a plain form are read in bulk, and any other
file row by row; the two readers give the same result. The plain counts
form has no quotes, ISO timestamps or other bytes outside printable ASCII
and is parsed with numpy 256 KiB at a time. The plain series form is what
np.loadtxt reads as integer bin starts and finite values, padded with
whitespace or not; underscores in numbers, '#' lines and ISO timestamps
are left to the row loop. A series read here holds its values as a
read-only float64 array, as every FlowSeries and FilterTrace column is.
The series and trace CSVs are written 4096 lines at a time. For each
block the rows of the float columns are copied into one numpy array, repr
runs once for each distinct bit pattern in it (so -0.0 and 0.0 keep their
own text), and the lines are joined from those strings; the bytes are
those of a per-row f-string of plain floats.

TraceCsvWriter writes trace.csv in forked worker processes while the
caller goes on. There are as many workers as the least of: the CPUs this
process may run on (os.sched_getaffinity), the trace's blocks, and 4. Each
writes a contiguous share of the blocks into its own part file beside the
target, named trace.csv.<pid>-<random>.part<i>. The caller then copies the
parts in order, 256 KiB at a time, into the temp file, which is synced and
renamed. When there would be one worker (fewer than 4096 bins, one CPU,
no os.sched_getaffinity, or another thread running), the calling process
writes the trace itself, as it writes every other file. Whatever fails,
every worker is killed and waited for and every part and temp file is
removed; no trace.csv is published, and a previous one stays.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import shutil
import threading
import warnings
from array import array
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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


@contextlib.contextmanager
def _atomic_file(path: Path, mode: str) -> Iterator[IO]:
    """A new file, open in mode, that replaces path once the block ends.

    The temp file has a unique name in the target's directory, so
    concurrent writers to one path never share it; the last rename wins.
    It is synced before the rename and removed if the block fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write via a temp file and rename; readers never see a partial file.

    text is the whole file, or its pieces in order, which are written one
    at a time so the whole file need not be held at once.
    """
    with _atomic_file(Path(path), "w") as handle:
        handle.writelines([text] if isinstance(text, str) else text)


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
    # Whole seconds by integer floor division: a float count of seconds
    # rounds a fraction just under one second up on far dates.
    return (moment - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(seconds=1)


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
    """The file is not in the plain form; the row loop reads it instead."""


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
        _plain_header(handle, COUNTS_HEADER)
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


def _plain_header(handle, expected_header: list[str]) -> None:
    """Read past the blank lines and the header at the start of the file,
    raising _NotPlain unless the header is printable ASCII that _header
    reads as expected_header."""
    header = handle.readline(_BLOCK_BYTES).removeprefix(_BOM)
    while header in (b"\n", b"\r\n"):
        header = handle.readline(_BLOCK_BYTES)
    text = header.removesuffix(b"\n").removesuffix(b"\r").decode("latin-1")
    if not (text.isascii() and text.isprintable() and _normalized(text.split(",")) == expected_header):
        raise _NotPlain


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


def _plain_lines(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of the filled lines in one block from _line_blocks,
    an end leaving out the CR before its LF."""
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= data[ends - 1] == ord("\r")
    filled = ends > starts
    return starts[filled], ends[filled]


def _plain_rows(data: np.ndarray, words: np.ndarray, class_index: dict[bytes, int]):
    """Timestamps, class indices and counts of the rows in one block from _line_blocks.

    Raises _NotPlain unless every line of the block is blank or a plain row.
    """
    starts, ends = _plain_lines(data)
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
    """Parse an aggregated series CSV; bins must be evenly spaced, so two rows at least.

    A file in the plain form (see _read_series_plain), which flowcast
    convert writes, is parsed in bulk; any other file is read row by row,
    with the same result and the same errors.
    """
    try:
        return _read_series_plain(path)
    except _NotPlain:
        pass  # read again outside the handler, once the bulk reader's values are freed
    return _read_series_rows(path)


def _read_series_rows(path: str | Path) -> FlowSeries:
    """read_series_csv for any file, a row at a time: the reference reader,
    and the only one that words an error or numbers a line."""
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
    return FlowSeries(starts[0], spacing, values)


def _read_series_plain(path: str | Path) -> FlowSeries:
    """read_series_csv for a valid file in the plain form, read whole by np.loadtxt.

    The plain form has the line ends, blank lines and header of the plain
    counts form (see _read_counts_plain), and then at least two rows of
    ASCII, each of exactly two fields: an integer that fits in an int64
    and a finite number, each maybe padded with whitespace, as np.loadtxt
    reads them. The bin starts must be evenly spaced and increasing.
    csv.reader, int() and float() read such a file just as this does. Any
    other file raises _NotPlain, and so does any warning from np.loadtxt:
    an empty body, or, in numpy 1.x, an integer read through a float.
    """
    with open(path, "rb") as handle, warnings.catch_warnings():
        _plain_header(handle, SERIES_HEADER)
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(handle, dtype=[("stamp", np.int64), ("value", np.float64)], delimiter=",",
                              comments=None, encoding="ascii", ndmin=1)
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            raise _NotPlain from None
    stamps, values = rows["stamp"], rows["value"]
    if len(stamps) < 2 or not np.isfinite(values).all():
        raise _NotPlain
    gaps = np.diff(stamps)
    first, step = int(stamps[0]), int(gaps[0])
    # np.diff wraps a gap beyond the int64 range, which could make uneven
    # or decreasing starts look even; the last start, in Python ints, cannot.
    if step <= 0 or gaps.min() != gaps.max() or int(stamps[-1]) - first != step * len(gaps):
        raise _NotPlain
    return FlowSeries(first, step, values)


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


# Series and trace CSVs are made this many lines at a time, so the whole
# text is never held in memory.
_BLOCK_LINES = 4096


def _float_csv_blocks(head: list[str], starts: range, columns: Sequence[np.ndarray],
                      blocks: slice = slice(None)) -> Iterator[str]:
    """The head lines, then one line for each bin start with the floats of
    its row, as blocks of _BLOCK_LINES lines, each ending in a newline;
    only the blocks that blocks selects are made.

    columns are float64 columns as long as starts. A row's line is its
    start, then each column's float by repr, joined by commas. Each block
    copies only its own rows of the columns.
    """
    for lo in range(-len(head), len(starts), _BLOCK_LINES)[blocks]:
        rows = slice(max(lo, 0), lo + _BLOCK_LINES)
        block = np.array([column[rows] for column in columns])
        yield "\n".join([*(head if lo < 0 else ()), *_float_rows(starts[rows], block)]) + "\n"


def _float_rows(starts: range, block: np.ndarray) -> Iterator[str]:
    """The lines of one block of _float_csv_blocks.

    repr runs once for each distinct float in the block. The floats are
    told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = np.array([repr(value) for value in distinct.view(np.float64).tolist()], dtype=object)
    # The inverse is flat in numpy 1.x and shaped like its input in 2.x.
    fields = texts[inverse.reshape(block.shape)]
    return map(",".join, zip(map(str, starts), *(column.tolist() for column in fields)))


def series_csv_text(series: FlowSeries) -> Iterator[str]:
    """Yield the series CSV in blocks of lines."""
    return _float_csv_blocks([",".join(SERIES_HEADER)], series.bin_starts(), [series.values])


def trace_csv_text(series: FlowSeries, trace: FilterTrace, blocks: slice = slice(None)) -> Iterator[str]:
    """Yield trace.csv in blocks of lines: the per-bin observed, forecast
    and filtered values, with each update's gain and innovation. blocks
    selects which of the file's blocks to make, all by default.

    The first bin seeded the filter, so its forecast, gain and innovation
    columns are empty.
    """
    starts = series.bin_starts()
    # repr of an np.float64 is "np.float64(...)" in numpy 2: write a plain float.
    first = f"{starts[0]},{float(series.values[0])!r},,{float(trace.initial_estimate)!r},,"
    columns = [series.values[1:], trace.forecasts, trace.estimates, trace.gains, trace.innovations]
    return _float_csv_blocks([",".join(TRACE_HEADER), first], starts[1:], columns, blocks)


def report_json_text(report: EvaluationReport, params: FilterParams) -> str:
    document = {"schema": 1}
    document.update(dataclasses.asdict(report))
    document["params"] = {
        "m_t": params.transition,
        # Always 1.0: schema 1 pins this key order, and perfbench/checks.py reads the key.
        "m_m": 1.0,
        "q": params.process_var,
        "r": params.measurement_var,
        "p0": params.init_var,
    }
    return json.dumps(document, indent=2) + "\n"


# The most processes one trace.csv is formatted by.
_MAX_TRACE_WORKERS = 4


def _worker_cpus() -> int:
    """The CPUs this process may run on, as many as it may fork trace
    workers for. 1 where the platform cannot tell (os.sched_getaffinity is
    Linux-only), or where another thread runs, as a fork could then
    deadlock on a lock that thread held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class TraceCsvWriter(contextlib.AbstractContextManager):
    """Writes trace.csv for a series and its trace to path, in worker
    processes while the caller goes on with other work.

    Made, it starts the workers; finish() waits for them and publishes the
    file. Used as a context manager, it kills and waits for every worker
    on leaving the block, whether or not finish() ran, and removes their
    part files. When one process is to write the trace (see the module
    docstring), it is this one, in finish().
    """

    def __init__(self, path: str | Path, series: FlowSeries, trace: FilterTrace):
        self.path = Path(path)
        self._series = series
        self._trace = trace
        self._workers = []  # (process, the reading end of its error pipe)
        self._parts: list[Path] = []
        blocks = -(-(len(series) + 1) // _BLOCK_LINES)  # a header line and one line a bin
        count = min(_worker_cpus(), blocks, _MAX_TRACE_WORKERS)
        if count > 1:
            try:
                self._start(blocks, count)
            except BaseException:
                self.close()
                raise

    def _start(self, blocks: int, count: int) -> None:
        """Fork count workers, each writing a contiguous share of the blocks."""
        import multiprocessing  # here, so that a small trace never pays for the import

        # fork, not spawn: a worker inherits the series and trace instead of
        # having them pickled to it, and needs no fresh import. _worker_cpus
        # allows no fork while another thread runs.
        context = multiprocessing.get_context("fork")
        self.path.parent.mkdir(parents=True, exist_ok=True)  # the part files go beside the target
        token = f"{os.getpid()}-{os.urandom(4).hex()}"
        bounds = [blocks * i // count for i in range(count + 1)]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            part = self.path.with_name(f"{self.path.name}.{token}.part{i}")
            self._parts.append(part)
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=_write_trace_part,
                                      args=(part, self._series, self._trace, slice(lo, hi), writer))
            try:
                process.start()
            finally:
                writer.close()  # so the reader sees EOF when the worker ends
            self._workers.append((process, reader))

    def finish(self) -> Path:
        """Wait for the workers and publish their parts, in order, as the
        file at path; returns path. A worker's exception is raised here; a
        worker that exited nonzero without one raises OSError."""
        try:
            if not self._workers:
                atomic_write_text(self.path, trace_csv_text(self._series, self._trace))
                return self.path
            for process, reader in self._workers:
                try:
                    error = reader.recv()
                except EOFError:  # the worker ended without sending an exception
                    error = None
                process.join()
                if error is not None:
                    raise error
                if process.exitcode:
                    raise OSError(f"{self.path}: a trace.csv worker exited with code {process.exitcode}")
            with _atomic_file(self.path, "wb") as handle:
                for part in self._parts:
                    with open(part, "rb") as source:
                        shutil.copyfileobj(source, handle, _BLOCK_BYTES)
            return self.path
        finally:
            self.close()

    def close(self) -> None:
        """Kill any worker still running, wait for every one, and remove the part files."""
        for process, reader in self._workers:
            process.kill()  # no effect on a worker that has been joined
            process.join()
            process.close()
            reader.close()
        self._workers = []
        for part in self._parts:
            part.unlink(missing_ok=True)
        self._parts = []

    def __exit__(self, *exc_info) -> None:
        self.close()


def _write_trace_part(path: Path, series: FlowSeries, trace: FilterTrace, blocks: slice, errors) -> None:
    """A worker's work: the blocks of trace.csv that blocks selects, into a
    new file at path. An exception is sent back through errors."""
    import signal  # here, as importing flowcast.cli does not load it

    # A Ctrl-C reaches the whole process group; only the main process acts
    # on it, by killing the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with open(path, "x", encoding="utf-8") as handle:
            handle.writelines(trace_csv_text(series, trace, blocks))
    except Exception as exc:
        errors.send(exc)


def write_report(report: EvaluationReport, trace_csv: TraceCsvWriter, params: FilterParams,
                 out_dir: str | Path) -> list[Path]:
    """Write report.json into out_dir, then finish trace_csv; returns the two paths."""
    report_path = Path(out_dir) / REPORT_FILENAME
    atomic_write_text(report_path, report_json_text(report, params))
    return [report_path, trace_csv.finish()]
