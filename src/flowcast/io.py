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
Only a regular file is read in bulk: a pipe or other stream can be read
once, so it goes straight to the row loop, which streams.

A plain counts file's body is cut at line ends into contiguous shares,
as many as the least of: the CPUs this process may run on
(os.sched_getaffinity), the file's whole MiBs (_SHARE_BYTES), and 4.
The calling process parses the first share and a forked worker each
other one, with the same block parser. Their columns go into one
anonymous shared mapping, laid out from each share's LF count, and are
returned as views of it; where blank lines left gaps, each share's rows
are moved down within the mapping. Every share opens the path again and
checks that it is still the file the LF count read (the same device and
inode). If it is not, or any share is not in the plain form, the whole
file is read by the row loop, so an error's text and line number do not
depend on the shares. One share, read by the calling process alone, is
the rule for a file under 2 MiB, one CPU, no os.sched_getaffinity, or
another thread running, as a fork could then deadlock on a lock that
thread held.

The series and trace CSVs are written 4096 lines at a time, and the
lines of a block are joined in one call from the texts of its bin starts
and floats; the bytes are those of a per-row f-string of plain floats.
In a file of more than one block, a block's float columns go into one
C-contiguous float64 array, which orjson formats in one call, as a flat
array, with its shortest round-trip formatter; every row-width-th comma
of the text becomes a line break. repr makes the cells whose text orjson
writes otherwise: non-finite floats, and 0 < |v| < 1e-4 or |v| >= 1e16,
where repr uses the exponent form. The block's bin starts are formatted
by orjson too, as one int64 array, when they fit in int64, and by str
otherwise. orjson is imported on first use, and used only if it writes a
probe set of floats (signed zeros, integral floats, both ends of that
range, 17-digit values) as repr does and of int64 values (zero, -1 and
both limits) as str does; if it is missing or writes any other text,
repr and str make every number. A file of one block, such as the
paper's 36-bin survey, never imports it.

TraceCsvWriter writes a trace of more than one block, on more than one
CPU, in one forked worker, which runs while the caller scores and draws.
The worker writes the whole file into a part file beside the target,
named trace.csv.<pid>-<random>.part by the caller, and syncs it; finish()
waits for the worker and renames the part to trace.csv. Otherwise (fewer
than 4096 bins, one CPU, no os.sched_getaffinity, or another thread
running) the calling process writes the trace in finish(), as it writes
every other file. Whatever fails, the worker is killed and waited for and
the part or temp file is removed; no trace.csv is published, and a
previous one stays.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import mmap
import os
import threading
import warnings
from array import array
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator

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
    try:
        _write_synced(tmp, text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_synced(path: Path, text: str | Iterable[str]) -> None:
    """Write text, as atomic_write_text takes it, into a new file at path and sync it."""
    with open(path, "x", encoding="utf-8") as handle:
        handle.writelines([text] if isinstance(text, str) else text)
        handle.flush()
        os.fsync(handle.fileno())


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


def _read_rows(path: str | Path, expected_header: list[str], records: Iterator | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank row after the header,
    from records, or else from the file at path (see _records)."""
    records = _records(path) if records is None else records
    header_line, header = _header(records, path)
    if header != expected_header:
        raise MalformedRow(header_line, f"expected header {','.join(expected_header)!r}")
    empty = True
    for line, row in records:
        empty = False
        yield line, row
    if empty:
        raise EmptyInput(f"{path}: no data rows")


def read_counts_csv(path: str | Path, records: Iterator[tuple[int, list[str]]] | None = None) -> ClassifiedCounts:
    """Parse a classified-count CSV, preserving row order.

    Timestamps and counts must fit in a signed 64-bit integer. A regular
    file in the plain form (see _read_counts_plain), which flowcast
    simulate writes, is parsed in bulk; any other file or stream is read
    row by row, with the same result and the same errors, from records
    if they are given: the file's _records, from the header on.
    """
    return _read_plain_or_rows(path, records, _read_counts_plain, _read_counts_rows)


def _read_plain_or_rows(path: str | Path, records: Iterator | None, plain: Callable, rows: Callable):
    """plain(path) if path is a regular file in the plain form, or else
    rows(path, records): a pipe or other stream can be read once, so it
    goes to the row loop."""
    if os.path.isfile(path):
        try:
            return plain(path)
        except _NotPlain:
            pass  # read again outside the handler, once the bulk reader's arrays are freed
    return rows(path, records)


def _read_counts_rows(path: str | Path, records: Iterator[tuple[int, list[str]]] | None = None) -> ClassifiedCounts:
    """read_counts_csv for any file, a row at a time: the reference reader,
    and the only one that words an error or numbers a line."""
    timestamps = array("q")
    classes = array("b")
    counts = array("q")
    class_index: dict[str, int] = {}  # raw label -> index into VEHICLE_CLASSES
    for line, row in _read_rows(path, COUNTS_HEADER, records):
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
# A plain counts file is read in shares of at least this many bytes. On
# a 2-CPU machine, in a process that had read before, two shares of a
# 0.4 MB week took 11.9 ms against 7.2 ms for one, of 1.25 MB about as
# long, and of a 1.8 MB month 22.6 against 27.1 ms; a fresh process pays
# about 15 ms more for its first fork, and broke even at 3.6 MB.
_SHARE_BYTES = 1 << 20
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
    """read_counts_csv for a regular file in the plain form, parsed with
    numpy a block at a time, in shares (see the module docstring).

    The plain form is an optional UTF-8 BOM, then lines that each end in
    an LF, maybe after a CR (the last may lack its LF). Blank lines are
    skipped. The first other line is a header that _header accepts, in
    printable ASCII. Every later one is a row of exactly three fields: an
    optional '-' and 1-18 ASCII digits, a label of at most 32 printable
    ASCII bytes that parse_vehicle_class accepts, and 1-18 ASCII digits.
    There is at least one row. csv.reader and int() read such a file just
    as this does. Any other file raises _NotPlain.

    Each share's columns are sized by counting its LFs first, so the rows
    are never copied from one array to a larger one.
    """
    with open(path, "rb") as handle:
        _plain_header(handle, COUNTS_HEADER)
        opened = os.fstat(handle.fileno())
        size = opened.st_size
        count = max(1, min(_worker_cpus(), size // _SHARE_BYTES, _MAX_WORKERS))
        # A share starts after the line that holds the byte before its
        # nominal start; a line longer than a block fails its share anyway.
        cuts = [handle.tell()]
        cuts += [handle.seek(cuts[0] + (size - cuts[0]) * i // count - 1) + len(handle.readline(_BLOCK_BYTES))
                 for i in range(1, count)]
        # Share i reads bytes bounds[i] of this file, and its rows go to
        # [starts[i], starts[i + 1]) in each column: a row for each LF, and
        # in the last share one more for a last line without an LF.
        bounds = list(zip(cuts, [*cuts[1:], size]))
        starts = np.cumsum([0, *(_lf_count(handle, lo, hi) + (hi == size) for lo, hi in bounds)]).tolist()
    mapping = mmap.mmap(-1, 17 * starts[-1])
    # Timestamps, classes and counts, in _plain_rows order, 17 bytes a row;
    # the two int64 columns go first, so that both are aligned.
    columns = [np.frombuffer(mapping, dtype, starts[-1], at * starts[-1])
               for dtype, at in ((np.int64, 0), (np.int8, 16), (np.int64, 8))]
    shares = [(path, opened, *bounds[i], [column[starts[i] : starts[i + 1]] for column in columns]) for i in range(count)]
    with contextlib.closing(_Workers()) as workers:
        for share in shares[1:]:
            workers.start(_read_share, *share)
        rows = [_read_share(*shares[0]), *workers.results(path)]
    if not (end := sum(rows)):
        raise _NotPlain
    if end - rows[-1] < starts[-2]:  # blank lines left gaps: move each share's rows down
        for column in columns:
            for at, lo, n in zip(np.cumsum([0, *rows]).tolist(), starts, rows):
                column[at : at + n] = column[lo : lo + n]  # numpy moves a 1-d overlap in place, as memmove does
    return ClassifiedCounts(*(column[:end] for column in columns))


def _lf_count(handle, start: int, stop: int) -> int:
    """The LFs in bytes [start, stop) of the file, read a block at a time
    and counted by numpy's vectorised compare, faster than bytes.count."""
    blocks = (handle.read(min(_BLOCK_BYTES, stop - at)) for at in range(handle.seek(start), stop, _BLOCK_BYTES))
    return sum(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")) for block in blocks)


def _read_share(path: str | Path, opened: os.stat_result, start: int, stop: int, columns: list[np.ndarray]) -> int:
    """Parse the plain rows in bytes [start, stop) of the file at path into
    columns, views of the shared mapping; returns how many.

    Raises _NotPlain unless the file at path is the one whose os.fstat is
    opened (the same device and inode), every line is blank or a plain
    row, and the rows fit the columns, which they may fail to if the file
    changed after its LFs were counted.
    """
    class_index: dict[bytes, int] = {}  # raw label -> index into VEHICLE_CLASSES
    rows = 0
    with open(path, "rb") as handle:
        if not os.path.samestat(os.fstat(handle.fileno()), opened):  # another file was put at path
            raise _NotPlain
        handle.seek(start)
        for data, words in _line_blocks(handle, stop - start):
            parts = _plain_rows(data, words, class_index)
            end = rows + len(parts[0])
            if end > len(columns[0]):
                raise _NotPlain
            for column, part in zip(columns, parts):
                column[rows:end] = part
            rows = end
    return rows


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


def _line_blocks(handle, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The next size bytes of the file, or as many as are left, as blocks
    of whole lines, about _BLOCK_BYTES each.

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
    while read := handle.readinto(memoryview(buffer)[kept : min(_BLOCK_BYTES, kept + size)]):
        size -= read
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


def read_series_csv(path: str | Path, records: Iterator[tuple[int, list[str]]] | None = None) -> FlowSeries:
    """Parse an aggregated series CSV; bins must be evenly spaced, so two rows at least.

    A regular file in the plain form (see _read_series_plain), which
    flowcast convert writes, is parsed in bulk; any other file or stream
    is read row by row, with the same result and the same errors, from
    records if they are given, as read_counts_csv does.
    """
    return _read_plain_or_rows(path, records, _read_series_plain, _read_series_rows)


def _read_series_rows(path: str | Path, records: Iterator[tuple[int, list[str]]] | None = None) -> FlowSeries:
    """read_series_csv for any file, a row at a time: the reference reader,
    and the only one that words an error or numbers a line."""
    lines: list[int] = []
    starts: list[int] = []
    values: list[float] = []
    for line, row in _read_rows(path, SERIES_HEADER, records):
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


def read_input(path: str | Path) -> ClassifiedCounts | FlowSeries:
    """The counts or the series in a counts or series CSV, judged by its
    header: the first non-blank row. The row loop goes on reading the
    stream the header came from, so a pipe, which can be read once, works."""
    import itertools  # here, as no other path needs it

    with contextlib.closing(_records(path)) as records:
        line, header = _header(records, path)
        rows = itertools.chain([(line, header)], records)
        if header == COUNTS_HEADER:
            return read_counts_csv(path, rows)
        if header == SERIES_HEADER:
            return read_series_csv(path, rows)
    raise MalformedRow(line, f"unrecognized header {','.join(header)!r}")


def counts_csv_text(counts: ClassifiedCounts) -> str:
    lines = [",".join(COUNTS_HEADER)]
    lines += [f"{timestamp},{vehicle_class.label},{count}" for timestamp, vehicle_class, count in counts.rows()]
    return "\n".join(lines) + "\n"


# Series and trace CSVs are made this many lines at a time, so the whole
# text is never held in memory.
_BLOCK_LINES = 4096


def _float_csv_blocks(head: list[str], starts: range, columns: Callable) -> Iterator[str]:
    """The head lines, then one line for each bin start, as blocks of
    _BLOCK_LINES lines, each ending in a newline.

    columns(rows) gives the float columns of rows, a slice of starts'
    indices; a row's line is its start as str writes it, then each of its
    floats as repr writes it, joined by commas. Each block makes only its
    own rows' texts, through _start_texts and _row_texts, with the bulk
    formatter when the output has more than one block. On a 2-vCPU VM,
    importing orjson and probing it took 5-9 ms after flowcast.cli was
    imported. A full block of the year's series took 3.1 ms through repr
    and str (0.9 ms in bulk), and of its trace 13.6 ms (1.9 ms), so the
    import pays for itself within two blocks of either, and a file of one
    block, such as the paper's 36-bin survey, whose text takes about
    0.1 ms, never imports it.
    """
    dumps = _bulk_dumps() if len(head) + len(starts) > _BLOCK_LINES else None
    for lo in range(-len(head), len(starts), _BLOCK_LINES):
        rows = slice(max(lo, 0), lo + _BLOCK_LINES)
        texts = _row_texts(np.stack(columns(rows), axis=1), dumps)
        lines = _float_rows(_start_texts(starts[rows], dumps), texts)
        yield "".join(f"{line}\n" for line in head) + lines if lo < 0 else lines


def _float_rows(starts: list[str], texts: list[str]) -> str:
    """The lines of one block of _float_csv_blocks, joined: each start's
    text, a comma, its row's text and a newline."""
    pieces = ["", ",", "", "\n"] * len(texts)
    pieces[::4] = starts
    pieces[2::4] = texts
    return "".join(pieces)


def _start_texts(starts: range, dumps: Callable | None) -> list[str]:
    """The texts of the bin starts of one block, as str writes them.

    dumps, from _bulk_dumps, formats them in one call as an int64 array
    from np.arange, when the range's start, stop and step all fit in
    int64; np.arange wraps a value past that range silently. Otherwise, and
    without dumps, str makes each text.
    """
    if dumps is None or not all(-(1 << 63) <= bound < 1 << 63 for bound in (starts.start, starts.stop, starts.step)):
        return list(map(str, starts))
    return dumps(np.arange(starts.start, starts.stop, starts.step, dtype=np.int64))[1:-1].decode().split(",")


def _row_texts(block: np.ndarray, dumps: Callable | None) -> list[str]:
    """The floats of each row of block, a C-contiguous 2-D float64 array,
    as repr writes them, joined by commas.

    dumps, from _bulk_dumps, formats the whole block in one call as one
    flat array, and every row-width-th comma of its text becomes a line
    break, on which the text is split into rows. orjson writes other
    text than repr for a non-finite float (null), and for 0 < |v| < 1e-4
    or |v| >= 1e16 (no exponent form, or '1e16' for '1e+16'), so repr
    makes those cells. Without dumps, repr makes every cell.
    """
    if dumps is None:
        return [",".join(map(repr, row)) for row in block.tolist()]
    text = np.frombuffer(dumps(block.ravel()), np.uint8)[1:-1].copy()
    text[np.flatnonzero(text == ord(","))[block.shape[1] - 1 :: block.shape[1]]] = ord("\n")
    texts = text.tobytes().decode().split("\n")
    size = np.abs(block)
    for row, column in np.argwhere(~((block == 0) | ((size >= 1e-4) & (size < 1e16)))).tolist():
        cells = texts[row].split(",")
        cells[column] = repr(block[row, column].item())
        texts[row] = ",".join(cells)
    return texts


# Values that orjson must write as repr and str do before it is used. For
# _row_texts: signed zeros, integral floats, both ends of the range it
# formats, and 17-digit values, in two rows, so that the rows are split
# too. For _start_texts: zero, -1 and both ends of the int64 range.
_PROBE = (np.array([[0.0, -0.0, 2.0, -1e15, 1e-4, -1.0000000000000002e-4, 9999999999999998.0, 0.30000000000000004,
                     -123456789.12345678]] * 2), np.array([0, -1, -(1 << 63), (1 << 63) - 1], dtype=np.int64))


@functools.cache
def _bulk_dumps() -> Callable | None:
    """orjson.dumps for float64 and int64 arrays, or None, which has every
    number in this process written by repr and str: when orjson cannot be
    imported, or when it gives any other text for _PROBE than they do."""
    try:
        import orjson  # here, as importing flowcast.cli does not load it
    except ImportError:
        return None
    dumps = functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
    floats, ints = _PROBE
    same_ints = dumps(ints) == f"[{','.join(map(str, ints.tolist()))}]".encode()
    return dumps if same_ints and _row_texts(floats, dumps) == _row_texts(floats, None) else None


def series_csv_text(series: FlowSeries) -> Iterator[str]:
    """Yield the series CSV in blocks of lines."""
    return _float_csv_blocks([",".join(SERIES_HEADER)], series.bin_starts(), lambda rows: [series.values[rows]])


def trace_csv_text(series: FlowSeries, trace: FilterTrace) -> Iterator[str]:
    """Yield trace.csv in blocks of lines: the per-bin observed, forecast
    and filtered values, with each update's gain and innovation.

    The first bin seeded the filter, so its forecast, gain and innovation
    columns are empty.
    """
    starts = series.bin_starts()
    # repr of an np.float64 is "np.float64(...)" in numpy 2: write a plain float.
    first = f"{starts[0]},{float(series.values[0])!r},,{float(trace.initial_estimate)!r},,"
    columns = (series.values[1:], trace.forecasts, trace.estimates, trace.gains, trace.innovations)
    return _float_csv_blocks([",".join(TRACE_HEADER), first], starts[1:],
                             lambda rows: [column[rows] for column in columns])


def report_json_text(report: EvaluationReport, params: FilterParams) -> str:
    # m_m is always 1.0: schema 1 pins this key order, and perfbench/checks.py reads the key.
    settings = {"m_t": params.transition, "m_m": 1.0, "q": params.process_var, "r": params.measurement_var,
                "p0": params.init_var}
    return json.dumps({"schema": 1, **dataclasses.asdict(report), "params": settings}, indent=2) + "\n"


# The most processes that read one counts file in shares.
_MAX_WORKERS = 4


def _worker_cpus() -> int:
    """The CPUs this process may run on, as many as it may fork workers
    for. 1 where the platform cannot tell (os.sched_getaffinity is
    Linux-only), or where another thread runs, as a fork could then
    deadlock on a lock that thread held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class _Workers(list):
    """Forked worker processes, as (process, the reading end of its pipe)
    pairs. Each makes one call and sends back what it returned or raised;
    close() kills and waits for every one."""

    def start(self, function, *args) -> None:
        """Fork a worker that calls function(*args)."""
        import multiprocessing  # here, so that a one-process read or write never pays for the import

        # fork, not spawn: a worker inherits its arguments instead of having
        # them pickled to it, and needs no fresh import. _worker_cpus allows
        # no fork while another thread runs.
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(target=_work, args=(function, args, writer))
        with writer:  # closed here, so that the reader sees EOF when the worker ends
            process.start()
        self.append((process, reader))

    def results(self, path: str | Path) -> list:
        """Wait for the workers; what each call returned, in order. A
        worker's exception is raised here; a worker that ended without
        sending anything raises OSError, which names path, the file the
        workers read or write."""
        results = []
        for process, reader in self:
            try:
                results.append(reader.recv())
            except EOFError:
                process.join()
                raise OSError(f"{path}: a worker exited with code {process.exitcode}") from None
            if isinstance(results[-1], Exception):
                raise results[-1]
        return results

    def close(self) -> None:
        """Kill any worker still running and wait for every one."""
        for process, reader in self:
            process.kill()  # no effect on a worker that has ended
            process.join()
            process.close()
            reader.close()
        self.clear()


def _work(function, args, results) -> None:
    """A worker's one call, function(*args); its value or exception is sent back through results."""
    import signal  # here, as importing flowcast.cli does not load it

    # A Ctrl-C reaches the whole process group; only the main process acts
    # on it, by killing the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        results.send(function(*args))
    except Exception as exc:
        results.send(exc)


class TraceCsvWriter(contextlib.AbstractContextManager):
    """Writes trace.csv for a series and its trace to path, in a forked
    worker while the caller goes on with other work, or else in the caller.

    Made, it forks the worker if the trace spans more than one block and
    this process may run on more than one CPU (see the module docstring);
    finish() waits for it and renames its part file to path, or, with no
    worker, writes the file itself. Used as a context manager, it kills
    and waits for the worker on leaving the block, whether or not
    finish() ran, and removes the part file.
    """

    def __init__(self, path: str | Path, series: FlowSeries, trace: FilterTrace):
        self.path = Path(path)
        self._series = series
        self._trace = trace
        self._workers = _Workers()
        self._part: Path | None = None
        if _worker_cpus() > 1 and len(series) + 1 > _BLOCK_LINES:  # a header line and one line a bin
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)  # the part file goes beside the target
                self._part = self.path.with_name(f"{self.path.name}.{os.getpid()}-{os.urandom(4).hex()}.part")
                _bulk_dumps()  # imported and checked here, so that later workers of this process inherit it
                self._workers.start(_write_trace_part, self._part, series, trace)
            except BaseException:
                self.close()
                raise

    def finish(self) -> Path:
        """Wait for the worker and rename its part file to path, or, with
        no worker, write the file at path here; returns path. A worker's
        exception is raised here; a worker that exited without one raises
        OSError."""
        try:
            if self._workers:
                self._workers.results(self.path)
                os.replace(self._part, self.path)
            else:
                atomic_write_text(self.path, trace_csv_text(self._series, self._trace))
            return self.path
        finally:
            self.close()

    def close(self) -> None:
        """Kill the worker if it still runs, wait for it and remove the part file."""
        self._workers.close()
        if self._part is not None:
            self._part.unlink(missing_ok=True)
            self._part = None

    def __exit__(self, *exc_info) -> None:
        self.close()


def _write_trace_part(part: Path, series: FlowSeries, trace: FilterTrace) -> None:
    """The worker's work: write the whole of trace.csv into a new file at part and sync it."""
    _write_synced(part, trace_csv_text(series, trace))


def write_report(report: EvaluationReport, trace_csv: TraceCsvWriter, params: FilterParams,
                 out_dir: str | Path) -> list[Path]:
    """Write report.json into out_dir, then finish trace_csv; returns the two paths."""
    report_path = Path(out_dir) / REPORT_FILENAME
    atomic_write_text(report_path, report_json_text(report, params))
    return [report_path, trace_csv.finish()]
