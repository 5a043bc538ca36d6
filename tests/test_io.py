"""CSV ingestion, serialization, config files."""

import json
import math
import mmap
import multiprocessing
import os
import random
import re
import signal
import sys
import threading
import tracemalloc
import types
from datetime import datetime, timedelta, timezone
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import flowcast.io
from flowcast.config import RunConfig, load_config_file, resolve_config
from flowcast.errors import ConfigError, EmptyInput, FlowcastError, MalformedRow, SeriesTooShort, UnknownVehicleClass
from flowcast.io import (
    _read_counts_plain,
    _read_counts_rows,
    _read_series_plain,
    _read_series_rows,
    atomic_write_text,
    counts_csv_text,
    read_counts_csv,
    read_input,
    read_series_csv,
    report_json_text,
    series_csv_text,
    TraceCsvWriter,
    trace_csv_text,
    write_report,
)
from flowcast.kalman import FilterParams, FilterTrace, filter_series
from flowcast.metrics import build_report
from flowcast.pcu import ClassifiedCounts, PcuTable, VehicleClass
from flowcast.series import FlowSeries, aggregate

import oracles


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCountsCsv:
    def test_single_row(self, tmp_path):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n0,Bus,2\n")
        assert list(read_counts_csv(path).rows()) == [(0, VehicleClass.BUS, 2)]

    def test_header_only_is_empty_input(self, tmp_path):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n")
        with pytest.raises(EmptyInput):
            read_counts_csv(path)

    def test_zero_byte_file_is_empty_input(self, tmp_path):
        path = write(tmp_path, "counts.csv", "")
        with pytest.raises(EmptyInput):
            read_counts_csv(path)

    def test_unknown_class_reports_line(self, tmp_path):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n0,hovercraft,1\n")
        with pytest.raises(UnknownVehicleClass) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == 2
        assert excinfo.value.label == "hovercraft"

    @pytest.mark.parametrize(
        "row",
        ["0,Bus", "noon,Bus,1", "0,Bus,three", "0,Bus,-1", "0,Bus,1,excess"],
    )
    def test_malformed_rows_report_line(self, tmp_path, row):
        path = write(tmp_path, "counts.csv", f"timestamp,vehicle_class,count\n{row}\n")
        with pytest.raises(MalformedRow) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == 2

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "counts.csv", "time,klass,n\n0,Bus,1\n")
        with pytest.raises(MalformedRow) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_counts_csv(tmp_path / "absent.csv")

    def test_iso_timestamps_utc(self, tmp_path):
        text = (
            "timestamp,vehicle_class,count\n"
            "1970-01-01T00:05:00Z,Bus,1\n"
            "1970-01-01T00:10:00+00:00,car,2\n"
            "1970-01-01 00:15:00,truck,3\n"
        )
        records = read_counts_csv(write(tmp_path, "counts.csv", text))
        assert records.timestamps.tolist() == [300, 600, 900]
        assert list(records.rows())[1][1] is VehicleClass.PRIVATE_CAR

    @pytest.mark.parametrize("text, stamp", [
        ("9999-12-31T23:59:58.999999Z", 253402300798),
        ("0001-01-01T00:00:00.999999Z", -62135596800),
    ])
    def test_fraction_just_under_a_second_stays_in_its_second(self, text, stamp):
        # A float count of seconds rounds these fractions up to the next second.
        assert flowcast.io.parse_timestamp(text) == stamp

    def test_non_utc_offset_rejected(self, tmp_path):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n1970-01-01T06:00:00+06:00,Bus,1\n")
        with pytest.raises(MalformedRow):
            read_counts_csv(path)

    def test_crlf_and_bom_accepted(self, tmp_path):
        raw = b"\xef\xbb\xbftimestamp,vehicle_class,count\r\n0,Bus,1\r\n300,rickshaw,2\r\n"
        path = tmp_path / "counts.csv"
        path.write_bytes(raw)
        records = read_counts_csv(path)
        assert len(records) == 2
        assert list(records.rows())[1][1] is VehicleClass.CYCLE_RICKSHAW

    def test_row_order_preserved(self, tmp_path):
        text = "timestamp,vehicle_class,count\n600,Bus,1\n0,Bus,2\n300,Bus,3\n"
        records = read_counts_csv(write(tmp_path, "counts.csv", text))
        assert records.timestamps.tolist() == [600, 0, 300]

    @pytest.mark.parametrize(
        "row",
        [
            "1" + "0" * 39 + ",Bus,1",
            "-" + "9" * 40 + ",Bus,1",
            "9223372036854775808,Bus,1",
            "-9223372036854775809,Bus,1",
        ],
    )
    def test_timestamp_outside_int64_reports_line(self, tmp_path, row):
        path = write(tmp_path, "counts.csv", f"timestamp,vehicle_class,count\n0,Bus,1\n{row}\n")
        with pytest.raises(MalformedRow, match="outside the int64 range") as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("count", ["99999999999999999999", "9223372036854775808"])
    def test_count_outside_int64_reports_line(self, tmp_path, count):
        path = write(tmp_path, "counts.csv", f"timestamp,vehicle_class,count\n0,Bus,1\n0,Bus,{count}\n")
        with pytest.raises(MalformedRow, match="above the int64 maximum") as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == 3

    def test_int64_limits_accepted(self, tmp_path):
        text = (
            "timestamp,vehicle_class,count\n"
            "-9223372036854775808,Bus,0\n"
            "9223372036854775807,car,9223372036854775807\n"
        )
        records = read_counts_csv(write(tmp_path, "counts.csv", text))
        assert records.timestamps.tolist() == [-(2**63), 2**63 - 1]
        assert records.counts.tolist() == [0, 2**63 - 1]

    def test_first_faulty_row_is_reported_before_a_later_csv_error(self, tmp_path):
        # Rows are read as they are checked, so a bad row comes first.
        text = "timestamp,vehicle_class,count\n0,Bus,-1\n0,Bus," + "9" * 200_000 + "\n"
        with pytest.raises(MalformedRow) as excinfo:
            read_counts_csv(write(tmp_path, "counts.csv", text))
        assert excinfo.value.line == 2

    def test_csv_error_is_malformed_row(self, tmp_path):
        text = "timestamp,vehicle_class,count\n0,Bus," + "9" * 200_000 + "\n"
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            read_counts_csv(write(tmp_path, "counts.csv", text))

    @pytest.mark.parametrize(
        "rows,line",
        [
            # A quoted newline puts one row on two file lines.
            ('"0\n",bus,1\n0,hovercraft,1\n', 4),
            # Only CR and LF end a line; a form feed stays inside its field.
            ("0,bus,1\n0\x0c,hovercraft,1\n", 3),
        ],
        ids=["quoted-newline", "form-feed"],
    )
    def test_line_numbers_are_file_lines(self, tmp_path, rows, line):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n" + rows)
        with pytest.raises(UnknownVehicleClass) as excinfo:
            read_counts_csv(path)
        assert excinfo.value.line == line

    def test_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(MalformedRow):
            read_counts_csv(path)

    def test_not_utf8_deep_in_the_file_is_malformed(self, tmp_path):
        # The file is decoded as its rows are read, not all at once.
        path = tmp_path / "counts.csv"
        path.write_bytes(b"timestamp,vehicle_class,count\n" + b"0,bus,1\n" * 20_000 + b"0,\xff,1\n")
        with pytest.raises(MalformedRow, match="not valid UTF-8"):
            read_counts_csv(path)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LABELS = [c.label for c in VehicleClass] + ["car", "rickshaw"]


@st.composite
def _stamp_text(draw, stamp):
    """Epoch seconds, or an ISO-8601 UTC form of them, maybe with spaces or a fraction."""
    if draw(st.booleans()):
        pad = draw(st.sampled_from(["", " ", "  "]))
        return f"{pad}{stamp}{pad}"
    moment = _EPOCH + timedelta(seconds=stamp, microseconds=draw(st.sampled_from([0, 500_000])))
    text = moment.isoformat(sep=draw(st.sampled_from(["T", " "])))
    return text[: -len("+00:00")] + draw(st.sampled_from(["+00:00", "Z", ""]))


@st.composite
def _label_text(draw):
    """A class label or alias in mixed case, with spaces, hyphens or underscores put in."""
    label = draw(st.sampled_from(_LABELS)).replace("_", "")
    chars = []
    for ch in label:
        chars.append(ch.upper() if draw(st.booleans()) else ch)
        chars.append(draw(st.sampled_from(["", "", "", " ", "-", "_"])))
    return "".join(chars)


@st.composite
def _counts_files(draw):
    bin_duration = draw(st.sampled_from([1, 7, 60, 300, 3600]))
    # Mostly a few dozen bins, so bins hold several rows; edges and their neighbours often.
    offset = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, bin_duration - 1))
    in_bin = st.builds(lambda k, d: k * bin_duration + d, st.integers(-20, 20), offset)
    stamps = draw(st.lists(st.one_of(in_bin, st.integers(-20_000, 20_000)), min_size=1, max_size=40))
    lines = ["timestamp,vehicle_class,count"]
    for stamp in stamps:
        count = draw(st.one_of(st.integers(0, 500), st.integers(0, 10**15)))
        pad = draw(st.sampled_from(["", " "]))
        lines.append(f"{draw(_stamp_text(stamp))},{draw(_label_text())},{pad}{count}{pad}")
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline
    start_time = draw(st.one_of(st.none(), st.integers(0, 3 * bin_duration).map(lambda back: min(stamps) - back)))
    factors = draw(st.one_of(
        st.just([PcuTable.default().factor(c) for c in VehicleClass]),
        st.lists(st.floats(0.01, 10.0), min_size=9, max_size=9),
    ))
    return text, bin_duration, start_time, factors


class TestCountsAgainstOracle:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_counts_files())
    def test_read_and_aggregate_match_oracle_bit_for_bit(self, tmp_path, drawn):
        text, bin_duration, start_time, factors = drawn
        path = tmp_path / "counts.csv"
        path.write_bytes(text.encode("utf-8"))
        table = PcuTable(dict(zip(VehicleClass, factors)))
        series = aggregate(read_counts_csv(path), table, bin_duration, start_time)
        expected_start, expected = oracles.aggregate_counts(
            text, {c.label: f for c, f in zip(VehicleClass, factors)}, bin_duration, start_time
        )
        assert series.start_time == expected_start
        assert series.bin_duration == bin_duration
        assert [v.hex() for v in series.values] == [v.hex() for v in expected]


_PLAIN_HEADERS = ["timestamp,vehicle_class,count", "Timestamp, Vehicle_Class ,COUNT", " TIMESTAMP,vehicle_class,count "]


@st.composite
def _plain_number(draw, signed):
    """1 to 18 digits, maybe with leading zeros, and maybe a '-' when signed."""
    digits = str(draw(st.one_of(st.integers(0, 999), st.integers(0, 10**18 - 1))))
    digits = "0" * draw(st.integers(0, 18 - len(digits))) + digits
    return ("-" if signed and draw(st.booleans()) else "") + digits


@st.composite
def _plain_counts_files(draw):
    """The bytes of a counts CSV in the plain form the bulk reader accepts."""
    label = st.builds("{}{}{}".format, st.sampled_from(["", " "]), _label_text(), st.sampled_from(["", "  "]))
    labels = st.sampled_from(draw(st.lists(label.filter(lambda text: len(text) <= 32), min_size=1, max_size=4)))
    lines = [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(_PLAIN_HEADERS))]
    for _ in range(draw(st.integers(1, 20))):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(",".join((draw(_plain_number(True)), draw(labels), draw(_plain_number(False)))))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + "".join(line + end for line, end in zip(lines, ends))).encode("utf-8")


def _columns(counts):
    return [(column.dtype, column.tolist()) for column in (counts.timestamps, counts.classes, counts.counts)]


def _outcome(read, path):
    """The columns read, or the class, line and message of the error raised."""
    try:
        return _columns(read(path))
    except FlowcastError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def _insert(piece):
    return lambda raw, at: raw[:at] + piece + raw[at:]


# One byte-level change to a plain file. Each takes the bytes and a
# position among the places it can apply to, or anywhere in the file.
_MUTATIONS = {
    "quote": (None, _insert(b'"')),
    "nul": (None, _insert(b"\x00")),
    "lone-cr": (None, _insert(b"\r")),
    "non-ascii": (None, _insert(b"\xc3\xa9")),
    "not-utf8": (None, _insert(b"\xff")),
    "space-in-number": (rb"\d", _insert(b" ")),
    "dropped-comma": (rb",", lambda raw, at: raw[:at] + raw[at + 1 :]),
    "19-digit-value": (rb"(?<![\d])\d+", lambda raw, at: raw[:at] + b"9" * 19 + raw[at:].lstrip(b"0123456789")),
    "19-digit-int64": (rb"(?<![\d])\d+", lambda raw, at: raw[:at] + b"1" + b"0" * 18 + raw[at:].lstrip(b"0123456789")),
    "unknown-label": (rb",[^,\r\n]+,", lambda raw, at: raw[: at + 1] + b"hovercraft" + raw[raw.index(b",", at + 1) :]),
    "header-typo": (rb"(?i)vehicle", lambda raw, at: raw[:at] + b"x" + raw[at + 1 :]),
}


def _straddling_file(path):
    """A plain counts file of 3 MiB, in assorted spellings, with CRs, blank
    lines and no LF after the last line; returns path."""
    rng = random.Random(9)
    spellings = ["bus", "Private Car", "private_car", "CYCLE-RICKSHAW", "rickshaw", " car ", "c n g", "Commercial_Vehicle"]
    lines, size = ["timestamp,vehicle_class,count"], 0
    while size < 3 << 20:
        stamp = rng.choice([rng.randrange(10**9, 2 * 10**9), -rng.randrange(10**6), rng.randrange(10**18)])
        line = f"{stamp},{rng.choice(spellings)},{rng.randrange(10 ** rng.randrange(1, 19))}"
        lines.append(line + "\r" if rng.random() < 0.1 else line)
        lines += [""] * (rng.random() < 0.01)
        size += len(line) + 1
    path.write_bytes("\n".join(lines).encode())
    return path


class TestPlainCountsReader:
    """The bulk reader for plain counts files against the row loop, which is the reference."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_plain_counts_files())
    def test_plain_files_read_as_the_row_loop_reads_them(self, tmp_path, raw):
        path = tmp_path / "counts.csv"
        path.write_bytes(raw)
        assert _columns(_read_counts_plain(path)) == _columns(_read_counts_rows(path))

    def test_rows_straddling_blocks(self, tmp_path):
        path = _straddling_file(tmp_path / "counts.csv")
        assert path.stat().st_size > 8 * flowcast.io._BLOCK_BYTES
        assert _columns(_read_counts_plain(path)) == _columns(_read_counts_rows(path))

    @pytest.mark.parametrize("kind", sorted(_MUTATIONS))
    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_plain_counts_files(), data=st.data())
    def test_mutated_files_read_as_the_row_loop_reads_them(self, tmp_path, kind, raw, data):
        pattern, mutate = _MUTATIONS[kind]
        places = [match.start() for match in re.finditer(pattern, raw)] if pattern else range(len(raw) + 1)
        mutated = mutate(raw, data.draw(st.sampled_from(places)))
        path = tmp_path / "counts.csv"
        path.write_bytes(mutated)
        assert _outcome(read_counts_csv, path) == _outcome(_read_counts_rows, path)

    @pytest.mark.parametrize("label", [b"bus\xa0", b"\x85bus", b"bus\x0b", b"\tcar", b"bus\x00"])
    def test_label_edge_bytes_read_as_the_row_loop_reads_them(self, tmp_path, label):
        # str.strip drops all but NUL, and \xa0 or \x85 alone is not UTF-8.
        path = tmp_path / "counts.csv"
        path.write_bytes(b"timestamp,vehicle_class,count\n0,truck,2\n300," + label + b",1\n")
        assert _outcome(read_counts_csv, path) == _outcome(_read_counts_rows, path)

    def test_hash_collision_is_declined_not_mislabelled(self, tmp_path, monkeypatch):
        # With a zero multiplier every label of one length hashes alike.
        monkeypatch.setattr(flowcast.io, "_MIX", np.uint64(0))
        path = tmp_path / "counts.csv"
        path.write_bytes(b"timestamp,vehicle_class,count\n0,bus,1\n0,cng,2\n")
        with pytest.raises(flowcast.io._NotPlain):
            _read_counts_plain(path)
        assert _columns(read_counts_csv(path)) == _columns(_read_counts_rows(path))

    def test_memory_peak_is_the_columns_plus_a_block_allowance(self, tmp_path, monkeypatch):
        # The rows are never copied from growing pieces into the result,
        # so beyond the columns the reader holds only a block's buffer and
        # its temporaries, however long the file. They take about 1.9 MB
        # here; the row loop holds 2.2 MB above its columns on a year of
        # 946,080 rows.
        counts, peak = _counts_memory_peak(tmp_path, monkeypatch, 200_000, blank_lines=0)
        column_bytes = counts.timestamps.nbytes + counts.classes.nbytes + counts.counts.nbytes
        assert peak <= column_bytes + _BLOCK_ALLOWANCE

    def test_blank_lines_move_the_rows_in_place(self, tmp_path, monkeypatch):
        # Blank lines leave a gap after the first share's rows, so the
        # second share's rows are moved down, within the mapping. A copy
        # of the timestamps, 3.2 MB, would show above the block allowance.
        counts, peak = _counts_memory_peak(tmp_path, monkeypatch, 400_000, blank_lines=200)
        assert peak <= _BLOCK_ALLOWANCE


_BLOCK_ALLOWANCE = 3_000_000


def _counts_memory_peak(tmp_path, monkeypatch, rows, blank_lines):
    """Read a plain counts file of rows rows in two shares, with blank_lines
    blank lines spread through it; returns the counts and the peak of
    memory that tracemalloc saw.

    tracemalloc does not see the pages of an mmap, which hold the columns,
    so this also checks that they are views of one mapping, 17 bytes for
    each LF, plus one for a last line without an LF.
    """
    rng = random.Random(3)
    labels = [c.label for c in VehicleClass]
    text = "".join(
        f"{1704067200 + 300 * (i // 9) + rng.randrange(300)},{labels[i % 9]},{rng.randrange(40)}\n"
        + "\n" * (blank_lines > 0 and i % (rows // blank_lines) == 1) for i in range(rows)
    )
    path = tmp_path / "counts.csv"
    path.write_text("timestamp,vehicle_class,count\n" + text, encoding="utf-8")
    del text
    monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)
    forks = _fork_counter(monkeypatch)
    tracemalloc.start()
    try:
        counts = read_counts_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 1 and len(counts) == rows
    assert _columns(counts) == _columns(_read_counts_rows(path))
    mapping = {_buffer_owner(column) for column in (counts.timestamps, counts.classes, counts.counts)}
    assert len(mapping) == 1
    (mapping,) = mapping
    assert isinstance(mapping, mmap.mmap) and len(mapping) == 17 * (rows + blank_lines + 1)
    return counts, peak


def _buffer_owner(column):
    """The object whose buffer holds an array's data."""
    while isinstance(column, np.ndarray):
        column = column.base
    return column.obj


def _fork_counter(monkeypatch):
    """A list that gets an entry for each worker flowcast.io forks from now on."""
    forks = []
    start = flowcast.io._Workers.start

    def counted(workers, function, *args):
        forks.append(function)
        start(workers, function, *args)

    monkeypatch.setattr(flowcast.io._Workers, "start", counted)
    return forks


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class TestCountsShares:
    """A plain counts file read in shares by forked workers, against the row loop."""

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_any_share_count_reads_as_the_row_loop_reads(self, tmp_path, monkeypatch, cpus):
        path = _straddling_file(tmp_path / "counts.csv")
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: cpus)
        monkeypatch.setattr(flowcast.io, "_SHARE_BYTES", 1 << 16)
        forks = _fork_counter(monkeypatch)
        assert _columns(_read_counts_plain(path)) == _columns(_read_counts_rows(path))
        assert forks == [flowcast.io._read_share] * (cpus - 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault, error", [
        (b"0,b\xffus,1", MalformedRow),
        (b"0,bus,1,2", MalformedRow),
        (b"0,hovercraft,1", UnknownVehicleClass),
    ], ids=["bad-byte", "extra-comma", "unknown-label"])
    def test_a_fault_in_the_last_share_reads_as_the_row_loop_reads(self, tmp_path, monkeypatch, fault, error):
        raw = _straddling_file(tmp_path / "counts.csv").read_bytes()
        at = raw.rindex(b"\n", 0, len(raw) - 1000) + 1  # a line near the end
        path = tmp_path / "faulty.csv"
        path.write_bytes(raw[:at] + fault + b"\n" + raw[at:])
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 3)
        forks = _fork_counter(monkeypatch)
        outcome = _outcome(read_counts_csv, path)
        assert forks and outcome[0] is error
        assert outcome == _outcome(_read_counts_rows, path)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_blank_lines_and_a_crlf_at_a_share_start(self, tmp_path, monkeypatch, cpus):
        # Distinct rows of 18 bytes, CRLF-ended, with runs of blank lines;
        # the body is sized so that the first share's nominal end falls
        # between a CR and its LF.
        header = b"timestamp,vehicle_class,count\r\n"
        rows = [b"\r\n" * 7 * (i % 50 == 0) + b"%d,bus,%d\r\n" % (1704067200 + i, 10 + i % 90) for i in range(40_000)]
        body = b"".join(rows)
        while body[len(body) // cpus - 1 : len(body) // cpus + 1] != b"\r\n":
            body += b"\n"
        path = tmp_path / "counts.csv"
        path.write_bytes(header + body)
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: cpus)
        monkeypatch.setattr(flowcast.io, "_SHARE_BYTES", 1 << 16)
        forks = _fork_counter(monkeypatch)
        assert _columns(read_counts_csv(path)) == _columns(_read_counts_rows(path))
        assert len(forks) == cpus - 1
        assert len(read_counts_csv(path)) == 40_000

    def test_a_last_line_without_an_lf(self, tmp_path, monkeypatch):
        path = _straddling_file(tmp_path / "counts.csv")
        assert not path.read_bytes().endswith(b"\n")
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)
        counts = read_counts_csv(path)
        assert _columns(counts) == _columns(_read_counts_rows(path))
        assert counts.counts[-1] == int(path.read_bytes().rsplit(b",", 1)[1])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_worker_that_raises_leaves_no_child_and_no_pipe(self, tmp_path, monkeypatch):
        path = _straddling_file(tmp_path / "counts.csv")
        parent = os.getpid()
        plain_rows = flowcast.io._plain_rows

        def failing(*args):
            if os.getpid() != parent:
                raise OSError("the disk went away")
            return plain_rows(*args)

        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 4)
        monkeypatch.setattr(flowcast.io, "_plain_rows", failing)
        fds = _open_fds()
        with pytest.raises(OSError, match="the disk went away"):
            read_counts_csv(path)
        assert multiprocessing.active_children() == []
        assert _open_fds() == fds

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_file_put_at_the_path_after_the_count_is_read_whole(self, tmp_path, monkeypatch, cpus):
        # The new file is the old one with an 8-byte row put first, so the
        # old file's byte range of it ends inside its last row, at a plain
        # row "5,bus,12" that the LF count has room for.
        path = _straddling_file(tmp_path / "counts.csv")
        path.write_bytes(path.read_bytes() + b"\n5,bus,123456789\n")
        header, body = path.read_bytes().split(b"\n", 1)
        new = tmp_path / "new.csv"
        new.write_bytes(header + b"\n0,car,1\n" + body)
        lf_count = flowcast.io._lf_count

        def swapped(*args):  # while the caller counts LFs through its open handle
            if new.exists():
                os.replace(new, path)
            return lf_count(*args)

        monkeypatch.setattr(flowcast.io, "_lf_count", swapped)
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: cpus)
        forks = _fork_counter(monkeypatch)
        counts = read_counts_csv(path)
        assert len(forks) == cpus - 1
        assert _columns(counts) == _columns(_read_counts_rows(path))
        assert counts.counts[0] == 1 and counts.counts[-1] == 123456789

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_worker_dying_silently_names_the_file(self, tmp_path, monkeypatch):
        path = _straddling_file(tmp_path / "counts.csv")
        parent = os.getpid()
        plain_rows = flowcast.io._plain_rows

        def die(*args):
            if os.getpid() != parent:
                os._exit(7)
            return plain_rows(*args)

        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)
        monkeypatch.setattr(flowcast.io, "_plain_rows", die)
        fds = _open_fds()
        with pytest.raises(OSError) as raised:
            read_counts_csv(path)
        assert str(raised.value) == f"{path}: a worker exited with code 7"
        assert multiprocessing.active_children() == []
        assert _open_fds() == fds

    def test_a_share_is_at_least_a_mib(self, tmp_path, monkeypatch):
        # Under 2 MiB, one process reads the file: a fork costs more than
        # half such a parse saves. The 3 MiB file is read in 3 shares.
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 4)
        forks = _fork_counter(monkeypatch)
        raw = _straddling_file(tmp_path / "counts.csv").read_bytes()
        small = tmp_path / "small.csv"
        small.write_bytes(raw[: raw.index(b"\n", 2 * flowcast.io._SHARE_BYTES - 100)])
        assert _columns(read_counts_csv(small)) == _columns(_read_counts_rows(small))
        assert forks == []
        assert _columns(read_counts_csv(tmp_path / "counts.csv")) == _columns(_read_counts_rows(tmp_path / "counts.csv"))
        assert len(forks) == 2

    def test_a_survey_of_36_bins_forks_nothing(self, tmp_path, monkeypatch):
        labels = [c.label for c in VehicleClass]
        path = tmp_path / "counts.csv"
        path.write_text("timestamp,vehicle_class,count\n" + "".join(
            f"{300 * b + 7 * i},{label},{b + i}\n" for b in range(36) for i, label in enumerate(labels)))
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 4)
        forks = _fork_counter(monkeypatch)
        assert len(aggregate(read_counts_csv(path), PcuTable.default(), 300)) == 36
        assert forks == []


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        series = FlowSeries(600, 300, (3.25, 0.0, 12.5))
        path = tmp_path / "series.csv"
        atomic_write_text(path, series_csv_text(series))
        assert read_series_csv(path) == series

    def test_retained_memory_is_the_columns(self, tmp_path):
        # The series and the trace are six float64 columns, 48 bytes a bin
        # in all; columns of float objects take 32 bytes a value. The warm-up
        # read keeps one-off lazy imports out of the count.
        bins = 100_000
        rng = random.Random(4)
        path = tmp_path / "series.csv"
        path.write_text("bin_start,pcu\n" + "".join(f"{300 * i},{rng.uniform(0.0, 500.0)!r}\n" for i in range(bins)))
        params = FilterParams(process_var=1e-3, measurement_var=100.0)
        filter_series(read_series_csv(write(tmp_path, "warm.csv", "bin_start,pcu\n0,1.0\n300,2.0\n")), params)
        tracemalloc.start()
        try:
            series = read_series_csv(path)
            trace = filter_series(series, params)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.estimates) == bins - 1
        assert retained <= 64 * bins

    def test_uneven_spacing_rejected(self, tmp_path):
        path = write(tmp_path, "series.csv", "bin_start,pcu\n0,1.0\n300,2.0\n700,3.0\n")
        with pytest.raises(MalformedRow) as excinfo:
            read_series_csv(path)
        assert excinfo.value.line == 4

    def test_non_increasing_rejected(self, tmp_path):
        path = write(tmp_path, "series.csv", "bin_start,pcu\n300,1.0\n300,2.0\n")
        with pytest.raises(MalformedRow):
            read_series_csv(path)

    def test_one_row_is_too_short(self, tmp_path):
        # One row gives no bin spacing; there is no default to fall back on.
        path = write(tmp_path, "series.csv", "bin_start,pcu\n0,1.0\n")
        with pytest.raises(SeriesTooShort, match="two are needed"):
            read_series_csv(path)

    def test_non_finite_pcu_rejected(self, tmp_path):
        path = write(tmp_path, "series.csv", "bin_start,pcu\n0,inf\n")
        with pytest.raises(MalformedRow):
            read_series_csv(path)

    def test_read_input_judges_by_header(self, tmp_path):
        counts = write(tmp_path, "a.csv", "timestamp,vehicle_class,count\n0,Bus,1\n")
        series = write(tmp_path, "b.csv", "\nBin_Start , PCU\n0,1.0\n300,2.5\n")
        other = write(tmp_path, "c.csv", "x,y\n0,1\n")
        assert list(read_input(counts).rows()) == [(0, VehicleClass.BUS, 1)]
        assert read_input(series) == FlowSeries(0, 300, [1.0, 2.5])
        with pytest.raises(MalformedRow, match="unrecognized header 'x,y'"):
            read_input(other)


_SERIES_HEADERS = ["bin_start,pcu", "Bin_Start , PCU", " BIN_START,pcu "]


@st.composite
def _pcu_text(draw):
    """A finite number as float() reads it, in one of the spellings files use."""
    value = draw(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-4, 123.25]))
    return draw(st.sampled_from([
        repr(value), f"{value:.2f}", f"{value:e}", f" {value!r}", f"{value!r}  ", f"{int(value)}", "-0", "1_0", "+2", ".5", "5.",
    ]))


@st.composite
def _plain_series_files(draw):
    """The bytes of a series CSV in the plain form the bulk reader accepts."""
    spacing = draw(st.integers(1, 3600) | st.integers(1, 10**15))
    count = draw(st.integers(2, 30))
    start = draw(st.integers(-(10**17), 10**17 - spacing * count))
    lines = [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(_SERIES_HEADERS))]
    for stamp in range(start, start + spacing * count, spacing):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        digits = "0" * draw(st.integers(0, 18 - len(str(abs(stamp))))) + str(abs(stamp))
        sign = "-" if stamp < 0 or (stamp == 0 and draw(st.booleans())) else ""
        lines.append(f"{sign}{digits},{draw(_pcu_text())}")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + "".join(line + end for line, end in zip(lines, ends))).encode("utf-8")


def _series_outcome(read, path):
    """The series read, with each value's bits, or the class, line and
    message of the error raised."""
    try:
        series = read(path)
    except FlowcastError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return series.start_time, series.bin_duration, [value.hex() for value in series.values]


# One byte-level change to a plain series file, as _MUTATIONS for counts.
_SERIES_MUTATIONS = {
    "quote": (None, _insert(b'"')),
    "nul": (None, _insert(b"\x00")),
    "lone-cr": (None, _insert(b"\r")),
    "tab": (None, _insert(b"\t")),
    "non-ascii": (None, _insert(b"\xc3\xa9")),
    "not-utf8": (None, _insert(b"\xff")),
    "comma": (None, _insert(b",")),
    "space-in-number": (rb"\d", _insert(b" ")),
    "underscore-in-number": (rb"\d", lambda raw, at: raw[: at + 1] + b"_" + raw[at + 1 :]),
    "dropped-comma": (rb",", lambda raw, at: raw[:at] + raw[at + 1 :]),
    "19-digit-stamp": (rb"(?m)^-?\d+", lambda raw, at: raw[:at] + b"1" + b"0" * 18 + raw[at:].lstrip(b"-0123456789")),
    "iso-stamp": (rb"(?m)^-?\d+,", lambda raw, at: raw[:at] + b"2024-01-01T00:00:00Z" + raw[raw.index(b",", at) :]),
    "non-finite": (rb",", lambda raw, at: raw[: at + 1] + b"nan" + raw[at + 1 :].lstrip(b" +-.0123456789e_")),
    "overflow": (rb",", lambda raw, at: raw[: at + 1] + b"1e999" + raw[at + 1 :].lstrip(b" +-.0123456789e_")),
    "empty-value": (rb",", lambda raw, at: raw[: at + 1] + raw[at + 1 :].lstrip(b" +-.0123456789e_")),
    "shifted-stamp": (rb"(?m)^-?\d", lambda raw, at: raw[:at] + b"7" + raw[at:]),
    "repeated-row": (rb"(?m)^-?\d", lambda raw, at: raw[:at] + raw[at : raw.index(b"\n", at) + 1] + raw[at:]
                     if b"\n" in raw[at:] else raw + b"\n" + raw[at:]),
    "header-typo": (rb"(?i)pcu", lambda raw, at: raw[:at] + b"x" + raw[at + 1 :]),
}


class TestPlainSeriesReader:
    """The bulk reader for plain series files against the row loop, which is the reference."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_plain_series_files())
    def test_plain_files_read_as_the_row_loop_reads_them(self, tmp_path, raw):
        path = tmp_path / "series.csv"
        path.write_bytes(raw)
        # np.loadtxt reads no underscore in a number, so those files are the row loop's.
        read = read_series_csv if re.search(rb"\d_", raw) else _read_series_plain
        assert _series_outcome(read, path) == _series_outcome(_read_series_rows, path)

    def test_rows_straddling_blocks(self, tmp_path):
        rng = random.Random(10)
        lines, size, stamp = ["bin_start,pcu"], 0, 1_704_067_200
        while size < 3 << 20:
            value = rng.choice([repr(rng.uniform(0, 500)), str(rng.randrange(300)), "-0.0", "0.0", " 7.25 "])
            line = f"{stamp},{value}"
            lines.append(line + "\r" if rng.random() < 0.1 else line)
            lines += [""] * (rng.random() < 0.01)
            size += len(line) + 1
            stamp += 300
        path = tmp_path / "series.csv"
        path.write_bytes("\n".join(lines).encode())
        assert path.stat().st_size > 8 * flowcast.io._BLOCK_BYTES
        assert _series_outcome(_read_series_plain, path) == _series_outcome(_read_series_rows, path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xef\xbb\xbfbin_start,pcu\n0,1.5\n300,2.5\n",
            b"bin_start,pcu\r\n0,1.5\r\n300,2.5\r\n",
            b"\n\r\nbin_start,pcu\n\n0,1.5\n\r\n\n300,2.5\n\n",
            b"bin_start,pcu\n0,1.5\n300,2.5",
            b"bin_start,pcu\n-0,-0.0\n300,0.0\n600,-0\n",
            b"bin_start,pcu\n0, 1.5\n300,2.5  \n",
            b"bin_start,pcu\n0,1.5\t\n300,2.5\n",
        ],
        ids=["bom", "crlf", "blank-lines", "no-final-lf", "signed-zeros", "padded-values", "tab"],
    )
    def test_plain_cases_are_read_in_bulk(self, tmp_path, raw):
        path = tmp_path / "series.csv"
        path.write_bytes(raw)
        assert _series_outcome(_read_series_plain, path) == _series_outcome(_read_series_rows, path)

    @pytest.mark.parametrize(
        "raw",
        [
            b'bin_start,pcu\n0,"1.5"\n300,2.5\n',
            b"bin_start,pcu\n0,1.5\r300,2.5\n",
            b"bin_start,pcu\n-600,1_0\n-300,1_0.5\n",
            b"bin_start,pcu\n0,1.5\n300,2.5\xc2\xa0\n",
            b"bin_start,pcu\n0,nan\n300,2.5\n",
            b"bin_start,pcu\n0,1.5\n300,-inf\n",
            b"bin_start,pcu\n1970-01-01T00:00:00Z,1.5\n300,2.5\n",
            b"bin_start,pcu\n1_0,1.5\n310,2.5\n",
            b"bin_start,pcu\n0,1.5\n300,2.5\n700,3.5\n",
            b"bin_start,pcu\n300,1.5\n300,2.5\n",
            b"bin_start,pcu\n600,1.5\n300,2.5\n",
            b"bin_start,pcu\n0,1.5\n",
            b"bin_start,pcu\n\n",
            b"bin_start,pcu\n0,1.5,2\n300,2.5\n",
            b"bin_start,pcu\n0,1.5\n300\n",
            b"bin_start,pcu\n0,\n300,2.5\n",
            b"bin_start,pcu,extra\n0,1.5\n300,2.5\n",
            b"bin_start,pcu\n0.0,1.5\n300.0,2.5\n",
            b"bin_start,pcu\n1e3,1.5\n1.3e3,2.5\n",
            b"bin_start,pcu\n0,1.5\n \t\n300,2.5\n",
            b"bin_start,pcu\n# a comment\n0,1.5\n300,2.5\n",
            b"bin_start,pcu\n0,1.5\n300,Infinity\n",
            b"bin_start,pcu\n9000000000000000000,1.5\n-9000000000000000000,2.5\n",
        ],
        ids=["quote", "lone-cr", "underscores", "non-ascii", "nan", "inf", "iso-stamp", "underscore-stamp", "uneven",
             "repeated-stamp", "decreasing", "one-row", "no-rows", "three-fields", "one-field", "empty-value",
             "bad-header", "float-stamps", "exponent-stamps", "whitespace-line", "hash-line", "infinity",
             "gap-past-int64"],
    )
    def test_other_files_are_read_by_the_row_loop(self, tmp_path, raw):
        path = tmp_path / "series.csv"
        path.write_bytes(raw)
        with pytest.raises(flowcast.io._NotPlain):
            _read_series_plain(path)
        assert _series_outcome(read_series_csv, path) == _series_outcome(_read_series_rows, path)

    @pytest.mark.parametrize("kind", sorted(_SERIES_MUTATIONS))
    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_plain_series_files(), data=st.data())
    def test_mutated_files_read_as_the_row_loop_reads_them(self, tmp_path, kind, raw, data):
        pattern, mutate = _SERIES_MUTATIONS[kind]
        places = [match.start() for match in re.finditer(pattern, raw)] if pattern else range(len(raw) + 1)
        mutated = mutate(raw, data.draw(st.sampled_from(places)))
        path = tmp_path / "series.csv"
        path.write_bytes(mutated)
        assert _series_outcome(read_series_csv, path) == _series_outcome(_read_series_rows, path)

    def test_memory_peak_on_a_year(self, tmp_path):
        # np.loadtxt holds the rows as (int64, float64) pairs, 16 bytes a
        # bin, and the series copies out the values. On this year of bins
        # the reader peaks at 3.4 MB, and the block-at-a-time byte parser
        # it replaced at 3.8 MB.
        rng = np.random.default_rng(12)
        series = FlowSeries(1_704_067_200, 300, np.round(rng.gamma(4.0, 25.0, 105_120), 2))
        path = tmp_path / "series.csv"
        atomic_write_text(path, series_csv_text(series))
        tracemalloc.start()
        try:
            read = read_series_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == series
        assert peak <= 4_000_000


class TestCountsCsvWriter:
    def test_round_trip_conserves_pcu(self, tmp_path):
        table = PcuTable.default()
        records = ClassifiedCounts.from_rows([
            (0, VehicleClass.BUS, 2),
            (10, VehicleClass.MOTORCYCLE, 3),
            (3000, VehicleClass.CYCLE_RICKSHAW, 5),
        ])
        path = tmp_path / "counts.csv"
        atomic_write_text(path, counts_csv_text(records))
        reread = read_counts_csv(path)
        assert list(reread.rows()) == list(records.rows())
        total = sum(count * table.factor(vehicle_class) for _, vehicle_class, count in reread.rows())
        assert math.isclose(total, 2 * 3.0 + 3 * 0.75 + 5 * 2.0, rel_tol=1e-12)


def _report_fixture():
    series = FlowSeries(0, 300, (100.0, 112.0, 108.0, 123.0, 131.0, 127.0))
    params = FilterParams(process_var=4.0, measurement_var=36.0)
    trace = filter_series(series, params)
    report = build_report(series, trace.forecasts)
    return series, params, trace, report


def _write_report(report, trace, series, params, out_dir):
    """write_report, with trace.csv from a TraceCsvWriter made here."""
    trace_csv = TraceCsvWriter(Path(out_dir) / "trace.csv", series, trace)
    return write_report(report, trace_csv, params, out_dir)


class TestReportWriting:
    def test_report_json_schema_keys(self, tmp_path):
        series, params, trace, report = _report_fixture()
        paths = _write_report(report, trace, series, params, tmp_path)
        document = json.loads(paths[0].read_text())
        assert document["schema"] == 1
        assert list(document) == [
            "schema", "mape_percent", "rmspe_percent", "pearson_r", "r_squared",
            "trend_slope", "mape_band", "rmspe_band", "observed_stats",
            "predicted_stats", "params",
        ]
        assert list(document["params"]) == ["m_t", "m_m", "q", "r", "p0"]
        assert document["params"]["m_m"] == 1.0
        assert list(document["observed_stats"]) == [
            "count", "mean", "std_dev", "variance", "min", "max", "median", "q1", "q3",
        ]
        assert document["mape_band"] in {"high_accuracy", "good", "decent", "bad"}

    def test_report_json_round_trips_metric_values(self, tmp_path):
        series, params, trace, report = _report_fixture()
        text = report_json_text(report, params)
        document = json.loads(text)
        assert document["mape_percent"] == report.mape_percent
        assert document["rmspe_percent"] == report.rmspe_percent
        assert document["r_squared"] == report.r_squared
        assert document["trend_slope"] == report.trend_slope
        assert document["observed_stats"]["mean"] == report.observed_stats.mean

    def test_report_and_trace_are_byte_stable(self, tmp_path):
        series, params, trace, report = _report_fixture()
        first = _write_report(report, trace, series, params, tmp_path / "a")
        second = _write_report(report, trace, series, params, tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_trace_csv_layout(self):
        series, params, trace, report = _report_fixture()
        lines = "".join(trace_csv_text(series, trace)).splitlines()
        assert lines[0] == "bin_start,observed,forecast,filtered,gain,innovation"
        assert len(lines) == 1 + len(series)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 100.0
        assert first[2] == "" and first[4] == "" and first[5] == ""
        second = lines[2].split(",")
        assert float(second[2]) == trace.forecasts[0]
        assert float(second[4]) == trace.gains[0]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "report.json").mkdir()
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "report.json", "{}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_concurrent_writers_to_one_path(self, tmp_path):
        target = tmp_path / "trace.csv"
        texts = [f"writer {i}\n" * 1000 for i in range(4)]
        errors = []

        def write_many(text):
            try:
                for _ in range(25):
                    atomic_write_text(target, text)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write_many, args=(text,)) for text in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert target.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_unwritable_path_raises_oserror(self, tmp_path):
        series, params, trace, report = _report_fixture()
        with pytest.raises(OSError):
            _write_report(report, trace, series, params, "/proc/flowcast-denied")


# Floats whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the float range, both sides of the points where repr switches
# to exponent form (1e16 and 1e-4), and the non-finite floats, which
# orjson writes as null.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, math.nextafter(1e16, 0), math.nextafter(1e16, math.inf), -1e16,
    1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), -1e-4, 0.1, 1.0, 100.0, 1e22,
    math.nan, math.inf, -math.inf,
]
_TRACE_LENGTHS = [2, 3, 4095, 4096, 4097, 4098, 8191, 8193]  # bins, so lines are one more
# Every phase but shrinking: a failing example of up to 8,193 bins is
# reported as found, in seconds, where shrinking it, which formats every
# row of the oracle for each try, took minutes.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def _blocks_of(lines):
    """Lines joined 4096 at a time, each block ending in a newline, as the
    per-row writer made them."""
    lines = iter(lines)
    while block := list(islice(lines, 4096)):
        yield "\n".join(block) + "\n"


def _pooled_trace(length, pool, seed, run):
    """A series and trace of the given length whose floats all come from
    pool, in runs of run equal values, as one FilterTrace holds them."""
    rng = np.random.default_rng(seed)

    def column(size):
        picks = rng.integers(len(pool), size=-(-size // run)).repeat(run)[:size]
        return tuple(pool[i] for i in picks.tolist())

    series = FlowSeries(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**6)), column(length))
    trace = FilterTrace(pool[0], 1.0, *(column(length - 1) for _ in range(5)))
    return series, trace


_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.floats(-1e3, 1e3))


class TestTraceWriter:
    """The block writer of trace.csv against the per-row formatter in oracles."""

    @settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
    @given(
        length=st.sampled_from(_TRACE_LENGTHS),
        pool=st.lists(_FLOAT, min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        run=st.sampled_from([1, 1, 3, 5000]),
    )
    def test_blocks_match_the_per_row_formatter(self, length, pool, seed, run):
        series, trace = _pooled_trace(length, pool, seed, run)
        expected = list(_blocks_of(oracles.trace_csv_lines(series, trace, 1.0)))
        assert list(trace_csv_text(series, trace)) == expected

    @settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
    @given(
        length=st.sampled_from(_TRACE_LENGTHS),
        pool=st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-4, 3.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        transition=st.sampled_from([1.0, 0.97, -1.0, 1.03]),
    )
    def test_filtered_traces_match_the_per_row_formatter(self, length, pool, seed, transition):
        # With m_t != 1 a filtered value is no longer the next row's forecast.
        rng = np.random.default_rng(seed)
        series = FlowSeries(0, 300, [pool[i] for i in rng.integers(len(pool), size=length).tolist()])
        params = FilterParams(process_var=2.0, measurement_var=5.0, transition=transition)
        trace = filter_series(series, params)
        expected = list(_blocks_of(oracles.trace_csv_lines(series, trace, 1.0)))
        assert list(trace_csv_text(series, trace)) == expected

    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    @given(
        length=st.sampled_from(_TRACE_LENGTHS),
        pool=st.lists(_FLOAT.filter(math.isfinite), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        transition=st.sampled_from([1.0, 0.99, -1.0]),
        changed=st.lists(st.integers(0, 8191), max_size=4),
    )
    def test_forecasts_of_the_estimates_before_them(self, length, pool, seed, transition, changed):
        # Each forecast is m_t times the estimate before it, as filter_series
        # makes them, but at the rows in changed. Every column holds both
        # zeros at its first rows and around the first block edge: file
        # lines 4095 and 4096 are rows 4093 and 4094 of the trace columns.
        rng = np.random.default_rng(seed)

        def column(size):
            values = [pool[i] for i in rng.integers(len(pool), size=size).tolist()]
            for row, zero in zip((0, 1, 2, 4093, 4094, 4095), (-0.0, 0.0, -0.0, 0.0, -0.0, 0.0)):
                if row < size:
                    values[row] = zero
            return values

        estimates = column(length - 1)
        initial = pool[0]
        forecasts = [transition * before for before in [initial, *estimates[:-1]]]
        for row, value in zip(changed, column(len(changed))):
            if row < len(forecasts):
                forecasts[row] = value
        series = FlowSeries(0, 300, column(length))
        trace = FilterTrace(initial, 1.0, forecasts, estimates, column(length - 1), column(length - 1),
                            column(length - 1))
        expected = list(_blocks_of(oracles.trace_csv_lines(series, trace, 1.0)))
        assert list(trace_csv_text(series, trace)) == expected

    @pytest.mark.parametrize("length", _TRACE_LENGTHS)
    def test_signed_zeros_keep_their_sign(self, length):
        # Every block holds both zeros in observed and innovation: a writer
        # that told floats apart by value rather than by bits would write
        # one of them with the other's sign.
        pattern = [0.0, -0.0, 1e16, -0.0, 1e-4, 0.0, 5e-324]

        def column(size, shift):
            return tuple(pattern[(i + shift) % len(pattern)] for i in range(size))

        series = FlowSeries(0, 300, column(length, 0))
        trace = FilterTrace(-0.0, 1.0, *(column(length - 1, shift) for shift in range(1, 6)))
        expected = list(_blocks_of(oracles.trace_csv_lines(series, trace, 1.0)))
        assert list(trace_csv_text(series, trace)) == expected

    def test_written_file_spans_several_blocks(self, tmp_path):
        series = FlowSeries(1_704_067_200, 300, [float(v % 97) for v in range(10_000)])
        params = FilterParams(process_var=0.5, measurement_var=4.0, transition=0.99)
        trace = filter_series(series, params)
        path = tmp_path / "trace.csv"
        flowcast.io.atomic_write_text(path, trace_csv_text(series, trace))
        expected = "\n".join(oracles.trace_csv_lines(series, trace, 1.0)) + "\n"
        assert path.read_text() == expected
        assert len(expected.splitlines()) > 2 * flowcast.io._BLOCK_LINES

    def test_memory_peak_on_a_year_is_a_few_blocks(self):
        # The writer converts one block of each column at a time, never a
        # whole column. On this year of bins it peaks at 2.0 MB, and the
        # per-row writer it replaced (oracles.trace_csv_lines in blocks
        # of 4096 lines) at 8.1 MB, most of it a list of every bin start.
        rng = np.random.default_rng(12)
        series = FlowSeries(1_704_067_200, 300, np.round(rng.gamma(4.0, 25.0, 105_120), 2).tolist())
        params = FilterParams(process_var=2.0, measurement_var=300.0)
        trace = filter_series(series, params)
        tracemalloc.start()
        try:
            for _ in trace_csv_text(series, trace):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000


class TestSeriesWriter:
    """The block writer of series CSVs against the per-row formatter in oracles."""

    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    @given(
        length=st.sampled_from([1, 2, 4095, 4096, 4097, 8192, 8193]),
        pool=st.lists(_FLOAT, min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        run=st.sampled_from([1, 1, 3, 5000]),
    )
    def test_blocks_match_the_per_row_formatter(self, length, pool, seed, run):
        series, _ = _pooled_trace(length, pool, seed, run)
        assert list(series_csv_text(series)) == list(_blocks_of(oracles.series_csv_lines(series)))


@pytest.fixture()
def bulk_dumps():
    """flowcast.io._bulk_dumps, run again on its next call, in this test and after it."""
    flowcast.io._bulk_dumps.cache_clear()
    yield flowcast.io._bulk_dumps
    flowcast.io._bulk_dumps.cache_clear()


def _texts_of_every_edge(bulk_dumps):
    """A trace and a series CSV of three blocks whose columns hold every
    edge float, and whose bulk formatter was chosen afresh."""
    series, trace = _pooled_trace(10_000, _EDGE_FLOATS + [2.5, -7.25], 11, 1)
    series_text = "".join(series_csv_text(series))
    assert bulk_dumps.cache_info().currsize == 1
    return "".join(trace_csv_text(series, trace)), series_text


class TestBulkFormatter:
    """The probe that decides whether orjson or repr writes the floats of
    a file of more than one block."""

    def test_the_installed_orjson_passes_the_probe(self, bulk_dumps):
        import orjson

        assert bulk_dumps() is not None
        assert bulk_dumps()(flowcast.io._PROBE) == orjson.dumps(flowcast.io._PROBE, option=orjson.OPT_SERIALIZE_NUMPY)

    def test_without_orjson_repr_writes_the_same_bytes(self, monkeypatch, bulk_dumps):
        expected = _texts_of_every_edge(bulk_dumps)
        assert bulk_dumps() is not None
        bulk_dumps.cache_clear()
        monkeypatch.setitem(sys.modules, "orjson", None)  # import orjson raises ImportError
        assert _texts_of_every_edge(bulk_dumps) == expected
        assert bulk_dumps() is None

    def test_a_formatter_that_fails_the_probe_is_not_used(self, monkeypatch, bulk_dumps):
        # As orjson would be if a release wrote integral floats without '.0'.
        expected = _texts_of_every_edge(bulk_dumps)
        bulk_dumps.cache_clear()
        changed = types.SimpleNamespace(OPT_SERIALIZE_NUMPY=0, dumps=lambda block, option: json.dumps(
            block.tolist(), separators=(",", ":")).replace(".0,", ",").replace(".0]", "]").encode())
        monkeypatch.setitem(sys.modules, "orjson", changed)
        assert _texts_of_every_edge(bulk_dumps) == expected
        assert bulk_dumps() is None

    def test_a_formatter_that_writes_ints_otherwise_is_not_used(self, monkeypatch, bulk_dumps):
        # As orjson would be if a release wrote int64 values as floats.
        import orjson

        expected = _texts_of_every_edge(bulk_dumps)
        bulk_dumps.cache_clear()

        def dumps(array, option):
            return orjson.dumps(array.astype(np.float64) if array.dtype == np.int64 else array, option=option)

        changed = types.SimpleNamespace(OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY, dumps=dumps)
        monkeypatch.setitem(sys.modules, "orjson", changed)
        assert _texts_of_every_edge(bulk_dumps) == expected
        assert bulk_dumps() is None

    @pytest.mark.parametrize("start, length, bulk_blocks", [
        ((1 << 63) - 300 * 5000, 6000, 1),   # the second block's starts pass the int64 maximum
        (-(1 << 63) - 300 * 3000, 6000, 1),  # the first block's starts begin below the int64 minimum
        ((1 << 63) - 300 * 8191, 8191, 1),   # the second block's last start fits, its range's stop does not
    ])
    def test_starts_past_int64_are_written_by_str(self, monkeypatch, start, length, bulk_blocks):
        # np.arange wraps such starts silently, so their block's starts go to
        # str; the int64 arrays that reach the formatter hold the true starts.
        dumps = flowcast.io._bulk_dumps()
        bulk = []

        def recording(array):
            if array.dtype == np.int64:
                bulk.append(array.tolist())
            return dumps(array)

        monkeypatch.setattr(flowcast.io, "_bulk_dumps", lambda: recording)
        values = np.round(np.random.default_rng(length).gamma(4.0, 25.0, length), 2)
        values.flags.writeable = False
        series = FlowSeries(start, 300, values)
        assert list(series_csv_text(series)) == list(_blocks_of(oracles.series_csv_lines(series)))
        assert len(bulk) == bulk_blocks
        starts = series.bin_starts()
        assert all(block == list(starts[starts.index(block[0]):][:len(block)]) for block in bulk)

    def test_a_strided_column_is_formatted(self):
        # orjson takes only C-contiguous arrays: a block is stacked from its
        # columns, so a column may be any view.
        values = np.arange(20_000, dtype=np.float64) / 8
        values.flags.writeable = False
        series = FlowSeries(0, 300, values[::2])
        assert not series.values.flags.c_contiguous
        assert list(series_csv_text(series)) == list(_blocks_of(oracles.series_csv_lines(series)))


def _gamma_trace(length, seed):
    """A series of length bins of gamma-distributed flow, and its trace."""
    rng = np.random.default_rng(seed)
    series = FlowSeries(1_704_067_200, 300, np.round(rng.gamma(4.0, 25.0, length), 2))
    return series, filter_series(series, FilterParams(process_var=2.0, measurement_var=300.0))


class TestParallelTraceWriter:
    """TraceCsvWriter's forked worker against the trace written in one process."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("length", [4095, 4096, 8191, 8192, 16_390])
    def test_any_worker_count_writes_the_same_bytes(self, tmp_path, monkeypatch, workers, length):
        series, trace = _gamma_trace(length, length)
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: workers)
        with TraceCsvWriter(tmp_path / "trace.csv", series, trace) as trace_csv:
            blocks = -(-(length + 1) // flowcast.io._BLOCK_LINES)
            # One worker for a trace of two blocks or more on more than one CPU, and none otherwise.
            assert len(trace_csv._workers) == (1 if blocks >= 2 and workers > 1 else 0)
            path = trace_csv.finish()
        assert path.read_text() == "".join(trace_csv_text(series, trace))
        assert path.read_text() == "\n".join(oracles.trace_csv_lines(series, trace, 1.0)) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_cpu_and_every_cpu_write_the_same_bytes(self, tmp_path):
        series, trace = _gamma_trace(20_000, 5)
        cpus = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(cpus)})
            with TraceCsvWriter(tmp_path / "one" / "trace.csv", series, trace) as trace_csv:
                assert trace_csv._workers == []
                one = trace_csv.finish().read_bytes()
        finally:
            os.sched_setaffinity(0, cpus)
        with TraceCsvWriter(tmp_path / "all" / "trace.csv", series, trace) as trace_csv:
            assert len(trace_csv._workers) == (1 if len(cpus) > 1 else 0)
            every = trace_csv.finish().read_bytes()
        assert every == one
        assert one == ("\n".join(oracles.trace_csv_lines(series, trace, 1.0)) + "\n").encode()

    def test_a_running_thread_keeps_the_trace_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flowcast.io.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert flowcast.io._worker_cpus() == 4
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert flowcast.io._worker_cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_worker_ignores_ctrl_c(self, tmp_path, monkeypatch):
        series, trace = _gamma_trace(10_000, 4)
        expected = "".join(trace_csv_text(series, trace))
        float_rows = flowcast.io._float_rows
        parent = os.getpid()

        def interrupted(starts, fields):
            if os.getpid() != parent:  # the worker formats every block; this process acts on Ctrl-C
                os.kill(os.getpid(), signal.SIGINT)
            return float_rows(starts, fields)

        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)
        monkeypatch.setattr(flowcast.io, "_float_rows", interrupted)
        with TraceCsvWriter(tmp_path / "trace.csv", series, trace) as trace_csv:
            assert trace_csv.finish().read_text() == expected

    def test_parent_memory_peak_on_a_year_is_a_few_blocks(self, tmp_path, monkeypatch):
        # The worker formats every block and this process renames its part
        # file, within the 4 MB the one-process writer is held to above.
        series, trace = _gamma_trace(105_120, 12)
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)
        tracemalloc.start()
        try:
            with TraceCsvWriter(tmp_path / "trace.csv", series, trace) as trace_csv:
                trace_csv.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000
        assert (tmp_path / "trace.csv").stat().st_size > 100 * len(series) // 2

    @pytest.mark.parametrize("failure", ["raises", "exits"])
    def test_a_failed_worker_leaves_nothing(self, tmp_path, monkeypatch, failure):
        series, trace = _gamma_trace(20_000, 7)

        def failing(*args):
            if failure == "exits":
                os._exit(3)
            raise OSError("no room for the part")

        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 3)
        monkeypatch.setattr(flowcast.io, "_write_trace_part", failing)
        message = "no room for the part" if failure == "raises" else "a worker exited with code 3"
        with pytest.raises(OSError, match=message):
            with TraceCsvWriter(tmp_path / "trace.csv", series, trace) as trace_csv:
                trace_csv.finish()
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_leaving_the_block_unfinished_kills_the_workers(self, tmp_path, monkeypatch):
        series, trace = _gamma_trace(30_000, 3)
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 3)
        with pytest.raises(KeyboardInterrupt):
            with TraceCsvWriter(tmp_path / "trace.csv", series, trace):
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestConfig:
    def test_defaults(self):
        config = resolve_config(None)
        assert config.bin_duration == 300
        assert config.init_var == 1e6
        assert config.process_var is None
        assert config.percent_denominator == "forecast"
        assert config.evaluate_mode == "predicted"
        assert config.histogram_bins == 8

    def test_file_values_parsed(self, tmp_path):
        path = write(
            tmp_path,
            "flowcast.conf",
            "# comment\nbin_duration = 120\np0 = 5e5\nq = 2.5\npercent_denominator = observed\npcu.bus = 3.5\n",
        )
        config = resolve_config(load_config_file(path))
        assert config.bin_duration == 120
        assert config.init_var == 5e5
        assert config.process_var == 2.5
        assert config.percent_denominator == "observed"
        assert config.pcu_table().factor(VehicleClass.BUS) == 3.5
        assert config.pcu_table().factor(VehicleClass.TRUCK) == 3.0

    def test_flags_beat_file(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "bin_duration=120\n")
        config = resolve_config(load_config_file(path), bin_duration=60)
        assert config.bin_duration == 60

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "bin_minutes=5\n")
        with pytest.raises(ConfigError):
            resolve_config(load_config_file(path))

    def test_unknown_pcu_class_rejected(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "pcu.hovercraft=9\n")
        with pytest.raises(ConfigError):
            resolve_config(load_config_file(path))

    # Each rejected config line and the exact message it gives.
    BAD_VALUES = {
        "bin_duration=0": "bin_duration must be > 0, got 0",
        "p0=-1": "p0 must be finite and >= 0, got -1.0",
        "p0=inf": "p0 must be finite and >= 0, got inf",
        "m_t=nan": "m_t must be finite, got nan",
        "q=-2": "q must be finite and >= 0, got -2.0",
        "r=nan": "r must be finite and >= 0, got nan",
        "histogram_bins=0": "histogram_bins must be from 1 to 556, got 0",
        "histogram_bins=557": "histogram_bins must be from 1 to 556, got 557",
        "evaluate_mode=both": "evaluate_mode must be one of ('predicted', 'filtered'), got 'both'",
        "percent_denominator=mean": "percent_denominator must be one of ('forecast', 'observed'), got 'mean'",
        "bin_duration=abc": "bin_duration must be an integer, got 'abc'",
        "pcu.bus=0": "pcu.bus must be finite and > 0, got 0.0",
    }

    @pytest.mark.parametrize("text", list(BAD_VALUES))
    def test_bad_values_rejected(self, tmp_path, text):
        path = write(tmp_path, "flowcast.conf", text + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(self.BAD_VALUES[text])}$"):
            resolve_config(load_config_file(path))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "nope.conf")

    def test_line_without_equals_rejected(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "just a line\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_utf8_bom_is_skipped(self, tmp_path):
        plain, bom = tmp_path / "plain.conf", tmp_path / "bom.conf"
        plain.write_bytes(b"histogram_bins=5\n")
        bom.write_bytes(b"\xef\xbb\xbfhistogram_bins=5\n")
        assert load_config_file(bom) == load_config_file(plain) == {"histogram_bins": "5"}
        assert resolve_config(load_config_file(bom)) == resolve_config(load_config_file(plain))

    def test_only_lf_ends_a_comment_line(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "# note \u2028 q=7\nbin_duration=600\n")
        assert load_config_file(path) == {"bin_duration": "600"}

    def test_only_lf_ends_a_setting_line(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "bin_duration=600\x0cq=5\n")
        assert load_config_file(path) == {"bin_duration": "600\x0cq=5"}
        with pytest.raises(ConfigError, match="bin_duration must be an integer"):
            resolve_config(load_config_file(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_crlf_lines_keep_their_numbers(self, tmp_path, newline):
        path = tmp_path / "flowcast.conf"
        path.write_bytes(newline.join(["# comment", "q = 2", "no equals sign", ""]).encode())
        with pytest.raises(ConfigError, match=r"flowcast\.conf:3: expected key=value, got 'no equals sign'"):
            load_config_file(path)
        path.write_bytes(newline.join(["q = 2", "r=1", ""]).encode())
        assert load_config_file(path) == {"q": "2", "r": "1"}

    def test_runconfig_direct_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(bin_duration=-5)

    # A None for each setting whose default is not None, and the exact message it gives.
    NONE_REFUSED = {
        "bin_duration": "bin_duration must be > 0, got None",
        "init_var": "p0 must be finite and >= 0, got None",
        "transition": "m_t must be finite, got None",
        "percent_denominator": "percent_denominator must be one of ('forecast', 'observed'), got None",
        "evaluate_mode": "evaluate_mode must be one of ('predicted', 'filtered'), got None",
        "histogram_bins": "histogram_bins must be from 1 to 556, got None",
    }

    def test_none_refused_where_the_default_is_not_none(self):
        from flowcast.config import SETTINGS

        defaults = RunConfig()
        assert sorted(self.NONE_REFUSED) == sorted(s.field for s in SETTINGS if getattr(defaults, s.field) is not None)
        for name, message in self.NONE_REFUSED.items():
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                RunConfig(**{name: None})

    def test_none_is_not_set_where_it_is_the_default(self):
        config = RunConfig(process_var=None, measurement_var=None, out_dir=None)
        assert (config.process_var, config.measurement_var, config.out_dir) == (None, None, None)
