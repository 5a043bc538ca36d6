"""CSV ingestion, serialization, config files."""

import json
import math
import random
import re
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import flowcast.io
from flowcast.config import RunConfig, load_config_file, resolve_config
from flowcast.errors import ConfigError, EmptyInput, FlowcastError, MalformedRow, SeriesTooShort, UnknownVehicleClass
from flowcast.io import (
    _read_counts_plain,
    _read_counts_rows,
    atomic_write_text,
    counts_csv_text,
    read_counts_csv,
    read_series_csv,
    report_json_text,
    series_csv_text,
    sniff_input_kind,
    trace_csv_text,
    write_report,
)
from flowcast.kalman import FilterParams, filter_series
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


class TestPlainCountsReader:
    """The bulk reader for plain counts files against the row loop, which is the reference."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_plain_counts_files())
    def test_plain_files_read_as_the_row_loop_reads_them(self, tmp_path, raw):
        path = tmp_path / "counts.csv"
        path.write_bytes(raw)
        assert _columns(_read_counts_plain(path)) == _columns(_read_counts_rows(path))

    def test_rows_straddling_blocks(self, tmp_path):
        rng = random.Random(9)
        spellings = ["bus", "Private Car", "private_car", "CYCLE-RICKSHAW", "rickshaw", " car ", "c n g", "Commercial_Vehicle"]
        lines, size = ["timestamp,vehicle_class,count"], 0
        while size < 3 << 20:
            stamp = rng.choice([rng.randrange(10**9, 2 * 10**9), -rng.randrange(10**6), rng.randrange(10**18)])
            line = f"{stamp},{rng.choice(spellings)},{rng.randrange(10 ** rng.randrange(1, 19))}"
            lines.append(line + "\r" if rng.random() < 0.1 else line)
            lines += [""] * (rng.random() < 0.01)
            size += len(line) + 1
        path = tmp_path / "counts.csv"
        path.write_bytes("\n".join(lines).encode())
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

    def test_memory_peak_is_the_columns_plus_a_block_allowance(self, tmp_path):
        # The rows are never copied from growing pieces into the result,
        # so beyond the columns the reader holds only a block's buffer and
        # its temporaries, however long the file. They take about 1.9 MB
        # here; the row loop holds 2.2 MB above its columns on a year of
        # 946,080 rows.
        block_allowance = 3_000_000
        rows = 200_000
        rng = random.Random(3)
        labels = [c.label for c in VehicleClass]
        text = "".join(
            f"{1704067200 + 300 * (i // 9) + rng.randrange(300)},{labels[i % 9]},{rng.randrange(40)}\n" for i in range(rows)
        )
        path = tmp_path / "counts.csv"
        path.write_text("timestamp,vehicle_class,count\n" + text, encoding="utf-8")
        del text
        tracemalloc.start()
        try:
            counts = read_counts_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == rows
        column_bytes = counts.timestamps.nbytes + counts.classes.nbytes + counts.counts.nbytes
        assert peak <= column_bytes + block_allowance


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        series = FlowSeries(600, 300, (3.25, 0.0, 12.5))
        path = tmp_path / "series.csv"
        atomic_write_text(path, series_csv_text(series))
        assert read_series_csv(path) == series

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

    def test_sniff_distinguishes_headers(self, tmp_path):
        counts = write(tmp_path, "a.csv", "timestamp,vehicle_class,count\n0,Bus,1\n")
        series = write(tmp_path, "b.csv", "bin_start,pcu\n0,1.0\n")
        other = write(tmp_path, "c.csv", "x,y\n0,1\n")
        assert sniff_input_kind(counts) == "counts"
        assert sniff_input_kind(series) == "series"
        with pytest.raises(MalformedRow):
            sniff_input_kind(other)


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
    trace = filter_series(series, params, p0=1e6)
    report = build_report(series, trace.forecasts)
    return series, params, trace, report


class TestReportWriting:
    def test_report_json_schema_keys(self, tmp_path):
        series, params, trace, report = _report_fixture()
        paths = write_report(report, trace, series, params, 1e6, tmp_path)
        document = json.loads(paths[0].read_text())
        assert document["schema"] == 1
        assert list(document) == [
            "schema", "mape_percent", "rmspe_percent", "pearson_r", "r_squared",
            "trend_slope", "mape_band", "rmspe_band", "observed_stats",
            "predicted_stats", "params",
        ]
        assert list(document["params"]) == ["m_t", "m_m", "q", "r", "p0"]
        assert list(document["observed_stats"]) == [
            "count", "mean", "std_dev", "variance", "min", "max", "median", "q1", "q3",
        ]
        assert document["mape_band"] in {"high_accuracy", "good", "decent", "bad"}

    def test_report_json_round_trips_metric_values(self, tmp_path):
        series, params, trace, report = _report_fixture()
        text = report_json_text(report, params, 1e6)
        document = json.loads(text)
        assert document["mape_percent"] == report.mape_percent
        assert document["rmspe_percent"] == report.rmspe_percent
        assert document["r_squared"] == report.r_squared
        assert document["trend_slope"] == report.trend_slope
        assert document["observed_stats"]["mean"] == report.observed_stats.mean

    def test_report_and_trace_are_byte_stable(self, tmp_path):
        series, params, trace, report = _report_fixture()
        first = write_report(report, trace, series, params, 1e6, tmp_path / "a")
        second = write_report(report, trace, series, params, 1e6, tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_trace_csv_layout(self):
        series, params, trace, report = _report_fixture()
        lines = list(trace_csv_text(series, trace, params))
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
            write_report(report, trace, series, params, 1e6, "/proc/flowcast-denied")


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

    @pytest.mark.parametrize(
        "text",
        ["bin_duration=0", "p0=-1", "m_m=0", "q=-2", "histogram_bins=0",
         "evaluate_mode=both", "percent_denominator=mean", "bin_duration=abc"],
    )
    def test_bad_values_rejected(self, tmp_path, text):
        path = write(tmp_path, "flowcast.conf", text + "\n")
        with pytest.raises(ConfigError):
            resolve_config(load_config_file(path))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "nope.conf")

    def test_line_without_equals_rejected(self, tmp_path):
        path = write(tmp_path, "flowcast.conf", "just a line\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

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
