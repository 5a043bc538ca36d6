"""CSV ingestion, serialization, config files."""

import json
import math
import threading

import pytest

from flowcast.config import RunConfig, load_config_file, resolve_config
from flowcast.errors import ConfigError, EmptyInput, MalformedRow, UnknownVehicleClass
from flowcast.io import (
    atomic_write_text,
    read_counts_csv,
    read_series_csv,
    report_json_text,
    sniff_input_kind,
    trace_csv_text,
    write_counts_csv,
    write_report,
    write_series_csv,
)
from flowcast.kalman import FilterParams, filter_series
from flowcast.metrics import build_report
from flowcast.pcu import ClassifiedCount, PcuTable, VehicleClass, to_pcu
from flowcast.series import FlowSeries


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCountsCsv:
    def test_single_row(self, tmp_path):
        path = write(tmp_path, "counts.csv", "timestamp,vehicle_class,count\n0,Bus,2\n")
        assert read_counts_csv(path) == [ClassifiedCount(0, VehicleClass.BUS, 2)]

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
        assert [r.timestamp for r in records] == [300, 600, 900]
        assert records[1].vehicle_class is VehicleClass.PRIVATE_CAR

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
        assert records[1].vehicle_class is VehicleClass.CYCLE_RICKSHAW

    def test_row_order_preserved(self, tmp_path):
        text = "timestamp,vehicle_class,count\n600,Bus,1\n0,Bus,2\n300,Bus,3\n"
        records = read_counts_csv(write(tmp_path, "counts.csv", text))
        assert [r.timestamp for r in records] == [600, 0, 300]

    def test_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(MalformedRow):
            read_counts_csv(path)


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        series = FlowSeries(600, 300, (3.25, 0.0, 12.5))
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
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
        records = [
            ClassifiedCount(0, VehicleClass.BUS, 2),
            ClassifiedCount(10, VehicleClass.MOTORCYCLE, 3),
            ClassifiedCount(3000, VehicleClass.CYCLE_RICKSHAW, 5),
        ]
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        reread = read_counts_csv(path)
        assert reread == records
        total = sum(to_pcu(table, {r.vehicle_class: r.count}) for r in reread)
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
        lines = trace_csv_text(series, trace, params).splitlines()
        assert lines[0] == "bin_start,observed,forecast,filtered,gain,innovation"
        assert len(lines) == 1 + len(series)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 100.0
        assert first[2] == "" and first[4] == "" and first[5] == ""
        second = lines[2].split(",")
        assert float(second[2]) == trace.steps[0].forecast
        assert float(second[4]) == trace.steps[0].gain

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

    def test_runconfig_direct_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(bin_duration=-5)
