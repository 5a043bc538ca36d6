"""CLI subcommands, exit codes, config precedence, round-trips."""

import ast
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import flowcast.cli
import flowcast.io
from flowcast.cli import cli_main
from flowcast.io import read_counts_csv, read_series_csv
from flowcast.pcu import PcuTable
from flowcast.plots import PLOT_FILENAMES


def run_cli(*argv):
    return cli_main(list(argv))


@pytest.fixture()
def counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    assert run_cli("simulate", "--preset", "steady", "--out", str(path)) == 0
    return path


class TestSimulate:
    def test_writes_deterministic_counts(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("simulate", "--preset", "paper-like", "--out", str(a)) == 0
        assert run_cli("simulate", "--preset", "paper-like", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        assert run_cli("simulate", "--duration", "600", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert out.startswith("timestamp,vehicle_class,count\n")

    def test_flag_overrides_preset(self, tmp_path):
        path = tmp_path / "c.csv"
        assert run_cli("simulate", "--preset", "steady", "--duration", "900", "--out", str(path)) == 0
        records = read_counts_csv(path)
        assert set(records.timestamps.tolist()) == {0, 300, 600}

    def test_unknown_preset_is_data_error(self, tmp_path):
        assert run_cli("simulate", "--preset", "rush-hour", "--out", str(tmp_path / "x.csv")) == 2

    def test_invalid_flag_value_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--base-flow", "-1", "--out", str(tmp_path / "x.csv")) == 1


class TestConvert:
    def test_conserves_total_pcu(self, tmp_path, counts_csv):
        out = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--out", str(out)) == 0
        series = read_series_csv(out)
        table = PcuTable.default()
        total = sum(count * table.factor(vehicle_class) for _, vehicle_class, count in read_counts_csv(counts_csv).rows())
        assert math.isclose(sum(series.values), total, rel_tol=1e-9)

    @pytest.mark.parametrize("preset", ["paper-like", "steady", "volatile"])
    def test_file_and_stdout_hold_the_same_bytes(self, tmp_path, capsys, preset):
        counts = tmp_path / "counts.csv"
        out = tmp_path / "series.csv"
        assert run_cli("simulate", "--preset", preset, "--out", str(counts)) == 0
        assert run_cli("convert", str(counts), "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("convert", str(counts)) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_custom_bin_duration(self, tmp_path, counts_csv):
        out = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--bin-duration", "600", "--out", str(out)) == 0
        assert read_series_csv(out).bin_duration == 600

    def test_start_time_excluding_records_is_data_error(self, tmp_path, counts_csv):
        assert run_cli("convert", str(counts_csv), "--start-time", "999999") == 2

    def test_bad_start_time_is_usage_error(self, counts_csv):
        assert run_cli("convert", str(counts_csv), "--start-time", "whenever") == 1

    @pytest.mark.parametrize("row", ["1" + "0" * 39 + ",Bus,1", "0,Bus,99999999999999999999"])
    def test_value_outside_int64_is_data_error(self, tmp_path, capsys, row):
        path = tmp_path / "counts.csv"
        path.write_text(f"timestamp,vehicle_class,count\n{row}\n")
        assert run_cli("convert", str(path)) == 2
        assert "line 2:" in capsys.readouterr().err


class TestForecast:
    def test_horizon_rows_on_stdout(self, tmp_path, counts_csv, capsys):
        trace_path = tmp_path / "trace.csv"
        assert run_cli("forecast", str(counts_csv), "--horizon", "3", "--out", str(trace_path)) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0] == "step,pcu"
        assert len(out_lines) == 4
        assert trace_path.exists()

    # sha256 of the stdout of `simulate --preset P` then `forecast --horizon 3`,
    # which pins each forecast's repr.
    @pytest.mark.parametrize("preset, digest", [
        ("paper-like", "c582ed5b0dc9cf341f7737df0ea4ed06c2b1e8d8958fb530567e1c035432bb37"),
        ("steady", "94991ae284fcae9bd1b3e787ed2c5ba456ef0c1a4a0f3ba8c7180a8c5f7d045f"),
        ("volatile", "74db89594ec18ab98024928581a0b2911941f2acd1789292f8662311c611d865"),
    ])
    def test_stdout_digest(self, tmp_path, capsys, preset, digest):
        counts = tmp_path / "counts.csv"
        assert run_cli("simulate", "--preset", preset, "--out", str(counts)) == 0
        capsys.readouterr()
        assert run_cli("forecast", str(counts), "--horizon", "3") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_accepts_series_csv_too(self, tmp_path, counts_csv, capsys):
        series_path = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--out", str(series_path)) == 0
        capsys.readouterr()
        assert run_cli("forecast", str(series_path), "--horizon", "2") == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_counts_csv_after_a_blank_line(self, tmp_path, counts_csv, capsys):
        # convert and run skip blank lines before the header; so does forecast.
        path = tmp_path / "blank_first.csv"
        path.write_text("\n" + counts_csv.read_text())
        assert run_cli("forecast", str(path)) == 0
        assert capsys.readouterr().out.startswith("step,pcu\n")

    def test_zero_horizon_is_usage_error(self, counts_csv):
        assert run_cli("forecast", str(counts_csv), "--horizon", "0") == 1


@contextlib.contextmanager
def _fed_fifo(path, data):
    """A FIFO at path, which a thread feeds data once a reader opens it.

    A FIFO can be read once: a second open of path for reading would wait
    forever for a writer. So once data is written, the thread opens and
    closes the writing end as soon as any reader waits, and that reader
    reads an empty file: code that opens path twice fails at once instead
    of hanging. Leaving the block, all of data must have been written.
    """
    os.mkfifo(path)
    written, done = threading.Event(), threading.Event()

    def feed():
        path.write_bytes(data)
        written.set()
        while not done.wait(0.01):
            with contextlib.suppress(OSError):  # ENXIO: no reader waits
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        done.set()
        writer.join(timeout=10)
    assert written.is_set() and not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestFifoInput:
    """A FIFO, which can be read only once, gives what the same input in a file gives."""

    def test_run(self, tmp_path, counts_csv):
        with _fed_fifo(tmp_path / "counts.fifo", counts_csv.read_bytes()) as fifo:
            assert run_cli("run", str(fifo), "--out-dir", str(tmp_path / "fifo")) == 0
        assert run_cli("run", str(counts_csv), "--out-dir", str(tmp_path / "file")) == 0
        assert (tmp_path / "fifo" / "report.json").read_bytes() == (tmp_path / "file" / "report.json").read_bytes()

    def test_convert(self, tmp_path, counts_csv, capsys):
        with _fed_fifo(tmp_path / "counts.fifo", counts_csv.read_bytes()) as fifo:
            assert run_cli("convert", str(fifo)) == 0
        from_fifo = capsys.readouterr().out
        assert run_cli("convert", str(counts_csv)) == 0
        assert from_fifo == capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["counts", "series"])
    def test_forecast(self, tmp_path, counts_csv, capsys, kind):
        path = counts_csv
        if kind == "series":
            path = tmp_path / "series.csv"
            assert run_cli("convert", str(counts_csv), "--out", str(path)) == 0
        capsys.readouterr()
        with _fed_fifo(tmp_path / "input.fifo", path.read_bytes()) as fifo:
            assert run_cli("forecast", str(fifo), "--horizon", "3") == 0
        from_fifo = capsys.readouterr().out
        assert run_cli("forecast", str(path), "--horizon", "3") == 0
        assert from_fifo == capsys.readouterr().out

    def test_evaluate_a_series_the_row_loop_reads(self, tmp_path, counts_csv):
        # An ISO timestamp keeps the file out of the bulk series reader.
        series = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--out", str(series)) == 0
        header, first, rest = series.read_text().split("\n", 2)
        assert first.startswith("0,")
        series.write_text(f"{header}\n1970-01-01T00:00:00Z{first[1:]}\n{rest}")
        with _fed_fifo(tmp_path / "series.fifo", series.read_bytes()) as fifo:
            assert run_cli("evaluate", str(fifo), "--out-dir", str(tmp_path / "fifo")) == 0
        assert run_cli("evaluate", str(series), "--out-dir", str(tmp_path / "file")) == 0
        assert (tmp_path / "fifo" / "trace.csv").read_bytes() == (tmp_path / "file" / "trace.csv").read_bytes()

    def test_a_second_open_fails_instead_of_hanging(self, tmp_path, counts_csv, monkeypatch, capsys):
        records = flowcast.io._records

        def opened_twice(path):
            with open(path, "rb") as handle:  # takes the FIFO's data, then the reader opens it again
                handle.read()
            return records(path)

        monkeypatch.setattr(flowcast.io, "_records", opened_twice)
        started = time.monotonic()
        with _fed_fifo(tmp_path / "counts.fifo", counts_csv.read_bytes()) as fifo:
            assert run_cli("run", str(fifo), "--out-dir", str(tmp_path / "fifo")) == 2
        assert time.monotonic() - started < 30
        assert "file is empty" in capsys.readouterr().err


class TestRunAndEvaluate:
    def test_end_to_end_outputs(self, tmp_path, counts_csv):
        out_dir = tmp_path / "results"
        assert run_cli("run", str(counts_csv), "--out-dir", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["schema"] == 1
        assert (out_dir / "trace.csv").exists()
        for name in PLOT_FILENAMES:
            assert (out_dir / name).exists()

    def test_evaluate_takes_series_csv(self, tmp_path, counts_csv):
        series_path = tmp_path / "series.csv"
        out_dir = tmp_path / "results"
        assert run_cli("convert", str(counts_csv), "--out", str(series_path)) == 0
        assert run_cli("evaluate", str(series_path), "--out-dir", str(out_dir)) == 0
        assert (out_dir / "report.json").exists()

    def test_evaluate_rejects_counts_header(self, tmp_path, counts_csv):
        assert run_cli("evaluate", str(counts_csv), "--out-dir", str(tmp_path / "r")) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("run", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "r")) == 2

    def test_zero_bin_duration_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--bin-duration", "0", "--out-dir", str(tmp_path / "r")) == 1

    def test_missing_out_dir_is_usage_error(self, counts_csv):
        assert run_cli("run", str(counts_csv)) == 1

    def test_existing_tmp_name_in_out_dir(self, tmp_path, counts_csv):
        out_dir = tmp_path / "results"
        (out_dir / "report.json.tmp").mkdir(parents=True)
        assert run_cli("run", str(counts_csv), "--out-dir", str(out_dir)) == 0
        expected = {"report.json.tmp", "report.json", "trace.csv", *PLOT_FILENAMES}
        assert {p.name for p in out_dir.iterdir()} == expected

    def test_rerun_is_idempotent(self, tmp_path, counts_csv):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run_cli("run", str(counts_csv), "--out-dir", str(first)) == 0
        assert run_cli("run", str(counts_csv), "--out-dir", str(second)) == 0
        for name in ["report.json", "trace.csv", *PLOT_FILENAMES]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_filtered_mode_runs(self, tmp_path, counts_csv):
        out_dir = tmp_path / "filtered"
        assert run_cli("run", str(counts_csv), "--evaluate-mode", "filtered", "--out-dir", str(out_dir)) == 0
        filtered = json.loads((out_dir / "report.json").read_text())
        assert filtered["mape_percent"] >= 0.0

    def test_explicit_noise_flags(self, tmp_path, counts_csv):
        out_dir = tmp_path / "explicit"
        assert run_cli("run", str(counts_csv), "--q", "4", "--r", "100", "--out-dir", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["params"]["q"] == 4.0
        assert report["params"]["r"] == 100.0

    def test_noise_estimate_overflow_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("bin_start,pcu\n0,1e200\n300,-1e200\n600,1e200\n900,5\n")
        assert run_cli("evaluate", str(path), "--out-dir", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "--q" in err

    @pytest.mark.parametrize("values", ["1e200,3e200,2e200,5e200", "1e300,1.5e308,1e300,1e308"])
    def test_score_overflow_is_data_error(self, tmp_path, capsys, values):
        # Finite values whose squared deviations overflow a float.
        path = tmp_path / "huge.csv"
        path.write_text("bin_start,pcu\n" + "".join(f"{300 * i},{v}\n" for i, v in enumerate(values.split(","))))
        out_dir = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("evaluate", str(path), "--q", "1", "--r", "1", "--out-dir", str(out_dir)) == 2
        assert caught == []
        assert capsys.readouterr().err == "flowcast: error: pearson_r overflows a float: the values are too large to score\n"
        assert not out_dir.exists()

    def test_header_only_series_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("bin_start,pcu\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("evaluate", str(path), "--out-dir", str(tmp_path / "r")) == 2
        assert caught == []
        assert capsys.readouterr().err == f"flowcast: error: {path}: no data rows\n"

    def test_both_noises_zero_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--q", "0", "--r", "0", "--out-dir", str(tmp_path / "r")) == 1

    @pytest.mark.parametrize("settings", [("--q", "0", "--r", "0"), ("--p0", "0", "--r", "0", "--q", "1")],
                             ids=["q-and-r-zero", "p0-and-r-zero"])
    def test_settings_that_leave_no_gain_are_usage_errors(self, tmp_path, counts_csv, capsys, settings):
        # With r = 0 a zero q, or a zero p0, makes a gain 0 / 0: both are the user's settings.
        series_csv = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--out", str(series_csv)) == 0
        capsys.readouterr()
        out_dir = tmp_path / "r"
        assert run_cli("evaluate", str(series_csv), *settings, "--out-dir", str(out_dir)) == 1
        message = "q and p0 must be > 0 when r is 0, or the filter's gain is 0 / 0"
        assert capsys.readouterr().err == f"flowcast: error: {message}\n"
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("settings, named", [(("--p0", "0"), "qr"), (("--p0", "0", "--q", "1"), "r")],
                             ids=["q-and-r-estimated", "r-estimated"])
    def test_rejected_estimates_are_named_with_their_flags(self, tmp_path, capsys, settings, named):
        # Constant first differences estimate r = 0, so p0 = 0 leaves no gain.
        # The user did not set r, so the message names it, and q when q was estimated too.
        series_csv = tmp_path / "ramp.csv"
        series_csv.write_text("bin_start,pcu\n0,1\n300,2\n600,3\n900,4\n1200,5\n")
        out_dir = tmp_path / "r"
        assert run_cli("evaluate", str(series_csv), *settings, "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("flowcast: error: q and p0 must be > 0 when r is 0, or the filter's gain is 0 / 0 (")
        assert err.count("\n") == 1 and err.count("flowcast: error:") == 1
        assert err.endswith(" (r = 0.0 was estimated from the series; set --r)\n")
        assert ("was estimated from the series; set --q)" in err) == ("q" in named)
        assert not (out_dir / "report.json").exists()

    def test_histogram_bins_are_bounded_by_the_plot_width(self, tmp_path, counts_csv, capsys):
        # One bin a pixel column of the 556 px plot area.
        assert run_cli("run", str(counts_csv), "--histogram-bins", "556", "--out-dir", str(tmp_path / "a")) == 0
        capsys.readouterr()
        # Checked before the input is read: a missing input would exit 2.
        for source in (counts_csv, tmp_path / "missing.csv"):
            out_dir = tmp_path / "b"
            assert run_cli("run", str(source), "--histogram-bins", "557", "--out-dir", str(out_dir)) == 1
            assert capsys.readouterr().err == "flowcast: error: histogram_bins must be from 1 to 556, got 557\n"
            assert not out_dir.exists()


class TestConfigPrecedence:
    def test_config_file_applies(self, tmp_path, counts_csv):
        conf = tmp_path / "flowcast.conf"
        conf.write_text("bin_duration=600\n")
        out_dir = tmp_path / "results"
        assert run_cli("run", str(counts_csv), "--config", str(conf), "--out-dir", str(out_dir)) == 0
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[2].split(",")[0] == "600"

    def test_flag_beats_config_file(self, tmp_path, counts_csv):
        conf = tmp_path / "flowcast.conf"
        conf.write_text("bin_duration=600\n")
        out_dir = tmp_path / "results"
        assert run_cli(
            "run", str(counts_csv), "--config", str(conf), "--bin-duration", "300",
            "--out-dir", str(out_dir),
        ) == 0
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[2].split(",")[0] == "300"

    def test_env_var_config(self, tmp_path, counts_csv, monkeypatch):
        conf = tmp_path / "env.conf"
        conf.write_text("out_dir=" + str(tmp_path / "envout") + "\n")
        monkeypatch.setenv("FLOWCAST_CONFIG", str(conf))
        assert run_cli("run", str(counts_csv)) == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, counts_csv):
        conf = tmp_path / "flowcast.conf"
        conf.write_text("granularity=5\n")
        assert run_cli("run", str(counts_csv), "--config", str(conf), "--out-dir", str(tmp_path / "r")) == 1

    def test_blank_out_dir_in_config_is_usage_error(self, tmp_path, counts_csv, monkeypatch, capsys):
        # Path("") is ".": a blank value must not write into the current directory.
        conf = tmp_path / "flowcast.conf"
        conf.write_text("out_dir=\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(counts_csv), "--config", str(conf)) == 1
        assert "out_dir" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_blank_out_dir_flag_is_usage_error(self, tmp_path, counts_csv, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(counts_csv), "--out-dir", "") == 1
        assert "out_dir" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_dot_out_dir_is_the_current_directory(self, tmp_path, counts_csv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(counts_csv), "--out-dir", ".") == 0
        assert (tmp_path / "report.json").exists()

    def test_config_file_not_utf8_is_usage_error(self, tmp_path, counts_csv, capsys):
        conf = tmp_path / "flowcast.conf"
        conf.write_bytes(b"q=\xff\n")
        assert run_cli("run", str(counts_csv), "--config", str(conf), "--out-dir", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err.startswith(f"flowcast: error: cannot read config file {conf}")

    def test_env_config_file_not_utf8_is_usage_error(self, tmp_path, counts_csv, monkeypatch, capsys):
        conf = tmp_path / "env.conf"
        conf.write_bytes(b"out_dir=\xe9\n")
        monkeypatch.setenv("FLOWCAST_CONFIG", str(conf))
        assert run_cli("run", str(counts_csv)) == 1
        assert capsys.readouterr().err.startswith(f"flowcast: error: cannot read config file {conf}")

    def test_missing_config_file_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--config", str(tmp_path / "nope.conf"),
                       "--out-dir", str(tmp_path / "r")) == 1

    # m_m, which only rescaled q and p0, is no longer a setting.
    def test_m_m_flag_is_usage_error(self, tmp_path, counts_csv, capsys):
        out_dir = tmp_path / "r"
        assert run_cli("run", str(counts_csv), "--m-m", "2", "--out-dir", str(out_dir)) == 1
        assert "unrecognized arguments: --m-m 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_m_m_config_key_is_usage_error(self, tmp_path, counts_csv, capsys):
        conf = tmp_path / "flowcast.conf"
        conf.write_text("m_m=2\n")
        out_dir = tmp_path / "r"
        assert run_cli("run", str(counts_csv), "--config", str(conf), "--out-dir", str(out_dir)) == 1
        assert "unknown config key 'm_m'" in capsys.readouterr().err
        assert not out_dir.exists()


class TestGoldenTrace:
    # sha256 of trace.csv from `simulate --preset P` then `run` with default
    # settings. trace.csv holds only pure-Python float arithmetic written
    # with repr, so it is pinned byte for byte.
    @pytest.mark.parametrize("preset, digest", [
        ("paper-like", "8f13b5a432f3887ca1bb33e59e4d2d10e6ee3241d3d1af15c0fd74b8d3830501"),
        ("steady", "d64b1b9e6121f1cf0e3d03071a866075348aadff7b4afcb3836feb055190495f"),
        ("volatile", "8c12dc1cc6d70a1200163ab2bf4d0b3b5f235a96e01f71aacd592b1e08852dbe"),
    ])
    def test_trace_csv_digest(self, tmp_path, preset, digest):
        assert _run_digests(tmp_path, "--preset", preset)["trace.csv"] == digest

    # sha256 of report.json from the same runs, which pins its key order,
    # indentation and float formatting as well as its values.
    @pytest.mark.parametrize("preset, digest", [
        ("paper-like", "817505f51f3c6e8aab92e9a1c51974eab422d564f4b188af73d53908e67f931e"),
        ("steady", "77b3834fb9fd62fb81c285b281d06be5b0989fd83ac24f18df83431e1ec31f96"),
        ("volatile", "c955550f8a565dc9cfef7a0f488d228e8d37e1fbb7116ceb4e75d5783a114866"),
    ])
    def test_report_json_digest(self, tmp_path, preset, digest):
        assert _run_digests(tmp_path, "--preset", preset)["report.json"] == digest

    # sha256 of the five figures from the same runs, in PLOT_FILENAMES
    # order. A preset has 36 bins, so every point keeps its own mark and
    # its own polyline vertex.
    @pytest.mark.parametrize("preset, digests", [
        ("paper-like", (
            "831d8a2e8aa510c78d806eeac53b6f299ee1dce86b597edde7d4f3104e9d2ce3",
            "8c922f5b00993de703e647bcf693bec4cea1052383f06a8bc2004404663b56b8",
            "d94a24b22bc6334a5c9a038f345e5c1ac27fafd860cc7e1f32713c68217922f9",
            "ff742d59681bcfce02e3cc73a3edb060447642f7e267d8b8d075702e65ec1c1c",
            "e2d6933e5148cc73c7ad15c6be9c8d228bb7e6467daa4b8902954f4c662396e4",
        )),
        ("steady", (
            "0cd35e4361e3b6ccb1c16b5d84da4911741619ce3e344ff7f91d15e8010295ee",
            "b0d152035fe831ee97770240f01a4c5a04c111653c76b5a0afd980286b0beba7",
            "5ed1f7bcc6bd20fbbae02c895508b3d12abdba2fca8b438c50ef49a345b67308",
            "7fe3ff037dfb5b93bff5d0cc8b2a157af4110aedbfdf28599d444790aa14ff27",
            "e622a77e889ab0cfefca9894a23faf41df7367c6560747efe4ac46faa9fd61e0",
        )),
        ("volatile", (
            "024c3d03df1422c22ecced819120b7ca33520fc4a437d863b916288a3231626c",
            "14fec178988a699e1d080ca4612fc3880261edfcd7eaf995eb86e97c5439cb44",
            "0769d9ff77a985db30a9459a5d7d95dc1576545fc76d420120ead4a6c9da52ff",
            "1c6d95fec8cb1169c9c4dda062475e6b20f356b4de9dfcd23fca4a34cca60dc2",
            "528d41566962b2216357c449f4cad8f7b036860a2ae7b84b468eb56bea3a9415",
        )),
    ])
    def test_svg_digests(self, tmp_path, preset, digests):
        found = _run_digests(tmp_path, "--preset", preset)
        assert tuple(found[name] for name in PLOT_FILENAMES) == digests

    # sha256 of the five figures from `simulate --duration 604800` (a week,
    # 2,016 bins) then `run`, in PLOT_FILENAMES order. Unlike the presets,
    # M4 drops points here: the polylines keep 1,585 and 1,189 of the 2,015
    # points, and the scatter merges them into 1,857 marks.
    def test_week_svg_digests(self, tmp_path):
        found = _run_digests(tmp_path, "--duration", "604800")
        assert tuple(found[name] for name in PLOT_FILENAMES) == (
            "21632f6ec9b73f9135c0f1d5feca9095e6b572039fe28c537c53f4c519a296ef",
            "b27d3c8e9a48976bd7ec68b12934976c40ea917bbcb3eec6d208c1fbf83f3f4f",
            "65e5160915c9ae8bba5ef4bf91ab017d48ba16f48d1813fe4831be6f238012fa",
            "27460756c7b223928ce4b38c1602699cb5b2e3e4be602e3fdcc62d5626122b03",
            "a4455bd95423731378679e202ff1f7a91d008ff6e02222e3199da720118f9634",
        )


def _run_digests(tmp_path, *simulate_args):
    """sha256 of each output of `simulate ARGS` then `run`, by file name."""
    counts = tmp_path / "counts.csv"
    results = tmp_path / "results"
    assert run_cli("simulate", *simulate_args, "--out", str(counts)) == 0
    assert run_cli("run", str(counts), "--out-dir", str(results)) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in results.iterdir()}


class TestUsage:
    def test_no_arguments(self):
        assert run_cli() == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "simulate" in capsys.readouterr().out

    def test_malformed_counts_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,vehicle_class,count\n0,Bus\n")
        assert run_cli("run", str(bad), "--out-dir", str(tmp_path / "r")) == 2

    def test_empty_counts_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,vehicle_class,count\n")
        assert run_cli("run", str(empty), "--out-dir", str(tmp_path / "r")) == 2

    def test_single_bin_series_is_data_error(self, tmp_path):
        single = tmp_path / "one.csv"
        single.write_text("timestamp,vehicle_class,count\n0,Bus,1\n")
        assert run_cli("run", str(single), "--out-dir", str(tmp_path / "r")) == 2


def _many_bins_counts(path, first_count=5):
    """A counts CSV of 4,500 five-minute bins, more than one block of
    trace.csv; the first bin's one record counts first_count vehicles."""
    rows = [f"{300 * i},Bus,{first_count if i == 0 else 3 + i % 11}" for i in range(4_500)]
    path.write_text("timestamp,vehicle_class,count\n" + "\n".join(rows) + "\n")
    return path


def _leftovers(out_dir):
    """Part and temp files in out_dir."""
    return sorted(p.name for p in out_dir.iterdir() if p.suffix == ".tmp" or ".part" in p.name)


class TestParallelTrace:
    """run and evaluate on more bins than one block, with two CPUs allowed: a forked worker writes the trace."""

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 2)

    def test_outputs_match_one_process(self, tmp_path, monkeypatch):
        counts = _many_bins_counts(tmp_path / "counts.csv")
        assert run_cli("run", str(counts), "--out-dir", str(tmp_path / "two")) == 0
        monkeypatch.setattr(flowcast.io, "_worker_cpus", lambda: 1)
        assert run_cli("run", str(counts), "--out-dir", str(tmp_path / "one")) == 0
        for name in ["report.json", "trace.csv", *PLOT_FILENAMES]:
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_into_a_directory_not_yet_made(self, tmp_path):
        counts = _many_bins_counts(tmp_path / "counts.csv")
        out_dir = tmp_path / "new" / "nested"
        assert run_cli("run", str(counts), "--out-dir", str(out_dir)) == 0
        assert {p.name for p in out_dir.iterdir()} == {"report.json", "trace.csv", *PLOT_FILENAMES}
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 1 + 4_500

    def test_forecast_out_writes_the_same_trace(self, tmp_path, capsys):
        counts = _many_bins_counts(tmp_path / "counts.csv")
        assert run_cli("run", str(counts), "--out-dir", str(tmp_path / "run")) == 0
        assert run_cli("forecast", str(counts), "--out", str(tmp_path / "fc" / "trace.csv")) == 0
        assert (tmp_path / "fc" / "trace.csv").read_bytes() == (tmp_path / "run" / "trace.csv").read_bytes()
        assert _leftovers(tmp_path / "fc") == []

    def test_forecast_out_forks_nothing(self, tmp_path, monkeypatch, capsys):
        # forecast has no other work to overlap with the trace, so this process writes it.
        forks = []
        start = flowcast.io._Workers.start

        def counted(workers, function, *args):
            forks.append(function)
            start(workers, function, *args)

        monkeypatch.setattr(flowcast.io._Workers, "start", counted)
        counts = _many_bins_counts(tmp_path / "counts.csv")
        assert run_cli("forecast", str(counts), "--out", str(tmp_path / "fc" / "trace.csv")) == 0
        assert forks == []
        assert len((tmp_path / "fc" / "trace.csv").read_text().splitlines()) == 1 + 4_500

    def test_zero_first_bin_fails_and_leaves_nothing(self, tmp_path, capsys):
        counts = _many_bins_counts(tmp_path / "counts.csv", first_count=0)
        out_dir = tmp_path / "results"
        assert run_cli("run", str(counts), "--out-dir", str(out_dir)) == 2
        assert "index 0" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_worker_oserror_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys):
        def full(*args):
            raise OSError("no room for the trace")

        monkeypatch.setattr(flowcast.io, "_float_rows", full)
        counts = _many_bins_counts(tmp_path / "counts.csv")
        out_dir = tmp_path / "results"
        assert run_cli("run", str(counts), "--out-dir", str(out_dir)) == 2
        assert "flowcast: error: no room for the trace" in capsys.readouterr().err
        assert {p.name for p in out_dir.iterdir()} == {"report.json", *PLOT_FILENAMES}
        assert multiprocessing.active_children() == []

    def test_worker_dying_silently_is_an_oserror(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        write_part = flowcast.io._write_trace_part

        def die(*args):
            if os.getpid() != parent:
                os._exit(7)
            return write_part(*args)  # the main process writes the blocks the worker left

        monkeypatch.setattr(flowcast.io, "_write_trace_part", die)
        counts = _many_bins_counts(tmp_path / "counts.csv")
        out_dir = tmp_path / "results"
        assert run_cli("run", str(counts), "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert f"flowcast: error: {out_dir / 'trace.csv'}: a worker exited with code 7\n" in err
        assert _leftovers(out_dir) == [] and not (out_dir / "trace.csv").exists()
        assert multiprocessing.active_children() == []

    def test_interrupt_while_scoring_stops_the_workers(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(flowcast.cli, "build_report", interrupted)
        counts = _many_bins_counts(tmp_path / "counts.csv")
        out_dir = tmp_path / "results"
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", str(counts), "--out-dir", str(out_dir))
        assert list(out_dir.iterdir()) == []
        assert multiprocessing.active_children() == []


def test_run_and_evaluate_never_import_numpy_ma(tmp_path):
    # numpy 2's np.unique and np.percentile import numpy.ma (about 16 ms)
    # on their first use in a process; a short survey would pay it on
    # every invocation.
    script = (
        "import sys\n"
        "from flowcast.cli import cli_main\n"
        "for argv in (['simulate', '--preset', 'steady', '--out', 'counts.csv'],\n"
        "             ['convert', 'counts.csv', '--out', 'series.csv'],\n"
        "             ['run', 'counts.csv', '--out-dir', 'run'],\n"
        "             ['evaluate', 'series.csv', '--out-dir', 'evaluate']):\n"
        "    assert cli_main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert (tmp_path / "evaluate" / "report.json").exists()


def test_import_and_a_survey_run_never_import_orjson(tmp_path):
    # Importing orjson takes 5-9 ms, more than writing the floats of a
    # file of one block by repr; only a larger file loads it.
    script = (
        "import sys\n"
        "from flowcast.cli import cli_main\n"
        "print('orjson' in sys.modules)\n"
        "for argv in (['simulate', '--preset', 'paper-like', '--out', 'counts.csv'],\n"
        "             ['run', 'counts.csv', '--out-dir', 'run']):\n"
        "    assert cli_main(argv) == 0, argv\n"
        "print('orjson' in sys.modules)\n"
        "print(len(open('run/trace.csv').readlines()))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nFalse\n37\n"


def test_cli_binds_every_benchmark_layer_name():
    # The benchmark's trace mode swaps these flowcast.cli globals for timing
    # wrappers, so each must stay a name that flowcast.cli calls.
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    layer_calls = next(
        ast.literal_eval(node.value)
        for node in ast.parse(worker.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYER_CALLS"
    )
    assert len(layer_calls) == 8
    for name in layer_calls:
        assert callable(getattr(flowcast.cli, name))
