"""CLI subcommands, exit codes, config precedence, round-trips."""

import json
import math

import pytest

from flowcast.cli import cli_main
from flowcast.io import read_counts_csv, read_series_csv
from flowcast.pcu import PcuTable, to_pcu
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
        assert {r.timestamp for r in records} == {0, 300, 600}

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
        total = sum(to_pcu(table, {r.vehicle_class: r.count}) for r in read_counts_csv(counts_csv))
        assert math.isclose(sum(series.values), total, rel_tol=1e-9)

    def test_custom_bin_duration(self, tmp_path, counts_csv):
        out = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--bin-duration", "600", "--out", str(out)) == 0
        assert read_series_csv(out).bin_duration == 600

    def test_start_time_excluding_records_is_data_error(self, tmp_path, counts_csv):
        assert run_cli("convert", str(counts_csv), "--start-time", "999999") == 2

    def test_bad_start_time_is_usage_error(self, counts_csv):
        assert run_cli("convert", str(counts_csv), "--start-time", "whenever") == 1


class TestForecast:
    def test_horizon_rows_on_stdout(self, tmp_path, counts_csv, capsys):
        trace_path = tmp_path / "trace.csv"
        assert run_cli("forecast", str(counts_csv), "--horizon", "3", "--out", str(trace_path)) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0] == "step,pcu"
        assert len(out_lines) == 4
        assert trace_path.exists()

    def test_accepts_series_csv_too(self, tmp_path, counts_csv, capsys):
        series_path = tmp_path / "series.csv"
        assert run_cli("convert", str(counts_csv), "--out", str(series_path)) == 0
        capsys.readouterr()
        assert run_cli("forecast", str(series_path), "--horizon", "2") == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_zero_horizon_is_usage_error(self, counts_csv):
        assert run_cli("forecast", str(counts_csv), "--horizon", "0") == 1


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

    def test_both_noises_zero_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--q", "0", "--r", "0", "--out-dir", str(tmp_path / "r")) == 1


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

    def test_missing_config_file_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--config", str(tmp_path / "nope.conf"),
                       "--out-dir", str(tmp_path / "r")) == 1


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
