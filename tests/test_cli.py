"""CLI subcommands, exit codes, config precedence, round-trips."""

import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

import flowcast.cli
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

    def test_missing_config_file_is_usage_error(self, tmp_path, counts_csv):
        assert run_cli("run", str(counts_csv), "--config", str(tmp_path / "nope.conf"),
                       "--out-dir", str(tmp_path / "r")) == 1


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
        assert _preset_digests(tmp_path, preset)["trace.csv"] == digest

    # sha256 of report.json from the same runs, which pins its key order,
    # indentation and float formatting as well as its values.
    @pytest.mark.parametrize("preset, digest", [
        ("paper-like", "817505f51f3c6e8aab92e9a1c51974eab422d564f4b188af73d53908e67f931e"),
        ("steady", "77b3834fb9fd62fb81c285b281d06be5b0989fd83ac24f18df83431e1ec31f96"),
        ("volatile", "c955550f8a565dc9cfef7a0f488d228e8d37e1fbb7116ceb4e75d5783a114866"),
    ])
    def test_report_json_digest(self, tmp_path, preset, digest):
        assert _preset_digests(tmp_path, preset)["report.json"] == digest

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
        found = _preset_digests(tmp_path, preset)
        assert tuple(found[name] for name in PLOT_FILENAMES) == digests


def _preset_digests(tmp_path, preset):
    """sha256 of each output of `simulate --preset P` then `run`, by file name."""
    counts = tmp_path / "counts.csv"
    results = tmp_path / "results"
    assert run_cli("simulate", "--preset", preset, "--out", str(counts)) == 0
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
