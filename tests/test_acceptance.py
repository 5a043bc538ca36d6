"""Acceptance suite: the release gate, one test per criterion.

Each criterion prints a PASS/FAIL line (visible with `pytest -s` or in
captured output) and enforces its tolerance and time budget. Expected
values come from the independent oracles in oracles.py, never from the
code under test.
"""

import contextlib
import json
import math
import random
import time

import pytest

from flowcast.cli import cli_main
from flowcast.errors import FlowcastError
from flowcast.kalman import FilterParams, filter_series
from flowcast.metrics import (
    MapeBand,
    RmspeBand,
    descriptive,
    mape_band,
    pearson,
    percent_scores,
    rmspe_band,
)
from flowcast.pcu import DEFAULT_FACTORS, ClassifiedCounts, PcuTable, VehicleClass
from flowcast.io import read_counts_csv
from flowcast.plots import PLOT_FILENAMES
from flowcast.series import FlowSeries, aggregate

import oracles

TABLE = PcuTable.default()


@contextlib.contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({name}): FAIL")
        raise
    print(f"criterion {number:02d} ({name}): PASS [{(time.perf_counter() - started) * 1e3:.1f} ms]")


def test_criterion_01_band_reproduction():
    with criterion(1, "quality band reproduction"):
        started = time.perf_counter()
        mape_result = mape_band(14.62)
        rmspe_result = rmspe_band(18.73)
        elapsed = time.perf_counter() - started
        assert mape_result is MapeBand.GOOD
        assert rmspe_result is RmspeBand.ACCEPTABLE
        assert elapsed < 0.001


def test_criterion_02_correlation_consistency():
    with criterion(2, "r_squared consistent with pearson 0.937"):
        a, b = oracles.correlated_pair(0.937)
        assert pearson(a, b) == pytest.approx(0.937, abs=1e-12)
        started = time.perf_counter()
        r = pearson(a, b)
        value = r * r  # as build_report squares it
        elapsed = time.perf_counter() - started
        assert abs(value - 0.878) <= 0.001
        assert elapsed < 0.001


def bin_pcu(counts):
    """The PCU that aggregate gives one bin holding these per-class counts."""
    rows = [(0, vehicle_class, count) for vehicle_class, count in counts.items()]
    # aggregate needs a record; a zero count adds nothing.
    series = aggregate(ClassifiedCounts.from_rows(rows or [(0, VehicleClass.BUS, 0)]), TABLE)
    assert len(series) == 1
    return series.values[0]


def test_criterion_03_pcu_golden_suite():
    with criterion(3, "PCU factors and linearity"):
        started = time.perf_counter()
        expected = {
            VehicleClass.BUS: 3.0,
            VehicleClass.TRUCK: 3.0,
            VehicleClass.CNG: 0.75,
            VehicleClass.PRIVATE_CAR: 1.0,
            VehicleClass.COMMERCIAL_VEHICLE: 1.0,
            VehicleClass.UTILITY: 1.0,
            VehicleClass.MOTORCYCLE: 0.75,
            VehicleClass.BICYCLE: 0.5,
            VehicleClass.CYCLE_RICKSHAW: 2.0,
        }
        assert dict(DEFAULT_FACTORS) == expected
        assert bin_pcu({}) == 0.0
        assert bin_pcu({VehicleClass.BUS: 1}) == 3.0
        assert bin_pcu(
            {
                VehicleClass.BUS: 2,
                VehicleClass.PRIVATE_CAR: 5,
                VehicleClass.CYCLE_RICKSHAW: 10,
                VehicleClass.MOTORCYCLE: 4,
            },
        ) == 34.0

        rng = random.Random(1003)
        classes = list(VehicleClass)
        for _ in range(1000):
            a = {cls: rng.randint(0, 10**6) for cls in rng.sample(classes, rng.randint(0, 9))}
            b = {cls: rng.randint(0, 10**6) for cls in rng.sample(classes, rng.randint(0, 9))}
            merged = {cls: a.get(cls, 0) + b.get(cls, 0) for cls in set(a) | set(b)}
            assert bin_pcu(a) + bin_pcu(b) == bin_pcu(merged)
        assert time.perf_counter() - started < 1.0


def test_criterion_04_filter_matches_running_mean_oracle():
    with criterion(4, "diffuse filter equals running means"):
        started = time.perf_counter()
        rng = random.Random(1004)
        for _ in range(200):
            n = rng.randint(2, 32)
            values = [rng.uniform(1.0, 1000.0) for _ in range(n)]
            params = FilterParams(process_var=0.0, measurement_var=rng.uniform(0.05, 100.0))
            trace = filter_series(FlowSeries(0, 300, tuple(values)), params, p0=1e12)
            expected = oracles.running_means(values)
            for estimate, want in zip(trace.estimates, expected):
                assert abs(estimate - want) <= 1e-6 * abs(want)
        assert time.perf_counter() - started < 1.0


def test_criterion_05_filter_invariants_hold():
    with criterion(5, "filter step invariants over 1000 runs"):
        started = time.perf_counter()
        rng = random.Random(1005)
        for _ in range(1000):
            n = rng.randint(2, 64)
            values = [rng.uniform(0.0, 2000.0) for _ in range(n)]
            params = FilterParams(
                process_var=rng.uniform(1e-6, 500.0),
                measurement_var=rng.uniform(1e-6, 500.0),
            )
            p0 = rng.uniform(0.0, 1e7)
            trace = filter_series(FlowSeries(0, 300, tuple(values)), params, p0=p0)
            previous_estimate, previous_variance = trace.initial_estimate, trace.initial_variance
            columns = zip(trace.forecasts, trace.estimates, trace.variances, trace.gains, trace.innovations)
            for forecast, estimate, variance, gain, innovation in columns:
                # The prior, derived as the filter derives it.
                prior_estimate = params.transition * previous_estimate
                prior_variance = params.transition * params.transition * previous_variance + params.process_var
                scale = max(1.0, abs(prior_estimate), abs(estimate))
                identity_gap = (estimate - prior_estimate) - gain * innovation
                assert abs(identity_gap) <= 1e-12 * scale
                assert 0.0 <= gain <= 1.0
                assert 0.0 <= variance <= prior_variance
                measurement = forecast + innovation
                lo = min(prior_estimate, measurement) - 1e-12 * scale
                hi = max(prior_estimate, measurement) + 1e-12 * scale
                assert lo <= estimate <= hi
                previous_estimate, previous_variance = estimate, variance

            # Causality: rewriting the tail never changes earlier forecasts.
            if n >= 3:
                split = rng.randint(1, n - 2)
                altered = values[: split + 1] + [rng.uniform(0.0, 5000.0) for _ in range(n - split - 1)]
                altered_trace = filter_series(FlowSeries(0, 300, tuple(altered)), params, p0=p0)
                assert trace.forecasts[:split].tolist() == altered_trace.forecasts[:split].tolist()
        assert time.perf_counter() - started < 5.0


def test_criterion_06_metric_identities():
    with criterion(6, "MAPE/RMSPE against direct-formula oracles"):
        started = time.perf_counter()
        rng = random.Random(1006)
        for sample in range(1000):
            n = rng.randint(1, 64)
            forecast = [rng.uniform(0.5, 1000.0) for _ in range(n)]
            observed = [rng.uniform(0.5, 1000.0) for _ in range(n)]
            got_mape, got_rmspe = percent_scores(forecast, observed)
            want_mape = oracles.mape(forecast, observed)
            want_rmspe = oracles.rmspe(forecast, observed)
            assert abs(got_mape - want_mape) <= 1e-12 * max(1.0, want_mape)
            assert abs(got_rmspe - want_rmspe) <= 1e-12 * max(1.0, want_rmspe)
            assert got_rmspe >= got_mape - 1e-12 * max(1.0, got_mape)
            if sample % 10 == 0:  # 100 scale-invariance probes
                factor = rng.uniform(1e-3, 1e3)
                scaled = percent_scores([factor * v for v in forecast], [factor * v for v in observed])[0]
                assert abs(scaled - got_mape) <= 1e-12 * max(1.0, got_mape)
        assert time.perf_counter() - started < 2.0


def _run_pipeline(tmp_path, out_name):
    counts = tmp_path / "counts.csv"
    out_dir = tmp_path / out_name
    assert cli_main(["simulate", "--preset", "paper-like", "--out", str(counts)]) == 0
    assert cli_main(["run", str(counts), "--out-dir", str(out_dir)]) == 0
    return counts, out_dir


def test_criterion_07_end_to_end_synthetic_band(tmp_path):
    with criterion(7, "paper-like pipeline lands in band"):
        started = time.perf_counter()
        counts, out_dir = _run_pipeline(tmp_path, "results")
        elapsed = time.perf_counter() - started
        report = json.loads((out_dir / "report.json").read_text())
        assert 0.0 <= report["mape_percent"] < 20.0
        assert report["mape_band"] in ("high_accuracy", "good")
        assert report["r_squared"] > 0.7
        assert report["trend_slope"] > 0.0
        assert elapsed < 1.0


def test_criterion_08_end_to_end_determinism(tmp_path):
    with criterion(8, "byte-identical outputs across runs"):
        counts_a, dir_a = _run_pipeline(tmp_path / "a", "results")
        counts_b, dir_b = _run_pipeline(tmp_path / "b", "results")
        assert counts_a.read_bytes() == counts_b.read_bytes()
        for name in ["report.json", "trace.csv", *PLOT_FILENAMES]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_criterion_09_descriptive_stats_oracle():
    with criterion(9, "descriptive stats equal brute force"):
        rng = random.Random(1009)
        for _ in range(500):
            n = rng.randint(1, 100)
            values = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
            got = descriptive(values)
            want = oracles.descriptive_stats(values)
            for field, expected in want.items():
                actual = getattr(got, field)
                assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), field


def _fuzz_corpus(rng):
    valid = "timestamp,vehicle_class,count\n0,Bus,2\n300,rickshaw,5\n600,car,1\n"
    corpus = [
        b"",
        b"\x00\x01\x02",
        valid.encode(),
        valid.replace(",", ";").encode(),
        valid.encode()[:-7],
        b"timestamp,vehicle_class,count\n" + b"0,Bus,2\n" * 50_000,
        ("timestamp,vehicle_class,count\n" + "9" * 40 + ",Bus,1\n").encode(),
        "timestamp,vehicle_class,count\n0,Bus,99999999999999999999\n".encode(),
        b"timestamp,vehicle_class,count\n0,Bus,2\x00\n",
    ]
    for _ in range(120):
        kind = rng.randrange(3)
        if kind == 0:
            corpus.append(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 400))))
        elif kind == 1:
            lines = ["timestamp,vehicle_class,count"]
            for _ in range(rng.randrange(0, 8)):
                fields = [
                    rng.choice(["0", "300", "-5", "1e3", "noon", "", '"q"']),
                    rng.choice(["Bus", "car", "plane", "", "bus bus", "CYCLE_RICKSHAW"]),
                    rng.choice(["1", "-1", "2.5", "many", ""]),
                ]
                lines.append(",".join(fields[: rng.randrange(1, 4)]))
            corpus.append(("\n".join(lines) + "\n").encode())
        else:
            mutated = bytearray(valid.encode())
            for _ in range(rng.randrange(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            corpus.append(bytes(mutated))
    corpus.append(bytes(rng.randrange(256) for _ in range(1_000_000)))
    return corpus


def test_criterion_10_csv_robustness_and_fuzz(tmp_path):
    with criterion(10, "malformed input errors cleanly"):
        started = time.perf_counter()
        out_dir = str(tmp_path / "out")

        known_bad = {
            "malformed.csv": "timestamp,vehicle_class,count\n0,Bus\n",
            "unknown.csv": "timestamp,vehicle_class,count\n0,hovercraft,1\n",
            "empty.csv": "",
        }
        for name, text in known_bad.items():
            path = tmp_path / name
            path.write_text(text)
            assert cli_main(["run", str(path), "--out-dir", out_dir]) == 2
        assert cli_main(["run", str(tmp_path / "missing.csv"), "--out-dir", out_dir]) == 2

        rng = random.Random(1010)
        for index, blob in enumerate(_fuzz_corpus(rng)):
            path = tmp_path / f"fuzz_{index}.csv"
            path.write_bytes(blob)
            try:
                read_counts_csv(path)
            except (FlowcastError, OSError):
                pass
            exit_code = cli_main(["run", str(path), "--out-dir", out_dir])
            assert exit_code in (0, 1, 2)
        assert time.perf_counter() - started < 60.0
