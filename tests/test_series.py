"""Aggregation into fixed bins."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowcast.errors import EmptyInput, RecordBeforeStart
from flowcast.io import counts_csv_text
from flowcast.pcu import ClassifiedCounts, PcuTable, VehicleClass
from flowcast.series import FlowSeries, aggregate

import oracles

TABLE = PcuTable.default()


def counts(*rows):
    return ClassifiedCounts.from_rows(rows)


def test_single_record_single_bin():
    series = aggregate(counts((0, VehicleClass.BUS, 1)), TABLE, 300)
    assert series.values.tolist() == [3.0]
    assert series.start_time == 0
    assert series.bin_duration == 300


def test_two_records_same_half_open_bin():
    records = counts(
        (0, VehicleClass.PRIVATE_CAR, 2),
        (299, VehicleClass.BICYCLE, 2),
    )
    assert aggregate(records, TABLE, 300).values.tolist() == [3.0]


def test_boundary_timestamp_opens_next_bin():
    records = counts(
        (0, VehicleClass.BUS, 1),
        (300, VehicleClass.BUS, 1),
    )
    assert aggregate(records, TABLE, 300).values.tolist() == [3.0, 3.0]


def test_start_time_truncates_down_to_bin_boundary():
    series = aggregate(counts((750, VehicleClass.BUS, 1)), TABLE, 300)
    assert series.start_time == 600


def test_interior_bins_zero_filled():
    records = counts(
        (0, VehicleClass.BUS, 1),
        (950, VehicleClass.BUS, 2),
    )
    assert aggregate(records, TABLE, 300).values.tolist() == [3.0, 0.0, 0.0, 6.0]


def test_explicit_start_time_excluding_record_fails():
    records = counts((100, VehicleClass.BUS, 1))
    with pytest.raises(RecordBeforeStart) as excinfo:
        aggregate(records, TABLE, 300, start_time=300)
    assert excinfo.value.timestamp == 100


def test_empty_records_rejected():
    with pytest.raises(EmptyInput):
        aggregate(counts(), TABLE, 300)


def test_bad_bin_duration_rejected():
    with pytest.raises(ValueError):
        aggregate(counts((0, VehicleClass.BUS, 1)), TABLE, 0)
    with pytest.raises(ValueError):
        FlowSeries(0, 0, (1.0,))


class TestValues:
    def test_read_only_float64_copy_of_a_sequence_or_array(self):
        source = np.array([1.0, 2.5, 4.0])
        for given_values in ([1, 2.5, 4], (1.0, 2.5, 4.0), source):
            series = FlowSeries(0, 300, given_values)
            assert (type(series.values), series.values.dtype) == (np.ndarray, np.float64)
            assert series.values.tolist() == [1.0, 2.5, 4.0]
            with pytest.raises(ValueError):
                series.values[0] = 9.0
        source[0] = 9.0  # the caller's writable array is copied, not shared
        assert series.values[0] == 1.0

    def test_read_only_float64_array_is_kept(self):
        values = np.array([1.0, 2.0])
        values.flags.writeable = False
        assert FlowSeries(0, 300, values).values is values

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            FlowSeries(0, 300, [[1.0, 2.0]])

    def test_equality_compares_values_and_hash_is_gone(self):
        series = FlowSeries(0, 300, [1.0, 2.0])
        assert series == FlowSeries(0, 300, np.array([1.0, 2.0]))
        assert series != FlowSeries(0, 300, [1.0, 3.0])
        assert series != FlowSeries(300, 300, [1.0, 2.0])
        assert series != FlowSeries(0, 300, [1.0])
        with pytest.raises(TypeError):
            hash(series)


record_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20_000),
        st.sampled_from(list(VehicleClass)),
        st.integers(min_value=0, max_value=500),
    ),
    min_size=1,
    max_size=60,
).map(ClassifiedCounts.from_rows)


@given(record_lists)
def test_aggregation_conserves_total_pcu(records):
    series = aggregate(records, TABLE, 300)
    total = 0.0
    for _, vehicle_class, count in records.rows():
        total += count * TABLE.factor(vehicle_class)
    assert math.isclose(sum(series.values), total, rel_tol=1e-9, abs_tol=1e-9)


@given(record_lists, st.integers(min_value=0, max_value=2**32))
def test_aggregation_order_independent(records, seed):
    shuffled = list(records.rows())
    random.Random(seed).shuffle(shuffled)
    assert aggregate(records, TABLE, 300) == aggregate(ClassifiedCounts.from_rows(shuffled), TABLE, 300)


@given(record_lists.filter(lambda rs: rs.timestamps.max() < 19_800))
def test_pairwise_summed_bins_match_double_bin(records):
    fine = aggregate(records, TABLE, 300, start_time=0)
    coarse = aggregate(records, TABLE, 600, start_time=0)
    padded = list(fine.values) + [0.0] * (2 * len(coarse.values) - len(fine.values))
    for i, coarse_value in enumerate(coarse.values):
        assert math.isclose(padded[2 * i] + padded[2 * i + 1], coarse_value, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize(
    "stamps,bin_duration,start_time,expected",
    [
        # A bin wider than the span holds every record.
        ([0, 2**63 - 2], 2**70, None, (6.0,)),
        # Offsets from the start overflow int64.
        ([0, 2**63 - 1], 2**62, None, (3.0, 3.0)),
        ([-(2**63), 2**63 - 1], 2**64, None, (3.0, 3.0)),
        ([0], 2**70, -(2**70), (0.0, 3.0)),
        ([-(2**63), -(2**63) + 10], 7, None, (3.0, 0.0, 3.0)),
    ],
)
def test_extreme_timestamps_and_bins(stamps, bin_duration, start_time, expected):
    records = counts(*[(stamp, VehicleClass.BUS, 1) for stamp in stamps])
    series = aggregate(records, TABLE, bin_duration, start_time)
    assert tuple(series.values.tolist()) == expected
    factors = {c.label: TABLE.factor(c) for c in VehicleClass}
    assert (series.start_time, series.values.tolist()) == oracles.aggregate_counts(
        counts_csv_text(records), factors, bin_duration, start_time
    )

