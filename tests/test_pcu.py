"""Vehicle class parsing and PCU conversion."""

import pytest
from hypothesis import given, strategies as st

from flowcast.errors import NegativeCount, UnknownVehicleClass
from flowcast.pcu import (
    DEFAULT_FACTORS,
    ClassifiedCount,
    PcuTable,
    VehicleClass,
    parse_vehicle_class,
    to_pcu,
)

TABLE = PcuTable.default()

EXPECTED_FACTORS = {
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


def test_default_factors_match_guideline():
    assert dict(DEFAULT_FACTORS) == EXPECTED_FACTORS
    for cls, expected in EXPECTED_FACTORS.items():
        assert TABLE.factor(cls) == expected


def test_exactly_nine_classes():
    assert len(VehicleClass) == 9
    assert set(EXPECTED_FACTORS) == set(VehicleClass)


def test_to_pcu_empty_mapping_is_zero():
    assert to_pcu(TABLE, {}) == 0.0


def test_to_pcu_single_bus():
    assert to_pcu(TABLE, {VehicleClass.BUS: 1}) == 3.0


def test_to_pcu_composite_hand_value():
    counts = {
        VehicleClass.BUS: 2,
        VehicleClass.PRIVATE_CAR: 5,
        VehicleClass.CYCLE_RICKSHAW: 10,
        VehicleClass.MOTORCYCLE: 4,
    }
    # 2*3 + 5*1 + 10*2 + 4*0.75
    assert to_pcu(TABLE, counts) == 34.0


def test_to_pcu_rejects_negative_count():
    with pytest.raises(NegativeCount):
        to_pcu(TABLE, {VehicleClass.BUS: -1})


def test_classified_count_rejects_negative():
    with pytest.raises(NegativeCount):
        ClassifiedCount(0, VehicleClass.BUS, -2)


@pytest.mark.parametrize(
    "label,expected",
    [
        ("Bus", VehicleClass.BUS),
        ("cycle rickshaw", VehicleClass.CYCLE_RICKSHAW),
        ("CYCLE_RICKSHAW", VehicleClass.CYCLE_RICKSHAW),
        ("Cycle-Rickshaw", VehicleClass.CYCLE_RICKSHAW),
        ("car", VehicleClass.PRIVATE_CAR),
        ("rickshaw", VehicleClass.CYCLE_RICKSHAW),
        ("CNG", VehicleClass.CNG),
        ("  truck  ", VehicleClass.TRUCK),
    ],
)
def test_parse_vehicle_class(label, expected):
    assert parse_vehicle_class(label) is expected


def test_parse_unknown_label():
    with pytest.raises(UnknownVehicleClass) as excinfo:
        parse_vehicle_class("hovercraft")
    assert excinfo.value.label == "hovercraft"


def test_parse_round_trips_canonical_labels():
    for cls in VehicleClass:
        assert parse_vehicle_class(cls.label) is cls


def test_table_requires_all_classes():
    partial = {VehicleClass.BUS: 3.0}
    with pytest.raises(ValueError):
        PcuTable(partial)


def test_table_rejects_nonpositive_factor():
    bad = dict(DEFAULT_FACTORS)
    bad[VehicleClass.BICYCLE] = 0.0
    with pytest.raises(ValueError):
        PcuTable(bad)


counts_mappings = st.dictionaries(
    st.sampled_from(list(VehicleClass)),
    st.integers(min_value=0, max_value=10**6),
    max_size=9,
)


@given(counts_mappings, counts_mappings)
def test_to_pcu_linearity(a, b):
    merged = {cls: a.get(cls, 0) + b.get(cls, 0) for cls in set(a) | set(b)}
    # Quarter-integer factors make the float sums exact, so equality is exact.
    assert to_pcu(TABLE, a) + to_pcu(TABLE, b) == to_pcu(TABLE, merged)


@given(counts_mappings, st.sampled_from(list(VehicleClass)), st.integers(min_value=1, max_value=100))
def test_to_pcu_monotone_in_counts(counts, cls, extra):
    bumped = dict(counts)
    bumped[cls] = bumped.get(cls, 0) + extra
    assert to_pcu(TABLE, bumped) >= to_pcu(TABLE, counts)


def test_to_pcu_all_zero_counts():
    assert to_pcu(TABLE, {cls: 0 for cls in VehicleClass}) == 0.0
