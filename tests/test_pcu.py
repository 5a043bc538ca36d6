"""Vehicle class parsing, PCU tables and the columnar count store."""

import pytest

from flowcast.errors import NegativeCount, UnknownVehicleClass
from flowcast.pcu import (
    DEFAULT_FACTORS,
    VEHICLE_CLASSES,
    ClassifiedCounts,
    PcuTable,
    VehicleClass,
    parse_vehicle_class,
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










def test_classified_count_rejects_negative():
    with pytest.raises(NegativeCount):
        ClassifiedCounts([0], [VEHICLE_CLASSES.index(VehicleClass.BUS)], [-2])


class TestClassifiedCounts:
    def test_rows_round_trip_in_vehicle_class_order(self):
        rows = [(300, VehicleClass.CYCLE_RICKSHAW, 4), (-5, VehicleClass.BUS, 0), (0, VehicleClass.UTILITY, 2**63 - 1)]
        counts = ClassifiedCounts.from_rows(rows)
        assert list(counts.rows()) == rows
        assert counts.classes.tolist() == [8, 0, 5]
        assert (counts.timestamps.dtype, counts.classes.dtype, counts.counts.dtype) == ("int64", "int8", "int64")
        assert len(counts) == 3

    @pytest.mark.parametrize(
        "columns,message",
        [
            (([0, 1], [0], [1]), "differ in length"),
            (([0], [9], [1]), "class index"),
            (([0], [-1], [1]), "class index"),
            (([0.5], [0], [1]), "integers"),
            (([2**63], [0], [1]), "must lie in"),
            (([0], [0], [2**64]), "integers"),
            (([[0]], [[0]], [[1]]), "one-dimensional"),
        ],
    )
    def test_constructor_checks_columns(self, columns, message):
        with pytest.raises(ValueError, match=message):
            ClassifiedCounts(*columns)

    def test_negative_count_names_its_row(self):
        with pytest.raises(NegativeCount, match="got -3 at row 1"):
            ClassifiedCounts([0, 0, 0], [0, 0, 0], [1, -3, -4])


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

