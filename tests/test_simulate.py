"""Synthetic count generation: determinism, apportionment, presets."""

import pytest

from flowcast.errors import InvalidScenario, UnknownPreset
from flowcast.pcu import PcuTable, VehicleClass
from flowcast.series import aggregate
from flowcast.simulate import DEFAULT_CLASS_MIX, Scenario, generate, preset, presets

TABLE = PcuTable.default()


def bin_pcu_totals(records, bin_duration=300):
    return aggregate(records, TABLE, bin_duration).values


def test_identical_scenarios_generate_identical_output():
    scenario = Scenario(seed=7)
    assert list(generate(scenario).rows()) == list(generate(Scenario(seed=7)).rows())


def test_different_seeds_differ():
    assert list(generate(Scenario(seed=1)).rows()) != list(generate(Scenario(seed=2)).rows())


def test_default_scenario_covers_36_bins():
    records = generate(Scenario(seed=3))
    assert Scenario(seed=3).bin_count == 36
    assert len(set(records.timestamps.tolist())) == 36
    assert bin_pcu_totals(records) and len(bin_pcu_totals(records)) == 36


def test_counts_are_valid_records():
    for timestamp, vehicle_class, count in generate(Scenario(seed=5)).rows():
        assert isinstance(vehicle_class, VehicleClass)
        assert isinstance(count, int)
        assert count >= 0
        assert timestamp % 300 == 0


def test_noise_free_flat_scenario_stays_within_apportionment_bound():
    scenario = Scenario(trend=0.0, noise_cv=0.0, seed=9)
    # Largest factor among classes actually present in the mix bounds the
    # residual a single largest-remainder pass can leave behind.
    bound = max(TABLE.factor(c) for c, p in scenario.class_mix.items() if p > 0)
    for total in bin_pcu_totals(generate(scenario)):
        assert abs(total - scenario.base_flow) < bound


def test_realized_class_mix_tracks_requested_mix():
    scenario = Scenario(trend=0.0, noise_cv=0.0, seed=1)
    records = generate(scenario)
    pcu_by_class = {}
    for _, vehicle_class, count in records.rows():
        pcu_by_class[vehicle_class] = pcu_by_class.get(vehicle_class, 0.0) + count * TABLE.factor(vehicle_class)
    total = sum(pcu_by_class.values())
    for cls, proportion in scenario.class_mix.items():
        assert pcu_by_class[cls] / total == pytest.approx(proportion, abs=0.02)


def test_default_mix_sums_to_one():
    assert abs(sum(DEFAULT_CLASS_MIX.values()) - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("base_flow", {"base_flow": 0.0}),
        ("base_flow", {"base_flow": -10.0}),
        ("noise_cv", {"noise_cv": -0.1}),
        ("bin_duration", {"bin_duration": 0}),
        ("duration", {"duration": 100, "bin_duration": 300}),
        ("class_mix", {"class_mix": {VehicleClass.BUS: 0.5}}),
        ("class_mix", {"class_mix": {VehicleClass.BUS: -0.2, VehicleClass.TRUCK: 1.2}}),
    ],
)
def test_invalid_scenarios_name_the_field(field, kwargs):
    with pytest.raises(InvalidScenario) as excinfo:
        Scenario(**kwargs)
    assert excinfo.value.field == field


def test_presets_cover_the_three_shapes():
    named = presets()
    assert named["paper-like"].trend > 0
    assert named["steady"].trend == 0.0
    assert named["volatile"].noise_cv == 0.35


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("rush-hour")


def test_preset_lookup_matches_presets():
    assert preset("steady") == presets()["steady"]
