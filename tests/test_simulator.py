"""Scenario simulation: propagation math, determinism, label semantics."""

import dataclasses
import math

import numpy as np
import pytest

from rssi_occupancy.dataset import serialize_dataset
from rssi_occupancy.simulator import (
    BodyEffectParams,
    PathLossParams,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    mean_rssi,
    simulate,
)


def quiet_body():
    return BodyEffectParams(0.0, 0.0, 0.0)


def make_config(**overrides):
    defaults = dict(
        transmitters=(("M1", 100), ("M2", 250)),
        sampling_hz=45.0,
        duration_s=10.0,
        schedule=(),
        path_loss=PathLossParams(-45.0, 100.0, 2.0, 0.0),
        body_effect=quiet_body(),
        seed=0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestMeanRssi:
    def test_reference_distance_exact(self):
        pl = PathLossParams(-40.0, 100.0, 2.7, 0.0)
        assert mean_rssi(100.0, pl) == -40.0

    def test_one_decade_loses_20db_at_exponent_2(self):
        pl = PathLossParams(-40.0, 50.0, 2.0, 0.0)
        assert mean_rssi(500.0, pl) == pytest.approx(-60.0, abs=1e-12)

    def test_hand_evaluated_example(self):
        pl = PathLossParams(-45.0, 100.0, 2.2, 0.0)
        expected = -45.0 - 22.0 * math.log10(5.0)
        assert mean_rssi(500.0, pl) == pytest.approx(expected, rel=1e-15)
        assert round(mean_rssi(500.0, pl), 2) == -60.38

    def test_non_positive_distance_rejected(self):
        pl = PathLossParams(-45.0, 100.0, 2.0, 0.0)
        with pytest.raises(ScenarioError):
            mean_rssi(0.0, pl)
        with pytest.raises(ScenarioError):
            mean_rssi(-5.0, pl)


class TestSimulate:
    def test_noiseless_empty_room_is_constant(self):
        config = make_config()
        dataset = simulate(config)
        for i, (_, distance) in enumerate(config.transmitters):
            expected = int(np.rint(mean_rssi(distance, config.path_loss)))
            assert np.all(dataset.rssi[:, i] == expected)
        assert not dataset.occupancy.any() and not dataset.counts.any()

    def test_constant_schedule_labels(self):
        dataset = simulate(make_config(schedule=((0.0, 3),)))
        assert dataset.occupancy.all() and np.all(dataset.counts == 3)

    def test_record_count_is_floor_of_duration_times_rate(self):
        assert len(simulate(make_config(duration_s=60.0))) == 2700
        assert len(simulate(make_config(duration_s=10.02))) == 450

    def test_identical_seed_renders_byte_identical_csv(self):
        config = make_config(
            schedule=((0.0, 1), (5.0, 2)),
            path_loss=PathLossParams(-45.0, 100.0, 2.0, 1.5),
            body_effect=BodyEffectParams(4.0, 0.5, 1.0),
            seed=42,
        )
        assert serialize_dataset(simulate(config)) == serialize_dataset(simulate(config))

    def test_different_seed_changes_noise(self):
        noisy = dict(path_loss=PathLossParams(-45.0, 100.0, 2.0, 2.0))
        a = simulate(make_config(seed=1, **noisy))
        b = simulate(make_config(seed=2, **noisy))
        assert a != b

    def test_output_satisfies_dataset_invariants(self):
        config = make_config(
            schedule=((0.0, 2), (4.0, 0), (7.5, 5)),
            path_loss=PathLossParams(-50.0, 100.0, 2.5, 3.0),
            body_effect=BodyEffectParams(6.0, 2.0, 2.0),
            seed=11,
        )
        dataset = simulate(config)
        # replace() constructs a new RssiDataset, which re-runs every invariant check
        assert dataclasses.replace(dataset) == dataset

    def test_monotone_attenuation_in_count(self):
        # noise and motion off: mean RSSI must be non-increasing in count
        means = []
        for count in range(4):
            config = make_config(
                schedule=((0.0, count),) if count else (),
                body_effect=BodyEffectParams(6.0, 0.0, 0.0),
            )
            means.append(simulate(config).rssi.mean(axis=0))
        for lower, higher in zip(means[1:], means[:-1]):
            assert np.all(lower <= higher)

    def test_samples_clamped_to_dbm_range(self):
        config = make_config(
            transmitters=(("FAR", 60000),),
            path_loss=PathLossParams(-80.0, 100.0, 3.5, 10.0),
            seed=3,
        )
        matrix = simulate(config).rssi
        assert matrix.min() >= -127
        assert matrix.max() <= 0


class TestScenarioValidation:
    def test_event_outside_duration_rejected(self):
        with pytest.raises(ScenarioError, match="outside"):
            make_config(schedule=((10.0, 1),))

    def test_negative_count_rejected(self):
        with pytest.raises(ScenarioError, match=">= 0"):
            make_config(schedule=((0.0, -1),))

    def test_unordered_events_rejected(self):
        with pytest.raises(ScenarioError, match="time-ordered"):
            make_config(schedule=((5.0, 1), (2.0, 2)))

    def test_unsupported_rate_rejected(self):
        with pytest.raises(ScenarioError, match="sampling_hz"):
            make_config(sampling_hz=33.0)

    def test_duplicate_transmitter_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            make_config(transmitters=(("M1", 100), ("M1", 250)))


class TestScenarioFile:
    TEXT = """\
# demo scenario
sampling_hz = 45
duration_s = 60
seed = 7
pl0_dbm = -45
d0_cm = 100
exponent = 2.0
shadow_sigma_db = 1.0
atten_db_per_person = 6.0
transmitter = AA:01 100
transmitter = AA:02 250
event = 0 0
event = 30 2
"""

    def test_parse_round(self):
        config = load_scenario(self.TEXT)
        assert config.sampling_hz == 45.0
        assert config.transmitters == (("AA:01", 100), ("AA:02", 250))
        assert config.schedule == ((0.0, 0), (30.0, 2))
        assert config.seed == 7
        assert config.body_effect.atten_db_per_person == 6.0
        dataset = simulate(config)
        assert len(dataset) == 2700

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown key"):
            load_scenario("sampling_hz = 45\nbogus = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing 'duration_s'"):
            load_scenario("sampling_hz = 45\ntransmitter = M1 100\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1.*bad value"):
            load_scenario("sampling_hz = forty\nduration_s = 10\ntransmitter = M1 100\n")
