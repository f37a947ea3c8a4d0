"""Scenario simulation: propagation math, determinism, label semantics."""

import dataclasses
import math

import numpy as np
import pytest

from rssi_occupancy import simulator as simulator_module
from rssi_occupancy.dataset import serialize_dataset
from rssi_occupancy.simulator import (
    _SCALAR_KEYS,
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


def reference_signals(config):
    """The times, the counts and each transmitter's float signal, with every sway on every row.

    The sway of an absent person is multiplied by 0; ``simulate`` skips it.
    """
    n_records = int(math.floor(config.duration_s * config.sampling_hz))
    t = np.arange(n_records, dtype=np.float64) / config.sampling_hz
    counts = simulator_module._counts_over_time(config, t)
    body = config.body_effect
    sigma = config.path_loss.shadow_sigma_db + body.extra_sigma_db_per_person * counts
    max_count = max((count for _, count in config.schedule), default=0)
    children = np.random.SeedSequence(config.seed).spawn(2 * len(config.transmitters))
    signals = []
    for i, (_, distance_cm) in enumerate(config.transmitters):
        noise_rng = np.random.default_rng(children[2 * i])
        motion_rng = np.random.default_rng(children[2 * i + 1])
        base = mean_rssi(distance_cm, config.path_loss)
        signal = base - body.atten_db_per_person * counts
        signal = signal + noise_rng.standard_normal(n_records) * sigma
        for person in range(1, max_count + 1):
            freq = motion_rng.uniform(0.5, 3.0)
            phase = motion_rng.uniform(0.0, 2.0 * math.pi)
            active = counts >= person
            signal = signal + body.motion_amp_db * np.sin(2.0 * math.pi * freq * t + phase) * active
        signals.append(signal)
    return t, counts, signals


class TestSwayOnlyWherePresent:
    SCHEDULES = {
        "no_one": (),
        "one": ((0.0, 0), (3.0, 1)),
        "three": ((0.0, 1), (2.0, 3), (5.0, 2), (7.5, 0)),
        "five": ((1.0, 5), (4.0, 2), (6.0, 5)),
        "starts_occupied": ((0.0, 2), (5.0, 0), (7.0, 1)),
        "ends_empty": ((0.0, 0), (2.0, 3), (8.0, 0)),
    }

    @pytest.mark.parametrize("sampling_hz", [20.0, 200.0])
    @pytest.mark.parametrize("motion_amp_db", [1.5, 0.0])
    @pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES.keys())
    def test_signal_is_the_expression_with_every_sway(self, sampling_hz, motion_amp_db, schedule):
        config = make_config(
            transmitters=(("M1", 100), ("M2", 250), ("M3", 600)),
            sampling_hz=sampling_hz,
            schedule=schedule,
            path_loss=PathLossParams(-45.0, 100.0, 2.0, 1.0),
            body_effect=BodyEffectParams(6.0, 2.0, motion_amp_db),
            seed=5,
        )
        t, counts, signals = reference_signals(config)
        got = list(simulator_module._signals(config, t, counts))
        assert [s.tobytes() for s in got] == [s.tobytes() for s in signals]
        dataset = simulate(config)
        assert np.array_equal(dataset.counts, counts)
        assert np.array_equal(dataset.rssi, np.rint(np.clip(np.stack(signals, axis=1), -127, 0)))


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PathLossParams(d0_cm=0.0), "d0_cm must be positive, got 0.0"),
            (lambda: PathLossParams(exponent=0.5), "path-loss exponent must be >= 1, got 0.5"),
            (lambda: PathLossParams(shadow_sigma_db=-1.0), "shadow_sigma_db must be >= 0"),
            (
                lambda: BodyEffectParams(atten_db_per_person=-1.0),
                "atten_db_per_person must be >= 0",
            ),
            (
                lambda: BodyEffectParams(extra_sigma_db_per_person=-1.0),
                "extra_sigma_db_per_person must be >= 0",
            ),
            (lambda: BodyEffectParams(motion_amp_db=-1.0), "motion_amp_db must be >= 0"),
            (lambda: make_config(transmitters=()), "scenario needs at least one transmitter"),
            (
                lambda: make_config(transmitters=(("M1", 100), ("M2", 0))),
                "M2: distance_cm must be positive, got 0",
            ),
            (lambda: make_config(duration_s=0.0), "duration_s must be positive"),
            (lambda: simulate(make_config(duration_s=0.02)), "duration too short for one sample"),
        ],
        ids=[
            "d0_cm",
            "exponent",
            "shadow",
            "atten",
            "extra_sigma",
            "motion",
            "no_transmitter",
            "distance",
            "duration",
            "under_one_sample",
        ],
    )
    def test_check_message(self, build, message):
        with pytest.raises(ScenarioError) as raised:
            build()
        assert str(raised.value) == message


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

    REQUIRED = "sampling_hz = 45\nduration_s = 10\ntransmitter = M1 100\n"

    # Each scalar key: its record (None for the scenario itself), field, text and value.
    SCALARS = [
        ("sampling_hz", None, "sampling_hz", "100", 100.0),
        ("duration_s", None, "duration_s", "20", 20.0),
        ("seed", None, "seed", "9", 9),
        ("pl0_dbm", "path_loss", "pl0_dbm_at_d0", "-50", -50.0),
        ("d0_cm", "path_loss", "d0_cm", "80", 80.0),
        ("exponent", "path_loss", "exponent", "3", 3.0),
        ("shadow_sigma_db", "path_loss", "shadow_sigma_db", "1.5", 1.5),
        ("atten_db_per_person", "body_effect", "atten_db_per_person", "6", 6.0),
        ("extra_sigma_db_per_person", "body_effect", "extra_sigma_db_per_person", "2", 2.0),
        ("motion_amp_db", "body_effect", "motion_amp_db", "0.5", 0.5),
    ]

    def test_every_scalar_key_is_listed(self):
        assert sorted(key for key, *_ in self.SCALARS) == sorted(_SCALAR_KEYS)

    @pytest.mark.parametrize(
        "key, record, field, text, value", SCALARS, ids=[key for key, *_ in SCALARS]
    )
    def test_one_key_sets_its_record_and_field(self, key, record, field, text, value):
        lines = dict(line.split(" = ") for line in self.REQUIRED.splitlines())
        lines[key] = text
        config = load_scenario("".join(f"{k} = {v}\n" for k, v in lines.items()))
        base = load_scenario(self.REQUIRED)
        if record is None:
            expected = dataclasses.replace(base, **{field: value})
            loaded = getattr(config, field)
        else:
            changed = dataclasses.replace(getattr(base, record), **{field: value})
            expected = dataclasses.replace(base, **{record: changed})
            loaded = getattr(getattr(config, record), field)
        assert config == expected
        assert type(loaded) is type(value)

    FLOAT_KEYS = [(key, field) for key, _, field, _, value in SCALARS if type(value) is float]

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key, field", FLOAT_KEYS, ids=[key for key, _ in FLOAT_KEYS])
    def test_non_finite_float_key_is_rejected(self, key, field, text):
        # NaN passes every range check's < and <=; an infinite duration overflows the row count
        lines = dict(line.split(" = ") for line in self.REQUIRED.splitlines())
        lines[key] = text
        with pytest.raises(ScenarioError) as raised:
            load_scenario("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert str(raised.value) == f"{field} must be finite, got {float(text)}"

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_event_time_is_rejected(self, text):
        with pytest.raises(ScenarioError, match="outside"):
            load_scenario(self.REQUIRED + f"event = {text} 1\n")

    def test_required_keys_alone_take_the_record_defaults(self):
        config = load_scenario(self.REQUIRED)
        assert config.path_loss == PathLossParams()
        assert config.body_effect == BodyEffectParams()
        assert config.seed == 0 and config.schedule == ()
        defaults = """\
seed = 0
pl0_dbm = -45
d0_cm = 100
exponent = 2
shadow_sigma_db = 0
atten_db_per_person = 0
extra_sigma_db_per_person = 0
motion_amp_db = 0
"""
        assert load_scenario(self.REQUIRED + defaults) == config

    def test_no_transmitter_line(self):
        with pytest.raises(ScenarioError) as raised:
            load_scenario("sampling_hz = 45\nduration_s = 10\n")
        assert str(raised.value) == "scenario needs at least one transmitter"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown key"):
            load_scenario("sampling_hz = 45\nbogus = 1\n")

    def test_repeated_scalar_key_reports_line(self):
        text = "sampling_hz = 45\nseed = 1\nduration_s = 10\nseed = 2\ntransmitter = M1 100\n"
        with pytest.raises(ScenarioError) as raised:
            load_scenario(text)
        assert str(raised.value) == "line 4: repeated key 'seed'"

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing 'duration_s'"):
            load_scenario("sampling_hz = 45\ntransmitter = M1 100\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1.*bad value"):
            load_scenario("sampling_hz = forty\nduration_s = 10\ntransmitter = M1 100\n")
