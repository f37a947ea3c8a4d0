"""Synthetic labeled RSSI scenarios with ground-truth occupancy schedules.

The propagation core is a log-distance path-loss model with log-normal
shadowing. Occupants leave three fingerprints on every transmitter's signal:
a deterministic attenuation per person, extra Gaussian noise per person, and
a low-frequency sinusoidal motion term per person. That injects level,
variance and frequency signatures, so both time- and frequency-domain
features carry information about the head count.

All randomness derives from a single 64-bit seed via stable sub-streams
(one noise stream per transmitter, one motion-parameter stream per
transmitter/person slot), so identical configurations render bit-identical
datasets.

Each transmitter's signal is rendered as one array over time; the arrays go
straight into the columns of :class:`RssiDataset`, whose constructor checks
the dataset invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .dataset import RSSI_MAX, RSSI_MIN, RssiDataset, TransmitterMeta, read_key_values

SUPPORTED_RATES_HZ = (20.0, 45.0, 100.0, 200.0)

_MOTION_FREQ_RANGE_HZ = (0.5, 3.0)


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


def _require_finite(record: object) -> None:
    """Raise :class:`ScenarioError` naming the first float field of ``record`` that is not finite.

    The range checks after it compare with ``<`` and ``<=``, which NaN passes.
    """
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance propagation: mean RSSI at d0 plus decay and shadowing."""

    pl0_dbm_at_d0: float = -45.0
    d0_cm: float = 100.0
    exponent: float = 2.0
    shadow_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.d0_cm <= 0:
            raise ScenarioError(f"d0_cm must be positive, got {self.d0_cm}")
        if self.exponent < 1:
            raise ScenarioError(f"path-loss exponent must be >= 1, got {self.exponent}")
        if self.shadow_sigma_db < 0:
            raise ScenarioError("shadow_sigma_db must be >= 0")


@dataclass(frozen=True)
class BodyEffectParams:
    """Per-person signal fingerprint: attenuation, extra noise, motion sway."""

    atten_db_per_person: float = 0.0
    extra_sigma_db_per_person: float = 0.0
    motion_amp_db: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        for field in fields(self):
            if getattr(self, field.name) < 0:
                raise ScenarioError(f"{field.name} must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    transmitters: tuple[tuple[str, int], ...]
    sampling_hz: float
    duration_s: float
    schedule: tuple[tuple[float, int], ...]
    path_loss: PathLossParams
    body_effect: BodyEffectParams
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.transmitters:
            raise ScenarioError("scenario needs at least one transmitter")
        ids = [mac for mac, _ in self.transmitters]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate transmitter MAC in scenario")
        for mac, distance in self.transmitters:
            if distance <= 0:
                raise ScenarioError(f"{mac}: distance_cm must be positive, got {distance}")
        if float(self.sampling_hz) not in SUPPORTED_RATES_HZ:
            raise ScenarioError(
                f"sampling_hz must be one of {SUPPORTED_RATES_HZ}, got {self.sampling_hz}"
            )
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        previous = -math.inf
        for time_s, count in self.schedule:
            if not 0 <= time_s < self.duration_s:
                raise ScenarioError(f"schedule event at {time_s}s outside [0, duration)")
            if time_s < previous:
                raise ScenarioError("schedule events must be time-ordered")
            if count < 0:
                raise ScenarioError(f"schedule count must be >= 0, got {count}")
            previous = time_s


def mean_rssi(distance_cm: float, path_loss: PathLossParams) -> float:
    """Mean received power at ``distance_cm``: pl0 - 10*n*log10(d/d0)."""
    if distance_cm <= 0:
        raise ScenarioError(f"distance_cm must be positive, got {distance_cm}")
    return path_loss.pl0_dbm_at_d0 - 10.0 * path_loss.exponent * math.log10(
        distance_cm / path_loss.d0_cm
    )


def _counts_over_time(config: ScenarioConfig, t_seconds: np.ndarray) -> np.ndarray:
    # Count starts at 0 and steps at each schedule event (event at t applies from t on).
    event_times = np.array([time_s for time_s, _ in config.schedule], dtype=np.float64)
    event_counts = np.array([count for _, count in config.schedule], dtype=np.int64)
    steps = np.concatenate(([0], event_counts))
    idx = np.searchsorted(event_times, t_seconds, side="right")
    return steps[idx]


def _signals(config: ScenarioConfig, t: np.ndarray, counts: np.ndarray) -> Iterator[np.ndarray]:
    """Each transmitter's float signal in dBm at times ``t``, before clipping and rounding.

    Person k's sway, ``motion_amp_db * sin(2 pi f t + phi)``, is evaluated only
    on the rows where at least k people are present, and is 0 on the others.
    """
    body = config.body_effect
    sigma = config.path_loss.shadow_sigma_db + body.extra_sigma_db_per_person * counts
    max_count = max((count for _, count in config.schedule), default=0)
    present = [counts >= person for person in range(1, max_count + 1)]

    root = np.random.SeedSequence(config.seed)
    # One child per transmitter for noise, one per transmitter for motion params.
    children = root.spawn(2 * len(config.transmitters))
    for i, (_, distance_cm) in enumerate(config.transmitters):
        base = mean_rssi(distance_cm, config.path_loss)
        noise_rng = np.random.default_rng(children[2 * i])
        motion_rng = np.random.default_rng(children[2 * i + 1])

        signal = base - body.atten_db_per_person * counts
        signal = signal + noise_rng.standard_normal(t.size) * sigma
        for active in present:
            freq = motion_rng.uniform(*_MOTION_FREQ_RANGE_HZ)
            phase = motion_rng.uniform(0.0, 2.0 * math.pi)
            sway = np.sin(2.0 * math.pi * freq * t + phase, out=np.zeros_like(t), where=active)
            signal += body.motion_amp_db * sway
        yield signal


def simulate(config: ScenarioConfig) -> RssiDataset:
    """Render the scenario into a fully labeled :class:`RssiDataset`.

    Each transmitter's signal (see :func:`_signals`) is clipped to [-127, 0]
    dBm and rounded. A person's sway is computed only on the rows where that
    person is present and adds +0.0 elsewhere: the same integers as adding
    the sway times a 0/1 presence mask, whose signed zeros the rounding drops.
    """
    n_records = int(math.floor(config.duration_s * config.sampling_hz))
    if n_records == 0:
        raise ScenarioError("duration too short for one sample")
    t = np.arange(n_records, dtype=np.float64) / config.sampling_hz
    timestamps = np.floor(t * 1000.0 + 0.5).astype(np.int64)
    counts = _counts_over_time(config, t)

    columns = [
        np.rint(np.clip(signal, RSSI_MIN, RSSI_MAX)).astype(np.int8)  # [-127, 0]: int8 holds it
        for signal in _signals(config, t, counts)
    ]

    transmitters = tuple(
        TransmitterMeta(id=mac, distance_cm=int(distance)) for mac, distance in config.transmitters
    )
    return RssiDataset(
        transmitters=transmitters,
        timestamps_ms=timestamps,
        rssi=np.stack(columns, axis=1),
        counts=counts,
        sampling_hz=float(config.sampling_hz),
    )


# Each scalar key of a scenario file: the record it sets (None for the
# ScenarioConfig itself), that record's field, and the field's type. A key the
# file leaves out takes the field's default; sampling_hz and duration_s have none.
_SCALAR_KEYS = {
    "sampling_hz": (None, "sampling_hz", float),
    "duration_s": (None, "duration_s", float),
    "seed": (None, "seed", int),
    "pl0_dbm": ("path_loss", "pl0_dbm_at_d0", float),
    "d0_cm": ("path_loss", "d0_cm", float),
    "exponent": ("path_loss", "exponent", float),
    "shadow_sigma_db": ("path_loss", "shadow_sigma_db", float),
    "atten_db_per_person": ("body_effect", "atten_db_per_person", float),
    "extra_sigma_db_per_person": ("body_effect", "extra_sigma_db_per_person", float),
    "motion_amp_db": ("body_effect", "motion_amp_db", float),
}


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a plain-text key-value scenario description.

    Repeatable lines: ``transmitter = <mac> <distance_cm>`` and
    ``event = <time_s> <count>``. Every other key is a scalar line of
    ``_SCALAR_KEYS``, and may appear once.
    """
    records: dict[str | None, dict[str, float | int]] = {
        None: {}, "path_loss": {}, "body_effect": {}
    }
    transmitters: list[tuple[str, int]] = []
    events: list[tuple[float, int]] = []
    lines = read_key_values(text, lambda message, line: ScenarioError(f"line {line}: {message}"))
    for lineno, key, value in lines:
        if key in _SCALAR_KEYS:
            record, field, kind = _SCALAR_KEYS[key]
            if field in records[record]:
                raise ScenarioError(f"line {lineno}: repeated key {key!r}")
        elif key != "transmitter" and key != "event":
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "transmitter":
                mac, distance = value.split()
                transmitters.append((mac, int(distance)))
            elif key == "event":
                time_s, count = value.split()
                events.append((float(time_s), int(count)))
            else:
                records[record][field] = kind(value)
        except (ValueError, TypeError):
            raise ScenarioError(f"line {lineno}: bad value {value!r} for {key!r}") from None
    for required in ("sampling_hz", "duration_s"):
        if required not in records[None]:
            raise ScenarioError(f"scenario is missing {required!r}")
    return ScenarioConfig(
        transmitters=tuple(transmitters),
        schedule=tuple(events),
        path_loss=PathLossParams(**records["path_loss"]),
        body_effect=BodyEffectParams(**records["body_effect"]),
        **records[None],
    )
