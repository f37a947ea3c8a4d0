"""Labeled RSSI dataset: the columnar :class:`RssiDataset`, CSV ingestion, dedup.

The dataset checks its own invariants when it is built, so there is no
separate validation pass; parsing still checks each CSV line as it reads it,
to report errors in outside input by line number.

The on-disk format is a rectangular CSV with header
``timestamp,<mac_1>,...,<mac_n>,occupancy,count`` plus a small key-value
sidecar file that carries the sampling rate and the transmitter-to-receiver
distance for every MAC (distances do not fit a rectangular CSV).

Timestamps are serialized as ``DD/MM/YYYY HH:MM:SS.mmm`` (UTC) and parsed
leniently: plain epoch milliseconds are accepted too.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

RSSI_MIN = -127
RSSI_MAX = 0

_TS_FORMAT = "%d/%m/%Y %H:%M:%S"


class DatasetError(ValueError):
    """Malformed dataset input or a broken invariant; parse errors carry the 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TransmitterMeta:
    """One BLE transmitter: MAC-address identity and distance to the receiver."""

    id: str
    distance_cm: int


@dataclass(frozen=True)
class RssiRecord:
    """One timestamped row: per-transmitter RSSI plus occupancy labels."""

    timestamp_ms: int
    rssi: tuple[int, ...]
    occupancy: bool
    count: int


_COLUMNS = ("timestamps_ms", "rssi", "counts")


@dataclass(frozen=True, eq=False)
class RssiDataset:
    """Time-ordered labeled RSSI rows for a fixed transmitter arrangement, as columns.

    Record ``i`` is ``timestamps_ms[i]``, the RSSI row ``rssi[i]`` (one
    value per transmitter, in transmitter order) and the occupant count
    ``counts[i]``; occupancy is derived as ``counts > 0``. The columns are
    read-only int64 views. Construction checks the column shapes, unique
    transmitter ids, positive distances and rate, non-decreasing timestamps,
    RSSI in [-127, 0] dBm and non-negative counts, and raises
    :class:`DatasetError` naming the first bad record.
    """

    transmitters: tuple[TransmitterMeta, ...]
    timestamps_ms: np.ndarray  # (n,)
    rssi: np.ndarray  # (n, n_transmitters)
    counts: np.ndarray  # (n,)
    sampling_hz: float

    def __post_init__(self) -> None:
        ids = self.transmitter_ids()
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate transmitter ids")
        for t in self.transmitters:
            if t.distance_cm <= 0:
                raise DatasetError(f"{t.id}: distance_cm must be positive, got {t.distance_cm}")
        if not self.sampling_hz > 0:
            raise DatasetError(f"sampling_hz must be positive, got {self.sampling_hz}")
        for name in _COLUMNS:
            column = np.asarray(getattr(self, name))
            if column.size and column.dtype.kind not in "iu":
                raise DatasetError(f"{name} must hold integers, got dtype {column.dtype}")
            column = column.astype(np.int64, copy=False).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        timestamps, rssi, counts = self.timestamps_ms, self.rssi, self.counts
        n = timestamps.size
        if timestamps.ndim != 1 or rssi.shape != (n, len(ids)) or counts.shape != (n,):
            raise DatasetError(
                f"column shapes timestamps_ms {timestamps.shape}, rssi {rssi.shape}, "
                f"counts {counts.shape} do not fit (n,), (n, {len(ids)}), (n,)"
            )
        for bad, problem in (
            (np.diff(timestamps, prepend=timestamps[:1]) < 0, "timestamp decreases"),
            (((rssi < RSSI_MIN) | (rssi > RSSI_MAX)).any(axis=1), "RSSI outside dBm range"),
            (counts < 0, "negative count"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise DatasetError(
                    f"record {i}: {problem} (timestamp_ms {timestamps[i]}, "
                    f"rssi {rssi[i].tolist()}, count {counts[i]})"
                )

    def __len__(self) -> int:
        return self.timestamps_ms.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RssiDataset):
            return NotImplemented
        same_meta = (self.transmitters, self.sampling_hz) == (other.transmitters, other.sampling_hz)
        return same_meta and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    @property
    def n_transmitters(self) -> int:
        return len(self.transmitters)

    @property
    def occupancy(self) -> np.ndarray:
        return self.counts > 0

    @property
    def records(self) -> tuple[RssiRecord, ...]:
        """The rows as objects, for readers outside the package; it works on the columns."""
        return tuple(
            RssiRecord(ts, tuple(rssi), count > 0, count)
            for ts, rssi, count in zip(
                self.timestamps_ms.tolist(), self.rssi.tolist(), self.counts.tolist()
            )
        )

    def transmitter_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.transmitters)


@dataclass(frozen=True)
class DatasetMeta:
    """Sidecar descriptor: sampling rate plus MAC -> distance_cm lookup."""

    sampling_hz: float
    distance_by_mac: Mapping[str, int]


def format_timestamp_ms(timestamp_ms: int) -> str:
    seconds, millis = divmod(int(timestamp_ms), 1000)
    dt = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return f"{dt.strftime(_TS_FORMAT)}.{millis:03d}"


def parse_timestamp(text: str, line: int | None = None) -> int:
    """Parse epoch milliseconds or a DD/MM/YYYY HH:MM:SS[.mmm] wall-clock."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    for fmt in (_TS_FORMAT + ".%f", _TS_FORMAT):
        try:
            dt = datetime.strptime(text, fmt)
        except ValueError:
            continue
        seconds = calendar.timegm(dt.timetuple())
        return seconds * 1000 + dt.microsecond // 1000
    raise DatasetError(f"unparseable timestamp {text!r}", line)


def parse_sidecar(text: str) -> DatasetMeta:
    """Parse the key-value sidecar: ``sampling_hz = <hz>`` and ``<mac> = <cm>`` lines."""
    sampling_hz: float | None = None
    distances: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DatasetError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key == "sampling_hz":
            try:
                sampling_hz = float(value)
            except ValueError:
                raise DatasetError(f"bad sampling_hz {value!r}", lineno) from None
            if sampling_hz <= 0:
                raise DatasetError(f"sampling_hz must be positive, got {value}", lineno)
        else:
            if key in distances:
                raise DatasetError(f"duplicate transmitter {key!r}", lineno)
            try:
                distance = int(value)
            except ValueError:
                raise DatasetError(f"bad distance_cm {value!r} for {key!r}", lineno) from None
            if distance <= 0:
                raise DatasetError(f"distance_cm must be positive, got {value}", lineno)
            distances[key] = distance
    if sampling_hz is None:
        raise DatasetError("sidecar is missing sampling_hz")
    if not distances:
        raise DatasetError("sidecar lists no transmitters")
    return DatasetMeta(sampling_hz=sampling_hz, distance_by_mac=distances)


def serialize_sidecar(dataset: RssiDataset) -> str:
    lines = [f"sampling_hz = {dataset.sampling_hz:.17g}"]  # 17 digits round-trip any float
    lines += [f"{t.id} = {t.distance_cm}" for t in dataset.transmitters]
    return "\n".join(lines) + "\n"


def _parse_bool(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise DatasetError(f"occupancy must be true/false, got {text!r}", line)


def parse_dataset(csv_text: str, meta: DatasetMeta) -> RssiDataset:
    """Parse the dataset CSV against its sidecar.

    Raises :class:`DatasetError` with the offending line number on the first
    malformed row, label inconsistency, RSSI out of [-127, 0], timestamp
    disorder, or MAC mismatch against the sidecar.
    """
    iterator = enumerate(csv_text.splitlines(), start=1)
    header_line: tuple[int, str] | None = None
    for lineno, raw in iterator:
        if raw.strip():
            header_line = (lineno, raw)
            break
    if header_line is None:
        raise DatasetError("empty input: no header row")

    header_lineno, header = header_line
    fields = [f.strip() for f in header.split(",")]
    if len(fields) < 4 or fields[0] != "timestamp" or fields[-2:] != ["occupancy", "count"]:
        raise DatasetError(
            "header must be 'timestamp,<mac_1>,...,<mac_n>,occupancy,count'", header_lineno
        )
    macs = fields[1:-2]
    if len(set(macs)) != len(macs):
        raise DatasetError("duplicate MAC column in header", header_lineno)
    for mac in macs:
        if mac not in meta.distance_by_mac:
            raise DatasetError(f"MAC {mac!r} not present in sidecar", header_lineno)
    extra = set(meta.distance_by_mac) - set(macs)
    if extra:
        raise DatasetError(
            f"sidecar lists MACs absent from the CSV header: {sorted(extra)}", header_lineno
        )

    transmitters = tuple(
        TransmitterMeta(id=mac, distance_cm=int(meta.distance_by_mac[mac])) for mac in macs
    )
    n = len(macs)

    timestamps: list[int] = []
    rssi: list[int] = []  # row-major, n values per record
    counts: list[int] = []
    prev_ts: int | None = None
    for lineno, raw in iterator:
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != n + 3:
            raise DatasetError(f"expected {n + 3} fields, got {len(parts)}", lineno)
        ts = parse_timestamp(parts[0], lineno)
        if prev_ts is not None and ts < prev_ts:
            raise DatasetError(f"timestamp decreases ({ts} < {prev_ts})", lineno)
        for mac, field in zip(macs, parts[1:-2]):
            try:
                value = int(field)
            except ValueError:
                raise DatasetError(f"non-integer RSSI {field!r} for {mac}", lineno) from None
            if not RSSI_MIN <= value <= RSSI_MAX:
                raise DatasetError(
                    f"RSSI {value} for {mac} outside [{RSSI_MIN}, {RSSI_MAX}] dBm", lineno
                )
            rssi.append(value)
        occupancy = _parse_bool(parts[-2], lineno)
        try:
            count = int(parts[-1])
        except ValueError:
            raise DatasetError(f"non-integer count {parts[-1]!r}", lineno) from None
        if count < 0:
            raise DatasetError(f"negative count {count}", lineno)
        if occupancy != (count > 0):
            raise DatasetError(
                f"label inconsistency: occupancy={str(occupancy).lower()} with count={count}",
                lineno,
            )
        timestamps.append(ts)
        counts.append(count)
        prev_ts = ts

    return RssiDataset(
        transmitters=transmitters,
        timestamps_ms=np.array(timestamps, dtype=np.int64),
        rssi=np.array(rssi, dtype=np.int64).reshape(-1, n),
        counts=np.array(counts, dtype=np.int64),
        sampling_hz=meta.sampling_hz,
    )


def serialize_dataset(dataset: RssiDataset) -> str:
    """Emit the dataset CSV; ``parse_dataset`` of the output round-trips."""
    header = "timestamp," + ",".join(dataset.transmitter_ids()) + ",occupancy,count"
    lines = [header]
    for ts, rssi, count in zip(
        dataset.timestamps_ms.tolist(), dataset.rssi.tolist(), dataset.counts.tolist()
    ):
        occupancy = "true" if count > 0 else "false"
        lines.append(",".join([format_timestamp_ms(ts), *map(str, rssi), occupancy, str(count)]))
    return "\n".join(lines) + "\n"


def deduplicate(dataset: RssiDataset) -> RssiDataset:
    """Drop rows whose (rssi values, count) tuple was seen before.

    Occupancy follows from the count, so it adds nothing to the key. The
    timestamp is deliberately excluded: repeated predictor/label tuples are
    what inflate training data, while timestamps never feed the models.
    First occurrence wins; order is preserved.
    """
    # Any order that groups equal keys will do. lexsort is stable, so each group
    # starts with its first record; RSSI in [-127, 0] fits int8, which sorts by radix.
    order = np.lexsort([dataset.counts, *dataset.rssi.astype(np.int8).T])
    ranked = np.column_stack((dataset.rssi, dataset.counts))[order]
    first_of_run = np.ones(len(order), dtype=bool)
    first_of_run[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    kept = np.sort(order[first_of_run])
    return RssiDataset(
        transmitters=dataset.transmitters,
        timestamps_ms=dataset.timestamps_ms[kept],
        rssi=dataset.rssi[kept],
        counts=dataset.counts[kept],
        sampling_hz=dataset.sampling_hz,
    )
