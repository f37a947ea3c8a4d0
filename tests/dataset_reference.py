"""Reference implementations of the dataset CSV codec, one row at a time.

This is the per-line parser and the ``datetime`` timestamp formatter that
``rssi_occupancy.dataset`` used before it decoded and encoded whole columns.
The tests compare the columnar codec against them: the same dataset for
every input, or the same ``DatasetError`` message, line number included.
"""

import calendar
from datetime import datetime, timezone

import numpy as np

from rssi_occupancy.dataset import (
    RSSI_MAX,
    RSSI_MIN,
    DatasetError,
    DatasetMeta,
    RssiDataset,
    TransmitterMeta,
)

_TS_FORMAT = "%d/%m/%Y %H:%M:%S"


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


def _parse_bool(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise DatasetError(f"occupancy must be true/false, got {text!r}", line)


def parse_dataset(csv_text: str, meta: DatasetMeta) -> RssiDataset:
    """Parse the dataset CSV line by line, raising on the first bad line."""
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
    """Emit the dataset CSV one row at a time."""
    header = "timestamp," + ",".join(dataset.transmitter_ids()) + ",occupancy,count"
    lines = [header]
    for ts, rssi, count in zip(
        dataset.timestamps_ms.tolist(), dataset.rssi.tolist(), dataset.counts.tolist()
    ):
        occupancy = "true" if count > 0 else "false"
        lines.append(",".join([format_timestamp_ms(ts), *map(str, rssi), occupancy, str(count)]))
    return "\n".join(lines) + "\n"
