"""Labeled RSSI dataset: the columnar :class:`RssiDataset`, CSV ingestion, dedup.

The dataset checks its own invariants when it is built, so there is no
separate validation pass; parsing still reports errors in outside input by
line number.

The on-disk format is a rectangular CSV with header
``timestamp,<mac_1>,...,<mac_n>,occupancy,count`` plus a small key-value
sidecar file that carries the sampling rate and the transmitter-to-receiver
distance for every MAC (distances do not fit a rectangular CSV).

Timestamps are serialized as ``DD/MM/YYYY HH:MM:SS.mmm`` (UTC, years
0001-9999). Parsing accepts that form, with or without a millisecond part of
one to six digits, with one-digit day, month, hour, minute or second fields,
and plain epoch milliseconds; those and the counts must fit int64. Canonical
lines (the serialized form exactly, with no spaces, or with a timestamp of
epoch milliseconds written as an optional '-' and 1-18 digits) are decoded
a column at a time from the bytes of the text, with the calendar done in
integer arithmetic; every other line takes the per-line checks, ``strptime``
included. The first bad line is then checked again on its own, so the error
names the same line and says the same as a line-by-line pass.

The text, or an open text file, is read ``_CHUNK_CHARS`` characters at a
time. Each chunk is cut after its last ``\\n`` and the partial line is
carried into the next; a piece with line breaks other than ``\\n`` has them
rewritten, through a list of its lines, and the piece is encoded to UTF-8.
Lines keep the numbers ``str.splitlines`` gives them, across chunk edges
too. Each piece is decoded in bulk straight into the output columns, which
grow in place a piece at a time and are never copied whole; the RSSI column
is int8, and each value is checked before it is stored in it. So a parse
holds the columns plus a chunk, not the text. Reading a file of canonical
lines, it peaks near 6.7 chunks above the columns whatever the file's
length; given the text, near 0.63x the text on 120,000 rows of four
transmitters (1.7x on 20,000, where a chunk still counts). Shorter lines put
more of them in a chunk, and the temporaries grow with the lines: a file of
blank lines peaks near 15 MiB above the columns (one transmitter). A byte
that a file cannot decode is reported with its line, found by decoding the
file again from its start; :func:`read_text` reads the key-value files the
same way.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterator, Mapping, TextIO

import numpy as np

RSSI_MIN = -127
RSSI_MAX = 0

_TS_FORMAT = "%d/%m/%Y %H:%M:%S"
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


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
    read-only views: timestamps and counts int64, RSSI int8, which holds
    [-127, 0] dBm exactly. Construction checks the column shapes, unique
    transmitter ids, positive distances and rate, non-decreasing timestamps,
    RSSI in [-127, 0] dBm and non-negative counts, and raises
    :class:`DatasetError` naming the first bad record. The RSSI column is
    checked as given and narrowed after: a cast first would wrap -300 to -44.
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
        if not 0 < self.sampling_hz < np.inf:  # NaN fails too
            raise DatasetError(f"sampling_hz must be positive and finite, got {self.sampling_hz}")
        columns = []
        for name in _COLUMNS:
            column = np.asarray(getattr(self, name))
            if column.size and column.dtype.kind not in "iu":
                raise DatasetError(f"{name} must hold integers, got dtype {column.dtype}")
            columns.append(column)
        timestamps, rssi, counts = columns
        timestamps = timestamps.astype(np.int64, copy=False)
        counts = counts.astype(np.int64, copy=False)
        n = timestamps.size
        if timestamps.ndim != 1 or rssi.shape != (n, len(ids)) or counts.shape != (n,):
            raise DatasetError(
                f"column shapes timestamps_ms {timestamps.shape}, rssi {rssi.shape}, "
                f"counts {counts.shape} do not fit (n,), (n, {len(ids)}), (n,)"
            )
        # Reductions first, so a valid dataset is checked without row-sized
        # temporaries; the mask that locates the first bad record is built on failure.
        decreases = timestamps[1:] < timestamps[:-1]
        if decreases.any():
            bad, problem = np.append(False, decreases), "timestamp decreases"
        elif rssi.size and (rssi.min() < RSSI_MIN or rssi.max() > RSSI_MAX):
            bad = ((rssi < RSSI_MIN) | (rssi > RSSI_MAX)).any(axis=1)
            problem = "RSSI outside dBm range"
        elif counts.size and counts.min() < 0:
            bad, problem = counts < 0, "negative count"
        else:
            rssi = rssi.astype(np.int8, copy=False)  # all in [-127, 0], so the cast is exact
            for name, column in zip(_COLUMNS, (timestamps, rssi, counts)):
                column = column.view()
                column.flags.writeable = False
                object.__setattr__(self, name, column)
            return
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


# Days from 0000-03-01 to 1970-01-01. Counting years from March puts the leap
# day last, so a 400-year era of 146,097 days splits by plain integer division
# (H. Hinnant, "chrono-Compatible Low-Level Date Algorithms").
_EPOCH_DAYS = 719_468

# Besides "\n", str.splitlines ends a line at each of these ("\r\n" counts once).
_OTHER_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# The canonical timestamp, one letter per digit; every other character is literal.
_STAMP_LAYOUT = "dd/mm/yyyy HH:MM:SS.fff"

# Characters read from the source at a time.
_CHUNK_CHARS = 1 << 18


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days since 1970-01-01 of proleptic Gregorian dates, elementwise on integer arrays."""
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146_097 + day_of_era - _EPOCH_DAYS


def _civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`_days_from_civil`: (year, month, day) of days since 1970-01-01."""
    days = days + _EPOCH_DAYS
    era = days // 146_097
    day_of_era = days - era * 146_097
    year_of_era = (
        day_of_era - day_of_era // 1460 + day_of_era // 36_524 - day_of_era // 146_096
    ) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month_from_march = (5 * day_of_year + 2) // 153
    day = day_of_year - (153 * month_from_march + 2) // 5 + 1
    month = np.where(month_from_march < 10, month_from_march + 3, month_from_march - 9)
    return year_of_era + era * 400 + (month <= 2), month, day


def _decode_stamps(buf: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch ms of the canonical timestamps at ``buf[left:left + 23]``, and which are.

    A stamp is canonical when it matches the layout digit for digit and names
    a real instant, which is exactly when ``strptime`` would accept it; the
    rest are left to :func:`parse_timestamp` and its error.
    """
    ok = np.ones(left.shape, dtype=bool)
    fields: dict[str, np.ndarray] = {}  # int32 holds every field and day count, at half the memory
    for offset, symbol in enumerate(_STAMP_LAYOUT):
        char = buf.take(left + offset, mode="clip")
        if symbol.isalpha():
            digit = char - np.uint8(ord("0"))  # wraps below '0', so one test bounds both ends
            ok &= digit <= 9
            fields[symbol] = fields.get(symbol, 0) * 10 + digit.astype(np.int32)
        else:
            ok &= char == ord(symbol)
    year, month, day = fields["y"], fields["m"], fields["d"]
    hour, minute, second = fields["H"], fields["M"], fields["S"]
    days = _days_from_civil(year, month, day)
    ok &= (year >= 1) & (hour < 24) & (minute < 60) & (second < 60)
    for given, real in zip((year, month, day), _civil_from_days(days)):
        ok &= given == real  # 31/02 comes back as 03/03, month 13 as next January
    seconds = (hour * 60 + minute) * 60 + second
    return (days.astype(np.int64) * 86_400 + seconds) * 1000 + fields["f"], ok


def parse_timestamp(text: str, line: int | None = None) -> int:
    """Parse epoch milliseconds or a DD/MM/YYYY HH:MM:SS[.mmm] wall-clock."""
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise DatasetError(f"timestamp {text!r} outside the int64 range", line)
        return value
    for fmt in (_TS_FORMAT + ".%f", _TS_FORMAT):
        try:
            dt = datetime.strptime(text, fmt)
        except ValueError:
            continue
        seconds = calendar.timegm(dt.timetuple())
        return seconds * 1000 + dt.microsecond // 1000
    raise DatasetError(f"unparseable timestamp {text!r}", line)


def read_key_values(
    text: str, error: Callable[[str, int], ValueError] = DatasetError
) -> Iterator[tuple[int, str, str]]:
    """The ``key = value`` lines of a key-value file, as (line, key, value), both sides stripped.

    ``#`` starts a comment and blank lines are skipped; any other line without
    ``=`` raises ``error(message, line)``.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise error(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = stripped.split("=", 1)
        yield lineno, key.strip(), value.strip()


def parse_sidecar(text: str) -> DatasetMeta:
    """Parse the key-value sidecar: ``sampling_hz = <hz>`` and ``<mac> = <cm>`` lines."""
    sampling_hz: float | None = None
    distances: dict[str, int] = {}
    for lineno, key, value in read_key_values(text):
        if key == "sampling_hz":
            if sampling_hz is not None:
                raise DatasetError("repeated key 'sampling_hz'", lineno)
            try:
                sampling_hz = float(value)
            except ValueError:
                raise DatasetError(f"bad sampling_hz {value!r}", lineno) from None
            if not 0 < sampling_hz < np.inf:  # NaN fails too
                raise DatasetError(f"sampling_hz must be positive and finite, got {value}", lineno)
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


def _parse_row(
    raw: str, line: int, macs: list[str], prev_ts: int | None
) -> tuple[int, list[int], int]:
    """Check one CSV line and return (timestamp_ms, rssi, count).

    The checks run in the order their errors are reported; ``prev_ts`` is the
    previous record's timestamp, or None to skip the order check.
    """
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != len(macs) + 3:
        raise DatasetError(f"expected {len(macs) + 3} fields, got {len(parts)}", line)
    ts = parse_timestamp(parts[0], line)
    if prev_ts is not None and ts < prev_ts:
        raise DatasetError(f"timestamp decreases ({ts} < {prev_ts})", line)
    rssi = []
    for mac, field in zip(macs, parts[1:-2]):
        try:
            value = int(field)
        except ValueError:
            raise DatasetError(f"non-integer RSSI {field!r} for {mac}", line) from None
        if not RSSI_MIN <= value <= RSSI_MAX:
            raise DatasetError(
                f"RSSI {value} for {mac} outside [{RSSI_MIN}, {RSSI_MAX}] dBm", line
            )
        rssi.append(value)
    occupancy = _parse_bool(parts[-2], line)
    try:
        count = int(parts[-1])
    except ValueError:
        raise DatasetError(f"non-integer count {parts[-1]!r}", line) from None
    if count < 0:
        raise DatasetError(f"negative count {count}", line)
    if count > _INT64_MAX:
        raise DatasetError(f"count {count} outside the int64 range", line)
    if occupancy != (count > 0):
        raise DatasetError(
            f"label inconsistency: occupancy={str(occupancy).lower()} with count={count}", line
        )
    return ts, rssi, count


def _decode_ints(
    buf: np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of the fields ``buf[left:right]``, and which are '-'? and 1-18 ASCII digits."""
    negative = buf.take(left, mode="clip") == ord("-")
    left = left + negative
    width = right - left
    ok = (width >= 1) & (width <= 18)  # 18 digits always fit int64
    value = np.zeros(left.shape, dtype=np.int64)
    for k in range(int(width.max(initial=0, where=ok))):
        digit = buf.take(left + k, mode="clip") - np.uint8(ord("0"))
        inside = k < width
        ok &= ~inside | (digit <= 9)
        value = np.where(inside, value * 10 + digit, value)
    return np.where(negative, -value, value), ok


def _spells(buf: np.ndarray, left: np.ndarray, right: np.ndarray, word: bytes) -> np.ndarray:
    """Which fields ``buf[left:right]`` are exactly ``word``."""
    match = right - left == len(word)
    for offset, char in enumerate(word):
        match &= buf.take(left + offset, mode="clip") == char
    return match


def _decode_rows(
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    timestamps: np.ndarray,
    rssi: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Decode the lines ``buf[starts:ends]`` in bulk into the columns; return which are canonical.

    A line is canonical when it has n + 3 fields, a canonical timestamp or
    epoch milliseconds of '-'? and 1-18 digits, integer RSSI in range, a
    ``true``/``false`` occupancy that agrees with a non-negative integer
    count, and nothing else (no spaces, no other spellings). Such a line
    passes every per-line check; the other lines, blank ones included, are
    left to :func:`_parse_row`, and what their rows of the columns hold is
    undefined. Fields are decoded one column at a time.
    """
    n = rssi.shape[1]
    commas = np.flatnonzero(buf == ord(","))
    first_comma = np.searchsorted(commas, starts)
    rows = np.flatnonzero(np.searchsorted(commas, ends) - first_comma == n + 2)
    first_comma = first_comma[rows]

    canonical = np.zeros(starts.size, dtype=bool)
    left = starts[rows]
    right = commas[first_comma]
    timestamps[rows], ok = _decode_stamps(buf, left)
    ok &= right - left == len(_STAMP_LAYOUT)
    epoch = np.flatnonzero(~ok)  # the other stamps may be epoch milliseconds
    if epoch.size:
        timestamps[rows[epoch]], ok[epoch] = _decode_ints(buf, left[epoch], right[epoch])
    for j in range(n):
        left, right = right + 1, commas[first_comma + j + 1]
        value, field_ok = _decode_ints(buf, left, right)
        ok &= field_ok & (value >= RSSI_MIN) & (value <= RSSI_MAX)
        rssi[rows, j] = value  # checked before it is stored: the int8 cast wraps -300 to -44
    left, right = right + 1, commas[first_comma + n + 1]
    occupied = _spells(buf, left, right, b"true")
    ok &= occupied | _spells(buf, left, right, b"false")
    counts[rows], field_ok = _decode_ints(buf, right + 1, ends[rows])
    ok &= field_ok & (counts[rows] >= 0) & (occupied == (counts[rows] > 0))
    canonical[rows] = ok
    return canonical


def _encoded_lines(text: str) -> bytes:
    """``text``, which ends in a line break, in UTF-8 with every line break written as ``\\n``."""
    if any(char in text for char in _OTHER_LINE_BREAKS):
        text = "\n".join(text.splitlines()) + "\n"
    # Lines may hold any character but '\n'; UTF-8 keeps every other character above ASCII.
    return text.encode("utf-8", "surrogatepass")


def _pieces(source: str | TextIO) -> Iterator[bytes]:
    """The lines of ``source``, as ``str.splitlines`` finds them, in UTF-8 pieces of whole lines.

    The source is read ``_CHUNK_CHARS`` characters at a time. Each piece runs
    to the last ``\\n`` of a chunk, and each of its lines ends in ``\\n``;
    what follows is carried into the next piece. A byte that the file cannot
    decode raises :class:`DatasetError` once the lines before it are given out.
    """
    if isinstance(source, str):
        chunks = (source[lo : lo + _CHUNK_CHARS] for lo in range(0, len(source), _CHUNK_CHARS))
    else:
        chunks = iter(lambda: source.read(_CHUNK_CHARS), "")
    carry: list[str] = []  # the text since the last '\n'
    lines = 0  # lines given out
    try:
        for chunk in chunks:
            cut = chunk.rfind("\n") + 1
            if not cut:
                carry.append(chunk)
                continue
            piece = _encoded_lines("".join([*carry, chunk[:cut]]))
            carry = [chunk[cut:]]
            del chunk
            lines += piece.count(b"\n")
            yield piece
    except UnicodeDecodeError as error:
        yield from _undecodable(source, error, lines)
    tail = "".join(carry)
    if tail:
        yield _encoded_lines(tail + "\n")  # a '\r' that ends the text pairs with the '\n'


def _undecodable(source: TextIO, error: UnicodeDecodeError, lines: int) -> Iterator[bytes]:
    """Give out the lines after the first ``lines`` that precede the byte that failed, then raise.

    The :class:`DatasetError` names the line of that byte, which is found by
    decoding the file again from its start; a stream that cannot be read
    again gets the error without a line.
    """
    bad = error.object[error.start : error.end]
    message = f"not valid {error.encoding}: {bad!r} ({error.reason})"
    try:
        source.buffer.seek(0)
        source.buffer.read().decode(source.encoding)
    except UnicodeDecodeError as again:  # the same byte, at its offset in the file
        before = (again.object[: again.start].decode(again.encoding) + "_").splitlines()
        if len(before) - 1 > lines:
            yield _encoded_lines("\n".join(before[lines:-1]) + "\n")
        raise DatasetError(message, len(before)) from None
    except (AttributeError, OSError):
        pass
    raise DatasetError(message) from None


def read_text(source: TextIO) -> str:
    """The text of an open file, each line break as ``\\n``, read as :func:`parse_dataset` reads.

    So a byte that the file cannot decode raises :class:`DatasetError` naming its line.
    """
    return b"".join(_pieces(source)).decode("utf-8")


def _line(data: bytes, starts: np.ndarray, ends: np.ndarray, i: int) -> str:
    return data[starts[i] : ends[i]].decode("utf-8", "surrogatepass")


def parse_dataset(source: str | TextIO, meta: DatasetMeta) -> RssiDataset:
    """Parse the dataset CSV, as text or a text file open at its start, against its sidecar.

    The text is read a chunk at a time, and each piece of whole lines is
    decoded at once into columns that grow in place. Raises
    :class:`DatasetError` with the offending line number on the first
    malformed row, label inconsistency, RSSI out of [-127, 0], epoch-ms
    timestamp or count beyond int64, timestamp disorder, byte the file cannot
    decode, or MAC mismatch against the sidecar.
    """
    macs: list[str] | None = None
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] = ()
    written = 0  # records in the columns
    lines = 0  # lines before the piece's body lines
    for data in _pieces(source):
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        starts = np.empty_like(ends)  # line i of the piece is data[starts[i]:ends[i]]
        starts[:1] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        if macs is None:
            first = next(
                (i for i in range(ends.size) if _line(data, starts, ends, i).strip()), None
            )
            if first is None:
                lines += ends.size
                continue
            macs = _parse_header(_line(data, starts, ends, first), lines + first + 1, meta)
            columns = (
                np.empty(0, dtype=np.int64),
                np.empty((0, len(macs)), dtype=np.int8),
                np.empty(0, dtype=np.int64),
            )
            lines += first + 1
            starts, ends = starts[first + 1 :], ends[first + 1 :]  # the body lines
        # Body line i is line ``lines + 1 + i``; its record, if it holds one, goes to
        # the first free row from ``written`` on.
        _resize(columns, written + ends.size)
        timestamps, rssi, counts = columns
        rows = slice(written, written + ends.size)
        held = _decode_rows(buf, starts, ends, timestamps[rows], rssi[rows], counts[rows])

        # ``held`` marks the lines that hold a record: the canonical ones, then each other
        # line that is not blank and passes the per-line checks (empty lines are passed
        # over at once). Checked without the order, the first line that fails ends the
        # parse: no later line can matter.
        failed = ends.size
        for i in np.flatnonzero(~held & (starts != ends)).tolist():
            raw = _line(data, starts, ends, i)
            if not raw.strip():
                continue
            try:
                row = _parse_row(raw, lines + 1 + i, macs, None)
            except DatasetError:
                failed = i
                break
            timestamps[written + i], rssi[written + i], counts[written + i] = row
            held[i] = True
        records = np.flatnonzero(held[:failed])  # the line of each record
        if records.size < failed:
            for column in columns:
                column[written : written + records.size] = column[written + records]
        before = min(written, 1)  # the record before the piece, if any
        stamps = timestamps[written - before : written + records.size]
        decreases = np.flatnonzero(stamps[1:] < stamps[:-1])
        if decreases.size or failed < ends.size:
            # The first bad line is the first decrease or the line that failed, whichever
            # comes first; its checks, now with the order, raise what a line-by-line pass would.
            k = int(decreases[0]) + 1 - before if decreases.size else records.size
            i = int(records[k]) if k < records.size else failed
            prev_ts = int(timestamps[written + k - 1]) if written + k else None
            _parse_row(_line(data, starts, ends, i), lines + 1 + i, macs, prev_ts)
        written += records.size
        lines += ends.size
    if macs is None:
        raise DatasetError("empty input: no header row")
    _resize(columns, written)
    timestamps, rssi, counts = columns
    return RssiDataset(
        transmitters=tuple(
            TransmitterMeta(id=mac, distance_cm=int(meta.distance_by_mac[mac])) for mac in macs
        ),
        timestamps_ms=timestamps,
        rssi=rssi,
        counts=counts,
        sampling_hz=meta.sampling_hz,
    )


def _resize(columns: tuple[np.ndarray, ...], rows: int) -> None:
    """Grow or shrink each column in place to ``rows`` rows; the rows kept keep their values."""
    for column in columns:
        if column.shape[0] != rows:
            column.resize((rows, *column.shape[1:]), refcheck=False)


def _parse_header(header: str, line: int, meta: DatasetMeta) -> list[str]:
    """The MAC columns of the CSV header on ``line``, checked against the sidecar."""
    fields = [f.strip() for f in header.split(",")]
    if len(fields) < 4 or fields[0] != "timestamp" or fields[-2:] != ["occupancy", "count"]:
        raise DatasetError("header must be 'timestamp,<mac_1>,...,<mac_n>,occupancy,count'", line)
    macs = fields[1:-2]
    if len(set(macs)) != len(macs):
        raise DatasetError("duplicate MAC column in header", line)
    for mac in macs:
        if mac not in meta.distance_by_mac:
            raise DatasetError(f"MAC {mac!r} not present in sidecar", line)
    extra = set(meta.distance_by_mac) - set(macs)
    if extra:
        raise DatasetError(f"sidecar lists MACs absent from the CSV header: {sorted(extra)}", line)
    return macs


def _encode_ints(values: np.ndarray) -> np.ndarray:
    """Decimal spellings of integers as uint8 rows: right-aligned, NUL-padded, then ','."""
    magnitude = np.abs(values)
    n_digits = len(str(magnitude.max(initial=0)))
    table = np.zeros((values.size, n_digits + 2), dtype=np.uint8)
    table[:, -1] = ord(",")
    for k in range(n_digits):
        shown = (magnitude >= 10**k) | (k == 0)
        table[:, -2 - k] = np.where(shown, magnitude // 10**k % 10 + ord("0"), 0)
    negative = np.flatnonzero(values < 0)
    width = np.count_nonzero(table[negative, :-1], axis=1)
    table[negative, -2 - width] = ord("-")
    return table


def serialize_dataset(dataset: RssiDataset) -> str:
    """Emit the dataset CSV; ``parse_dataset`` of the output round-trips.

    Every row is spelled into one uint8 table, field by field; NUL bytes pad
    the variable-width fields and are dropped at the end.
    """
    seconds, millis = np.divmod(dataset.timestamps_ms, 1000)
    days, seconds = np.divmod(seconds, 86_400)
    year, month, day = _civil_from_days(days)
    outside = (year < 1) | (year > 9999)
    if outside.any():
        raise DatasetError(
            f"timestamp_ms {dataset.timestamps_ms[outside.argmax()]} falls outside "
            "years 1-9999, which DD/MM/YYYY cannot spell"
        )
    fields = {
        "y": year, "m": month, "d": day,
        "H": seconds // 3600, "M": seconds // 60 % 60, "S": seconds % 60, "f": millis,
    }
    stamps = np.empty((len(dataset), len(_STAMP_LAYOUT) + 1), dtype=np.uint8)
    stamps[:] = np.frombuffer(f"{_STAMP_LAYOUT},".encode(), dtype=np.uint8)
    for offset in reversed(range(len(_STAMP_LAYOUT))):  # least significant digit first
        symbol = _STAMP_LAYOUT[offset]
        if symbol.isalpha():
            fields[symbol], digit = np.divmod(fields[symbol], 10)
            stamps[:, offset] = digit + ord("0")
    words = np.frombuffer(b"false,\0true,", dtype=np.uint8).reshape(2, 6)
    table = np.hstack([
        stamps,
        *map(_encode_ints, dataset.rssi.T),
        words[dataset.occupancy.astype(np.intp)],
        _encode_ints(dataset.counts),
    ])
    table[:, -1] = ord("\n")
    header = "timestamp," + ",".join(dataset.transmitter_ids()) + ",occupancy,count\n"
    return header + table[table != 0].tobytes().decode("ascii")


def deduplicate(dataset: RssiDataset) -> RssiDataset:
    """Drop rows whose (rssi values, count) tuple was seen before.

    Occupancy follows from the count, so it adds nothing to the key. The
    timestamp is deliberately excluded: repeated predictor/label tuples are
    what inflate training data, while timestamps never feed the models.
    First occurrence wins; order is preserved.
    """
    # Any order that groups equal keys will do. lexsort is stable, so each group
    # starts with its first record; the int8 RSSI columns sort by radix.
    order = np.lexsort([dataset.counts, *dataset.rssi.T])
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
