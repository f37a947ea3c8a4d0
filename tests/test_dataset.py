"""Dataset construction checks, ingestion, serialization round-trips and dedup."""

import contextlib
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssi_occupancy import dataset as dataset_module
from rssi_occupancy.dataset import (
    DatasetError,
    DatasetMeta,
    RssiDataset,
    TransmitterMeta,
    deduplicate,
    parse_dataset,
    parse_sidecar,
    parse_timestamp,
    serialize_dataset,
    serialize_sidecar,
)
from rssi_occupancy.simulator import ScenarioError, load_scenario

import dataset_reference as reference

COLLECTION_SIDECAR = """\
sampling_hz = 200
AA:AA:AA:AA:AA:01 = 25
AA:AA:AA:AA:AA:02 = 500
AA:AA:AA:AA:AA:03 = 100
AA:AA:AA:AA:AA:04 = 300
AA:AA:AA:AA:AA:05 = 600
"""

COLLECTION_CSV = """\
timestamp,AA:AA:AA:AA:AA:01,AA:AA:AA:AA:AA:02,AA:AA:AA:AA:AA:03,AA:AA:AA:AA:AA:04,AA:AA:AA:AA:AA:05,occupancy,count
26/08/2020 09:56:45.005,-51,-65,-80,-100,-35,true,2
26/08/2020 09:56:45.010,-41,-55,-70,-90,-45,true,4
26/08/2020 10:00:00.000,-37,-49,-65,-70,-35,false,0
"""


BEYOND_INT64_SIDECAR = "sampling_hz = 45\nM1 = 100\nM2 = 200\nM3 = 300\nM4 = 400\n"
BEYOND_INT64_HEADER = "timestamp,M1,M2,M3,M4,occupancy,count"
BEYOND_INT64_GOOD_LINE = "0,-50,-50,-50,-50,false,0"
# (line, error): a count and an epoch-ms timestamp that do not fit int64
BEYOND_INT64_LINES = [
    (
        "26/08/2020 09:56:45.005,-48,-51,-57,-60,true,111111111111111111111111111111",
        "count 111111111111111111111111111111 outside the int64 range",
    ),
    (
        "99999999999999999999999,-50,-50,-50,-50,false,0",
        "timestamp '99999999999999999999999' outside the int64 range",
    ),
]


@pytest.fixture
def collection_dataset():
    return parse_dataset(COLLECTION_CSV, parse_sidecar(COLLECTION_SIDECAR))


def make_dataset(rows, n_tx=2, sampling_hz=45.0):
    """rows: list of (timestamp_ms, rssi tuple, count)."""
    transmitters = tuple(TransmitterMeta(f"AA:{i:02X}", 100 * (i + 1)) for i in range(n_tx))
    return RssiDataset(
        transmitters=transmitters,
        timestamps_ms=np.array([ts for ts, _, _ in rows], dtype=np.int64),
        rssi=np.array([rssi for _, rssi, _ in rows], dtype=np.int64).reshape(len(rows), n_tx),
        counts=np.array([count for _, _, count in rows], dtype=np.int64),
        sampling_hz=sampling_hz,
    )


def seen_set_rows(dataset):
    """Brute-force dedup: indices of the first occurrence of each (rssi, count)."""
    seen, kept = set(), []
    for i, (rssi, count) in enumerate(zip(dataset.rssi.tolist(), dataset.counts.tolist())):
        key = (tuple(rssi), count)
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept


class TestParse:
    def test_minimal_two_mac_row(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\nM2 = 200\n")
        dataset = parse_dataset("timestamp,M1,M2,occupancy,count\n1000,-50,-60,true,2\n", sidecar)
        assert len(dataset) == 1
        assert dataset.counts.tolist() == [2]
        assert dataset.rssi.tolist() == [[-50, -60]]
        assert dataset.sampling_hz == 45.0

    def test_collection_table_rows(self, collection_dataset):
        dataset = collection_dataset
        assert dataset.n_transmitters == 5
        assert [t.distance_cm for t in dataset.transmitters] == [25, 500, 100, 300, 600]
        assert dataset.rssi[0].tolist() == [-51, -65, -80, -100, -35]
        assert dataset.counts.tolist() == [2, 4, 0]
        assert dataset.occupancy.tolist() == [True, True, False]
        assert dataset.timestamps_ms[2] - dataset.timestamps_ms[0] == 194_995

    def test_collection_table_round_trips_byte_identical(self, collection_dataset):
        assert serialize_dataset(collection_dataset) == COLLECTION_CSV

    def test_label_inconsistency_reports_line(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        with pytest.raises(DatasetError, match="line 2.*label inconsistency"):
            parse_dataset("timestamp,M1,occupancy,count\n5,-50,false,3\n", sidecar)

    def test_wrong_field_count_reports_line(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\nM2 = 200\n")
        text = "timestamp,M1,M2,occupancy,count\n1,-50,-60,true,1\n2,-50,true,1\n"
        with pytest.raises(DatasetError, match="line 3.*expected 5 fields"):
            parse_dataset(text, sidecar)

    def test_non_integer_rssi_reports_line(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        with pytest.raises(DatasetError, match="line 2.*non-integer RSSI"):
            parse_dataset("timestamp,M1,occupancy,count\n1,abc,true,1\n", sidecar)

    def test_rssi_out_of_range_rejected(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        with pytest.raises(DatasetError, match="line 2.*outside"):
            parse_dataset("timestamp,M1,occupancy,count\n1,-200,true,1\n", sidecar)

    # An int8 cast wraps these back into range (-300 to -44, -256 to 0); -200 wraps to 56,
    # outside it, so it cannot show a check made after the cast.
    @pytest.mark.parametrize("value", ["-300", "-256"])
    @pytest.mark.parametrize("line", ["20,{},true,1", "20, {},true,1"], ids=("bulk", "per-line"))
    def test_rssi_that_int8_wraps_into_range_rejected(self, value, line):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        text = f"timestamp,M1,occupancy,count\n0,-50,true,1\n{line.format(value)}\n"
        with pytest.raises(DatasetError, match=f"^line 3: RSSI {value} for M1 outside"):
            parse_dataset(text, sidecar)

    def test_rssi_column_is_int8(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        dataset = parse_dataset("timestamp,M1,occupancy,count\n0,-127,true,1\n1,0,true,1\n", sidecar)
        assert dataset.rssi.dtype == np.int8
        assert dataset.rssi.tolist() == [[-127], [0]]

    def test_unknown_mac_in_header(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        with pytest.raises(DatasetError, match="line 1.*not present in sidecar"):
            parse_dataset("timestamp,MX,occupancy,count\n1,-50,true,1\n", sidecar)

    def test_sidecar_extra_mac_rejected(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\nM2 = 200\n")
        with pytest.raises(DatasetError, match="absent from the CSV header"):
            parse_dataset("timestamp,M1,occupancy,count\n1,-50,true,1\n", sidecar)

    def test_decreasing_timestamp_rejected(self):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
        text = "timestamp,M1,occupancy,count\n10,-50,true,1\n5,-50,true,1\n"
        with pytest.raises(DatasetError, match="line 3.*timestamp decreases"):
            parse_dataset(text, sidecar)

    @pytest.mark.parametrize("line, message", BEYOND_INT64_LINES, ids=("count", "epoch_ms"))
    def test_integers_beyond_int64_report_line(self, line, message):
        text = f"{BEYOND_INT64_HEADER}\n{BEYOND_INT64_GOOD_LINE}\n{line}\n"
        with pytest.raises(DatasetError, match=re.escape(f"line 3: {message}")):
            parse_dataset(text, parse_sidecar(BEYOND_INT64_SIDECAR))

    def test_epoch_milliseconds_at_the_int64_ends(self):
        assert parse_timestamp(str(2**63 - 1)) == 2**63 - 1
        assert parse_timestamp(str(-(2**63))) == -(2**63)
        for text in (str(2**63), str(-(2**63) - 1)):
            with pytest.raises(DatasetError, match="line 7: timestamp .* outside the int64 range"):
                parse_timestamp(text, 7)

    def test_epoch_milliseconds_accepted(self):
        assert parse_timestamp("1598435805005") == 1598435805005
        assert parse_timestamp("26/08/2020 09:56:45.005") == 1598435805005

    def test_sidecar_errors(self):
        with pytest.raises(DatasetError, match="missing sampling_hz"):
            parse_sidecar("M1 = 100\n")
        with pytest.raises(DatasetError, match="line 2.*bad distance"):
            parse_sidecar("sampling_hz = 45\nM1 = ten\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("sampling_hz = fast\nM1 = 100\n", "bad sampling_hz 'fast'", 1),
            ("sampling_hz = 45\nM1 = 100\nM1 = 200\n", "duplicate transmitter 'M1'", 3),
            ("sampling_hz = 45\nM1 = 100\nsampling_hz = 20\n", "repeated key 'sampling_hz'", 3),
            ("sampling_hz = 45\n# near\nM1 = 0\n", "distance_cm must be positive, got 0", 3),
            ("sampling_hz = 45\n", "sidecar lists no transmitters", None),
        ],
        ids=["bad-rate", "duplicate-transmitter", "repeated-rate", "zero-distance",
             "no-transmitters"],
    )
    def test_sidecar_error_messages_and_lines(self, text, message, line):
        with pytest.raises(DatasetError) as raised:
            parse_sidecar(text)
        assert raised.value.line == line
        assert str(raised.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty input: no header row", None),
            ("\n  \n\n", "empty input: no header row", None),
            ("time,M1,M2,occupancy,count\n1,-50,-60,true,1\n",
             "header must be 'timestamp,<mac_1>,...,<mac_n>,occupancy,count'", 1),
            ("\ntimestamp,M1,M1,occupancy,count\n1,-50,-60,true,1\n",
             "duplicate MAC column in header", 2),
        ],
        ids=["empty", "blank-lines", "header-not-timestamp", "duplicate-mac"],
    )
    def test_header_error_messages_and_lines(self, text, message, line):
        sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\nM2 = 200\n")
        with pytest.raises(DatasetError) as raised:
            parse_dataset(text, sidecar)
        assert raised.value.line == line
        assert str(raised.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("rate", ("0", "-45", "inf", "nan"))
    def test_sidecar_rate_must_be_positive_and_finite(self, rate):
        message = f"sampling_hz must be positive and finite, got {rate}"
        with pytest.raises(DatasetError, match=f"line 2: {message}"):
            parse_sidecar(f"M1 = 100\nsampling_hz = {rate}\n")
        with pytest.raises(DatasetError, match=message):
            make_dataset([(0, (-50,), 0)], n_tx=1, sampling_hz=float(rate))


class TestDeduplicate:
    def test_distinct_rows_unchanged(self):
        dataset = make_dataset([(i, (-50 - i, -60), 1) for i in range(5)])
        assert deduplicate(dataset) == dataset

    def test_first_occurrence_kept(self):
        a = (0, (-50, -60), 1)
        b = (1, (-55, -65), 2)
        dataset = make_dataset([a, (1, *b[1:]), (2, a[1], a[2]), (3, a[1], a[2])])
        deduped = deduplicate(dataset)
        assert deduped.rssi.tolist() == [[-50, -60], [-55, -65]]
        assert deduped.timestamps_ms.tolist() == [0, 1]

    def test_matches_brute_force_seen_set(self):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(900):
            rssi = tuple(int(v) for v in rng.integers(-90, -40, size=2))
            rows.append((i, rssi, int(rng.integers(0, 3))))
        # inject 100 exact copies of earlier rows (timestamps differ)
        for j in range(100):
            source = rows[int(rng.integers(0, 900))]
            rows.append((900 + j, source[1], source[2]))
        dataset = make_dataset(rows)

        kept = seen_set_rows(dataset)
        deduped = deduplicate(dataset)
        assert deduped.timestamps_ms.tolist() == kept  # timestamp i is row i
        assert np.array_equal(deduped.rssi, dataset.rssi[kept])
        assert np.array_equal(deduped.counts, dataset.counts[kept])
        assert len(deduped) <= 900

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        rows = [
            (i, (int(rng.integers(-70, -60)), -60), int(rng.integers(0, 2)))
            for i in range(200)
        ]
        dataset = make_dataset(rows)
        once = deduplicate(dataset)
        assert deduplicate(once) == once


class TestConstruction:
    def test_valid_dataset_constructs(self):
        dataset = make_dataset([(i, (-50, -60), i % 2) for i in range(10)])
        assert len(dataset) == 10
        assert dataset.occupancy.tolist() == [i % 2 == 1 for i in range(10)]

    def test_columns_are_read_only(self):
        dataset = make_dataset([(0, (-50, -60), 1)])
        with pytest.raises(ValueError):
            dataset.rssi[0, 0] = -40

    def test_wrong_rssi_column_count_rejected(self):
        with pytest.raises(DatasetError, match=r"rssi \(2, 1\)"):
            RssiDataset(
                transmitters=(TransmitterMeta("M1", 10), TransmitterMeta("M2", 20)),
                timestamps_ms=np.array([0, 1]),
                rssi=np.array([[-50], [-50]]),
                counts=np.array([1, 1]),
                sampling_hz=45.0,
            )

    def test_swapped_timestamps_name_record_6(self):
        rows = [(i, (-50, -60), 0) for i in range(10)]
        rows[5], rows[6] = (rows[6][0], *rows[5][1:]), (rows[5][0], *rows[6][1:])
        with pytest.raises(DatasetError, match=r"record 6: timestamp decreases \(timestamp_ms 5,"):
            make_dataset(rows)

    def test_rssi_out_of_range_rejected(self):
        rows = [(0, (-50, -60), 0), (1, (-50, 3), 0)]
        with pytest.raises(DatasetError, match=r"record 1: RSSI outside .* rssi \[-50, 3\]"):
            make_dataset(rows)

    @pytest.mark.parametrize("value", [-300, -256, 300])  # an int8 cast gives -44, 0 and 44
    def test_rssi_that_int8_wraps_into_range_rejected(self, value):
        with pytest.raises(DatasetError, match=rf"record 0: RSSI outside .* rssi \[{value}\]"):
            RssiDataset(
                transmitters=(TransmitterMeta("M1", 10),),
                timestamps_ms=[0],
                rssi=[[value]],
                counts=[0],
                sampling_hz=45.0,
            )

    def test_rssi_is_narrowed_to_int8_without_change(self):
        dataset = make_dataset([(0, (-127, 0), 1), (1, (-50, -60), 0)])
        assert dataset.rssi.dtype == np.int8
        assert dataset.rssi.tolist() == [[-127, 0], [-50, -60]]
        assert dataset.timestamps_ms.dtype == dataset.counts.dtype == np.int64

    def test_negative_count_rejected(self):
        with pytest.raises(DatasetError, match=r"record 2: negative count .*count -1\)"):
            make_dataset([(0, (-50, -60), 0), (1, (-50, -60), 1), (2, (-50, -60), -1)])

    def test_non_integer_rssi_rejected(self):
        with pytest.raises(DatasetError, match="rssi must hold integers"):
            RssiDataset(
                transmitters=(TransmitterMeta("M1", 10),),
                timestamps_ms=np.array([0]),
                rssi=np.array([[-50.5]]),
                counts=np.array([1]),
                sampling_hz=45.0,
            )

    def test_transmitter_and_rate_checks(self):
        columns = dict(timestamps_ms=[0], rssi=[[-50]], counts=[0])
        with pytest.raises(DatasetError, match="duplicate transmitter"):
            RssiDataset(
                transmitters=(TransmitterMeta("M1", 10), TransmitterMeta("M1", 20)),
                timestamps_ms=[0], rssi=[[-50, -50]], counts=[0], sampling_hz=45.0,
            )
        with pytest.raises(DatasetError, match="distance_cm must be positive"):
            RssiDataset(transmitters=(TransmitterMeta("M1", 0),), sampling_hz=45.0, **columns)
        with pytest.raises(DatasetError, match="sampling_hz must be positive"):
            RssiDataset(transmitters=(TransmitterMeta("M1", 10),), sampling_hz=0.0, **columns)


@st.composite
def datasets(draw):
    n_tx = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 12))
    timestamps = sorted(
        draw(
            st.lists(
                st.integers(0, 2**40), min_size=n_rows, max_size=n_rows
            )
        )
    )
    rows = []
    for ts in timestamps:
        rssi = tuple(draw(st.integers(-127, 0)) for _ in range(n_tx))
        count = draw(st.integers(0, 6))
        rows.append((ts, rssi, count))
    return make_dataset(rows, n_tx=n_tx, sampling_hz=draw(st.sampled_from([20.0, 45.0, 200.0])))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_serialize_parse_round_trip(dataset):
    meta = DatasetMeta(
        sampling_hz=dataset.sampling_hz,
        distance_by_mac={t.id: t.distance_cm for t in dataset.transmitters},
    )
    assert parse_dataset(serialize_dataset(dataset), meta) == dataset
    # sidecar round-trips too
    assert parse_sidecar(serialize_sidecar(dataset)).distance_by_mac == dict(
        meta.distance_by_mac
    )


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_deduplicate_matches_brute_force_seen_set(dataset):
    kept = seen_set_rows(dataset)
    deduped = deduplicate(dataset)
    assert np.array_equal(deduped.timestamps_ms, dataset.timestamps_ms[kept])
    assert np.array_equal(deduped.rssi, dataset.rssi[kept])
    assert np.array_equal(deduped.counts, dataset.counts[kept])


def test_sidecar_rate_round_trips_exactly():
    dataset = make_dataset([(0, (-50, -60), 1)], sampling_hz=44.1234567)
    assert parse_sidecar(serialize_sidecar(dataset)).sampling_hz == 44.1234567
    assert serialize_sidecar(make_dataset([], sampling_hz=200.0)).startswith("sampling_hz = 200\n")


# A key-value file with a comment line, blank lines, a trailing comment and CRLF breaks;
# its second slot, left as {} for a line with or without '=', is line 5.
KEY_VALUE_TEXT = "# written by hand\r\n\r\n{}   # the rate\r\n \t\r\n{}\r\n{}\r\n"


def test_sidecar_and_scenario_read_key_value_lines_alike():
    sidecar = KEY_VALUE_TEXT.format("sampling_hz = 45", "{}", "M1 = 100")
    assert parse_sidecar(sidecar.format("M2=250")) == DatasetMeta(45.0, {"M2": 250, "M1": 100})
    with pytest.raises(DatasetError) as raised:
        parse_sidecar(sidecar.format("M2 250"))
    assert type(raised.value) is DatasetError
    message = "line 5: expected 'key = value', got 'M2 250'"
    assert (str(raised.value), raised.value.line) == (message, 5)

    scenario = KEY_VALUE_TEXT.format("sampling_hz = 45", "{}", "duration_s = 10")
    config = load_scenario(scenario.format("transmitter =M1 100"))
    assert config.transmitters == (("M1", 100),)
    assert (config.sampling_hz, config.duration_s) == (45.0, 10.0)
    with pytest.raises(ScenarioError) as raised:
        load_scenario(scenario.format("transmitter M1 100"))
    assert type(raised.value) is ScenarioError
    assert str(raised.value) == "line 5: expected 'key = value', got 'transmitter M1 100'"


def meta_of(dataset):
    return DatasetMeta(
        sampling_hz=dataset.sampling_hz,
        distance_by_mac={t.id: t.distance_cm for t in dataset.transmitters},
    )


def respellings(stamp, timestamp_ms):
    """Other accepted spellings of a canonical stamp; the last two may name another instant."""
    date_and_time, millis = stamp[:19], stamp[20:]
    return [
        stamp,
        str(timestamp_ms),  # epoch milliseconds
        f"{date_and_time}.{millis.rstrip('0') or '0'}",  # '.5' for 500 ms
        f"{date_and_time}.{millis}000",  # microseconds
        re.sub(r"\b0(\d)", r"\1", date_and_time) + "." + millis,  # '1/2/2021 3:4:5.006'
        date_and_time,  # no milliseconds
        f"{date_and_time}.{millis[:2]}",  # a short millisecond part
    ]


# One corrupted row each: {field: new text}; -1 is the count, -2 the occupancy.
CORRUPTIONS = [
    *({1: text} for text in ["abc", "-200", "-300", "-256", "5", "-50.0", "", "−50", "-５０", "é"]),
    *({-2: text} for text in ["TRUE", "yes", "True "]),
    *({-1: text} for text in ["x", "٣"]),
    {-2: "false", -1: "-1"},  # a negative count that agrees with its occupancy
    {-2: "false", -1: "3"},
    *({0: text} for text in ["0", "01/01/1970 00:00:00.000", "١٠", "1e3"]),
    *({0: text} for text in ["31/02/2021 00:00:00.000", "01/01/2021 24:00:00.000"]),
    *({0: text} for text in ["01/01/2021 00:00:60.000", "26/08/2020 09:56:45.0100000"]),
]


@st.composite
def dataset_csvs(draw):
    """Serialized ``datasets()`` respelled, padded and maybe corrupted as outside files are."""
    dataset = draw(datasets())
    lines = serialize_dataset(dataset).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for fields, timestamp_ms in zip(rows, dataset.timestamps_ms.tolist()):
        if draw(st.integers(0, 3)) == 0:
            fields[0] = draw(st.sampled_from(respellings(fields[0], timestamp_ms)))
        if draw(st.integers(0, 7)) == 0:
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(st.sampled_from([" ", "\t", " \t"])) + fields[i] + " "
    if rows and draw(st.booleans()):
        fields = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(CORRUPTIONS + ["flip occupancy", "drop", "extra"]))
        if change == "flip occupancy":
            fields[-2] = "true" if fields[-2] == "false" else "false"
        elif change == "drop":
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        elif change == "extra":
            fields.append("-50")
        else:
            for i, text in change.items():
                fields[i] = text
    lines[1:] = [",".join(fields) for fields in rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " ", "\t", "  \t "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, meta_of(dataset)


def open_text(data):
    """``data`` (bytes) as the CLI opens a dataset file: strict UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def parse_file(text, meta):
    with open_text(text.encode("utf-8")) as file:
        return parse_dataset(file, meta)


def assert_parses_like_reference(text, meta):
    """The same dataset as the line-by-line parser, or the same error on the same line.

    The text is parsed as given and as a file holding it.
    """
    try:
        expected = reference.parse_dataset(text, meta)
    except DatasetError as error:
        for parse in (parse_dataset, parse_file):
            with pytest.raises(DatasetError) as raised:
                parse(text, meta)
            assert (str(raised.value), raised.value.line) == (str(error), error.line)
    else:
        assert parse_dataset(text, meta) == expected
        assert parse_file(text, meta) == expected


@contextlib.contextmanager
def small_pieces(chunk_chars):
    """Read ``chunk_chars`` characters at a time, so each piece holds a line or a few."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_module, "_CHUNK_CHARS", chunk_chars)
        yield


@settings(max_examples=400, deadline=None)
@given(dataset_csvs(), st.integers(1, 64))
def test_parse_matches_line_by_line_reference(case, chunk_chars):
    assert_parses_like_reference(*case)
    # chunks of a few characters, so pieces of a line or a few: their edges fall beside
    # blank, respelled and bad lines, inside "\r\n", and before a missing final newline
    with small_pieces(chunk_chars):
        assert_parses_like_reference(*case)


M1_SIDECAR = "sampling_hz = 45\nM1 = 100\n"
M1_LINES = [
    "timestamp,M1,occupancy,count",
    "26/08/2020 09:56:45.005,-50,false,0",
    " 26/08/2020 09:56:45.010 , -51 , true , 1",
    "26/08/2020 09:56:45.015,-52,true,2",
    "1598435805020,-53,false,0",
    "26/08/2020 09:56:45.025,-54,true,3",
]


def m1_text(newline="\n", *, end=True, line=None, text=None):
    """M1_LINES joined by ``newline``, line ``line`` (1-based) replaced by ``text``."""
    lines = list(M1_LINES)
    if line is not None:
        lines[line - 1] = text
    return newline.join(lines) + (newline if end else "")


# (text, the error it raises or None): each line break that str.splitlines knows,
# blank lines, no final newline, and a bad line and a decrease that chunk edges cut
BREAK_CASES = {
    "crlf": (m1_text("\r\n"), None),
    "cr": (m1_text("\r"), None),
    "cr-crlf": (m1_text("\r\r\n"), None),
    "file-separator": (m1_text("\x1c"), None),
    "line-separator": (m1_text("\u2028"), None),
    "mixed": ("\r\n".join(M1_LINES[:3]) + "\r" + "\x1c".join(M1_LINES[3:]) + "\u2028", None),
    "blank-lines": ("\n \t\n" + m1_text("\n\n").replace("\n\n", "\n \n", 2), None),
    "no-final-newline": (m1_text(end=False), None),
    "no-final-newline-crlf": (m1_text("\r\n", end=False), None),
    "final-cr": (m1_text() + "\r", None),
    "bad-line": (m1_text(line=4, text="26/08/2020 09:56:45.015,-5x,true,2"),
                 "line 4: non-integer RSSI '-5x' for M1"),
    "bad-line-crlf": (m1_text("\r\n", line=4, text="26/08/2020 09:56:45.015,-52,yes,2"),
                      "line 4: occupancy must be true/false, got 'yes'"),
    "decrease": (m1_text(line=4, text="26/08/2020 09:56:45.000,-52,true,2"),
                 "line 4: timestamp decreases (1598435805000 < 1598435805010)"),
    "decrease-among-blank-lines": (m1_text("\n\n", line=4, text="1598435805000,-52,true,2"),
                                   "line 7: timestamp decreases (1598435805000 < 1598435805010)"),
}


@pytest.mark.parametrize("case", BREAK_CASES, ids=str)
def test_every_chunk_and_block_size_parses_like_reference(case):
    text, message = BREAK_CASES[case]
    sidecar = parse_sidecar(M1_SIDECAR)
    if message is None:
        assert parse_dataset(text, sidecar) == reference.parse_dataset(text, sidecar)
    else:
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            parse_dataset(text, sidecar)
    # Chunk edges at every character of the first lines, so the pieces decoded at once
    # hold no line, one or two: a piece edge falls after every line.
    for chunk_chars in range(1, 65):
        with small_pieces(chunk_chars):
            assert_parses_like_reference(text, sidecar)


def stamped_text(stamps):
    """An M1 dataset with one line per timestamp field, each as given."""
    lines = [M1_LINES[0]]
    for i, stamp in enumerate(stamps):
        lines.append(f"{stamp},-{50 + i % 20},{'true' if i % 3 else 'false'},{i % 3}")
    return "\n".join(lines) + "\n"


# Epoch-ms stamps beside canonical ones: '-'? and 1-18 digits are decoded in bulk; a sign,
# an underscore, padding or a 19th digit takes the per-line checks, which int() accepts
EPOCH_CASES = {
    "mixed": ["1598435805000", "26/08/2020 09:56:45.005", "001598435805006", "+1598435805007",
              "1_598_435_805_008", " 1598435805009 ", "0000001598435805010",
              "26/08/2020 09:56:45.011", "1598435805011"],
    "signs-and-zeros": ["-999999999999999999", "-5", "-0", "0", "000", "7", "999999999999999999",
                        "1000000000000000000"],
    "decrease-after-canonical": ["26/08/2020 09:56:45.011", "1598435805010"],
    "decrease-after-epoch": ["1598435805012", "26/08/2020 09:56:45.011"],
    "decrease-after-per-line": ["+1598435805012", "1598435805011"],
    "bad-rssi-on-epoch-line": ["1598435805000", "1598435805001,-5x"],
    **{f"bad-stamp-{text!r}": ["1598435805000", text] for text in ("-", "", "--5", "5-", "1.5")},
}


@pytest.mark.parametrize("case", EPOCH_CASES, ids=str)
def test_epoch_ms_beside_canonical_stamps_parses_like_reference(case):
    text = stamped_text(EPOCH_CASES[case])
    sidecar = parse_sidecar(M1_SIDECAR)
    assert_parses_like_reference(text, sidecar)
    for chunk_chars in (1, 7, 40):
        with small_pieces(chunk_chars):
            assert_parses_like_reference(text, sidecar)


def test_epoch_ms_lines_take_the_bulk_decode(monkeypatch):
    stamps = ["-999999999999999999", *map(str, range(-1000, 20_000, 7)), "999999999999999999"]
    text = stamped_text(stamps)
    sidecar = parse_sidecar(M1_SIDECAR)
    expected = reference.parse_dataset(text, sidecar)

    def per_line(*args):
        raise AssertionError(f"a valid line took the per-line checks: {args[:2]}")

    monkeypatch.setattr(dataset_module, "_parse_row", per_line)
    assert parse_dataset(text, sidecar) == expected


@pytest.mark.parametrize("chunk_chars", [1, 5, 64, 1 << 18])
def test_undecodable_byte_names_its_line(chunk_chars, monkeypatch):
    monkeypatch.setattr(dataset_module, "_CHUNK_CHARS", chunk_chars)
    sidecar = parse_sidecar(M1_SIDECAR)
    message = "line {}: not valid utf-8: b'\\xff' (invalid start byte)"
    for newline in ("\n", "\r\n", "\r"):
        data = m1_text(newline).encode()
        at = data.index(b"-53")  # line 5
        with open_text(data[:at] + b"\xff" + data[at:]) as file:
            with pytest.raises(DatasetError, match=re.escape(message.format(5))) as raised:
                parse_dataset(file, sidecar)
        assert raised.value.line == 5
        # an earlier bad line is named first, wherever the chunks end
        bad = data.replace(b"-51", b"-5x")
        with open_text(bad[:at] + b"\xff" + bad[at:]) as file:
            with pytest.raises(DatasetError, match="^line 3: non-integer RSSI '-5x' for M1$"):
                parse_dataset(file, sidecar)
        # and a later one is not reached
        bad = data.replace(b"-54", b"-5x")
        with open_text(bad[:at] + b"\xff" + bad[at:]) as file:
            with pytest.raises(DatasetError, match=re.escape(message.format(5))):
                parse_dataset(file, sidecar)
    # a byte in the header's line, and a stream that cannot be read again
    with open_text(b"time\xffstamp,M1,occupancy,count\n") as file:
        with pytest.raises(DatasetError, match=re.escape(message.format(1))):
            parse_dataset(file, sidecar)

    class OneWay(io.BytesIO):
        def seekable(self):
            return False

        def seek(self, *args):
            raise io.UnsupportedOperation("seek")

    with io.TextIOWrapper(OneWay(b"\xff"), encoding="utf-8") as file:
        with pytest.raises(DatasetError, match="^not valid utf-8") as raised:
            parse_dataset(file, sidecar)
    assert raised.value.line is None


@pytest.mark.parametrize("change", CORRUPTIONS, ids=repr)
def test_each_corruption_of_a_canonical_line_matches_reference(change):
    lines = COLLECTION_CSV.splitlines()
    fields = lines[2].split(",")
    for i, text in change.items():
        fields[i] = text
    lines[2] = ",".join(fields)
    text, sidecar = "\n".join(lines) + "\n", parse_sidecar(COLLECTION_SIDECAR)
    assert_parses_like_reference(text, sidecar)
    for chunk_chars in (7, 120):  # the bad line alone in a piece, and at a 2-line piece's end
        with small_pieces(chunk_chars):
            assert_parses_like_reference(text, sidecar)


@pytest.mark.parametrize("chunk_chars", [1, 2, 1 << 13])
def test_mixed_breaks_are_numbered_as_splitlines_numbers_them(chunk_chars, monkeypatch):
    # "\r\r\n" (CRLF endings converted twice) is two breaks, "\r" then "\r\n", so
    # every line after one is numbered one further on; the bad line is line 6. Chunks of
    # 1 and 2 characters make a piece of every line (2 cuts the first "\r\r\n" after
    # its "\r\r"), and 8,192 makes one piece of the text.
    sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
    text = "timestamp,M1,occupancy,count\r\r\n0,-50,false,0\r\r\n1,-50,false,0\r\n2,x,false,0\n"
    monkeypatch.setattr(dataset_module, "_CHUNK_CHARS", chunk_chars)
    assert_parses_like_reference(text, sidecar)
    with pytest.raises(DatasetError, match="line 6: non-integer RSSI 'x'"):
        parse_dataset(text, sidecar)
    assert_parses_like_reference(text.replace("x", "-50"), sidecar)


def test_first_of_two_bad_lines_is_named():
    sidecar = parse_sidecar("sampling_hz = 45\nM1 = 100\n")
    text = "timestamp,M1,occupancy,count\n0,-50,false,0\n0,x,false,0\n0,-50,maybe,0\n"
    with pytest.raises(DatasetError, match="line 3: non-integer RSSI 'x'"):
        parse_dataset(text, sidecar)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), max_size=20).map(sorted))
@example([-(2**40), -1, 0, 999, 1000, 2**40])
def test_timestamp_codec_agrees_with_datetime(stamps):
    dataset = make_dataset([(t, (-50,), 0) for t in stamps], n_tx=1)
    text = serialize_dataset(dataset)
    assert text == reference.serialize_dataset(dataset)
    assert parse_dataset(text, meta_of(dataset)) == dataset


ONE_ROW = "timestamp,M1,occupancy,count\n{},-50,false,0\n"
ONE_ROW_META = DatasetMeta(sampling_hz=45.0, distance_by_mac={"M1": 100})


@pytest.mark.parametrize(
    "stamp",
    [
        "28/02/1972 23:59:59.999", "29/02/1972 00:00:00.000", "01/03/1972 00:00:00.000",
        "29/02/2000 12:00:00.000", "28/02/2100 23:59:59.999", "01/03/2100 00:00:00.000",
        "31/12/1969 23:59:59.999", "31/12/1999 23:59:59.999", "01/01/2000 00:00:00.000",
        "01/01/0001 00:00:00.000", "31/12/9999 23:59:59.999",
    ],
)
def test_calendar_edges_decode_like_strptime_and_round_trip(stamp):
    dataset = parse_dataset(ONE_ROW.format(stamp), ONE_ROW_META)
    assert dataset.timestamps_ms.tolist() == [reference.parse_timestamp(stamp)]
    assert serialize_dataset(dataset) == ONE_ROW.format(stamp)


@pytest.mark.parametrize(
    "stamp",
    [
        "31/02/2021 00:00:00.000", "29/02/2100 00:00:00.000", "31/04/2021 00:00:00.000",
        "00/01/2021 00:00:00.000", "01/13/2021 00:00:00.000", "01/00/2021 00:00:00.000",
        "01/01/0000 00:00:00.000", "01/01/2021 24:00:00.000", "01/01/2021 00:60:00.000",
        "01/01/2021 00:00:60.000",
    ],
)
def test_impossible_calendar_values_raise_like_strptime(stamp):
    with pytest.raises(DatasetError) as expected:
        reference.parse_dataset(ONE_ROW.format(stamp), ONE_ROW_META)
    with pytest.raises(DatasetError) as raised:
        parse_dataset(ONE_ROW.format(stamp), ONE_ROW_META)
    assert str(raised.value) == str(expected.value) == f"line 2: unparseable timestamp {stamp!r}"


def test_years_outside_four_digits_are_not_serialized():
    with pytest.raises(DatasetError, match="outside years 1-9999"):
        serialize_dataset(make_dataset([(253_402_300_800_000, (-50,), 0)], n_tx=1))


def test_empty_body_round_trips_without_warnings():
    empty = make_dataset([], n_tx=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = serialize_dataset(empty)
        assert text == "timestamp,AA:00,AA:01,occupancy,count\n"
        assert parse_dataset(text, meta_of(empty)) == empty
        assert parse_dataset(text.rstrip("\n"), meta_of(empty)) == empty


def random_dataset(n):
    """``n`` records of four transmitters at 200 Hz: 48 bytes a row as text."""
    rng = np.random.default_rng(8)
    return RssiDataset(
        transmitters=tuple(TransmitterMeta(f"M{i}", 100) for i in range(4)),
        timestamps_ms=1_600_000_000_000 + 5 * np.arange(n),
        rssi=rng.integers(-127, 1, (n, 4)),
        counts=rng.integers(0, 4, n),
        sampling_hz=200.0,
    )


def test_parse_peak_memory_is_a_few_times_the_text():
    # Beside the text it is given, the parse holds the columns (0.42x the text, with
    # int8 RSSI) and one chunk of the text, encoded and decoded a block at a time: it
    # peaks near 1.7x the text here, and near 0.63x at 120,000 rows.
    dataset = random_dataset(20_000)
    text = serialize_dataset(dataset)
    tracemalloc.start()
    try:
        parsed = parse_dataset(text, meta_of(dataset))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == dataset
    assert peak < 4.3 * len(text), peak / len(text)


@pytest.mark.parametrize("n", [20_000, 120_000])
def test_file_parse_peaks_at_the_columns_plus_a_few_chunks(n, tmp_path):
    # The file is read a chunk at a time into columns grown in place: the parse holds
    # the columns and what one chunk takes (the file object's buffers, the chunk, its
    # UTF-8 bytes and one block's temporaries), near 6.7 chunks, never the whole file.
    dataset = random_dataset(n)
    path = tmp_path / "d.csv"
    path.write_text(serialize_dataset(dataset), encoding="utf-8")
    columns = sum(column.nbytes for column in (dataset.timestamps_ms, dataset.rssi, dataset.counts))
    chunk = dataset_module._CHUNK_CHARS
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as file:
            parsed = parse_dataset(file, meta_of(dataset))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == dataset
    assert peak < columns + 8 * chunk, (peak - columns) / chunk
    if n == 120_000:
        assert path.stat().st_size > 20 * chunk  # holding the file would break the bound


# Lines shorter than a canonical line's 33 characters put more of them in a chunk, and the
# parse's temporaries grow with the lines of a piece: a header, then blank lines or short
# epoch-ms lines (one transmitter), several chunks of each, and the most the parse may
# hold above the columns. Measured: 14.8 MiB given the text and 15.3 MiB from a file for
# the blank lines (262,144 of them a chunk), 2.3 and 2.8 MiB for the epoch-ms lines.
SHORT_LINES = {
    "blank": ("\n" * 1_000_000, 15.5),
    "epoch-ms": ("".join(f"{i},-50,false,0\n" for i in range(20_000)), 3.0),
}


@pytest.mark.parametrize("case", SHORT_LINES)
def test_short_lines_peak_at_what_a_piece_of_them_takes(case):
    body, bound_mib = SHORT_LINES[case]
    text = M1_LINES[0] + "\n" + body
    meta = parse_sidecar(M1_SIDECAR)
    expected = reference.parse_dataset(text, meta)
    columns = sum(getattr(expected, name).nbytes for name in ("timestamps_ms", "rssi", "counts"))
    with open_text(text.encode("utf-8")) as file:
        for source in (text, file):
            tracemalloc.start()
            try:
                parsed = parse_dataset(source, meta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert parsed == expected
            assert peak - columns < bound_mib * 2**20, (peak - columns) / 2**20
