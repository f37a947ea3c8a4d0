"""Segmentation and the time/frequency feature catalog."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rssi_occupancy import features
from rssi_occupancy.dataset import RssiDataset, TransmitterMeta, deduplicate
from rssi_occupancy.features import (
    FEATURES_PER_TRANSMITTER,
    FREQ_FEATURE_NAMES,
    N_ECDF_POINTS,
    TIME_FEATURE_NAMES,
    FeatureError,
    FeatureMatrix,
    Windows,
    build_feature_matrix,
    build_raw_matrix,
    freq_features,
    segment,
    time_features,
    window_length,
)
from rssi_occupancy.simulator import (
    BodyEffectParams,
    PathLossParams,
    ScenarioConfig,
    simulate,
)

import features_reference as reference
from conftest import small_scenario

T = {name: i for i, name in enumerate(TIME_FEATURE_NAMES)}
F = {name: i for i, name in enumerate(FREQ_FEATURE_NAMES)}


def make_dataset(counts, n_tx=1, sampling_hz=20.0, rssi=None):
    """One record per count, 50 ms apart; ``rssi`` defaults to -50 - tx on every row."""
    transmitters = tuple(TransmitterMeta(f"AA:{i:02X}", 100 + i) for i in range(n_tx))
    if rssi is None:
        rssi = np.tile(-50 - np.arange(n_tx), (len(counts), 1))
    return RssiDataset(
        transmitters=transmitters,
        timestamps_ms=np.arange(len(counts)) * 50,
        rssi=rssi,
        counts=np.array(counts, dtype=np.int64),
        sampling_hz=sampling_hz,
    )


class TestSegment:
    def test_200hz_600_records_three_windows(self):
        dataset = make_dataset([0] * 600, sampling_hz=200.0)
        windows = segment(dataset, 1.0)
        assert len(windows) == 3
        assert windows.samples.shape == (3, 1, 200)
        assert windows.counts.shape == (3, 200)

    def test_exact_fit_single_window(self):
        dataset = make_dataset([0] * 45, sampling_hz=45.0)
        windows = segment(dataset, 1.0)
        assert len(windows) == 1
        assert windows.samples.shape == (1, 1, 45)

    def test_trailing_partial_dropped(self):
        assert len(segment(make_dataset([0] * 100, sampling_hz=20.0), 1.0)) == 5
        assert len(segment(make_dataset([0] * 101, sampling_hz=20.0), 1.0)) == 5

    def test_too_short_dataset(self):
        with pytest.raises(FeatureError, match="shorter than one window"):
            segment(make_dataset([0] * 10, sampling_hz=20.0), 1.0)

    def test_window_under_two_samples_rejected(self):
        with pytest.raises(FeatureError, match="< 2 samples"):
            segment(make_dataset([0] * 100, sampling_hz=20.0), 0.05)

    @pytest.mark.parametrize(
        "window_s, sampling_hz, message",
        [
            (float("inf"), 20.0, "window_s must be positive and finite, got inf"),
            (float("nan"), 20.0, "window_s must be positive and finite, got nan"),
            (1.0, float("inf"), "sampling_hz must be positive and finite, got inf"),
            (1e308, 20.0, "overflows a float"),
        ],
        ids=["inf-window", "nan-window", "inf-rate", "overflow"],
    )
    def test_non_finite_window_rejected(self, window_s, sampling_hz, message):
        # a FeatureError, not the OverflowError or "cannot convert NaN" of int(round(...))
        with pytest.raises(FeatureError, match=message):
            window_length(window_s, sampling_hz)

    def test_majority_labels_with_ties(self):
        # occupancy tie (2 occupied vs 2 empty) -> True; count majority -> 0
        windows = segment(make_dataset([0, 0, 1, 2] * 5, sampling_hz=20.0), 1.0)
        assert windows.labels_occupancy.tolist() == [True]
        assert windows.labels_count.tolist() == [0]
        # count tie between 1 and 2 -> larger wins
        windows = segment(make_dataset([1, 1, 2, 2] * 5, sampling_hz=20.0), 1.0)
        assert windows.labels_count.tolist() == [2]
        # clear majority
        windows = segment(make_dataset([3, 3, 3, 0] * 5, sampling_hz=20.0), 1.0)
        assert windows.labels_count.tolist() == [3]
        assert windows.labels_occupancy.tolist() == [True]

        # 400 windows of 6 random counts, many of them tied, against the former
        # per-window rule
        rng = np.random.default_rng(15)
        counts = rng.integers(0, 4, size=400 * 6) * rng.integers(0, 2, size=400 * 6)
        windows = segment(make_dataset(counts.tolist(), sampling_hz=6.0), 1.0)
        assert windows.labels_occupancy.dtype == bool
        assert windows.labels_count.dtype == np.int64
        want_occupancy, want_count = [], []
        for row in counts.reshape(400, 6):
            n_true = int(np.count_nonzero(row > 0))
            want_occupancy.append(n_true >= row.size - n_true)  # tie -> occupied
            freq = np.bincount(row)
            want_count.append(int(np.flatnonzero(freq == freq.max())[-1]))  # tie -> larger
        assert windows.labels_occupancy.tolist() == want_occupancy
        assert windows.labels_count.tolist() == want_count
        assert 0 < sum(want_occupancy) < 400

    def test_count_labels_peak_near_two_copies_of_the_counts(self):
        # 600 windows of 200 counts (960 kB): the sorted copy and one key array built in
        # place, where temporaries once took ~4x the counts
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 4, size=(600, 200))
        windows = Windows(("M1",), 200.0, np.zeros((600, 1, 200)), counts)
        tracemalloc.start()
        try:
            labels = windows.labels_count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1e6, peak
        frequencies = map(np.bincount, counts)
        want = [int(np.flatnonzero(freq == freq.max())[-1]) for freq in frequencies]  # ties: larger
        assert labels.tolist() == want

    def test_huge_count_is_its_own_label(self):
        # a count of 10**12 is a valid int64; a bincount over it would ask for 7.28 TiB
        windows = segment(make_dataset([10**12] * 11 + [0] * 9, sampling_hz=20.0), 1.0)
        assert windows.labels_count.tolist() == [10**12]
        assert windows.labels_occupancy.tolist() == [True]

    def test_len_and_indexing_select_windows(self):
        rng = np.random.default_rng(16)
        rssi = rng.integers(-90, -40, size=(100, 2))
        counts = rng.integers(0, 3, size=100).tolist()
        windows = segment(make_dataset(counts, n_tx=2, sampling_hz=20.0, rssi=rssi), 1.0)
        assert len(windows) == 5
        first = windows[0]  # an integer selects a block of one window
        assert isinstance(first, Windows) and len(first) == 1
        assert first.transmitter_ids == ("AA:00", "AA:01")
        assert first.sampling_hz == 20.0
        assert np.array_equal(first.samples, rssi[:20].T[None])
        assert np.array_equal(first.counts, np.array(counts[:20])[None])
        occupied = windows.labels_occupancy
        for index, rows in [
            (-1, [4]),
            (slice(1, 3), [1, 2]),
            ([4, 0], [4, 0]),
            (occupied, np.flatnonzero(occupied)),
        ]:
            selected = windows[index]
            assert len(selected) == len(rows)
            assert np.array_equal(selected.samples, windows.samples[rows])
            assert np.array_equal(selected.counts, windows.counts[rows])
            assert np.array_equal(selected.labels_count, windows.labels_count[rows])
        with pytest.raises(IndexError):
            windows[5]


class TestTimeFeatures:
    def test_catalog_size(self):
        assert len(TIME_FEATURE_NAMES) == 35
        assert len(time_features(np.arange(10.0))) == 35

    def test_hand_computed_example(self):
        values = time_features(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert values[T["mean"]] == 3.0
        assert values[T["std"]] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert values[T["rms"]] == pytest.approx(np.sqrt(11.0), rel=1e-12)
        assert values[T["range"]] == 4.0
        assert values[T["median"]] == 3.0
        assert values[T["iqr"]] == 2.0
        assert values[T["p25"]] == 2.0
        assert values[T["p75"]] == 4.0
        assert values[T["p10"]] == pytest.approx(1.4)
        assert values[T["p90"]] == pytest.approx(4.6)
        assert values[T["skewness"]] == pytest.approx(0.0, abs=1e-12)
        assert values[T["kurtosis"]] == pytest.approx(-1.3, rel=1e-12)
        assert values[T["tw_variance"]] == pytest.approx(2.0, rel=1e-12)
        assert values[T["mean_abs_dev"]] == pytest.approx(1.2, rel=1e-12)
        assert values[T["mean_power_dev"]] == pytest.approx(7.6, rel=1e-12)
        assert values[T["sum_below_p10"]] == 1.0
        assert values[T["sum_below_p25"]] == 1.0
        assert values[T["sum_above_p75"]] == 5.0
        assert values[T["sum_above_p90"]] == 5.0
        # ECDF at 10 equally spaced points, independent oracle
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for j, t in enumerate(np.linspace(1.0, 5.0, 10)):
            assert values[T[f"ecdf_{j + 1}"]] == np.mean(x <= t)

    def test_constant_vector_degenerate_rules(self):
        values = time_features(np.full(200, -42.0))
        for name in ("max", "min", "mean", "median"):
            assert values[T[name]] == -42.0
        for name in ("std", "range", "skewness", "kurtosis", "iqr", "tw_variance"):
            assert values[T[name]] == 0.0
        for i in range(1, 5):
            assert values[T[f"ar_{i}"]] == 0.0
        for j in range(1, 11):
            assert values[T[f"ecdf_{j}"]] == 1.0

    def test_minimum_length_two(self):
        assert np.all(np.isfinite(time_features(np.array([1.0, 2.0]))))
        with pytest.raises(FeatureError):
            time_features(np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=0, allow_nan=False),
            min_size=4,
            max_size=64,
        )
    )
    @example([0.0, 0.0, 0.0, -5.3e-133])
    def test_skewness_of_negation_is_negated(self, values):
        x = np.array(values)
        skew = time_features(x)[T["skewness"]]
        skew_neg = time_features(-x)[T["skewness"]]
        assert skew_neg == pytest.approx(-skew, rel=1e-9, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(-60, 3, size=128)
        shift = 7.25
        base = time_features(x)
        shifted = time_features(x + shift)
        for name in ("std", "range", "iqr", "skewness", "kurtosis", "mean_abs_dev"):
            assert shifted[T[name]] == pytest.approx(base[T[name]], rel=1e-9, abs=1e-9)
        for name in ("max", "min", "mean", "median", "p25", "p75"):
            assert shifted[T[name]] == pytest.approx(base[T[name]] + shift, rel=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(-60, 3, size=128)
        alpha = 2.0
        base = time_features(x)
        scaled = time_features(alpha * x)
        for name in ("std", "range", "iqr", "mean_abs_dev"):
            assert scaled[T[name]] == pytest.approx(alpha * base[T[name]], rel=1e-12)
        for name in ("skewness", "kurtosis"):
            assert scaled[T[name]] == pytest.approx(base[T[name]], rel=1e-9)


class TestFreqFeatures:
    def test_catalog_size(self):
        assert len(FREQ_FEATURE_NAMES) == 21
        assert len(freq_features(np.arange(16.0), 45.0)) == 21

    def test_constant_signal_all_zero(self):
        values = freq_features(np.full(64, -55.0), 45.0)
        for i in range(1, 11):
            assert values[F[f"fft_mag_{i}"]] == 0.0
        assert values[F["dominant_power_ratio"]] == 0.0
        assert values[F["wavelet_entropy"]] == 0.0
        assert values[F["hf_power_ratio"]] == 0.0

    def test_sine_dominant_frequency(self):
        t = np.arange(200) / 200.0
        x = np.sin(2 * np.pi * 2.0 * t)
        values = freq_features(x, 200.0)
        assert abs(values[F["dominant_freq_hz"]] - 2.0) <= 1.0  # one 1-Hz bin
        assert values[F["hf_power_ratio"]] < 0.05
        # Hann windowing spreads the tone over neighbouring bins; the peak
        # bin still carries the largest share by far.
        assert values[F["dominant_power_ratio"]] > 0.3

    def test_parseval_subbands_match_total_power(self):
        rng = np.random.default_rng(12)
        for fs in (20.0, 45.0, 200.0):
            x = rng.normal(-60, 4, size=int(fs))
            values = freq_features(x, fs)
            # independent oracle: positive-bin power of the same transform
            n_fft = 1
            while n_fft < x.size:
                n_fft *= 2
            spectrum = np.fft.rfft((x - x.mean()) * np.hanning(x.size), n_fft)
            total = float(np.sum(np.abs(spectrum[1:]) ** 2))
            bands = sum(values[F[f"band_energy_{b}"]] for b in range(1, 5))
            assert bands == pytest.approx(total, rel=1e-6)

    def test_low_rate_hf_ratio_defined_zero_and_flagged(self):
        x = np.sin(2 * np.pi * 1.0 * np.arange(24) / 6.0)
        values = freq_features(x, 6.0)
        assert values[F["hf_power_ratio"]] == 0.0
        matrix = build_feature_matrix(make_window(x[None, :], sampling_hz=6.0))
        assert matrix.diagnostics.hf_ratio_ill_posed

    def test_minimum_length_four(self):
        with pytest.raises(FeatureError):
            freq_features(np.array([1.0, 2.0, 3.0]), 45.0)


def noiseless_scenario(count):
    return ScenarioConfig(
        transmitters=(("M1", 100), ("M2", 300)),
        sampling_hz=45.0,
        duration_s=20.0,
        schedule=((0.0, count),) if count else (),
        path_loss=PathLossParams(-45.0, 100.0, 2.0, 0.0),
        body_effect=BodyEffectParams(6.0, 0.0, 0.0),
        seed=1,
    )


class TestFeatureMatrix:
    def test_column_count_per_transmitter(self):
        assert FEATURES_PER_TRANSMITTER == 56
        dataset = simulate(noiseless_scenario(0))
        matrix = build_feature_matrix(segment(dataset))
        assert matrix.n_features == 2 * 56
        assert matrix.feature_names[0] == "M1/max"
        assert matrix.feature_names[56] == "M2/max"
        assert all("/" in name for name in matrix.feature_names)

    def test_five_transmitters_280_columns(self):
        transmitters = tuple((f"T{i}", 100 + 50 * i) for i in range(5))
        config = ScenarioConfig(
            transmitters=transmitters,
            sampling_hz=20.0,
            duration_s=5.0,
            schedule=(),
            path_loss=PathLossParams(-45.0, 100.0, 2.0, 0.5),
            body_effect=BodyEffectParams(),
            seed=2,
        )
        matrix = build_feature_matrix(segment(simulate(config)))
        assert matrix.n_features == 5 * 56 == 280

    def test_single_window_row_finite(self):
        dataset = make_dataset([0] * 20, n_tx=1, sampling_hz=20.0)
        matrix = build_feature_matrix(segment(dataset))
        assert matrix.rows.shape == (1, 56)
        assert np.all(np.isfinite(matrix.rows))

    def test_attenuation_shows_up_in_mean_feature(self):
        empty = build_feature_matrix(segment(simulate(noiseless_scenario(0))))
        three = build_feature_matrix(segment(simulate(noiseless_scenario(3))))
        for tx in range(2):
            col = tx * 56 + T["mean"]
            diff = empty.rows[:, col].mean() - three.rows[:, col].mean()
            assert diff == pytest.approx(3 * 6.0, abs=1e-9)

    def test_transmitter_permutation_permutes_column_blocks(self):
        rng = np.random.default_rng(13)
        rssi = rng.integers(-90, -40, size=(60, 3))
        dataset = make_dataset([1] * 60, n_tx=3, sampling_hz=20.0, rssi=rssi)
        base = build_feature_matrix(segment(dataset))

        perm = [2, 0, 1]
        permuted_dataset = RssiDataset(
            transmitters=tuple(dataset.transmitters[p] for p in perm),
            timestamps_ms=dataset.timestamps_ms,
            rssi=dataset.rssi[:, perm],
            counts=dataset.counts,
            sampling_hz=dataset.sampling_hz,
        )
        permuted = build_feature_matrix(segment(permuted_dataset))
        blocks = [base.rows[:, p * 56 : (p + 1) * 56] for p in perm]
        assert np.array_equal(permuted.rows, np.concatenate(blocks, axis=1))
        assert permuted.feature_names == tuple(
            name for p in perm for name in base.feature_names[p * 56 : (p + 1) * 56]
        )

    def test_nonfinite_values_replaced_and_tallied(self):
        samples = np.array([[np.nan, -50.0, -51.0, -50.0, -52.0, -50.0, -49.0, -50.0]])
        matrix = build_feature_matrix(make_window(samples))
        assert np.all(np.isfinite(matrix.rows))
        assert matrix.diagnostics.nonfinite_replaced > 0

    def test_empty_block_gives_empty_matrices(self):
        empty = random_windows(0, 3, 2, 20)[:0]
        features = build_feature_matrix(empty)
        assert features.rows.shape == (0, 2 * 56)
        assert features.labels_count.shape == features.labels_occupancy.shape == (0,)
        assert build_raw_matrix(empty).rows.shape == (0, 2)

    def test_csv_bytes_match_the_per_value_writer(self):
        rows = np.array(
            [
                [-0.0, 5e-324, 1e16, 1e-5, -42.0],
                [3.0, np.nan, np.inf, -np.inf, 0.1],
                [0.0, -5e-324, 1.7976931348623157e308, 123456789.0, -1e-5],
            ]
        )
        matrix = FeatureMatrix(
            feature_names=tuple(f"M1/f{j}" for j in range(rows.shape[1])),
            rows=rows,
            labels_occupancy=np.array([True, False, True]),
            labels_count=np.array([2, 0, 13], dtype=np.int64),
        )
        # the former writer: one repr(float(v)) per value, labels indexed per row
        header = ",".join((*matrix.feature_names, "label_occupancy", "label_count"))
        lines = [header]
        for i in range(matrix.n_rows):
            values = ",".join(repr(float(v)) for v in matrix.rows[i])
            occ = "true" if matrix.labels_occupancy[i] else "false"
            lines.append(f"{values},{occ},{int(matrix.labels_count[i])}")
        want = "\n".join(lines) + "\n"
        assert matrix.to_csv().encode() == want.encode()
        assert "-0.0,5e-324,1e+16,1e-05,-42.0,true,2" in want


class TestRawMatrix:
    def test_one_row_per_record_and_identity_values(self):
        rng = np.random.default_rng(14)
        rssi = rng.integers(-90, -40, size=(63, 2))
        counts = [int(c) for c in rng.integers(0, 3, size=63)]
        dataset = make_dataset(counts, n_tx=2, sampling_hz=20.0, rssi=rssi)
        windows = segment(dataset, 1.0)  # 3 windows of 20; 3 trailing records dropped
        matrix = build_raw_matrix(windows)
        assert matrix.feature_names == ("AA:00/rssi", "AA:01/rssi")
        assert matrix.rows.shape == (60, 2)
        assert np.array_equal(matrix.rows, rssi[:60].astype(float))
        assert windows.samples.dtype == np.int8  # the RSSI column's block, one copy of it
        assert matrix.rows.dtype == np.float64 and matrix.rows.flags.c_contiguous
        assert np.array_equal(matrix.labels_count, np.array(counts[:60]))
        assert np.array_equal(matrix.labels_occupancy, np.array(counts[:60]) > 0)


def make_windows(samples, sampling_hz=20.0):
    """A block over ``samples`` (n_windows, n_transmitters, L), all counts 0."""
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    n_windows, n_tx, length = samples.shape
    return Windows(
        transmitter_ids=tuple(f"M{i}" for i in range(n_tx)),
        sampling_hz=sampling_hz,
        samples=samples,
        counts=np.zeros((n_windows, length), dtype=np.int64),
    )


def make_window(samples, sampling_hz=20.0):
    """A block of one window over ``samples`` (n_transmitters, L)."""
    return make_windows(np.asarray(samples)[None], sampling_hz)


def random_windows(seed, n_windows, n_tx, length, sampling_hz=20.0):
    rng = np.random.default_rng(seed)
    return make_windows(rng.integers(-90, -40, size=(n_windows, n_tx, length)), sampling_hz)


def join(*blocks):
    """The windows of ``blocks`` in order, as one block (they share transmitters and rate)."""
    samples = np.concatenate([b.samples for b in blocks])
    return make_windows(samples, blocks[0].sampling_hz)


def assert_matches_reference(windows):
    """The block path gives the reference's rows bit for bit, and its non-finite tally."""
    matrix = build_feature_matrix(windows)
    want, nonfinite = reference.feature_rows(windows)
    assert np.array_equal(matrix.rows, want)
    assert np.array_equal(np.signbit(matrix.rows), np.signbit(want))  # CSV spells -0.0
    assert matrix.diagnostics.nonfinite_replaced == nonfinite
    return matrix


MASKED_SUMS = [T[name] for name in ("sum_below_p10", "sum_below_p25", "sum_above_p75", "sum_above_p90")]


class TestBlockMatchesReference:
    @pytest.mark.parametrize("sampling_hz, dedup", [(20.0, False), (45.0, True), (200.0, False)])
    def test_simulated_scenarios_bit_identical(self, sampling_hz, dedup):
        dataset = simulate(small_scenario(sampling_hz=sampling_hz))
        if dedup:  # as the pipeline does before segmenting
            dataset = deduplicate(dataset)
        assert_matches_reference(segment(dataset))

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(4, 40)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.sampled_from([3.0, 7.0, 20.0, 45.0, 200.0]),
    )
    def test_arbitrary_float_windows_match_reference(self, samples, sampling_hz):
        windows = make_windows(samples, sampling_hz)
        got = build_feature_matrix(windows).rows
        want, _ = reference.feature_rows(windows)
        # Only the masked sums ("sum below/above" a percentile) add in another
        # order: they add zeros in place of the unselected samples, which is
        # exact on integers and moves a float sum of L terms by far less than
        # 1e-12 * L * max|x|.
        atol = 1e-12 * samples.shape[2] * np.abs(samples).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        n_tx = samples.shape[1]
        exact = np.ones(got.shape[1], dtype=bool)
        exact[[tx * FEATURES_PER_TRANSMITTER + c for tx in range(n_tx) for c in MASKED_SUMS]] = False
        assert np.array_equal(got[:, exact], want[:, exact])

    def test_constant_window_moments_and_ar_are_zero(self):
        windows = join(make_window(np.full((2, 20), -42.0)), random_windows(1, 2, 2, 20))
        matrix = assert_matches_reference(windows)
        for name in ("skewness", "kurtosis", "ar_1", "ar_2", "ar_3", "ar_4"):
            assert matrix.rows[0, T[name]] == 0.0
            assert matrix.rows[0, FEATURES_PER_TRANSMITTER + T[name]] == 0.0

    def test_ecdf_thresholds_beside_a_constant_window(self):
        # Samples on the row's own linspace thresholds: a linspace over the whole
        # block would space them as k / 9 * 0.7, a few just below, once any row
        # of the block is constant.
        spread = np.linspace(0.0, 0.7, N_ECDF_POINTS)[None, :]
        constant = make_window(np.full((1, 10), -42.0))
        matrix = assert_matches_reference(join(constant, make_window(spread)))
        ecdf = [matrix.rows[1, T[f"ecdf_{j}"]] for j in range(1, N_ECDF_POINTS + 1)]
        assert ecdf == [j / N_ECDF_POINTS for j in range(1, N_ECDF_POINTS + 1)]

    def test_singular_toeplitz_row_falls_back_and_others_stay_exact(self, monkeypatch):
        # Autocovariances 2**-1074 at lags 0-3: an all-equal, singular Toeplitz.
        tiny = 2.0**-537
        singular = np.array([tiny] * 10 + [-tiny] * 10)
        assert {float(singular[: 20 - lag] @ singular[lag:] / 20) for lag in range(4)} == {
            2.0**-1074
        }
        windows = random_windows(2, 4, 2, 20)
        windows.samples[2, 1] = singular
        assert_matches_reference(windows)

        # Force the batched solve to fail, as LAPACK builds that flag a singular
        # block do: the row-by-row fallback still gives the reference's rows. The
        # singular row's variance**2 underflows, so it reads 0 without a solve.
        solve = np.linalg.solve
        batched_calls = []

        def failing_batched_solve(a, b):
            if np.ndim(a) == 3:
                batched_calls.append(len(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_batched_solve)
        assert_matches_reference(windows)
        assert batched_calls == [7]

    def test_ar_is_zero_where_the_squared_variance_underflows(self):
        # Exactly singular Toeplitz (autocovariances 2**-1074 at lags 0-3): a
        # LAPACK solve may return [0, 0, 1, -0] for it instead of raising.
        tiny = 2.0**-537
        singular = np.array([tiny] * 10 + [-tiny] * 10)
        ar = [T[f"ar_{i}"] for i in range(1, 5)]
        features = time_features(singular)
        assert features[T["tw_variance"]] > 0.0
        assert features[T["kurtosis"]] == 0.0
        assert features[ar].tolist() == [0.0] * 4
        windows = join(
            make_window(np.stack([singular, -np.arange(20.0)])), random_windows(5, 1, 2, 20)
        )
        matrix = assert_matches_reference(windows)
        assert matrix.rows[0, ar].tolist() == [0.0] * 4
        assert np.all(matrix.rows[0, [FEATURES_PER_TRANSMITTER + c for c in ar]] != 0.0)

    def test_nan_sample_tally_matches_reference(self):
        windows = random_windows(3, 3, 2, 20)
        windows.samples[1, 0, 5] = np.nan
        matrix = assert_matches_reference(windows)
        assert matrix.diagnostics.nonfinite_replaced > 0
        assert np.all(np.isfinite(matrix.rows))

    @pytest.mark.parametrize("length", [4, 5])
    def test_shortest_windows_match_reference(self, length):
        # length 4 is the shortest frequency window; both leave AR lags past L - 1
        for sampling_hz in (float(length), 45.0):
            assert_matches_reference(random_windows(length, 3, 2, length, sampling_hz))

    def test_variance_whose_square_overflows_rejected(self):
        samples = np.array([1.3e103, 0.0, 0.0, 0.0])
        with pytest.raises(FeatureError, match="sample variance 3.17e\\+205 is too large"):
            time_features(samples)
        windows = join(
            make_window(np.full((2, 4), -50.0)), make_window(np.stack([samples, -np.ones(4)]))
        )
        with pytest.raises(FeatureError, match="kurtosis denominator, overflows float64"):
            build_feature_matrix(windows)

    def test_windows_under_four_samples_rejected_naming_length_and_rate(self):
        with pytest.raises(FeatureError, match="windows of 3 samples at 3 Hz are too short"):
            build_feature_matrix(random_windows(6, 2, 1, 3, sampling_hz=3.0))


def per_row_features(windows):
    """The feature rows from time_features and freq_features, one sample vector at a time."""
    vectors = [
        np.concatenate([time_features(x), freq_features(x, windows.sampling_hz)])
        for x in windows.samples.reshape(-1, windows.samples.shape[2])
    ]
    return np.reshape(vectors, (len(windows), -1))


def chunks_of(rows, length):
    """The ``_CHUNK_BYTES`` that makes chunks of ``rows`` sample vectors of ``length``."""
    return rows * 8 * length


class TestChunks:
    """build_feature_matrix runs a chunk of rows at a time, with the bits of one pass."""

    def test_several_chunks_match_per_row_features(self, monkeypatch):
        # 15 rows in chunks of 4; row 7 is singular (autocovariances 2**-1074), in chunk 1 only
        tiny = 2.0**-537
        windows = random_windows(7, 5, 3, 20)
        windows.samples[2, 1] = np.array([tiny] * 10 + [-tiny] * 10)
        want = per_row_features(windows)
        monkeypatch.setattr(features, "_CHUNK_BYTES", chunks_of(4, 20))
        matrix = build_feature_matrix(windows)
        assert matrix.rows.tobytes() == want.tobytes()
        assert matrix.diagnostics.nonfinite_replaced == 0

        # A batched solve that fails on chunk 1 alone, as LAPACK builds that flag a
        # singular block do: that chunk solves row by row, the others stay batched.
        solve = np.linalg.solve
        batched_calls = []

        def failing_on_chunk_1(a, b):
            if np.ndim(a) == 3:
                batched_calls.append(len(a))
                if len(batched_calls) == 2:
                    raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_on_chunk_1)
        assert build_feature_matrix(windows).rows.tobytes() == want.tobytes()
        assert batched_calls == [4, 3, 4, 3]  # the singular row's variance**2 underflows: no solve

    def test_int8_samples_featurize_as_their_float64_values(self, monkeypatch):
        # 15 int8 rows in chunks of 4, the last of 3, each converted into one reused buffer
        windows = random_windows(26, 5, 3, 20)
        narrow = Windows(
            windows.transmitter_ids, windows.sampling_hz, windows.samples.astype(np.int8),
            windows.counts,
        )
        want = per_row_features(windows)
        monkeypatch.setattr(features, "_CHUNK_BYTES", chunks_of(4, 20))
        assert build_feature_matrix(narrow).rows.tobytes() == want.tobytes()

    def test_time_block_temporaries_peak_under_five_chunks(self):
        # The sorted moments drop each row-sized temporary once it is used: 4.7 chunks
        # measured, where they held 7.4. A chunk whose temporaries outgrow twice glibc's
        # mmap threshold gives its heap back and faults it in again on the next chunk.
        chunk = random_windows(5, 41, 4, 200).samples.reshape(-1, 200)[:163]
        features._time_block(chunk)  # first-call allocations do not count
        tracemalloc.start()
        try:
            features._time_block(chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * chunk.nbytes, peak / chunk.nbytes

    def test_variance_overflow_names_the_largest_variance_of_the_block(self, monkeypatch):
        # both rows' variance**2 overflows; the second, in a later chunk, has the larger variance
        samples = np.array([[1.3e103, 0.0, 0.0, 0.0], [-1.0] * 4, [2e103, 0.0, 0.0, 0.0]])
        windows = make_windows(samples[:, None, :])
        messages = []
        for chunk_bytes in (chunks_of(1, 4), chunks_of(3, 4)):
            monkeypatch.setattr(features, "_CHUNK_BYTES", chunk_bytes)
            with pytest.raises(FeatureError) as raised:
                build_feature_matrix(windows)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("sample variance 7.5e+205 is too large to featurize")

    def test_peak_memory_is_bounded_by_a_chunk(self):
        # 600 one-second windows at 200 Hz of 4 transmitters: 14 chunks of samples.
        # Whole-block temporaries would take ~3x the samples; in chunks the output,
        # one chunk's temporaries and the window labels' stay under 1.4x.
        windows = random_windows(3, 600, 4, 200, sampling_hz=200.0)
        build_feature_matrix(windows[:1])  # first-call allocations (FFT plans) do not count
        tracemalloc.start()
        try:
            build_feature_matrix(windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert windows.samples.nbytes > 10 * features._CHUNK_BYTES
        assert peak < 1.5 * windows.samples.nbytes, peak / windows.samples.nbytes


def former_moments_and_median(x, mean):
    """The expressions the sorted rows replace, on the unsorted rows."""
    deviations = x - mean[:, None]
    return np.mean(deviations**3, axis=1), np.mean(deviations**4, axis=1), np.median(x, axis=1)


def adversarial_blocks(length):
    """(40, length) sample blocks with many ties, signed zeros, NaN, infinities, tiny scales."""
    rng = np.random.default_rng(length)
    shape = (40, length)
    # arbitrary floats, each row drawn from 6 values
    ties = np.take_along_axis(rng.normal(-60.0, 7.0, size=(40, 6)), rng.integers(0, 6, size=shape), axis=1)
    zeros = rng.choice([-0.0, 0.0, 1.5, -2.25], size=shape)
    zeros[:4] = rng.choice([-0.0, 0.0], size=(4, length))  # rows of zeros alone
    special = rng.integers(-3, 4, size=shape).astype(np.float64)
    pick = rng.random(shape)
    special[pick < 0.05] = np.nan
    special[(pick >= 0.05) & (pick < 0.1)] = np.inf
    special[(pick >= 0.1) & (pick < 0.15)] = -np.inf
    return {
        "ties": ties,
        "tenths": np.round(rng.normal(0.0, 5.0, size=shape), 1),
        "signed_zeros": zeros,
        "nan_and_infinities": special,
        "subnormal": rng.integers(-3, 4, size=shape) * 5e-324 * rng.choice([-1.0, 1.0], size=shape),
        "tiny": rng.integers(-3, 4, size=shape) * 1e-300,
    }


class TestSortedRowMoments:
    """The moments and median from sorted rows carry the former expressions' bits."""

    @pytest.mark.parametrize("length", [2, 3, 4, 45, 200])
    def test_same_bytes_as_the_former_expressions(self, length, monkeypatch):
        for kind, x in adversarial_blocks(length).items():
            with np.errstate(invalid="ignore"):
                mean = x.mean(axis=1)
                got = features._sorted_moments_and_median(x, mean)
                want = former_moments_and_median(x, mean)
                for name, a, b in zip(("third", "fourth", "median"), got, want):
                    assert a.tobytes() == b.tobytes(), (kind, name)

                block = features._time_block(x)
                # the percentiles were np.percentile(x, ...) before and still are
                with monkeypatch.context() as patch:
                    patch.setattr(features, "_sorted_moments_and_median", former_moments_and_median)
                    assert block.tobytes() == features._time_block(x).tobytes(), kind

                # build_feature_matrix in chunks of one row, and the whole block as one chunk
                if length < features.MIN_FEATURE_LENGTH:
                    continue
                want = np.where(np.isfinite(block), block, 0.0)  # as the matrix replaces them
                for chunk_bytes in (1, x.nbytes):
                    with monkeypatch.context() as patch:
                        patch.setattr(features, "_CHUNK_BYTES", chunk_bytes)
                        rows = build_feature_matrix(make_windows(x[:, None, :])).rows
                    assert want.tobytes() == rows[:, : len(T)].tobytes(), (kind, chunk_bytes)
