"""Windowing and per-transmitter time/frequency feature extraction.

Fixed catalog: 35 time-domain and 21 frequency-domain features per
transmitter (56 total). The exact members, in column order, are in
``TIME_FEATURE_NAMES`` and ``FREQ_FEATURE_NAMES``; matrix columns are named
``<mac>/<feature>``.

Conventions that tests rely on:

- std / variance are population moments; skewness and excess kurtosis of
  zero-variance input are defined as 0, as are the AR coefficients. The same
  holds when the variance is so small that variance**1.5 (skewness) or
  variance**2 (kurtosis and the AR coefficients) underflows to 0. A finite
  variance so large that variance**2 overflows (above ~1.3e154; RSSI in
  [-127, 0] cannot reach it) raises ``FeatureError``.
- time-weighted variance uses weights proportional to inter-sample gaps,
  which under uniform sampling equals the plain population variance.
- percentiles and quartiles interpolate linearly between closest ranks.
- "sum below" percentile features sum strictly smaller values, "sum above"
  strictly larger ones.
- the FFT runs on mean-removed, Hann-windowed samples, zero-padded to the
  next power of two; "positive frequency" bins exclude DC.
- the high-frequency power ratio (above 3.5 Hz) is defined as 0 when the
  sampling rate is at most 7 Hz (no spectrum above 3.5 Hz exists); the
  feature matrix diagnostics flag that case.

``segment`` returns one ``Windows`` block: a C-contiguous ``(windows,
transmitters, L)`` int8 array of samples, one reshape and transpose of the
dataset's RSSI column, with the records' counts beside it and the window
labels as vectorised properties. ``build_feature_matrix`` views that array
as one ``(windows x transmitters, L)`` block and computes each feature as a
column, reducing along the last axis. It runs on chunks of rows
(``_CHUNK_BYTES`` of float64 samples), each converted into one reused
float64 buffer, and writes them into one preallocated output, so its
temporaries are bounded by a chunk; every feature is a function of its row
alone, so the chunks give the bits of one pass over the block.
``time_features`` and ``freq_features`` are the same block functions on a
single row. The block gives the same bits as computing the definitions one
vector at a time (``tests/features_reference.py``): the same numpy
reductions over each contiguous row, autocovariances as stacked row @ column
products, one LAPACK solve per 4x4 Toeplitz system (row by row, with a
least-squares fallback, if any system in the chunk is singular), ECDF
thresholds spaced as ``np.linspace`` spaces them for one row, and the
skewness and kurtosis denominators variance**1.5 and variance**2 taken with
Python's scalar float ``pow``, since numpy's vectorized power differs in the
last bit. Their numerators, the means of the cubed and fourth-power
deviations, take ``pow`` once per distinct deviation of a row: one argsort
per chunk lines equal deviations up, and the powers go back to sample order
before they are summed. The median comes from the same sorted rows, with
the bits of ``np.median``. The percentiles do not: where a row holds both
-0.0 and 0.0, the sign of a zero ``np.percentile`` returns depends on where
those zeros sit, so they are taken from one partition of the unsorted rows,
at ``np.percentile``'s own indices and by its rules. Neither function is
called, since in numpy 2.4 both import ``numpy.ma``. The one exception is the
four "sum below/above" features: they add exact zeros in place of the
unselected samples, which changes nothing on integer-valued samples such as
RSSI but may round a sum of other floats differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import RssiDataset

AR_ORDER = 4
N_ECDF_POINTS = 10
N_FFT_BINS = 10
N_DWT_LEVELS = 3
N_SUB_BANDS = 4
HF_CUTOFF_HZ = 3.5
MIN_FEATURE_LENGTH = 4  # the shortest vector the frequency features take
_CHUNK_BYTES = 1 << 18  # samples per chunk of rows in build_feature_matrix: 256 KiB

TIME_FEATURE_NAMES: tuple[str, ...] = (
    "max",
    "min",
    "mean",
    "std",
    "rms",
    "range",
    "median",
    "skewness",
    "kurtosis",
    "tw_variance",
    "iqr",
    *(f"ecdf_{i}" for i in range(1, N_ECDF_POINTS + 1)),
    "p10",
    "p25",
    "p75",
    "p90",
    "sum_below_p10",
    "sum_below_p25",
    "sum_above_p75",
    "sum_above_p90",
    "mean_abs_dev",
    "mean_power_dev",
    *(f"ar_{i}" for i in range(1, AR_ORDER + 1)),
)

FREQ_FEATURE_NAMES: tuple[str, ...] = (
    *(f"fft_mag_{i}" for i in range(1, N_FFT_BINS + 1)),
    "dominant_freq_hz",
    "dominant_power_ratio",
    "hf_power_ratio",
    *(f"dwt_energy_{i}" for i in range(1, N_DWT_LEVELS + 1)),
    "wavelet_entropy",
    *(f"band_energy_{i}" for i in range(1, N_SUB_BANDS + 1)),
)

FEATURES_PER_TRANSMITTER = len(TIME_FEATURE_NAMES) + len(FREQ_FEATURE_NAMES)


class FeatureError(ValueError):
    """Bad input to segmentation or feature extraction."""


@dataclass(frozen=True, eq=False)
class Windows:
    """Consecutive fixed-length windows as one block, with their labels.

    ``samples[i, j]`` is window i's sample vector of transmitter j: int8
    RSSI from :func:`segment`, though any real dtype featurizes the same.
    ``counts`` keeps the per-record occupant counts so the raw-representation
    path can label every sample exactly; ``labels_*`` are the majority labels
    of each window's records (occupancy ties break to True, count ties to the
    larger count).
    """

    transmitter_ids: tuple[str, ...]
    sampling_hz: float
    samples: np.ndarray  # (n_windows, n_transmitters, L) int8, C-contiguous
    counts: np.ndarray  # (n_windows, L) int64

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __getitem__(self, index) -> "Windows":
        """The windows ``index`` selects, as numpy selects rows; an integer selects one."""
        rows = np.atleast_1d(np.arange(len(self))[index])
        return Windows(
            self.transmitter_ids, self.sampling_hz, self.samples[rows], self.counts[rows]
        )

    @property
    def labels_occupancy(self) -> np.ndarray:
        return 2 * np.count_nonzero(self.counts > 0, axis=1) >= self.counts.shape[1]

    @property
    def labels_count(self) -> np.ndarray:
        ordered = np.sort(self.counts, axis=1)
        length = ordered.shape[1]
        positions = np.arange(length)
        # key = run * length + position, where run is how many equal counts end at
        # the position: the last longest run has the largest key. Built in place.
        key = np.empty(ordered.shape, dtype=np.int64)
        flat = ordered.reshape(-1)  # compared as one contiguous run, without buffers
        np.not_equal(flat[1:], flat[:-1], out=key.reshape(-1)[1:])
        key[:, 0] = 0  # each row's first run starts at 0
        key *= positions  # where a run starts, its position; elsewhere 0
        np.maximum.accumulate(key, axis=1, out=key)  # where the run at each position starts
        np.subtract(positions + 1, key, out=key)
        key *= length
        key += positions
        last_longest = np.argmax(key, axis=1)
        return np.take_along_axis(ordered, last_longest[:, None], axis=1)[:, 0]


@dataclass
class FeatureDiagnostics:
    nonfinite_replaced: int = 0
    hf_ratio_ill_posed: bool = False


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rows of named numeric features with parallel label vectors."""

    feature_names: tuple[str, ...]
    rows: np.ndarray  # (n_rows, n_features) float64
    labels_occupancy: np.ndarray  # (n_rows,) bool
    labels_count: np.ndarray  # (n_rows,) int64
    diagnostics: FeatureDiagnostics = field(default_factory=FeatureDiagnostics)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def labels_for(self, task: str) -> np.ndarray:
        if task == "classification":
            return self.labels_occupancy
        if task == "regression":
            return self.labels_count.astype(np.float64)
        raise ValueError(f"unknown task {task!r}")

    def take_rows(self, indices: np.ndarray) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return replace(self, rows=self.rows[indices],
                       labels_occupancy=self.labels_occupancy[indices],
                       labels_count=self.labels_count[indices])

    def take_columns(self, indices: np.ndarray) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return replace(self, feature_names=tuple(self.feature_names[i] for i in indices),
                       rows=self.rows[:, indices])

    def to_csv(self) -> str:
        header = ",".join((*self.feature_names, "label_occupancy", "label_count"))
        lines = [header]
        labels = zip(self.labels_occupancy.tolist(), self.labels_count.tolist())
        for row, (occupied, count) in zip(self.rows, labels):  # a row of Python floats at a time
            lines.append(
                f"{','.join(map(repr, row.tolist()))},{'true' if occupied else 'false'},{count}"
            )
        lines.append("")  # ends the text in '\n' without a second copy of it
        return "\n".join(lines)


def window_length(window_s: float, sampling_hz: float) -> int:
    """``round(window_s * sampling_hz)`` samples; FeatureError below 2 or not finite."""
    if not 0 < window_s < np.inf:  # NaN fails too
        raise FeatureError(f"window_s must be positive and finite, got {window_s}")
    if not 0 < sampling_hz < np.inf:
        raise FeatureError(f"sampling_hz must be positive and finite, got {sampling_hz}")
    if window_s * sampling_hz == np.inf:
        raise FeatureError(f"window of {window_s}s at {sampling_hz}Hz overflows a float")
    length = int(round(window_s * sampling_hz))
    if length < 2:
        raise FeatureError(f"window of {window_s}s at {sampling_hz}Hz holds {length} < 2 samples")
    return length


def check_featurizable(length: int, sampling_hz: float) -> None:
    """FeatureError unless windows of ``length`` samples are long enough to featurize."""
    if length < MIN_FEATURE_LENGTH:
        raise FeatureError(
            f"windows of {length} samples at {sampling_hz:g} Hz are too short to "
            f"featurize: the frequency features need >= {MIN_FEATURE_LENGTH} samples"
        )


def segment(dataset: RssiDataset, window_s: float = 1.0) -> Windows:
    """Chop the dataset into consecutive non-overlapping fixed-length windows.

    Window length is ``window_length(window_s, sampling_hz)`` samples; a
    trailing partial window is dropped. Labels are majority votes over the
    contained records.
    """
    length = window_length(window_s, dataset.sampling_hz)
    n_records = len(dataset)
    n_windows = n_records // length
    if n_windows == 0:
        raise FeatureError(f"dataset has {n_records} records, shorter than one window ({length})")
    n = n_windows * length
    samples = dataset.rssi[:n].reshape(n_windows, length, -1).transpose(0, 2, 1)
    return Windows(
        transmitter_ids=dataset.transmitter_ids(),
        sampling_hz=dataset.sampling_hz,
        samples=np.ascontiguousarray(samples),
        counts=dataset.counts[:n].reshape(n_windows, length),
    )


def _ar_coefficients(deviations: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Yule-Walker AR coefficients of every row of mean-removed samples.

    Rows not ``live`` (variance**2 underflowed to 0, or NaN) keep 0, as
    kurtosis does: their Toeplitz systems are singular or nearly so, and what
    a solve returns for them depends on the LAPACK build.
    """
    n_rows, length = deviations.shape
    autocov = np.zeros((n_rows, AR_ORDER + 1))
    for lag in range(min(AR_ORDER, length - 1) + 1):
        # a stack of row @ column products: the same dot as on one vector (einsum is not)
        products = deviations[:, None, : length - lag] @ deviations[:, lag:, None]
        autocov[:, lag] = products[:, 0, 0] / length
    lags = np.abs(np.subtract.outer(np.arange(AR_ORDER), np.arange(AR_ORDER)))
    toeplitz = autocov[:, lags]
    rhs = autocov[:, 1:]
    coeffs = np.zeros((n_rows, AR_ORDER))
    live = np.flatnonzero(live)
    try:
        coeffs[live] = np.linalg.solve(toeplitz[live], rhs[live, :, None])[..., 0]
    except np.linalg.LinAlgError:  # a singular block: solve row by row, lstsq where singular
        for i in live:
            try:
                coeffs[i] = np.linalg.solve(toeplitz[i], rhs[i])
            except np.linalg.LinAlgError:
                coeffs[i] = np.linalg.lstsq(toeplitz[i], rhs[i], rcond=None)[0]
    coeffs[~np.isfinite(coeffs).all(axis=1)] = 0.0
    return coeffs


def _ratio_or_zero(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is > 0, else 0."""
    out = np.zeros(np.broadcast(numerator, denominator).shape)
    return np.divide(numerator, denominator, out=out, where=denominator > 0)


def _rms_and_power_deviation(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the RMS, and the mean absolute deviation of the squares from their mean."""
    squares = x**2
    rms = np.sqrt(np.mean(squares, axis=1))
    squares -= squares.mean(axis=1)[:, None]  # in place: one block-sized temporary
    return rms, np.mean(np.abs(squares, out=squares), axis=1)


def _sorted_moments_and_median(
    x: np.ndarray, mean: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the means of the cubed and of the fourth-power deviations, and the median.

    One argsort of the rows. Along a sorted row equal deviations sit side by
    side, so ``pow`` runs once per distinct deviation, told apart by its bits
    so that -0.0 and 0.0 stay apart. The powers go back to sample order before
    ``np.mean`` adds them: the same values in the same order as
    ``np.mean(deviations**3, axis=1)``. The median is taken as ``np.median``
    takes it: the mean of the middle one or two values, or the row's last
    value where that is NaN. On a sorted row that is the median of the row,
    since the mean adds the middle values to +0.0 and no sign of zero
    survives that.
    """
    # Each row-sized temporary is dropped, or written over, once it is used: a chunk
    # whose temporaries outgrow twice glibc's mmap threshold gives its heap back and
    # faults it in again on the next chunk.
    order = np.argsort(x, axis=1)
    deviations = np.take_along_axis(x, order, axis=1)  # the sorted rows, until the median
    length = x.shape[1]
    median = np.mean(deviations[:, (length - 1) // 2 : length // 2 + 1], axis=1)
    np.copyto(median, deviations[:, -1], where=np.isnan(deviations[:, -1]))
    deviations -= mean[:, None]
    bits = deviations.view(np.int64)
    new = np.empty(deviations.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    distinct = deviations[new]
    del deviations, bits
    ranks = np.cumsum(new)
    ranks -= 1
    # inverse[i, j]: the index in ``distinct`` of sample j of row i
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, ranks.reshape(new.shape), axis=1)
    del order, ranks
    third = np.mean((distinct**3)[inverse], axis=1)
    fourth = np.mean((distinct**4)[inverse], axis=1)
    return third, fourth, median


def _percentiles(x: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.percentile(x, 100 * quantiles, axis=1)`` for rows of two or more samples, bit for bit.

    One ``np.partition`` of the unsorted rows, at the indices
    ``np.percentile`` partitions at: 0, -1, and each quantile's
    floor((L - 1) q) and the next, so that between -0.0 and 0.0 samples the
    same zero is returned. Then its linear rule, and its NaN rule: a row's
    NaN sorts last, and is then its every percentile.
    """
    virtual = (x.shape[1] - 1) * quantiles  # below L - 1, as L >= 2 and q < 1
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    part = np.partition(x, sorted({0, -1, *below.tolist(), *above.tolist()}), axis=1)
    a, b = part[:, below].T, part[:, above].T
    gamma = (virtual - below)[:, None]
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    np.copyto(result, part[:, -1], where=np.isnan(part[:, -1]))
    return result


def _time_block(x: np.ndarray) -> np.ndarray:
    """The 35 time-domain features of every row of ``x`` (n, L), in catalog order."""
    maximum = x.max(axis=1)
    minimum = x.min(axis=1)
    mean = x.mean(axis=1)
    deviations = x - mean[:, None]
    variance = np.mean(deviations**2, axis=1)
    # Python float pow, as on one vector: numpy's power differs in the last bit.
    # Guard the denominators, not std: they underflow to 0 for tiny variances.
    try:
        skew_denominator = np.array([v**1.5 for v in variance.tolist()])
        kurt_denominator = np.array([v**2 for v in variance.tolist()])
    except OverflowError:
        largest = max(v for v in variance.tolist() if v < np.inf)
        raise FeatureError(
            f"sample variance {largest:.3g} is too large to featurize: its square, "
            "the kurtosis denominator, overflows float64"
        ) from None
    third, fourth, median = _sorted_moments_and_median(x, mean)
    skewness = _ratio_or_zero(third, skew_denominator)
    kurtosis = np.where(kurt_denominator > 0, _ratio_or_zero(fourth, kurt_denominator) - 3.0, 0.0)
    rms, mean_power_dev = _rms_and_power_deviation(x)
    p10, p25, p75, p90 = _percentiles(x, np.array([10, 25, 75, 90]) / 100)

    # np.linspace(minimum, maximum, N) of each row; a batched linspace would take
    # its denormal-step branch for every row as soon as one row had a zero step
    div = N_ECDF_POINTS - 1
    steps = np.arange(N_ECDF_POINTS, dtype=np.float64)
    delta = maximum - minimum
    step = delta / div
    zero_step = (step == 0)[:, None]
    ecdf_points = np.where(
        zero_step, steps / div * delta[:, None], steps * step[:, None]
    ) + minimum[:, None]
    ecdf_points[:, -1] = maximum
    ecdf = [np.mean(x <= ecdf_points[:, [j]], axis=1) for j in range(N_ECDF_POINTS)]

    columns = [
        maximum,
        minimum,
        mean,
        np.sqrt(variance),
        rms,
        delta,
        median,
        skewness,
        kurtosis,
        variance,  # tw_variance; uniform sampling: gap weights are all equal
        p75 - p25,
        *ecdf,
        p10,
        p25,
        p75,
        p90,
        # masked sums: exact on integer-valued samples, reordered sums otherwise
        np.where(x < p10[:, None], x, 0.0).sum(axis=1),
        np.where(x < p25[:, None], x, 0.0).sum(axis=1),
        np.where(x > p75[:, None], x, 0.0).sum(axis=1),
        np.where(x > p90[:, None], x, 0.0).sum(axis=1),
        np.mean(np.abs(deviations), axis=1),
        mean_power_dev,
    ]
    return np.column_stack([*columns, _ar_coefficients(deviations, kurt_denominator > 0)])


def _haar_detail_energies(x: np.ndarray) -> np.ndarray:
    """Haar detail energies of every row of ``x`` at each of N_DWT_LEVELS levels."""
    approx = x
    energies = np.zeros((x.shape[0], N_DWT_LEVELS))
    for level in range(N_DWT_LEVELS):
        pairs = approx.shape[1] // 2
        if pairs == 0:
            break
        even = approx[:, : 2 * pairs : 2]
        odd = approx[:, 1 : 2 * pairs : 2]
        detail = (even - odd) / np.sqrt(2.0)
        approx = (even + odd) / np.sqrt(2.0)
        energies[:, level] = np.sum(detail**2, axis=1)
    return energies


def hf_ratio_defined(sampling_hz: float) -> bool:
    """Whether any spectrum exists above the 3.5 Hz cutoff at this rate."""
    return sampling_hz > 2 * HF_CUTOFF_HZ


def _positive_magnitudes(x: np.ndarray, n_fft: int) -> np.ndarray:
    """|FFT| of every mean-removed, Hann-windowed row at bins 1..n_fft/2."""
    windowed = x - x.mean(axis=1)[:, None]
    windowed *= np.hanning(x.shape[1])
    return np.abs(np.fft.rfft(windowed, n_fft, axis=1)[:, 1:])


def _freq_block(x: np.ndarray, sampling_hz: float) -> np.ndarray:
    """The 21 frequency-domain features of every row of ``x`` (n, L), in catalog order."""
    if sampling_hz <= 0:
        raise FeatureError(f"sampling_hz must be positive, got {sampling_hz}")
    n_rows, length = x.shape
    n_fft = 1
    while n_fft < length:
        n_fft *= 2
    magnitudes = _positive_magnitudes(x, n_fft)
    power = magnitudes**2
    total_power = power.sum(axis=1)
    freqs = np.arange(1, n_fft // 2 + 1) * sampling_hz / n_fft

    fft_bins = np.zeros((n_rows, N_FFT_BINS))
    take = min(N_FFT_BINS, magnitudes.shape[1])
    fft_bins[:, :take] = magnitudes[:, :take]

    k_star = np.argmax(power, axis=1)
    dominant_freq = np.where(total_power > 0, freqs[k_star], 0.0)
    dominant_ratio = _ratio_or_zero(power[np.arange(n_rows), k_star], total_power)

    # freqs ascend, so the bins above the cutoff and each sub-band are slices
    if hf_ratio_defined(sampling_hz):
        above = np.searchsorted(freqs, HF_CUTOFF_HZ, side="right")
        hf_ratio = _ratio_or_zero(power[:, above:].sum(axis=1), total_power)
    else:
        hf_ratio = np.zeros(n_rows)

    dwt_energies = _haar_detail_energies(x)
    level_total = dwt_energies.sum(axis=1)  # under 8 terms: summed left to right
    probs = _ratio_or_zero(dwt_energies, level_total[:, None])
    # zero-probability levels drop out of the entropy: add exact zeros in their place
    positive = probs > 0
    terms = np.where(positive, probs * np.log(np.where(positive, probs, 1.0)), 0.0)
    entropy = np.where(level_total > 0, -terms.sum(axis=1), 0.0)

    band_edges = np.linspace(0.0, sampling_hz / 2.0, N_SUB_BANDS + 1)
    band_index = np.digitize(freqs, band_edges[1:-1], right=True)
    bounds = np.searchsorted(band_index, np.arange(N_SUB_BANDS + 1))
    band_energies = [power[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds[:-1], bounds[1:])]

    return np.column_stack(
        [fft_bins, dominant_freq, dominant_ratio, hf_ratio, dwt_energies, entropy, *band_energies]
    )


def time_features(x: np.ndarray) -> np.ndarray:
    """The 35 time-domain features of one sample vector, in catalog order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise FeatureError("time_features needs a 1-D vector of length >= 2")
    return _time_block(x[None])[0]


def freq_features(x: np.ndarray, sampling_hz: float) -> np.ndarray:
    """The 21 frequency-domain features of one sample vector, in catalog order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < MIN_FEATURE_LENGTH:
        raise FeatureError(f"freq_features needs a 1-D vector of length >= {MIN_FEATURE_LENGTH}")
    return _freq_block(x[None], sampling_hz)[0]


def build_feature_matrix(windows: Windows) -> FeatureMatrix:
    """Per window, concatenate time then frequency features over transmitters.

    Windows of fewer than ``MIN_FEATURE_LENGTH`` samples are rejected.
    Non-finite values are replaced by 0 and tallied in the diagnostics.
    """
    n_windows, _, length = windows.samples.shape
    names = tuple(
        f"{mac}/{feat}"
        for mac in windows.transmitter_ids
        for feat in (*TIME_FEATURE_NAMES, *FREQ_FEATURE_NAMES)
    )
    check_featurizable(length, windows.sampling_hz)
    # one C-contiguous (windows x transmitters, L) block, one row per sample vector,
    # featurized a chunk of rows at a time: every feature is a function of its row
    block = windows.samples.reshape(-1, length)
    features = np.empty((block.shape[0], FEATURES_PER_TRANSMITTER))
    n_time = len(TIME_FEATURE_NAMES)
    step = max(1, _CHUNK_BYTES // (8 * length))
    buffer = np.empty((min(step, len(block)), length))  # each chunk's rows, as float64
    try:
        for lo in range(0, block.shape[0], step):
            chunk = slice(lo, lo + step)
            x = buffer[: min(step, len(block) - lo)]
            np.copyto(x, block[chunk])
            features[chunk, :n_time] = _time_block(x)
            features[chunk, n_time:] = _freq_block(x, windows.sampling_hz)
    except FeatureError:
        # Raise what one pass over the whole block raises: a variance error comes
        # first, and it names the largest finite variance of the block.
        _time_block(block.astype(np.float64))
        raise
    rows = features.reshape(n_windows, len(names))

    diagnostics = FeatureDiagnostics(hf_ratio_ill_posed=not hf_ratio_defined(windows.sampling_hz))
    bad = ~np.isfinite(rows)
    if bad.any():
        diagnostics.nonfinite_replaced = int(bad.sum())
        rows[bad] = 0.0
    return FeatureMatrix(
        feature_names=names,
        rows=rows,
        labels_occupancy=windows.labels_occupancy,
        labels_count=windows.labels_count,
        diagnostics=diagnostics,
    )


def build_raw_matrix(windows: Windows) -> FeatureMatrix:
    """One row per record: the raw per-transmitter RSSI vector, labels per record."""
    names = tuple(f"{mac}/rssi" for mac in windows.transmitter_ids)
    counts = windows.counts.reshape(-1)
    by_record = windows.samples.transpose(0, 2, 1)  # (windows, L, transmitters)
    return FeatureMatrix(
        feature_names=names,
        rows=by_record.astype(np.float64, order="C").reshape(-1, len(names)),  # one copy
        labels_occupancy=counts > 0,
        labels_count=counts,
        diagnostics=FeatureDiagnostics(),
    )
