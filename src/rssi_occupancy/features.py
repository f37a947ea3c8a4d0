"""Windowing and per-transmitter time/frequency feature extraction.

Fixed catalog: 35 time-domain and 21 frequency-domain features per
transmitter (56 total). The exact members, in column order, are in
``TIME_FEATURE_NAMES`` and ``FREQ_FEATURE_NAMES``; matrix columns are named
``<mac>/<feature>``.

Conventions that tests rely on:

- std / variance are population moments; skewness and excess kurtosis of
  zero-variance input are defined as 0, as are the AR coefficients. The same
  holds when the variance is so small that variance**1.5 (skewness) or
  variance**2 (kurtosis) underflows to 0.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import RssiDataset

AR_ORDER = 4
N_ECDF_POINTS = 10
N_FFT_BINS = 10
N_DWT_LEVELS = 3
N_SUB_BANDS = 4
HF_CUTOFF_HZ = 3.5

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
class Window:
    """One fixed-duration slice: per-transmitter sample vectors plus labels.

    ``counts`` keeps the per-record occupant counts so the raw-representation
    path can label every sample exactly; ``label_*`` are the majority labels
    of the contained records (occupancy ties break to True, count ties to the
    larger count).
    """

    start_ms: int
    transmitter_ids: tuple[str, ...]
    sampling_hz: float
    samples: np.ndarray  # (n_transmitters, L)
    counts: np.ndarray  # (L,)
    label_occupancy: bool
    label_count: int

    @property
    def length(self) -> int:
        return self.samples.shape[1]


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
        return FeatureMatrix(
            feature_names=self.feature_names,
            rows=self.rows[indices],
            labels_occupancy=self.labels_occupancy[indices],
            labels_count=self.labels_count[indices],
            diagnostics=self.diagnostics,
        )

    def take_columns(self, indices: np.ndarray) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return FeatureMatrix(
            feature_names=tuple(self.feature_names[i] for i in indices),
            rows=self.rows[:, indices],
            labels_occupancy=self.labels_occupancy,
            labels_count=self.labels_count,
            diagnostics=self.diagnostics,
        )

    def to_csv(self) -> str:
        header = ",".join((*self.feature_names, "label_occupancy", "label_count"))
        lines = [header]
        for i in range(self.n_rows):
            values = ",".join(repr(float(v)) for v in self.rows[i])
            occ = "true" if self.labels_occupancy[i] else "false"
            lines.append(f"{values},{occ},{int(self.labels_count[i])}")
        return "\n".join(lines) + "\n"


def _majority_labels(counts: np.ndarray) -> tuple[bool, int]:
    n_true = int(np.count_nonzero(counts > 0))
    n_false = counts.size - n_true
    occupancy = n_true >= n_false  # tie -> occupied
    freq = np.bincount(counts)
    best = int(np.flatnonzero(freq == freq.max())[-1])  # tie -> larger count
    return occupancy, best


def segment(dataset: RssiDataset, window_s: float = 1.0) -> list[Window]:
    """Chop the dataset into consecutive non-overlapping fixed-length windows.

    Window length is ``round(window_s * sampling_hz)`` samples; a trailing
    partial window is dropped. Labels are majority votes over the contained
    records.
    """
    if window_s <= 0:
        raise FeatureError(f"window_s must be positive, got {window_s}")
    length = int(round(window_s * dataset.sampling_hz))
    if length < 2:
        raise FeatureError(
            f"window of {window_s}s at {dataset.sampling_hz}Hz holds {length} < 2 samples"
        )
    n_records = len(dataset)
    n_windows = n_records // length
    if n_windows == 0:
        raise FeatureError(f"dataset has {n_records} records, shorter than one window ({length})")

    matrix = dataset.rssi.astype(np.float64)
    ids = dataset.transmitter_ids()

    windows: list[Window] = []
    for w in range(n_windows):
        lo, hi = w * length, (w + 1) * length
        window_counts = dataset.counts[lo:hi]
        occupancy, count = _majority_labels(window_counts)
        windows.append(
            Window(
                start_ms=int(dataset.timestamps_ms[lo]),
                transmitter_ids=ids,
                sampling_hz=dataset.sampling_hz,
                samples=matrix[lo:hi].T.copy(),
                counts=window_counts,
                label_occupancy=occupancy,
                label_count=count,
            )
        )
    return windows


def _yule_walker(x: np.ndarray, order: int) -> np.ndarray:
    n = x.size
    centered = x - x.mean()
    autocov = np.zeros(order + 1)
    for lag in range(min(order, n - 1) + 1):
        autocov[lag] = centered[: n - lag] @ centered[lag:] / n
    if autocov[0] <= 0:
        return np.zeros(order)
    lags = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
    toeplitz = autocov[lags]
    try:
        coeffs = np.linalg.solve(toeplitz, autocov[1 : order + 1])
    except np.linalg.LinAlgError:
        coeffs = np.linalg.lstsq(toeplitz, autocov[1 : order + 1], rcond=None)[0]
    if not np.all(np.isfinite(coeffs)):
        return np.zeros(order)
    return coeffs


def time_features(x: np.ndarray) -> np.ndarray:
    """The 35 time-domain features of one sample vector, in catalog order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise FeatureError("time_features needs a 1-D vector of length >= 2")

    maximum = float(x.max())
    minimum = float(x.min())
    mean = float(x.mean())
    deviations = x - mean
    variance = float(np.mean(deviations**2))
    std = float(np.sqrt(variance))
    rms = float(np.sqrt(np.mean(x**2)))
    value_range = maximum - minimum
    median = float(np.median(x))
    # guard the denominators, not std: they underflow to 0 for tiny variances
    skew_denominator = variance**1.5
    kurt_denominator = variance**2
    skewness = float(np.mean(deviations**3) / skew_denominator) if skew_denominator > 0 else 0.0
    kurtosis = (
        float(np.mean(deviations**4) / kurt_denominator - 3.0) if kurt_denominator > 0 else 0.0
    )
    tw_variance = variance  # uniform sampling: gap weights are all equal

    p10, p25, p75, p90 = (float(v) for v in np.percentile(x, (10, 25, 75, 90)))
    iqr = p75 - p25
    ecdf_points = np.linspace(minimum, maximum, N_ECDF_POINTS)
    ecdf = [float(np.mean(x <= t)) for t in ecdf_points]

    squares = x**2
    features = [
        maximum,
        minimum,
        mean,
        std,
        rms,
        value_range,
        median,
        skewness,
        kurtosis,
        tw_variance,
        iqr,
        *ecdf,
        p10,
        p25,
        p75,
        p90,
        float(x[x < p10].sum()),
        float(x[x < p25].sum()),
        float(x[x > p75].sum()),
        float(x[x > p90].sum()),
        float(np.mean(np.abs(deviations))),
        float(np.mean(np.abs(squares - squares.mean()))),
        *(float(c) for c in _yule_walker(x, AR_ORDER)),
    ]
    return np.array(features, dtype=np.float64)


def _haar_detail_energies(x: np.ndarray, levels: int) -> list[float]:
    approx = x.astype(np.float64)
    energies: list[float] = []
    for _ in range(levels):
        pairs = approx.size // 2
        if pairs == 0:
            energies.append(0.0)
            continue
        even = approx[: 2 * pairs : 2]
        odd = approx[1 : 2 * pairs : 2]
        detail = (even - odd) / np.sqrt(2.0)
        approx = (even + odd) / np.sqrt(2.0)
        energies.append(float(np.sum(detail**2)))
    return energies


def hf_ratio_defined(sampling_hz: float) -> bool:
    """Whether any spectrum exists above the 3.5 Hz cutoff at this rate."""
    return sampling_hz > 2 * HF_CUTOFF_HZ


def freq_features(x: np.ndarray, sampling_hz: float) -> np.ndarray:
    """The 21 frequency-domain features of one sample vector, in catalog order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 4:
        raise FeatureError("freq_features needs a 1-D vector of length >= 4")
    if sampling_hz <= 0:
        raise FeatureError(f"sampling_hz must be positive, got {sampling_hz}")

    n = x.size
    n_fft = 1
    while n_fft < n:
        n_fft *= 2
    windowed = (x - x.mean()) * np.hanning(n)
    spectrum = np.fft.rfft(windowed, n_fft)
    magnitudes = np.abs(spectrum[1:])  # positive-frequency bins 1..n_fft/2
    power = magnitudes**2
    total_power = float(power.sum())
    freqs = np.arange(1, n_fft // 2 + 1) * sampling_hz / n_fft

    fft_bins = np.zeros(N_FFT_BINS)
    take = min(N_FFT_BINS, magnitudes.size)
    fft_bins[:take] = magnitudes[:take]

    if total_power > 0:
        k_star = int(np.argmax(power))
        dominant_freq = float(freqs[k_star])
        dominant_ratio = float(power[k_star] / total_power)
    else:
        dominant_freq = 0.0
        dominant_ratio = 0.0

    if hf_ratio_defined(sampling_hz) and total_power > 0:
        hf_ratio = float(power[freqs > HF_CUTOFF_HZ].sum() / total_power)
    else:
        hf_ratio = 0.0

    dwt_energies = _haar_detail_energies(x, N_DWT_LEVELS)
    level_total = sum(dwt_energies)
    if level_total > 0:
        probs = np.array(dwt_energies) / level_total
        probs = probs[probs > 0]
        entropy = float(-np.sum(probs * np.log(probs)))
    else:
        entropy = 0.0

    band_edges = np.linspace(0.0, sampling_hz / 2.0, N_SUB_BANDS + 1)
    band_index = np.digitize(freqs, band_edges[1:-1], right=True)
    band_energies = [float(power[band_index == b].sum()) for b in range(N_SUB_BANDS)]

    return np.array(
        [
            *fft_bins,
            dominant_freq,
            dominant_ratio,
            hf_ratio,
            *dwt_energies,
            entropy,
            *band_energies,
        ],
        dtype=np.float64,
    )


def _check_homogeneous(windows: list[Window]) -> Window:
    if not windows:
        raise FeatureError("no windows to featurize")
    first = windows[0]
    for w in windows[1:]:
        if w.transmitter_ids != first.transmitter_ids or w.sampling_hz != first.sampling_hz:
            raise FeatureError("windows disagree on transmitters or sampling rate")
    return first


def build_feature_matrix(windows: list[Window]) -> FeatureMatrix:
    """Per window, concatenate time then frequency features over transmitters.

    Non-finite values are replaced by 0 and tallied in the diagnostics.
    """
    first = _check_homogeneous(windows)
    names = tuple(
        f"{mac}/{feat}"
        for mac in first.transmitter_ids
        for feat in (*TIME_FEATURE_NAMES, *FREQ_FEATURE_NAMES)
    )
    rows = np.empty((len(windows), len(names)), dtype=np.float64)
    for i, window in enumerate(windows):
        parts = []
        for tx in range(len(first.transmitter_ids)):
            vector = window.samples[tx]
            parts.append(time_features(vector))
            parts.append(freq_features(vector, window.sampling_hz))
        rows[i] = np.concatenate(parts)

    diagnostics = FeatureDiagnostics(hf_ratio_ill_posed=not hf_ratio_defined(first.sampling_hz))
    bad = ~np.isfinite(rows)
    if bad.any():
        diagnostics.nonfinite_replaced = int(bad.sum())
        rows[bad] = 0.0
    return FeatureMatrix(
        feature_names=names,
        rows=rows,
        labels_occupancy=np.array([w.label_occupancy for w in windows], dtype=bool),
        labels_count=np.array([w.label_count for w in windows], dtype=np.int64),
        diagnostics=diagnostics,
    )


def build_raw_matrix(windows: list[Window]) -> FeatureMatrix:
    """One row per record: the raw per-transmitter RSSI vector, labels per record."""
    first = _check_homogeneous(windows)
    names = tuple(f"{mac}/rssi" for mac in first.transmitter_ids)
    rows = np.concatenate([w.samples.T for w in windows], axis=0).astype(np.float64)
    counts = np.concatenate([w.counts for w in windows])
    return FeatureMatrix(
        feature_names=names,
        rows=rows,
        labels_occupancy=counts > 0,
        labels_count=counts.astype(np.int64),
        diagnostics=FeatureDiagnostics(),
    )
