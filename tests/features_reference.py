"""Reference implementations of the feature catalog, one sample vector at a time.

These are the per-vector ``time_features``, ``freq_features``,
``_yule_walker`` and ``_haar_detail_energies`` that
``rssi_occupancy.features`` used before it computed every window in one
block. The tests compare the block path against them: bit for bit on
integer-valued RSSI, and to a stated tolerance on arbitrary floats.

One change from the former code: the AR coefficients read 0 wherever
variance**2 underflows to 0, as kurtosis does, which is the rule the module
documents. The former ``time_features`` solved those near-singular systems,
and one exactly singular window gave ``ar_3 = 1`` on one LAPACK build.
"""

import numpy as np

from rssi_occupancy.features import (
    AR_ORDER,
    HF_CUTOFF_HZ,
    N_DWT_LEVELS,
    N_ECDF_POINTS,
    N_FFT_BINS,
    N_SUB_BANDS,
    FeatureError,
    hf_ratio_defined,
)


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
    # the documented rule: AR reads 0 wherever kurtosis does (variance**2 underflows)
    ar_coefficients = _yule_walker(x, AR_ORDER) if kurt_denominator > 0 else np.zeros(AR_ORDER)

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
        *(float(c) for c in ar_coefficients),
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


def feature_rows(windows) -> tuple[np.ndarray, int]:
    """The feature matrix rows of ``windows`` and the non-finite tally, vector by vector."""
    rows = np.array(
        [
            np.concatenate(
                [
                    part
                    for vector in window
                    for part in (time_features(vector), freq_features(vector, windows.sampling_hz))
                ]
            )
            for window in windows.samples
        ]
    )
    bad = ~np.isfinite(rows)
    rows[bad] = 0.0
    return rows, int(bad.sum())
