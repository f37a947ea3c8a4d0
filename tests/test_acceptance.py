"""Acceptance criteria, one test per criterion with a printed pass/fail line.

The end-to-end criteria run a fixed, strongly separated simulated scenario:
4 transmitters, 600 s, schedule cycling counts 0-3 every 75 s, 6 dB
attenuation per person, 1 dB shadow noise, seed 7 (per-person extra noise
and motion sway are enabled so feature quality genuinely depends on the
sampling rate). Everything is deterministic, so the asserted thresholds are
stable across runs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rssi_occupancy.evaluation import (
    PipelineConfig,
    classification_metrics,
    regression_metrics,
    run_pipeline,
)
from rssi_occupancy.features import (
    FREQ_FEATURE_NAMES,
    TIME_FEATURE_NAMES,
    freq_features,
    time_features,
)
from rssi_occupancy.features import FeatureDiagnostics, FeatureMatrix
from rssi_occupancy.models import (
    CLASSIFIER_FAMILIES,
    REGRESSOR_FAMILIES,
    ModelSpec,
    fit,
)
from rssi_occupancy.models import svm as svm_module
from rssi_occupancy.preprocess import ScalerParams, apply_scaler, fit_scaler
from rssi_occupancy.simulator import (
    BodyEffectParams,
    PathLossParams,
    ScenarioConfig,
    simulate,
)

T = {name: i for i, name in enumerate(TIME_FEATURE_NAMES)}
F = {name: i for i, name in enumerate(FREQ_FEATURE_NAMES)}


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number} ({description}): PASS in {elapsed:.1f}s")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def acceptance_scenario(sampling_hz: float) -> ScenarioConfig:
    # 75 s dwells: count transitions are scarce enough that deduplication
    # cannot manufacture ambiguous mixed-label windows near the seams
    events = tuple((float(t), (t // 75) % 4) for t in range(0, 600, 75))
    return ScenarioConfig(
        transmitters=(
            ("C4:64:E3:0A:12:01", 100),
            ("C4:64:E3:0A:12:02", 180),
            ("C4:64:E3:0A:12:03", 320),
            ("C4:64:E3:0A:12:04", 500),
        ),
        sampling_hz=sampling_hz,
        duration_s=600.0,
        schedule=events,
        path_loss=PathLossParams(
            pl0_dbm_at_d0=-45.0, d0_cm=100.0, exponent=2.0, shadow_sigma_db=1.0
        ),
        body_effect=BodyEffectParams(
            atten_db_per_person=6.0,
            extra_sigma_db_per_person=2.0,
            motion_amp_db=1.5,
        ),
        seed=7,
    )


@pytest.fixture
def svm_machines(monkeypatch):
    """Every binary SVM machine solved while the test runs, in solve order."""
    machines = []
    solve = svm_module._solve_dual

    def recording(*args, **kwargs):
        fitted = solve(*args, **kwargs)
        machines.extend(fitted)
        return fitted

    monkeypatch.setattr(svm_module, "_solve_dual", recording)
    return machines


def certified(machines) -> tuple[int, int]:
    """(fits, fits that certified convergence) over binary SVM machines."""
    return len(machines), sum(m.converged for m in machines)


# the 18-config SVM grid on 3 folds, then the final fit
SVM_PIPELINE_FITS = 18 * 3 + 1


@pytest.fixture(scope="module")
def dataset_45hz():
    return simulate(acceptance_scenario(45.0))


@pytest.fixture(scope="module")
def dataset_20hz():
    return simulate(acceptance_scenario(20.0))


@pytest.fixture(scope="module")
def dataset_200hz():
    return simulate(acceptance_scenario(200.0))


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence", 1.0):
        rng = np.random.default_rng(100)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
            if tp + fp + tn + fn == 0:
                tp = 1
            pred = np.array([True] * tp + [True] * fp + [False] * tn + [False] * fn)
            truth = np.array([True] * tp + [False] * fp + [False] * tn + [True] * fn)
            order = rng.permutation(pred.size)
            metrics = classification_metrics(pred[order], truth[order])

            # rational-arithmetic oracle; 0/0 ratios are defined as 1
            def expect(num, den):
                return float(Fraction(num, den)) if den else 1.0

            assert metrics.precision == expect(tp, tp + fp)
            assert metrics.specificity == expect(tn, fp + tn)
            assert metrics.recall == expect(tp, tp + fn)
            assert metrics.accuracy == expect(tp + tn, tp + fp + tn + fn)

            n = int(rng.integers(1, 40))
            truth_counts = rng.integers(0, 6, size=n)
            errors = rng.integers(-3, 4, size=n)
            estimates = truth_counts + errors
            reg = regression_metrics(estimates.astype(float), truth_counts.astype(float))
            mae_expected = Fraction(int(np.sum(np.abs(errors))), n)
            rmse_expected = math.sqrt(Fraction(int(np.sum(errors**2)), n))
            assert reg.mae == pytest.approx(float(mae_expected), rel=1e-12, abs=0)
            assert reg.rmse == pytest.approx(rmse_expected, rel=1e-12, abs=0)


def test_criterion_2_scaler_contract():
    with criterion(2, "robust scaler contract", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(20):
            rows = rng.normal(size=(int(rng.integers(5, 50)), int(rng.integers(1, 10))))
            rows *= rng.uniform(0.5, 20)
            matrix = FeatureMatrix(
                feature_names=tuple(f"m/f{i}" for i in range(rows.shape[1])),
                rows=rows,
                labels_occupancy=np.zeros(rows.shape[0], dtype=bool),
                labels_count=np.zeros(rows.shape[0], dtype=np.int64),
                diagnostics=FeatureDiagnostics(),
            )
            scaled = apply_scaler(matrix, fit_scaler(matrix))
            q1, q2, q3 = np.percentile(scaled.rows, (25, 50, 75), axis=0)
            iqr = q3 - q1
            nondegenerate = iqr > 1e-12
            assert np.all(np.abs(q2) <= 1e-9)
            assert np.all(np.abs(iqr[nondegenerate] - 1.0) <= 1e-9)

        # direct substitution into the scaling formula
        params = ScalerParams(q1=np.array([2.0]), q2=np.array([3.0]), q3=np.array([4.0]))
        probe = FeatureMatrix(
            feature_names=("m/f0",),
            rows=np.array([[5.0]]),
            labels_occupancy=np.array([False]),
            labels_count=np.array([0]),
            diagnostics=FeatureDiagnostics(),
        )
        assert apply_scaler(probe, params).rows[0, 0] == 1.0


def test_criterion_3_feature_oracles():
    with criterion(3, "feature oracles", 5.0):
        # constant signal
        constant = np.full(200, -47.0)
        tvals = time_features(constant)
        assert tvals[T["std"]] == 0.0 and tvals[T["range"]] == 0.0
        assert tvals[T["skewness"]] == 0.0 and tvals[T["kurtosis"]] == 0.0
        fvals = freq_features(constant, 200.0)
        assert all(fvals[F[f"fft_mag_{i}"]] == 0.0 for i in range(1, 11))
        assert fvals[F["dominant_power_ratio"]] == 0.0
        assert fvals[F["wavelet_entropy"]] == 0.0

        # 2 Hz sinusoid at 200 Hz for 1 s: dominant within one 1-Hz bin
        t = np.arange(200) / 200.0
        fvals = freq_features(np.sin(2 * np.pi * 2.0 * t), 200.0)
        assert abs(fvals[F["dominant_freq_hz"]] - 2.0) <= 1.0
        assert fvals[F["hf_power_ratio"]] < 0.05

        # Parseval: sub-band energies sum to the total positive-bin power
        rng = np.random.default_rng(102)
        for fs in (20.0, 45.0, 100.0, 200.0):
            x = rng.normal(-60, 5, size=int(fs))
            fvals = freq_features(x, fs)
            n_fft = 1
            while n_fft < x.size:
                n_fft *= 2
            spectrum = np.fft.rfft((x - x.mean()) * np.hanning(x.size), n_fft)
            total = float(np.sum(np.abs(spectrum[1:]) ** 2))
            bands = sum(fvals[F[f"band_energy_{b}"]] for b in range(1, 5))
            assert bands == pytest.approx(total, rel=1e-6)


def test_criterion_4_model_sanity_suite():
    with criterion(4, "model sanity suite", 30.0):
        rng = np.random.default_rng(103)

        # 1-NN self-consistency
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, 40).astype(bool)
        assert np.array_equal(fit(ModelSpec("knn", {"k": 1}), X, y).predict(X), y)

        # Ridge(lam=0) == OLS within 1e-8
        Xl = rng.normal(size=(60, 3))
        yl = Xl @ np.array([1.5, -2.0, 0.5]) + 4.0
        ols = fit(ModelSpec("linear"), Xl, yl)
        ridge0 = fit(ModelSpec("ridge", {"lam": 0.0}), Xl, yl)
        assert np.max(np.abs(ridge0.predict(Xl) - ols.predict(Xl))) < 1e-8

        # OLS exact recovery on noiseless linear data within 1e-8
        assert np.max(np.abs(ols.predict(Xl) - yl)) < 1e-8

        # RANSAC robustness: slope error <= 1e-2 with 30% planted outliers
        x1 = rng.uniform(0, 10, 200)
        clean = 3.5 * x1 + 1.0
        corrupted = clean.copy()
        corrupted[rng.choice(200, 60, replace=False)] += 50.0
        ransac = fit(ModelSpec("ransac"), x1[:, None], corrupted)
        assert abs(ransac.inner.coef_[0] - 3.5) <= 1e-2

        # gradient boosting: monotone training loss
        Xg = rng.normal(size=(150, 4))
        yg = Xg[:, 0] * 2 + np.sin(Xg[:, 1]) + rng.normal(0, 0.2, 150)
        boosted = fit(ModelSpec("gradient_boosting", {"n_trees": 60, "depth": 4}), Xg, yg)
        losses = boosted.inner.train_losses_
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        # seed determinism for every family
        Xc0 = rng.normal(size=(60, 3)) - 3
        Xc1 = rng.normal(size=(60, 3)) + 3
        Xc = np.vstack([Xc0, Xc1])
        yc = np.array([False] * 60 + [True] * 60)
        probe_c = rng.normal(size=(40, 3)) * 3
        for family in CLASSIFIER_FAMILIES:
            a = fit(ModelSpec(family, seed=5), Xc, yc).predict(probe_c)
            b = fit(ModelSpec(family, seed=5), Xc, yc).predict(probe_c)
            assert np.array_equal(a, b), family
        yr = Xl @ np.array([1.0, 0.5, -1.0]) + rng.normal(0, 0.3, 60)
        probe_r = rng.normal(size=(40, 3))
        small = {"random_forest": {"n_trees": 20, "depth": 4},
                 "gradient_boosting": {"n_trees": 20, "depth": 4},
                 "theil_sen": {"n_subsets": 50}}
        for family in REGRESSOR_FAMILIES:
            params = small.get(family, {})
            a = fit(ModelSpec(family, params, seed=5), Xl, yr).predict(probe_r)
            b = fit(ModelSpec(family, params, seed=5), Xl, yr).predict(probe_r)
            assert np.array_equal(a, b), family


def test_criterion_5_end_to_end_detection(dataset_45hz, svm_machines):
    with criterion(5, "end-to-end detection, SVM grid", 180.0):
        config = PipelineConfig(families=("svm",), k=3, seed=7)
        report = run_pipeline(dataset_45hz, "detection", "features", config)
        accuracy = report.family_results[0].test_metrics.accuracy
        assert accuracy >= 0.95, f"SVM test accuracy {accuracy:.4f} < 0.95"
        # every fit is a solution: fits and certified fits agree
        fits = certified(svm_machines)
        assert fits == (SVM_PIPELINE_FITS, SVM_PIPELINE_FITS), f"(fits, certified) {fits}"


def test_criterion_6_end_to_end_counting(dataset_45hz):
    with criterion(6, "end-to-end counting, random forest grid", 180.0):
        config = PipelineConfig(families=("random_forest",), k=3, seed=7)
        report = run_pipeline(dataset_45hz, "counting", "features", config)
        metrics = report.family_results[0].test_metrics
        assert metrics.mae <= 0.5, f"MAE {metrics.mae:.4f} > 0.5"
        assert metrics.rmse <= 0.8, f"RMSE {metrics.rmse:.4f} > 0.8"


def test_robust_regressors_fit_with_an_exactly_dependent_feature(dataset_45hz):
    # the selector keeps p25, p75 and iqr = p75 - p25 of three transmitters, so
    # the training design with its intercept is rank-deficient
    config = PipelineConfig(families=("ransac", "theil_sen"), k=3, seed=7)
    report = run_pipeline(dataset_45hz, "counting", "features", config)
    for result in report.family_results:
        assert all(score.n_failed == 0 for score in result.search.scores), result.family


def test_criterion_7_frequency_degradation_trend(dataset_20hz, dataset_200hz, svm_machines):
    with criterion(7, "sampling-frequency degradation trend", 300.0):
        accuracy = {}
        rmse = {}
        fits = {}
        for hz, data in ((20, dataset_20hz), (200, dataset_200hz)):
            svm_machines.clear()
            detection = run_pipeline(
                data, "detection", "features", PipelineConfig(families=("svm",), k=3, seed=7)
            )
            fits[hz] = certified(svm_machines)
            counting = run_pipeline(
                data, "counting", "features",
                PipelineConfig(families=("random_forest",), k=3, seed=7),
            )
            accuracy[hz] = detection.family_results[0].test_metrics.accuracy
            rmse[hz] = counting.family_results[0].test_metrics.rmse
        assert accuracy[200] >= accuracy[20], f"accuracy {accuracy}"
        assert rmse[200] <= rmse[20], f"rmse {rmse}"
        every = (SVM_PIPELINE_FITS, SVM_PIPELINE_FITS)
        assert fits == {20: every, 200: every}, f"(fits, certified) per rate {fits}"


def test_criterion_8_features_beat_raw_for_counting(dataset_45hz):
    with criterion(8, "features-beat-raw counting trend", 300.0):
        # one fixed forest config for both runs isolates the representation
        grids = {"random_forest": [{"n_trees": 50, "depth": 8}]}
        config = PipelineConfig(families=("random_forest",), k=3, seed=7, grids=grids)
        raw = run_pipeline(dataset_45hz, "counting", "raw", config)
        features = run_pipeline(dataset_45hz, "counting", "features", config)
        rmse_raw = raw.family_results[0].test_metrics.rmse
        rmse_features = features.family_results[0].test_metrics.rmse
        assert rmse_features <= rmse_raw, (
            f"features RMSE {rmse_features:.4f} > raw RMSE {rmse_raw:.4f}"
        )
