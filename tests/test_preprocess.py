"""Robust scaler and tree-based feature selection."""

import numpy as np
import pytest

from rssi_occupancy import preprocess
from rssi_occupancy.dataset import deduplicate
from rssi_occupancy.evaluation import holdout_split
from rssi_occupancy.features import FeatureDiagnostics, FeatureMatrix, build_feature_matrix, segment
from rssi_occupancy.preprocess import (
    PreprocessError,
    ScalerParams,
    apply_mask,
    apply_scaler,
    fit_scaler,
    select_features,
)

import trees_reference


def matrix_from(rows, occupancy=None, counts=None):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    return FeatureMatrix(
        feature_names=tuple(f"m/f{i}" for i in range(rows.shape[1])),
        rows=rows,
        labels_occupancy=np.zeros(n, dtype=bool) if occupancy is None else np.asarray(occupancy),
        labels_count=np.zeros(n, dtype=np.int64) if counts is None else np.asarray(counts),
        diagnostics=FeatureDiagnostics(),
    )


class TestScaler:
    def test_quartiles_of_five_ordered_values(self):
        params = fit_scaler(matrix_from([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        assert params.q1[0] == 2.0
        assert params.q2[0] == 3.0
        assert params.q3[0] == 4.0

    def test_quartiles_of_four_values_interpolate(self):
        params = fit_scaler(matrix_from([[1.0], [2.0], [3.0], [4.0]]))
        assert params.q1[0] == pytest.approx(1.75)
        assert params.q2[0] == pytest.approx(2.5)
        assert params.q3[0] == pytest.approx(3.25)

    def test_constant_column(self):
        params = fit_scaler(matrix_from([[7.0], [7.0], [7.0]]))
        assert params.q1[0] == params.q2[0] == params.q3[0] == 7.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(PreprocessError):
            fit_scaler(matrix_from(np.empty((0, 2))))

    def test_substitution_example(self):
        params = ScalerParams(q1=np.array([2.0]), q2=np.array([3.0]), q3=np.array([4.0]))
        scaled = apply_scaler(matrix_from([[5.0]]), params)
        assert scaled.rows[0, 0] == 1.0
        centered = apply_scaler(matrix_from([[3.0]]), params)
        assert centered.rows[0, 0] == 0.0

    def test_zero_iqr_centers_only(self):
        params = ScalerParams(q1=np.array([7.0]), q2=np.array([7.0]), q3=np.array([7.0]))
        scaled = apply_scaler(matrix_from([[9.0]]), params)
        assert scaled.rows[0, 0] == 2.0

    def test_column_mismatch_rejected(self):
        params = fit_scaler(matrix_from([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(PreprocessError, match="column mismatch"):
            apply_scaler(matrix_from([[1.0]]), params)

    def test_self_scaling_gives_median_zero_iqr_one(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            rows = rng.normal(size=(rng.integers(5, 40), rng.integers(1, 8)))
            matrix = matrix_from(rows)
            scaled = apply_scaler(matrix, fit_scaler(matrix))
            medians = np.median(scaled.rows, axis=0)
            q1, q3 = np.percentile(scaled.rows, (25, 75), axis=0)
            assert np.all(np.abs(medians) <= 1e-9)
            assert np.all(np.abs((q3 - q1) - 1.0) <= 1e-9)

    def test_argsort_preserved_and_no_nonfinite_on_test_data(self):
        rng = np.random.default_rng(21)
        train = matrix_from(rng.normal(size=(50, 4)))
        test = matrix_from(rng.normal(size=(30, 4)) * 5 + 3)
        params = fit_scaler(train)
        scaled = apply_scaler(test, params)
        assert np.all(np.isfinite(scaled.rows))
        for j in range(4):
            assert np.array_equal(np.argsort(scaled.rows[:, j]), np.argsort(test.rows[:, j]))


class TestSelection:
    def test_planted_signal_column_wins(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 2, 120).astype(bool)
        rows = rng.normal(size=(120, 10))
        rows[:, 4] = labels.astype(float)
        mask = select_features(matrix_from(rows), labels, 0)
        assert int(np.argmax(mask.importances)) == 4
        assert 4 in mask.kept

    def test_identical_columns_share_importance_equally(self):
        rng = np.random.default_rng(24)
        column = rng.normal(size=60)
        labels = column > 0
        rows = np.tile(column[:, None], (1, 6))
        mask = select_features(matrix_from(rows), labels, 1)
        assert np.allclose(mask.importances, 1.0 / 6.0)
        assert np.array_equal(mask.kept, np.arange(6))

    def test_importances_sum_to_one_and_mask_sorted(self):
        rng = np.random.default_rng(25)
        labels = rng.normal(size=80)
        rows = rng.normal(size=(80, 12))
        rows[:, 2] += labels
        mask = select_features(matrix_from(rows), labels, 2)
        assert mask.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(mask.importances >= 0)
        assert np.all(np.diff(mask.kept) > 0)
        assert mask.kept.size >= 1

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(26)
        labels = rng.integers(0, 2, 100).astype(bool)
        rows = rng.normal(size=(100, 15))
        rows[:, 0] += labels * 2
        matrix = matrix_from(rows)
        first = select_features(matrix, labels, 7)
        second = select_features(matrix, labels, 7)
        assert np.array_equal(first.kept, second.kept)
        assert np.array_equal(first.importances, second.importances)

    def test_degenerate_labels_rejected(self):
        rows = np.random.default_rng(27).normal(size=(30, 3))
        with pytest.raises(PreprocessError, match="distinct"):
            select_features(matrix_from(rows), np.zeros(30, dtype=bool))
        with pytest.raises(PreprocessError, match="distinct"):
            select_features(matrix_from(rows), np.ones(30))

    def test_apply_mask_subsets_columns(self):
        rng = np.random.default_rng(28)
        labels = rng.integers(0, 2, 60).astype(bool)
        rows = rng.normal(size=(60, 8))
        rows[:, 3] += labels * 3
        matrix = matrix_from(rows)
        mask = select_features(matrix, labels, 3)
        reduced = apply_mask(matrix, mask)
        assert reduced.n_features == mask.kept.size
        assert reduced.feature_names == tuple(matrix.feature_names[i] for i in mask.kept)

    def test_detection_mask_is_the_reference_gini_selectors(self, small_dataset, monkeypatch):
        # a short simulated detection training split, scaled as the pipeline scales it
        windows = segment(deduplicate(small_dataset), 1.0)
        train, _ = holdout_split(build_feature_matrix(windows), "classification", seed=3)
        train = apply_scaler(train, fit_scaler(train))
        labels = train.labels_occupancy
        mask = select_features(train, labels, 5)

        def gini_forest(n_trees, seed):
            return trees_reference.RandomForest(task="classification", n_trees=n_trees, seed=seed)

        monkeypatch.setattr(preprocess, "RandomForest", gini_forest)
        reference = select_features(train, labels, 5)
        assert np.array_equal(mask.kept, reference.kept)
        assert np.allclose(mask.importances, reference.importances, rtol=1e-12, atol=0)
