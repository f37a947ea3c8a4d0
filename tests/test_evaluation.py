"""Quality metrics, splits, grid search, and the end-to-end pipeline."""

import json

import numpy as np
import pytest

from rssi_occupancy import evaluation
from rssi_occupancy.evaluation import (
    EvaluationError,
    PipelineConfig,
    PipelineStageError,
    classification_metrics,
    grid_search,
    holdout_split,
    kfold_split,
    regression_metrics,
    run_pipeline,
)
from rssi_occupancy.features import FeatureDiagnostics, FeatureError, FeatureMatrix
from rssi_occupancy.models import FAMILIES, default_grid, fit_grid
from rssi_occupancy.models.neighbors import NearestNeighbors
from rssi_occupancy.simulator import simulate

import svm_reference
from conftest import small_scenario


def make_matrix(rows, occupancy=None, counts=None):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if occupancy is None:
        occupancy = np.zeros(n, dtype=bool)
    if counts is None:
        counts = occupancy.astype(np.int64)
    return FeatureMatrix(
        feature_names=tuple(f"m/f{i}" for i in range(rows.shape[1])),
        rows=rows,
        labels_occupancy=np.asarray(occupancy, dtype=bool),
        labels_count=np.asarray(counts, dtype=np.int64),
        diagnostics=FeatureDiagnostics(),
    )


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        truth = np.array([True, False, True, False])
        m = classification_metrics(truth, truth)
        assert (m.precision, m.specificity, m.recall, m.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert m.degenerate == ()

    def test_hand_computed_counts(self):
        # tp=2, fp=1, tn=3, fn=0
        pred = np.array([True, True, True, False, False, False])
        truth = np.array([True, True, False, False, False, False])
        m = classification_metrics(pred, truth)
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 3, 0)
        assert m.precision == pytest.approx(2 / 3)
        assert m.specificity == pytest.approx(3 / 4)
        assert m.recall == 1.0
        assert m.accuracy == pytest.approx(5 / 6)

    def test_all_positive_predictor_on_balanced_data(self):
        truth = np.array([True] * 10 + [False] * 10)
        pred = np.ones(20, dtype=bool)
        m = classification_metrics(pred, truth)
        assert m.recall == 1.0
        assert m.specificity == 0.0
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.degenerate == ()

    def test_degenerate_ratios_flagged_as_one(self):
        nothing = np.zeros(4, dtype=bool)
        m = classification_metrics(nothing, nothing)
        assert m.precision == 1.0 and "precision" in m.degenerate
        assert m.recall == 1.0 and "recall" in m.degenerate
        assert m.specificity == 1.0
        assert m.accuracy == 1.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(EvaluationError, match="length mismatch"):
            classification_metrics(np.array([True]), np.array([True, False]))
        with pytest.raises(EvaluationError, match="empty"):
            classification_metrics(np.array([], dtype=bool), np.array([], dtype=bool))

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            pred = rng.integers(0, 2, 30).astype(bool)
            truth = rng.integers(0, 2, 30).astype(bool)
            m = classification_metrics(pred, truth)
            for value in (m.precision, m.specificity, m.recall, m.accuracy):
                assert 0.0 <= value <= 1.0
            assert m.tp + m.fp + m.tn + m.fn == 30


class TestRegressionMetrics:
    def test_zero_error(self):
        truth = np.array([1.0, 2.0, 3.0])
        m = regression_metrics(truth, truth)
        assert (m.rmse, m.mae) == (0.0, 0.0)

    def test_hand_computed(self):
        m = regression_metrics(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert m.rmse == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert m.mae == 1.0

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            pred = rng.normal(size=n) * 3
            truth = rng.normal(size=n) * 3
            m = regression_metrics(pred, truth)
            assert m.rmse >= m.mae - 1e-12

    def test_rmse_equals_mae_for_constant_error_magnitude(self):
        truth = np.zeros(8)
        pred = np.array([2.0, -2.0] * 4)
        m = regression_metrics(pred, truth)
        assert m.rmse == pytest.approx(m.mae, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="^cannot score empty vectors$"):
            regression_metrics(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match=r"^length mismatch: \(1,\) vs \(2,\)$"):
            regression_metrics(np.array([1.0]), np.array([1.0, 2.0]))


class TestHoldout:
    def test_75_25_split(self):
        rng = np.random.default_rng(62)
        matrix = make_matrix(rng.normal(size=(100, 2)), occupancy=rng.integers(0, 2, 100).astype(bool))
        train, test = holdout_split(matrix, "classification", seed=0)
        assert (train.n_rows, test.n_rows) == (75, 25)

    def test_rounding_rule_101_rows(self):
        rng = np.random.default_rng(63)
        matrix = make_matrix(rng.normal(size=(101, 2)), counts=rng.integers(0, 4, 101))
        train, test = holdout_split(matrix, "regression", seed=0)
        assert (train.n_rows, test.n_rows) == (76, 25)

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(64)
        rows = np.arange(40, dtype=np.float64)[:, None]
        matrix = make_matrix(rows, occupancy=rng.integers(0, 2, 40).astype(bool))
        train, test = holdout_split(matrix, "classification", seed=3)
        combined = np.sort(np.concatenate([train.rows[:, 0], test.rows[:, 0]]))
        assert np.array_equal(combined, rows[:, 0])

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(65)
        occupancy = np.array([True] * 30 + [False] * 70)
        matrix = make_matrix(rng.normal(size=(100, 3)), occupancy=occupancy)
        train, _ = holdout_split(matrix, "classification", seed=1)
        n_true_train = int(train.labels_occupancy.sum())
        assert abs(n_true_train - 0.75 * 30) <= 1
        assert abs((train.n_rows - n_true_train) - 0.75 * 70) <= 1

    def test_tiny_class_rejected(self):
        occupancy = np.array([True] + [False] * 19)
        matrix = make_matrix(np.zeros((20, 1)), occupancy=occupancy)
        with pytest.raises(EvaluationError, match="stratified"):
            holdout_split(matrix, "classification", seed=0)

    def test_chronological_mode_takes_prefix(self):
        rows = np.arange(20, dtype=np.float64)[:, None]
        matrix = make_matrix(rows, counts=np.arange(20) % 3)
        train, test = holdout_split(matrix, "regression", seed=5, mode="chronological")
        assert np.array_equal(train.rows[:, 0], np.arange(15))
        assert np.array_equal(test.rows[:, 0], np.arange(15, 20))

    def test_seed_determinism(self):
        rng = np.random.default_rng(66)
        matrix = make_matrix(rng.normal(size=(50, 2)), occupancy=rng.integers(0, 2, 50).astype(bool))
        a_train, _ = holdout_split(matrix, "classification", seed=9)
        b_train, _ = holdout_split(matrix, "classification", seed=9)
        assert np.array_equal(a_train.rows, b_train.rows)

    def test_regression_split_is_one_seeded_shuffle(self):
        for n in range(4, 61):
            matrix = make_matrix(np.arange(n, dtype=np.float64)[:, None], counts=np.arange(n) % 4)
            for seed in range(6):
                train, test = holdout_split(matrix, "regression", seed=seed)
                expected = np.sort(np.random.default_rng(seed).permutation(n)[: round(0.75 * n)])
                assert np.array_equal(train.rows[:, 0], expected), (n, seed)
                assert np.array_equal(test.rows[:, 0], np.setdiff1d(np.arange(n), expected))

    def test_too_few_rows(self):
        with pytest.raises(EvaluationError):
            holdout_split(make_matrix(np.zeros((3, 1))), "regression")


class TestKfold:
    def test_ten_rows_five_folds_of_two(self):
        pairs = kfold_split(10, 5, seed=0)
        assert [len(v) for _, v in pairs] == [2, 2, 2, 2, 2]

    def test_eleven_rows_three_folds(self):
        pairs = kfold_split(11, 3, seed=0)
        assert [len(v) for _, v in pairs] == [4, 4, 3]

    def test_validation_folds_partition_rows(self):
        pairs = kfold_split(23, 5, seed=4)
        union = np.sort(np.concatenate([v for _, v in pairs]))
        assert np.array_equal(union, np.arange(23))
        for fit_idx, val_idx in pairs:
            assert np.intersect1d(fit_idx, val_idx).size == 0
            assert np.array_equal(np.sort(np.concatenate([fit_idx, val_idx])), np.arange(23))

    def test_k_must_be_supported(self):
        with pytest.raises(EvaluationError, match="one of"):
            kfold_split(20, 4, seed=0)

    def test_k_larger_than_rows(self):
        with pytest.raises(EvaluationError, match="folds"):
            kfold_split(2, 3, seed=0)


def _invalid_configs():
    """(family, grid, folds failed per config): bad values between configs that fit.

    Beside the SVM's out-of-range C values, each numeric hyperparameter of
    every family is given the string "ten", NaN and infinity between its
    grid's first and last configs, and a count (an axis of integers) also
    2.7: the constructor's check raises ``ValueError`` for each.
    """
    good = {"kernel": "linear", "loss": "hinge", "C": 1.0}
    yield pytest.param(
        "svm",
        [good, {**good, "C": 0.0}, {**good, "C": "ten"}, {**good, "kernel": "rbf"},
         {**good, "C": float("nan")}, {**good, "C": float("inf")}],
        [0, 3, 3, 0, 3, 3],
        id="svm",
    )
    for family in FAMILIES:
        first, last = default_grid(family)[0], default_grid(family)[-1]
        for axis, value in first.items():
            if family != "svm" and not isinstance(value, str):
                bad = ["ten", float("nan"), float("inf")] + [2.7] * isinstance(value, int)
                grid = [first, *({**first, axis: v} for v in bad), last]
                yield pytest.param(family, grid, [0, *[3] * len(bad), 0], id=f"{family}-{axis}")


class TestGridSearch:
    def _classification_matrix(self, seed=70, n=120):
        rng = np.random.default_rng(seed)
        occupancy = rng.integers(0, 2, n).astype(bool)
        rows = rng.normal(size=(n, 3))
        rows[:, 0] += occupancy * 4.0
        return make_matrix(rows, occupancy=occupancy)

    def test_singleton_grid_returned(self):
        matrix = self._classification_matrix()
        result = grid_search("knn", [{"k": 3}], matrix, k=3, seed=0)
        assert result.best_params == {"k": 3}
        assert result.metric == "accuracy"

    def test_best_score_is_maximal_and_recomputable(self):
        matrix = self._classification_matrix()
        grid = [{"k": k} for k in (1, 3, 5, 11)]
        result = grid_search("knn", grid, matrix, k=5, seed=2)
        best = result.scores[result.best_index]
        assert all(best.mean >= s.mean for s in result.scores if s.fold_scores)
        again = grid_search("knn", [result.best_params], matrix, k=5, seed=2)
        assert again.scores[0].mean == best.mean

    def test_planted_bayes_optimal_k_selected(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 240
            occupancy = rng.integers(0, 2, n).astype(bool)
            rows = rng.normal(size=(n, 2)) + np.where(occupancy, 1.0, 0.0)[:, None]
            matrix = make_matrix(rows, occupancy=occupancy)
            result = grid_search("knn", [{"k": 1}, {"k": 11}], matrix, k=5, seed=seed)
            wins += result.best_params == {"k": 11}
        assert wins >= 19  # >= 95% of 20 seeds

    def test_winner_invariant_under_feature_scaling(self):
        matrix = self._classification_matrix(seed=71)
        scaled = make_matrix(matrix.rows * 2.0, occupancy=matrix.labels_occupancy)
        grid = [{"k": k} for k in (1, 3, 5, 11)]
        a = grid_search("knn", grid, matrix, k=5, seed=0)
        b = grid_search("knn", grid, scaled, k=5, seed=0)
        assert a.best_params == b.best_params

    def test_failing_configs_reported_and_excluded(self):
        matrix = self._classification_matrix(n=30)
        grid = [{"k": 3}, {"k": 11}]  # k=11 < fold size, fine; force failure via k>rows
        grid = [{"k": 3}, {"k": 29}]  # folds hold 20 rows; k=29 cannot fit
        result = grid_search("knn", grid, matrix, k=3, seed=0)
        assert result.scores[1].n_failed == 3
        assert result.scores[1].fold_scores == []
        assert result.best_params == {"k": 3}

    def test_only_value_errors_count_as_failed_folds(self, monkeypatch):
        matrix = self._classification_matrix(n=30)
        real_fit = NearestNeighbors.fit

        def fit_failing_with(error):
            def flaky_fit(self, X, y_idx, n_classes):
                if self.k == 5:
                    raise error("injected")
                return real_fit(self, X, y_idx, n_classes)

            return flaky_fit

        monkeypatch.setattr(NearestNeighbors, "fit", fit_failing_with(ValueError))
        result = grid_search("knn", [{"k": 3}, {"k": 5}], matrix, k=3, seed=0)
        assert [s.n_failed for s in result.scores] == [0, 3]
        monkeypatch.setattr(NearestNeighbors, "fit", fit_failing_with(TypeError))
        with pytest.raises(TypeError, match="injected"):
            grid_search("knn", [{"k": 3}, {"k": 5}], matrix, k=3, seed=0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_fold_fit_is_one_fit_grid_call(self, monkeypatch, family):
        rng = np.random.default_rng(75)
        counts = rng.integers(0, 4, 45)
        rows = rng.normal(size=(45, 3))
        rows[:, 0] += counts * 2.0
        matrix = make_matrix(rows, occupancy=counts > 0, counts=counts)
        calls = []

        def counted(specs, X, y):
            calls.append(len(specs))
            return fit_grid(specs, X, y)

        def single_fit(*args):
            raise AssertionError("a fold fit went past fit_grid")

        monkeypatch.setattr(evaluation, "fit_grid", counted)
        monkeypatch.setattr(evaluation, "fit", single_fit)
        grid = default_grid(family)[:2]
        result = grid_search(family, grid, matrix, k=3, seed=0)
        assert calls == [len(grid)] * 3
        assert all(s.n_failed == 0 for s in result.scores)

    def _svm_grid(self):
        return [
            {"kernel": kernel, "loss": loss, "C": c}
            for kernel in ("linear", "rbf")
            for loss in ("hinge", "squared_hinge")
            for c in (0.1, 10.0)
        ]

    def test_svm_search_equals_reference_search_on_unequal_folds(self):
        matrix = self._classification_matrix(seed=73, n=61)  # folds of 21, 20, 20 rows
        grid = self._svm_grid()
        result = grid_search("svm", grid, matrix, k=3, seed=4)
        y = matrix.labels_occupancy
        folds = kfold_split(matrix.n_rows, 3, seed=4)
        assert sorted(len(v) for _, v in folds) == [20, 20, 21]
        want = []
        for params in grid:
            scores = []
            for fit_idx, val_idx in folds:
                classes, y_idx = np.unique(y[fit_idx], return_inverse=True)
                model = svm_reference.SupportVectorClassifier(**params)
                model.fit(matrix.rows[fit_idx], y_idx, classes.size)
                pred = classes[model.predict(matrix.rows[val_idx])]
                scores.append(float(np.mean(pred == y[val_idx])))
            want.append(scores)
        assert [s.fold_scores for s in result.scores] == want
        assert all(s.n_failed == 0 for s in result.scores)
        means = [float(np.mean(scores)) for scores in want]
        assert result.best_index == max(range(len(grid)), key=lambda i: (means[i], -i))

    @pytest.mark.parametrize("family, grid, failed", _invalid_configs())
    def test_invalid_config_fails_only_its_folds(self, family, grid, failed):
        matrix = self._classification_matrix(n=45)
        result = grid_search(family, grid, matrix, k=3, seed=0)
        assert [s.n_failed for s in result.scores] == failed
        assert [len(s.fold_scores) for s in result.scores] == [3 - n for n in failed]
        for params, score, n_failed in zip(grid, result.scores, failed):
            if n_failed == 0:
                alone = grid_search(family, [params], matrix, k=3, seed=0)
                assert score.fold_scores == alone.scores[0].fold_scores

    def test_svm_one_class_fold_fails_for_every_config(self):
        rng = np.random.default_rng(74)
        rows = rng.normal(size=(30, 2))
        occupancy = np.zeros(30, dtype=bool)
        occupancy[7] = True  # the fold that validates row 7 trains on one class
        result = grid_search("svm", self._svm_grid()[:4], make_matrix(rows, occupancy=occupancy),
                             k=3, seed=0)
        assert [s.n_failed for s in result.scores] == [1, 1, 1, 1]
        assert all(len(s.fold_scores) == 2 for s in result.scores)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_svm_non_finite_training_row_fails_its_folds(self, bad):
        matrix = self._classification_matrix(n=45)
        rows = matrix.rows.copy()
        rows[10, 2] = bad
        broken = make_matrix(rows, occupancy=matrix.labels_occupancy)
        grid = self._svm_grid()[:3]
        result = grid_search("svm", grid, broken, k=3, seed=0)
        # the row trains two of the three folds, and each of them fails for every config
        assert [s.n_failed for s in result.scores] == [2, 2, 2]
        assert all(len(s.fold_scores) == 1 for s in result.scores)

    def test_svm_non_value_errors_propagate(self, monkeypatch):
        matrix = self._classification_matrix(n=30)
        good = {"kernel": "linear", "loss": "hinge", "C": 1.0}
        with pytest.raises(TypeError):
            grid_search("svm", [good, {**good, "C": None}], matrix, k=3, seed=0)

        def broken_batch(specs, X, y):
            raise TypeError("injected")

        monkeypatch.setattr(evaluation, "fit_grid", broken_batch)
        with pytest.raises(TypeError, match="injected"):
            grid_search("svm", [good], matrix, k=3, seed=0)

    def test_all_configs_failing_is_an_error(self):
        matrix = self._classification_matrix(n=12)
        with pytest.raises(EvaluationError, match="every grid configuration failed"):
            grid_search("knn", [{"k": 11}], matrix, k=3, seed=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(EvaluationError, match="empty"):
            grid_search("knn", [], self._classification_matrix(), k=3, seed=0)

    def test_regression_metric_is_neg_rmse(self):
        rng = np.random.default_rng(72)
        counts = rng.integers(0, 4, 90)
        rows = rng.normal(size=(90, 2))
        rows[:, 0] += counts * 2.0
        matrix = make_matrix(rows, counts=counts)
        result = grid_search("ridge", [{"lam": 0.001}], matrix, k=3, seed=0)
        assert result.metric == "neg_rmse"
        assert result.scores[0].mean <= 0.0

    def test_zero_tree_forest_fails_only_its_folds(self):
        # a forest without trees would predict NaN, and a NaN CV mean must not win the search
        rng = np.random.default_rng(77)
        counts = rng.integers(0, 4, 60)
        rows = rng.normal(size=(60, 3))
        rows[:, 0] += counts
        grid = [{"n_trees": 0, "depth": 4}, {"n_trees": 10, "depth": 4}]
        result = grid_search("random_forest", grid, make_matrix(rows, counts=counts), k=3, seed=0)
        assert [s.n_failed for s in result.scores] == [3, 0]
        assert result.scores[0].fold_scores == []
        assert result.best_index == 1
        assert np.isfinite(result.best_score)

    @pytest.mark.parametrize("family", ["random_forest", "gradient_boosting"])
    def test_string_tree_depth_fails_only_its_folds(self, family):
        # a depth of "4" used to escape as a TypeError and end the pipeline
        rng = np.random.default_rng(78)
        counts = rng.integers(0, 4, 60)
        rows = rng.normal(size=(60, 3))
        rows[:, 0] += counts
        grid = [{"n_trees": 5, "depth": "4"}, {"n_trees": 5, "depth": 4}]
        result = grid_search(family, grid, make_matrix(rows, counts=counts), k=3, seed=0)
        assert [s.n_failed for s in result.scores] == [3, 0]
        assert result.best_index == 1


class TestRunPipeline:
    def test_detection_with_raw_representation_rejected(self, small_dataset):
        with pytest.raises(EvaluationError, match="features representation"):
            run_pipeline(small_dataset, "detection", "raw", PipelineConfig())

    def test_family_task_mismatch_rejected(self, small_dataset):
        config = PipelineConfig(families=("ridge",))
        with pytest.raises(EvaluationError, match="does not solve"):
            run_pipeline(small_dataset, "detection", "features", config)

    def test_stage_errors_name_the_stage(self):
        tiny = simulate(small_scenario(duration_s=0.5))  # shorter than one window
        with pytest.raises(PipelineStageError, match="stage 'segment'"):
            run_pipeline(tiny, "counting", "features", PipelineConfig(families=("linear",), k=3))

    @pytest.mark.parametrize(
        "task, representation, family, window_s, message",
        [
            ("detection", "features", "lda", 0.05, "windows of 2 samples at 45 Hz are too short"),
            ("counting", "raw", "linear", 0.02, "holds 1 < 2 samples"),
        ],
        ids=["features-0.05", "raw-0.02"],
    )
    def test_bad_window_is_a_value_error_before_any_stage(
        self, small_dataset, task, representation, family, window_s, message
    ):
        # a FeatureError (a ValueError), not a PipelineStageError (a RuntimeError)
        config = PipelineConfig(families=(family,), k=3, window_s=window_s)
        with pytest.raises(FeatureError, match=message):
            run_pipeline(small_dataset, task, representation, config)

    @pytest.mark.parametrize(
        "config, message",
        [
            (PipelineConfig(families=("lda",), k=4), "k must be one of"),
            (PipelineConfig(families=("lda",), k=3, split_mode="blocked"), "unknown split mode"),
        ],
        ids=["k-4", "split-blocked"],
    )
    def test_bad_k_or_split_mode_is_a_usage_error_before_any_stage(
        self, small_dataset, monkeypatch, config, message
    ):
        def no_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(evaluation, "deduplicate", no_stage)
        with pytest.raises(EvaluationError, match=message):
            run_pipeline(small_dataset, "detection", "features", config)

    def test_family_listed_twice_is_a_usage_error_before_any_stage(
        self, small_dataset, monkeypatch
    ):
        def no_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(evaluation, "deduplicate", no_stage)
        config = PipelineConfig(families=("lda", "qlda", "lda"), k=3)
        with pytest.raises(EvaluationError, match="listed more than once"):
            run_pipeline(small_dataset, "detection", "features", config)

    def test_detection_end_to_end(self, small_dataset):
        grids = {"svm": [{"kernel": "linear", "loss": "hinge", "C": 1.0}]}
        config = PipelineConfig(families=("svm",), k=3, seed=7, grids=grids)
        report = run_pipeline(small_dataset, "detection", "features", config)
        result = report.family_results[0]
        assert result.test_metrics.accuracy >= 0.95
        assert report.best_family == "svm"
        fp = report.fingerprint
        assert fp["n_train"] + fp["n_test"] == fp["n_rows"]
        assert fp["n_features_kept"] <= fp["n_features_total"]
        assert "per-window" in report.prediction_cadence

    def test_counting_end_to_end(self, small_dataset):
        grids = {"random_forest": [{"n_trees": 50, "depth": 8}]}
        config = PipelineConfig(families=("random_forest",), k=3, seed=7, grids=grids)
        report = run_pipeline(small_dataset, "counting", "features", config)
        assert report.family_results[0].test_metrics.mae <= 0.5

    @pytest.mark.parametrize(
        "task, family, keys",
        [
            ("detection", "lda", ["accuracy", "degenerate", "fn", "fp", "precision",
                                  "recall", "specificity", "tn", "tp"]),
            ("counting", "linear", ["mae", "rmse"]),
        ],
        ids=["detection", "counting"],
    )
    def test_report_test_block_keys(self, small_dataset, task, family, keys):
        config = PipelineConfig(families=(family,), k=3, seed=7, grids={family: [{}]})
        report = run_pipeline(small_dataset, task, "features", config)
        test_block = json.loads(report.to_json())["families"][0]["test"]
        assert sorted(test_block) == keys

    def test_counting_raw_cadence_noted(self, small_dataset):
        grids = {"linear": [{}]}
        config = PipelineConfig(families=("linear",), k=3, seed=7, grids=grids)
        report = run_pipeline(small_dataset, "counting", "raw", config)
        assert "per-sample" in report.prediction_cadence
        assert report.fingerprint["n_rows"] > report.fingerprint["n_windows"]

    def test_report_reproducible_byte_for_byte(self, small_dataset):
        grids = {"knn": [{"k": 3}, {"k": 5}]}
        config = PipelineConfig(families=("knn",), k=3, seed=11, grids=grids)
        first = run_pipeline(small_dataset, "detection", "features", config)
        second = run_pipeline(small_dataset, "detection", "features", config)
        assert first.to_json() == second.to_json()
        assert first.scores_csv() == second.scores_csv()

    def test_best_cv_invariant_within_families(self, small_dataset):
        grids = {"knn": [{"k": 1}, {"k": 3}, {"k": 5}]}
        config = PipelineConfig(families=("knn",), k=3, seed=1, grids=grids)
        report = run_pipeline(small_dataset, "detection", "features", config)
        search = report.family_results[0].search
        best_mean = search.scores[search.best_index].mean
        assert all(best_mean >= s.mean for s in search.scores if s.fold_scores)

    def test_best_family_is_chosen_by_cv_score(self, small_dataset):
        grids = {"linear": [{}], "ridge": [{"lam": 1.0}], "bayesian": [{"lam": 1.0}]}
        config = PipelineConfig(families=("linear", "ridge", "bayesian"), k=3, seed=2, grids=grids)
        report = run_pipeline(small_dataset, "counting", "features", config)
        by_cv = max(report.family_results, key=lambda r: r.search.best_score)
        assert report.best_family == by_cv.family == "ridge"
        # the test split would have picked another family: selection never looks at it
        by_test = min(report.family_results, key=lambda r: r.test_metrics.rmse)
        assert by_test.family == "bayesian"
