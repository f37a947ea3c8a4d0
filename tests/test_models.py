"""Model family sanity suite: exact-recovery oracles, invariances, determinism."""

import numpy as np
import pytest

from rssi_occupancy.models import (
    CLASSIFIER_FAMILIES,
    REGRESSOR_FAMILIES,
    ModelError,
    ModelSpec,
    default_grid,
    family_task,
    fit,
)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(40)
    X0 = rng.normal(size=(80, 3)) - 4.0
    X1 = rng.normal(size=(80, 3)) + 4.0
    X = np.vstack([X0, X1])
    y = np.array([False] * 80 + [True] * 80)
    return X, y


@pytest.fixture(scope="module")
def linear_data():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(60, 2))
    y = 2.0 * X[:, 0] - X[:, 1] + 3.0
    return X, y


class TestSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError, match="unknown model family"):
            ModelSpec("perceptron")

    def test_unknown_params_rejected(self):
        with pytest.raises(ModelError, match="unknown hyperparameters"):
            ModelSpec("knn", {"n_trees": 3})

    def test_family_tasks(self):
        for family in CLASSIFIER_FAMILIES:
            assert family_task(family) == "classification"
        for family in REGRESSOR_FAMILIES:
            assert family_task(family) == "regression"


class TestDefaultGrids:
    def test_documented_sizes(self):
        assert len(default_grid("svm")) == 48
        assert len(default_grid("knn")) == 4
        assert len(default_grid("wknn")) == 4
        assert len(default_grid("random_forest")) == 6
        assert len(default_grid("gradient_boosting")) == 6
        assert len(default_grid("ridge")) == 3
        assert len(default_grid("bayesian")) == 3
        assert len(default_grid("theil_sen")) == 2
        assert len(default_grid("ransac")) == 1
        assert default_grid("lda") == [{}]
        assert default_grid("linear") == [{}]

    def test_every_config_validates(self):
        for family in CLASSIFIER_FAMILIES + REGRESSOR_FAMILIES:
            for params in default_grid(family):
                ModelSpec(family, params)  # must not raise

    def test_unknown_family(self):
        with pytest.raises(ModelError):
            default_grid("boosted_stumps")


class TestNeighbors:
    def test_one_nn_self_consistency(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(40, 4))  # continuous rows: no duplicate features
        y = rng.integers(0, 2, 40).astype(bool)
        model = fit(ModelSpec("knn", {"k": 1}), X, y)
        assert np.array_equal(model.predict(X), y)

    def test_weighted_variant_separable(self, blobs):
        X, y = blobs
        model = fit(ModelSpec("wknn", {"k": 5}), X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_duplicate_rows_do_not_break_weighting(self):
        X = np.array([[0.0], [0.0], [5.0], [5.0]])
        y = np.array([False, False, True, True])
        model = fit(ModelSpec("wknn", {"k": 3}), X, y)
        assert np.array_equal(model.predict(X), y)

    def test_scale_invariance(self, blobs):
        X, y = blobs
        rng = np.random.default_rng(43)
        probe = rng.normal(size=(50, 3)) * 3
        base = fit(ModelSpec("knn", {"k": 5}), X, y).predict(probe)
        scaled = fit(ModelSpec("knn", {"k": 5}), X * 2.0, y).predict(probe * 2.0)
        assert np.array_equal(base, scaled)

    def test_k_larger_than_rows_rejected(self):
        X = np.zeros((3, 2))
        y = np.array([True, False, True])
        with pytest.raises(Exception):
            fit(ModelSpec("knn", {"k": 11}), X, y)


class TestDiscriminant:
    def test_lda_separable_clouds(self):
        rng = np.random.default_rng(44)
        X0 = rng.normal(scale=1.0, size=(200, 2))
        X1 = rng.normal(scale=1.0, size=(200, 2)) + 10.0
        X = np.vstack([X0, X1])
        y = np.array([False] * 200 + [True] * 200)
        model = fit(ModelSpec("lda"), X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_qlda_beats_lda_on_heteroscedastic_gaussians(self):
        rng = np.random.default_rng(45)
        X0 = rng.normal(size=(300, 2)) * 0.5
        X1 = rng.normal(size=(300, 2)) * 3.0
        X = np.vstack([X0, X1])
        y = np.array([False] * 300 + [True] * 300)
        lda_acc = np.mean(fit(ModelSpec("lda"), X, y).predict(X) == y)
        qlda_acc = np.mean(fit(ModelSpec("qlda"), X, y).predict(X) == y)
        assert qlda_acc > lda_acc

    def test_collinear_columns_get_regularized(self, blobs):
        X, y = blobs
        X_collinear = np.column_stack([X, X[:, 0]])  # singular covariance
        for family in ("lda", "qlda"):
            model = fit(ModelSpec(family), X_collinear, y)
            assert np.mean(model.predict(X_collinear) == y) > 0.95


class TestSvm:
    def test_linear_hinge_separable(self, blobs):
        X, y = blobs
        model = fit(ModelSpec("svm", {"kernel": "linear", "penalty": "l2", "loss": "hinge", "C": 1.0}), X, y)
        assert np.mean(model.predict(X) == y) == 1.0
        assert model.inner.machines[0].converged

    @pytest.mark.parametrize("kernel", ("linear", "poly", "sigmoid", "rbf"))
    @pytest.mark.parametrize("penalty", ("l1", "l2"))
    @pytest.mark.parametrize("loss", ("hinge", "squared_hinge"))
    def test_all_grid_combos_fit_separable_data(self, blobs, kernel, penalty, loss):
        X, y = blobs
        spec = ModelSpec("svm", {"kernel": kernel, "penalty": penalty, "loss": loss, "C": 1.0})
        model = fit(spec, X, y)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_decision_labels_invariant_under_row_reordering(self, blobs):
        X, y = blobs
        rng = np.random.default_rng(46)
        perm = rng.permutation(X.shape[0])
        probe = rng.normal(size=(60, 3)) * 4
        for params in (
            {"kernel": "linear", "penalty": "l2", "loss": "hinge", "C": 1.0},
            {"kernel": "rbf", "penalty": "l2", "loss": "squared_hinge", "C": 10.0},
        ):
            base = fit(ModelSpec("svm", params), X, y).predict(probe)
            shuffled = fit(ModelSpec("svm", params), X[perm], y[perm]).predict(probe)
            assert np.array_equal(base, shuffled)

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(47)
        centers = np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 8.0]])
        X = np.vstack([rng.normal(size=(50, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 50)
        model = fit(ModelSpec("svm", {"kernel": "linear", "penalty": "l2", "loss": "squared_hinge", "C": 1.0}), X, y)
        assert np.mean(model.predict(X) == y) > 0.95


class TestLinearModels:
    def test_ols_exact_recovery(self, linear_data):
        X, y = linear_data
        model = fit(ModelSpec("linear"), X, y)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-8
        assert model.inner.coef_ == pytest.approx([2.0, -1.0], abs=1e-10)
        assert model.inner.intercept_ == pytest.approx(3.0, abs=1e-10)

    def test_ridge_zero_penalty_matches_ols(self, linear_data):
        X, y = linear_data
        ols = fit(ModelSpec("linear"), X, y)
        ridge = fit(ModelSpec("ridge", {"lam": 0.0}), X, y)
        assert np.max(np.abs(ridge.predict(X) - ols.predict(X))) < 1e-8

    def test_ridge_shrinks_coefficients(self, linear_data):
        X, y = linear_data
        small = fit(ModelSpec("ridge", {"lam": 1e-3}), X, y)
        large = fit(ModelSpec("ridge", {"lam": 1e3}), X, y)
        assert np.linalg.norm(large.inner.coef_) < np.linalg.norm(small.inner.coef_)

    def test_bayesian_fits_noisy_linear_data(self, linear_data):
        X, y = linear_data
        rng = np.random.default_rng(48)
        noisy = y + rng.normal(0, 0.05, y.shape)
        model = fit(ModelSpec("bayesian", {"lam": 0.1}), X, noisy)
        assert model.inner.n_iter_ <= 300
        assert np.max(np.abs(model.predict(X) - y)) < 0.2
        assert model.inner.alpha_ > 0 and model.inner.lambda_ > 0

    def test_predict_count_rounds_and_clamps(self, linear_data):
        X, y = linear_data
        model = fit(ModelSpec("linear"), X, y)
        probe = np.array([[0.0, 3.0 - 0.6], [0.0, 3.0 - 2.4], [0.0, 13.0]])
        # exact predictions: 3 - (-0.6)... y = 2*x0 - x1 + 3 -> [0.6 + 3 ... ]
        estimates = model.predict(probe)
        counts = model.predict_count(probe)
        assert counts.tolist() == [round(estimates[0]), round(estimates[1]), 0]
        assert counts.min() >= 0


class TestRobustModels:
    def test_ransac_ignores_planted_outliers_where_ols_fails(self):
        rng = np.random.default_rng(49)
        x = rng.uniform(0, 10, 200)
        y = 3.5 * x + 1.0
        corrupted = y.copy()
        outliers = rng.choice(200, 60, replace=False)  # 30% gross outliers
        corrupted[outliers] += 50.0
        ransac = fit(ModelSpec("ransac", {"residual_quantile": 0.5}), x[:, None], corrupted)
        ols = fit(ModelSpec("linear"), x[:, None], corrupted)
        assert abs(ransac.inner.coef_[0] - 3.5) <= 1e-2
        assert abs(ols.inner.coef_[0] - 3.5) > 1e-2

    def test_theil_sen_exact_on_equal_pairwise_slopes(self):
        x = np.arange(12.0)
        y = 2.5 * x + 1.0
        model = fit(ModelSpec("theil_sen", {"n_subsets": 200}), x[:, None], y)
        assert model.inner.coef_[0] == pytest.approx(2.5, abs=1e-12)
        assert model.inner.intercept_ == pytest.approx(1.0, abs=1e-10)

    def test_theil_sen_needs_enough_rows(self):
        with pytest.raises(Exception):
            fit(ModelSpec("theil_sen"), np.zeros((2, 4)), np.array([1.0, 2.0]))

    def test_theil_sen_resists_outliers(self):
        rng = np.random.default_rng(50)
        x = rng.uniform(0, 10, 150)
        y = 2.0 * x + 1.0
        y[:30] += 40.0
        model = fit(ModelSpec("theil_sen", {"n_subsets": 500}), x[:, None], y)
        assert abs(model.inner.coef_[0] - 2.0) < 0.2


class TestEnsembles:
    def test_forest_predictions_bounded_by_training_targets(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(150, 5))
        y = 3.0 * X[:, 0] + rng.normal(0, 0.5, 150)
        model = fit(ModelSpec("random_forest", {"n_trees": 50, "depth": None}), X, y)
        probe = rng.normal(size=(80, 5)) * 3
        predictions = model.predict(probe)
        assert predictions.min() >= y.min()
        assert predictions.max() <= y.max()

    def test_forest_learns_step_function(self):
        rng = np.random.default_rng(52)
        X = rng.uniform(-1, 1, size=(200, 3))
        y = np.where(X[:, 1] > 0, 5.0, 1.0)
        # predicting the global mean would score MAE 2.0
        shallow = fit(ModelSpec("random_forest", {"n_trees": 50, "depth": 4}), X, y)
        assert np.mean(np.abs(shallow.predict(X) - y)) < 1.0
        deep = fit(ModelSpec("random_forest", {"n_trees": 50, "depth": None}), X, y)
        assert np.mean(np.abs(deep.predict(X) - y)) < 0.4

    def test_boosting_training_loss_non_increasing(self):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] ** 2 + rng.normal(0, 0.2, 120)
        model = fit(ModelSpec("gradient_boosting", {"n_trees": 60, "depth": 4}), X, y)
        losses = model.inner.train_losses_
        assert len(losses) == 61
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


class TestContracts:
    def test_column_mismatch_rejected(self, blobs):
        X, y = blobs
        model = fit(ModelSpec("knn", {"k": 3}), X, y)
        with pytest.raises(ModelError, match="column mismatch"):
            model.predict(X[:, :2])

    def test_degenerate_inputs_rejected(self):
        X = np.random.default_rng(54).normal(size=(10, 2))
        with pytest.raises(ModelError, match="distinct"):
            fit(ModelSpec("lda"), X, np.zeros(10, dtype=bool))
        with pytest.raises(ModelError, match="distinct"):
            fit(ModelSpec("linear"), X, np.ones(10))
        with pytest.raises(ModelError, match="at least 2"):
            fit(ModelSpec("linear"), X[:1], np.ones(1))

    @pytest.mark.parametrize("family", CLASSIFIER_FAMILIES)
    def test_classifier_determinism(self, blobs, family):
        X, y = blobs
        probe = np.random.default_rng(55).normal(size=(40, 3)) * 4
        first = fit(ModelSpec(family, seed=9), X, y).predict(probe)
        second = fit(ModelSpec(family, seed=9), X, y).predict(probe)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("family", REGRESSOR_FAMILIES)
    def test_regressor_determinism(self, linear_data, family):
        X, y = linear_data
        rng = np.random.default_rng(56)
        noisy = y + rng.normal(0, 0.1, y.shape)
        probe = rng.normal(size=(30, 2))
        params = {"random_forest": {"n_trees": 20, "depth": 4},
                  "gradient_boosting": {"n_trees": 20, "depth": 4},
                  "theil_sen": {"n_subsets": 50}}.get(family, {})
        first = fit(ModelSpec(family, params, seed=9), X, noisy).predict(probe)
        second = fit(ModelSpec(family, params, seed=9), X, noisy).predict(probe)
        assert np.array_equal(first, second)
