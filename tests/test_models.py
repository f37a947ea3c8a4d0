"""Model family sanity suite: exact-recovery oracles, invariances, determinism,
the level-wise forest checked bit for bit against the node-by-node keyed
grower of `trees_reference`, weighted rows checked against their copies,
boosting's level-wise trees checked against its sorted search, and the
lockstep SVM solver checked bit for bit against `svm_reference`."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import svm_reference
import trees_reference
from rssi_occupancy.models import (
    CLASSIFIER_FAMILIES,
    REGRESSOR_FAMILIES,
    GradientBoosting,
    ModelError,
    ModelSpec,
    RandomForest,
    default_grid,
    family_task,
    fit,
    fit_grid,
)
from rssi_occupancy.models import ensembles as ensembles_module
from rssi_occupancy.models import linear as linear_module
from rssi_occupancy.models import robust as robust_module
from rssi_occupancy.models import svm as svm_module
from rssi_occupancy.models import trees as trees_module
from rssi_occupancy.models.ensembles import LEARNING_RATE
from rssi_occupancy.models.robust import RansacRegression, TheilSenRegression


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


# README's "Model families" table: the hyperparameters an empty spec builds, as
# attributes of its model, beside the flag each family fixes and the spec's seed.
DOCUMENTED_DEFAULTS = {
    "knn": {"k": 5, "weighted": False},
    "wknn": {"k": 5, "weighted": True},
    "lda": {"quadratic": False},
    "qlda": {"quadratic": True},
    "svm": {"kernel": "linear", "loss": "hinge", "C": 1.0},
    "gradient_boosting": {"n_trees": 100, "max_depth": 4},
    "random_forest": {"n_trees": 100, "max_depth": None, "seed": 3},
    "linear": {},
    "ridge": {"lam": 1.0},
    "ransac": {"residual_quantile": 0.5, "seed": 3},
    "bayesian": {"lam_init": 1.0},
    "theil_sen": {"n_subsets": 200, "seed": 3},
}


class TestSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError, match="unknown model family"):
            ModelSpec("perceptron")

    def test_unknown_params_rejected(self):
        with pytest.raises(ModelError, match="unknown hyperparameters"):
            ModelSpec("knn", {"n_trees": 3})

    def test_svm_penalty_is_not_a_hyperparameter(self):
        with pytest.raises(ModelError, match=r"allowed: \['C', 'kernel', 'loss'\]"):
            ModelSpec("svm", {"penalty": "l2"})

    def test_family_tasks(self):
        for family in CLASSIFIER_FAMILIES:
            assert family_task(family) == "classification"
        for family in REGRESSOR_FAMILIES:
            assert family_task(family) == "regression"

    @pytest.mark.parametrize("family", CLASSIFIER_FAMILIES + REGRESSOR_FAMILIES)
    def test_grid_axes_are_the_hyperparameters(self, family):
        first = default_grid(family)[0]
        for axis, value in first.items():
            assert ModelSpec(family, {axis: value}).params == {axis: value}
        # fixed flags and the seed are not hyperparameters
        for key in ("weighted", "quadratic", "seed"):
            with pytest.raises(ModelError, match="unknown hyperparameters"):
                ModelSpec(family, {key: 1})

    @pytest.mark.parametrize("family", CLASSIFIER_FAMILIES + REGRESSOR_FAMILIES)
    def test_an_empty_spec_builds_the_documented_defaults(self, blobs, linear_data, family):
        X, y = blobs if family_task(family) == "classification" else linear_data
        model = fit(ModelSpec(family, seed=3), X, y)
        for name, value in DOCUMENTED_DEFAULTS[family].items():
            assert getattr(model.inner, name) == value, name



class TestDefaultGrids:
    def test_documented_sizes(self):
        assert len(default_grid("svm")) == 18
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

    def test_documented_order(self):
        # Grid order sets a report's config_index and the ties that pick best_params.
        assert default_grid("svm") == [
            {"kernel": kernel, "loss": loss, "C": c}
            for kernel in ("linear", "poly", "rbf")
            for loss in ("hinge", "squared_hinge")
            for c in (0.1, 1.0, 10.0)
        ]
        # key order too: the summary line prints best_params as a dict
        assert {tuple(p) for p in default_grid("svm")} == {("kernel", "loss", "C")}
        for family in ("random_forest", "gradient_boosting"):
            assert {tuple(p) for p in default_grid(family)} == {("n_trees", "depth")}
            assert default_grid(family) == [
                {"n_trees": 50, "depth": 4},
                {"n_trees": 50, "depth": 8},
                {"n_trees": 50, "depth": None},
                {"n_trees": 200, "depth": 4},
                {"n_trees": 200, "depth": 8},
                {"n_trees": 200, "depth": None},
            ]
        for family in ("ridge", "bayesian"):
            assert default_grid(family) == [{"lam": 1e-3}, {"lam": 1e-1}, {"lam": 1.0}]
        assert default_grid("theil_sen") == [{"n_subsets": 200}, {"n_subsets": 500}]

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

    @pytest.mark.parametrize("family", ["knn", "wknn"])
    def test_k_equal_to_the_rows_votes_over_every_row(self, family):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, 30)
        probe = np.vstack([X[:5], rng.normal(size=(25, 3)) * 2])  # some at a training row
        model = fit(ModelSpec(family, {"k": X.shape[0]}), X, y)
        classes = np.unique(y)
        want = []
        for row in probe:
            distance = np.sqrt(np.sum((X - row) ** 2, axis=1))
            weight = 1.0 / (distance + 1e-9) if family == "wknn" else np.ones(X.shape[0])
            votes = [weight[y == c].sum() for c in classes]
            want.append(classes[int(np.argmax(votes))])  # ties: the smallest class
        assert np.array_equal(model.predict(probe), want)


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
        model = fit(ModelSpec("svm", {"kernel": "linear", "loss": "hinge", "C": 1.0}), X, y)
        assert np.mean(model.predict(X) == y) == 1.0
        assert model.inner.machines[0].converged

    @pytest.mark.parametrize("kernel", ("linear", "poly", "rbf"))
    @pytest.mark.parametrize("loss", ("hinge", "squared_hinge"))
    def test_all_grid_combos_fit_separable_data(self, blobs, kernel, loss):
        X, y = blobs
        spec = ModelSpec("svm", {"kernel": kernel, "loss": loss, "C": 1.0})
        model = fit(spec, X, y)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_decision_labels_invariant_under_row_reordering(self, blobs):
        X, y = blobs
        rng = np.random.default_rng(46)
        perm = rng.permutation(X.shape[0])
        probe = rng.normal(size=(60, 3)) * 4
        for params in (
            {"kernel": "linear", "loss": "hinge", "C": 1.0},
            {"kernel": "rbf", "loss": "squared_hinge", "C": 10.0},
        ):
            base = fit(ModelSpec("svm", params), X, y).predict(probe)
            shuffled = fit(ModelSpec("svm", params), X[perm], y[perm]).predict(probe)
            assert np.array_equal(base, shuffled)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_features_rejected(self, blobs, bad):
        # unchecked, a NaN runs the solver to its cap on NaNs and fits a constant classifier
        X, y = blobs
        X = X.copy()
        X[5, 1] = bad
        spec = ModelSpec("svm", {"kernel": "rbf", "loss": "hinge", "C": 1.0})
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit(spec, X, y)
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit_grid([spec, ModelSpec("svm", {"kernel": "linear"})], X, y)

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(47)
        centers = np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 8.0]])
        X = np.vstack([rng.normal(size=(50, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 50)
        model = fit(ModelSpec("svm", {"kernel": "linear", "loss": "squared_hinge", "C": 1.0}), X, y)
        assert np.mean(model.predict(X) == y) > 0.95

    @pytest.mark.parametrize("loss", ("hinge", "squared_hinge"))
    def test_linear_fit_builds_no_gram_matrix(self, loss):
        # the linear dual multiplies by Z = [X, 1], so a fit holds O(m (d + 1)) floats,
        # where one m x m Gram matrix alone takes 8 m^2 bytes (32 MB here)
        rng = np.random.default_rng(5)
        m, d = 2000, 8
        X = rng.normal(size=(m, d))
        y = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=m) > 0
        tracemalloc.start()
        try:
            model = fit(ModelSpec("svm", {"kernel": "linear", "loss": loss}), X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.inner.machines[0].converged
        assert peak < 8 * m * (d + 1) * 8, peak / (m * (d + 1) * 8)  # measured: 3.9x

    @pytest.mark.parametrize("kernel", ("poly", "rbf"))
    def test_kernel_batch_holds_one_kernel_matrix(self, kernel):
        # squared hinge adds its 1/(2C) as a term of its own rows, so a batch of six configs
        # (two losses, three C) holds one m x m kernel, not a shifted copy per C as well
        rng = np.random.default_rng(5)
        m = 300
        X = rng.normal(size=(m, 8))
        y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=m) > 0).astype(np.int64)
        grid = [params for params in default_grid("svm") if params["kernel"] == kernel]
        classifiers = [svm_module.SupportVectorClassifier(**params) for params in grid]
        tracemalloc.start()
        try:
            svm_module.fit_lockstep(classifiers, X, y, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(classifiers) == 6
        assert all(c.machines[0].converged for c in classifiers)
        # measured: poly 1.4x, rbf 2.07x (squared_distances holds two m x m arrays at once)
        assert peak <= 2.5 * 8 * m * m, peak / (8 * m * m)

    @pytest.mark.parametrize("n_classes", (2, 3))
    def test_default_grid_batch_holds_one_matrix_per_kernel(self, n_classes):
        # all 18 configs solve as one batch per label, with one matrix per kernel: RBF's is
        # built first, so its two-array transient ends before poly's exists, and one-vs-rest
        # re-signs both in place for each class rather than copying them
        rng = np.random.default_rng(5)
        m = 300
        X = rng.normal(size=(m, 8))
        score = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=m)
        y = np.digitize(score, np.quantile(score, np.linspace(0.0, 1.0, n_classes + 1)[1:-1]))
        classifiers = [svm_module.SupportVectorClassifier(**p) for p in default_grid("svm")]
        tracemalloc.start()
        try:
            svm_module.fit_lockstep(classifiers, X, y, n_classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(c.machines) for c in classifiers] == [1 if n_classes == 2 else 3] * 18
        # measured: 2.71x for two classes and 3.16x for three, against 2.16x and 2.53x for
        # one batch per kernel. Beside the two matrices, the batch holds seven arrays of its
        # 18 problems (0.42x at this m) and the machines their support rows (0.19x a class);
        # poly's matrix built first, or a signed copy per class, adds a whole 1x
        assert peak <= (2.9 if n_classes == 2 else 3.4) * 8 * m * m, peak / (8 * m * m)

    def test_signed_factors_give_the_unsigned_product(self):
        # y is +-1, so each term of ((y y^T) * K) v is a term of y * (K (y * v)) exactly, and
        # rounding is symmetric in sign: the two agree bit for bit, for K and for the thin
        # factor [X, 1], and so does a chain re-signed from one label to the next
        rng = np.random.default_rng(51)
        m, d = 200, 12
        X = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d)
        labels = np.where(rng.random((2, m)) < 0.5, 1.0, -1.0)
        V = rng.normal(size=(4, m))
        V[:, rng.random(m) < 0.3] = 0.0  # exact zeros beside negatives
        gamma = svm_module._scale_gamma(X)

        def product(chain, v):
            for F in chain:
                v = F @ v
            return v

        for kernel in svm_module.KERNELS:
            chain = svm_module._factors(kernel, X, gamma)
            unsigned = [[y * product(chain, y * v) for v in V] for y in labels]
            sign = np.ones(m)
            for y, want in zip(labels, unsigned):
                svm_module._sign(chain, sign * y)
                sign = y
                assert _same_bits([product(chain, v) for v in V], want), kernel


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_svm_matches_reference(model, params, X, y, probe):
    """``model`` (a fitted svm TrainedModel) equals the reference fit bit for bit."""
    classes, y_idx = np.unique(y, return_inverse=True)
    want = svm_reference.SupportVectorClassifier(**params).fit(X, y_idx, classes.size)
    got = model.inner
    assert len(got.machines) == len(want.machines), params
    for g, w in zip(got.machines, want.machines):
        for name in ("w", "support_rows", "dual_coef"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a is None) == (b is None), (params, name)
            assert a is None or _same_bits(a, b), (params, name)
        assert _same_bits(g.b, w.b), params
        assert g.converged == w.converged, params
    assert np.array_equal(model.predict(probe), classes[want.predict(probe)]), params
    return [m.converged for m in got.machines]


def _svm_specs(grid):
    return [ModelSpec("svm", params) for params in grid]


class TestLockstepSvmMatchesReference:
    @pytest.fixture(scope="class")
    def overlapping(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(90, 4))
        y = X[:, 0] + 0.8 * rng.normal(size=90) > 0
        probe = rng.normal(size=(40, 4)) * 2.0
        return X, y, probe

    def test_default_grid_bit_identical(self, overlapping):
        X, y, probe = overlapping
        grid = default_grid("svm")
        models = fit_grid(_svm_specs(grid), X, y)
        flags = [assert_svm_matches_reference(m, p, X, y, probe) for p, m in zip(grid, models)]
        # every default-grid machine certifies within the iteration cap
        assert all(all(f) for f in flags)

    def test_single_fit_is_the_batch_of_one(self, overlapping):
        X, y, probe = overlapping
        for params in ({"kernel": "rbf", "loss": "hinge", "C": 10.0},
                       {"kernel": "poly", "loss": "squared_hinge", "C": 1.0},
                       {"kernel": "linear", "loss": "hinge", "C": 0.1}):
            assert_svm_matches_reference(fit(ModelSpec("svm", params), X, y), params, X, y, probe)

    @pytest.mark.parametrize("capped_first", (False, True))
    def test_converged_problem_leaves_beside_capped_ones(self, overlapping, capped_first):
        # the stored iterate of a problem that left the batch is its iterate at convergence
        X, y, probe = overlapping
        grid = [
            {"kernel": "linear", "loss": loss, "C": c}
            for loss in ("hinge", "squared_hinge")
            for c in (1e2, 1e3, 1e4)
        ]
        # past the default grid's C: hinge certifies at C = 100 only, squared hinge up to 1e3
        expected = [True, False, False, True, True, False]
        if capped_first:  # the capped rows lead the batch, and rows behind them leave it
            grid, expected = grid[::-1], expected[::-1]
        models = fit_grid(_svm_specs(grid), X, y)
        flags = [assert_svm_matches_reference(m, p, X, y, probe)[0] for p, m in zip(grid, models)]
        assert flags == expected

    def test_interleaved_losses_and_repeated_C(self, overlapping):
        X, y, probe = overlapping
        order = [("squared_hinge", 1.0), ("hinge", 1.0), ("squared_hinge", 10.0),
                 ("hinge", 0.1), ("squared_hinge", 1.0)]
        grid = [{"kernel": "rbf", "loss": loss, "C": c} for loss, c in order]
        for params, model in zip(grid, fit_grid(_svm_specs(grid), X, y)):
            assert_svm_matches_reference(model, params, X, y, probe)

    def test_three_class_one_vs_rest(self):
        rng = np.random.default_rng(48)
        centers = np.array([[-1.5, 0.0], [1.5, 0.0], [0.0, 2.0]])
        X = np.vstack([rng.normal(size=(15, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 15)
        probe = rng.normal(size=(30, 2)) * 2.0
        grid = [
            {"kernel": kernel, "loss": loss, "C": 1.0}
            for kernel in ("linear", "poly", "rbf")
            for loss in ("hinge", "squared_hinge")
        ]
        models = fit_grid(_svm_specs(grid), X, y)
        for params, model in zip(grid, models):
            assert len(model.inner.machines) == 3
            assert_svm_matches_reference(model, params, X, y, probe)

    def test_all_zero_features(self):
        # balanced labels on X = 0: the linear hinge dual's first power iterate
        # vanishes (Q v = 0), and the step size falls back to 1
        X = np.zeros((20, 3))
        y = np.array([0, 1] * 10)
        probe = np.random.default_rng(49).normal(size=(10, 3))
        grid = default_grid("svm")
        for params, model in zip(grid, fit_grid(_svm_specs(grid), X, y)):
            assert_svm_matches_reference(model, params, X, y, probe)

    def test_fortran_ordered_features(self, overlapping):
        # the fit copies an F-ordered X to C order, so its machines are the reference's on
        # the C-ordered values; the reference itself follows X's memory order
        X, y, probe = overlapping
        grid = default_grid("svm")
        for params, model in zip(grid, fit_grid(_svm_specs(grid), np.asfortranarray(X), y)):
            assert_svm_matches_reference(model, params, X, y, probe)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_machines_do_not_depend_on_the_memory_order_of_x(self, n_classes):
        # an F-ordered X would make [X, 1] F-ordered, whose gemv runs another BLAS kernel,
        # and would sum squared_distances' rows in another order
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 12))
        y = np.digitize(X[:, 0] + 0.5 * rng.normal(size=200), [0.0, 0.7][: n_classes - 1])
        grid = [
            {"kernel": kernel, "loss": loss, "C": 1.0}
            for kernel in svm_module.KERNELS
            for loss in svm_module.LOSSES
        ]
        c_models = fit_grid(_svm_specs(grid), X, y)
        f_models = fit_grid(_svm_specs(grid), np.asfortranarray(X), y)
        for params, c_model, f_model in zip(grid, c_models, f_models):
            assert len(c_model.inner.machines) == (1 if n_classes == 2 else 3)
            for c, f in zip(c_model.inner.machines, f_model.inner.machines):
                for name in ("w", "b", "support_rows", "dual_coef", "gamma", "converged"):
                    a, b = getattr(c, name), getattr(f, name)
                    assert (a is None) == (b is None), (params, name)
                    assert a is None or _same_bits(a, b), (params, name)

    def test_reference_linear_product_is_the_dense_dual_product(self):
        # the reference's product, factored for the linear kernel and with squared hinge's
        # 1/(2C) as a term for every kernel, solves the QP that (y y^T) * (K + 1) + I/(2C) states
        rng = np.random.default_rng(50)
        for m, d in ((30, 2), (200, 12)):
            X = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d)
            y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            gamma = svm_reference._scale_gamma(X)
            gram = {
                "linear": X @ X.T,
                "poly": (gamma * (X @ X.T) + 1.0) ** 3,
                "rbf": np.exp(-gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)),
            }
            for kernel in svm_module.KERNELS:
                dense = (y[:, None] * y[None, :]) * (gram[kernel] + 1.0)
                for loss in svm_module.LOSSES:
                    for C in (0.01, 1.0, 10.0, 1e4):
                        Q = dense + np.eye(m) / (2.0 * C) if loss == "squared_hinge" else dense
                        product = svm_reference.dual_product(kernel, X, y, loss, C, gamma)
                        for v in (rng.uniform(0.0, C, size=m), rng.normal(size=m)):
                            want = Q @ v
                            error = np.linalg.norm(product(v) - want)
                            assert error <= 1e-12 * np.linalg.norm(want), (m, kernel, loss, C)

    def test_spectral_norm_of_a_vanishing_problem_is_one(self):
        # the zero operator vanishes at once, the nilpotent one a step later
        operators = np.array([np.zeros((2, 2)), 2.0 * np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        norms = svm_module._spectral_norm(
            lambda v: np.matmul(operators, v[..., None])[..., 0], 3, 2
        )
        assert norms.tolist() == [1.0, 2.0, 1.0]
        reference = [svm_reference._spectral_norm(lambda v: a @ v, 2) for a in operators]
        assert norms.tolist() == reference

    def test_invalid_config_is_returned_not_raised(self, overlapping):
        X, y, probe = overlapping
        good = {"kernel": "rbf", "loss": "hinge", "C": 1.0}
        bad = [{**good, "C": 0.0}, {**good, "kernel": "cubic"}, {**good, "kernel": "sigmoid"},
               {**good, "C": "ten"}, {**good, "C": float("nan")}]
        results = list(fit_grid(_svm_specs([bad[0], good, *bad[1:]]), X, y))
        assert [isinstance(r, ValueError) for r in results] == [True, False, True, True, True, True]
        assert "unknown kernel 'sigmoid'" in str(results[3])
        assert "C must be positive" in str(results[-1])
        assert_svm_matches_reference(results[1], good, X, y, probe)
        with pytest.raises(TypeError):
            fit_grid(_svm_specs([{**good, "C": None}]), X, y)

    def test_all_invalid_grid_fits_nothing(self, overlapping, monkeypatch):
        # the batch is empty: each config's error comes back, and no dual is solved
        X, y, _ = overlapping
        solved = []
        monkeypatch.setattr(svm_module, "_solve_dual", lambda *args: solved.append(args))
        grid = [{"C": 0.0}, {"kernel": "sigmoid"}, {"C": float("inf")}, {"loss": "l1"}]
        results = list(fit_grid(_svm_specs(grid), X, y))
        assert [type(r) for r in results] == [ValueError] * 4
        assert solved == []

    def test_one_class_fails_the_whole_batch(self, overlapping):
        X, _, _ = overlapping
        with pytest.raises(ModelError, match="at least 2 distinct labels"):
            fit_grid(_svm_specs(default_grid("svm")[:2]), X, np.ones(X.shape[0], dtype=bool))


class TestSvmMomentumTable:
    def test_momentum_table_matches_reference_recurrence(self):
        # the recurrence of svm_reference._fit_dual, one scalar step at a time
        table = svm_module._MOMENTUM
        t_prev = 1.0
        for k in range(table.size):
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2))
            assert _same_bits(table[k], (t_prev - 1.0) / t_next), k
            t_prev = t_next
        # a problem that never restarts reads entry k at step k, the last at step _MAX_ITER - 1
        assert table.shape == (svm_module._MAX_ITER,)

    def test_momentum_past_step_2705_without_restart(self):
        # this problem's momentum runs past k = 2705 (to 6,145), where glibc's pow(t, 2) and
        # t * t first round apart; its weights absorb the difference, so it checks the table
        # through a long run, and the next test is the one a t * t table fails
        rng = np.random.default_rng(17)
        X = rng.normal(size=(90, 4))
        y = X[:, 0] + 0.3 * rng.normal(size=90) > 0
        params = {"kernel": "linear", "loss": "squared_hinge", "C": 1e4}
        model = fit(ModelSpec("svm", params), X, y)
        assert assert_svm_matches_reference(model, params, X, y, rng.normal(size=(20, 4))) == [True]

    def test_momentum_past_step_2705_differs_from_t_times_t(self):
        # this problem's momentum runs to k = 3,163; a table built from t * t gives weights
        # that differ from the reference's, which builds it from pow(t, 2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(90, 4))
        y = X[:, 0] + 0.3 * rng.normal(size=90) > 0
        params = {"kernel": "linear", "loss": "squared_hinge", "C": 3e3}
        model = fit(ModelSpec("svm", params), X, y)
        assert assert_svm_matches_reference(model, params, X, y, rng.normal(size=(20, 4))) == [True]


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

    @staticmethod
    def mostly_degenerate(seed):
        """95 copies of one row and 5 others: most subsets of 3 rows have rank < 3."""
        rng = np.random.default_rng(seed)
        X = np.vstack([np.zeros((95, 2)), rng.normal(size=(5, 2))])
        return X, rng.normal(size=100)

    def test_ransac_draws_as_the_former_loop(self):
        X, y = self.mostly_degenerate(52)
        model = RansacRegression(seed=9).fit(X, y)
        # the former loop, which drew and solved its own subsets
        threshold = float(np.quantile(np.abs(y - np.median(y)), 0.5))
        full_rank = linear_module._least_squares(X, y)[1]
        rng = np.random.default_rng(9)
        best = best_mask = None
        skipped = 0
        for _ in range(robust_module.RANSAC_TRIALS):
            subset = rng.choice(100, size=3, replace=False)
            solution, rank = linear_module._least_squares(X[subset], y[subset])
            if rank < full_rank:
                skipped += 1
                continue
            residuals = np.abs(X @ solution[:-1] + solution[-1] - y)
            mask = residuals <= threshold
            score = (int(mask.sum()), -float(np.sum(residuals[mask] ** 2)))
            if best is None or score > best:
                best, best_mask = score, mask
        assert 0 < skipped < robust_module.RANSAC_TRIALS
        solution = linear_module._least_squares(X[best_mask], y[best_mask])[0]
        assert model.coef_.tobytes() == solution[:-1].tobytes()
        assert model.intercept_ == float(solution[-1])
        assert model.n_inliers_ == int(best_mask.sum())

    def test_theil_sen_draws_as_the_former_loop(self):
        X, y = self.mostly_degenerate(53)
        model = TheilSenRegression(n_subsets=10, seed=9).fit(X, y)
        # the former loop, which drew and solved its own subsets
        full_rank = linear_module._least_squares(X, y)[1]
        rng = np.random.default_rng(9)
        solutions, attempts = [], 0
        while len(solutions) < 10 and attempts < 100:
            attempts += 1
            subset = rng.choice(100, size=3, replace=False)
            solution, rank = linear_module._least_squares(X[subset], y[subset])
            if rank >= full_rank:
                solutions.append(solution)
        assert attempts == 100 and 0 < len(solutions) < 10  # the attempt cap ends the draws
        solution = robust_module.spatial_median(np.vstack(solutions))
        assert model.coef_.tobytes() == solution[:-1].tobytes()
        assert model.intercept_ == float(solution[-1])

    @pytest.mark.parametrize("model", [RansacRegression(), TheilSenRegression(n_subsets=1)])
    def test_robust_fit_errors(self, model):
        with pytest.raises(ValueError, match="need at least 5 rows, got 2"):
            model.fit(np.zeros((2, 4)), np.array([1.0, 2.0]))
        # one row of 10,001 differs: nearly every pair of rows has rank 1
        X = np.zeros((10_001, 1))
        X[0] = 1.0
        with pytest.raises(ValueError, match="every sampled subset was rank-deficient"):
            model.fit(X, np.arange(10_001.0))

    @pytest.mark.parametrize("family", ["ransac", "theil_sen"])
    def test_exactly_dependent_column_still_fits(self, family):
        # an interquartile range beside both quartiles: the design with its intercept has rank d
        rng = np.random.default_rng(51)
        quartiles = np.sort(rng.integers(-90, -40, size=(80, 2)), axis=1).astype(np.float64)
        X = np.column_stack([quartiles, quartiles[:, 1] - quartiles[:, 0]])
        y = 0.5 * X[:, 0] - 0.25 * X[:, 1] + 3.0
        model = fit(ModelSpec(family, seed=3), X, y)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-8

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

    @pytest.mark.parametrize("family", ["random_forest", "gradient_boosting"])
    def test_no_columns_fit_a_constant(self, family):
        y = np.arange(20.0)
        model = fit(ModelSpec(family, {"n_trees": 3, "depth": 2}), np.zeros((20, 0)), y)
        assert all(len(tree.feature) == 1 for tree in model.inner.trees)
        predictions = model.predict(np.zeros((5, 0)))
        assert np.all(predictions == predictions[0])

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


class TestFitGrid:
    """``fit_grid`` fits every family: entry i is spec i's own ``fit``, or its error."""

    GRIDS = {
        "ridge": [{"lam": 1e-3}, {"lam": 1.0}, {"lam": 0.0}],
        "random_forest": [{"n_trees": 5, "depth": 3}, {"n_trees": 8, "depth": None}],
        "knn": [{"k": 1}, {"k": 5}, {"k": 11}],
    }

    @pytest.mark.parametrize("family", sorted(GRIDS))
    def test_each_entry_is_the_specs_own_fit(self, blobs, family):
        X, y = blobs
        if family_task(family) == "regression":
            y = X[:, 0] - 2.0 * X[:, 1] + np.random.default_rng(57).normal(size=X.shape[0])
        probe = np.random.default_rng(58).normal(size=(30, 3)) * 4
        specs = [ModelSpec(family, params, seed=11) for params in self.GRIDS[family]]
        for spec, model in zip(specs, fit_grid(specs, X, y), strict=True):
            alone = fit(spec, X, y)
            assert model.spec == spec
            # every fitted array and scalar, bit for bit
            assert pickle.dumps(model.inner) == pickle.dumps(alone.inner), spec
            assert _same_bits(model.predict(probe), alone.predict(probe)), spec

    @pytest.mark.parametrize(
        "family, bad, message",
        [("ridge", {"lam": -1}, "lam must be >= 0"),
         ("random_forest", {"n_trees": 0, "depth": 3}, "n_trees must be an integer >= 1")],
    )
    def test_invalid_config_comes_back_while_neighbours_fit(
        self, linear_data, family, bad, message
    ):
        X, y = linear_data
        good = self.GRIDS[family][:2]
        specs = [ModelSpec(family, params) for params in (good[0], bad, good[1])]
        results = list(fit_grid(specs, X, y))
        assert type(results[1]) is ValueError and message in str(results[1])
        for spec, model in zip(specs[::2], results[::2]):
            assert _same_bits(model.predict(X), fit(spec, X, y).predict(X)), spec
        with pytest.raises(ValueError, match=message):
            fit(specs[1], X, y)

    def test_linalg_error_becomes_a_model_error(self, linear_data, monkeypatch):
        X, y = linear_data

        def singular(self, X, y):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(linear_module.LeastSquares, "fit", singular)
        (error,) = fit_grid([ModelSpec("linear")], X, y)
        assert type(error) is ModelError
        assert str(error) == "linear: degenerate training data (Singular matrix)"
        with pytest.raises(ModelError, match="degenerate training data"):
            fit(ModelSpec("linear"), X, y)

    def test_mixed_families_rejected(self, linear_data):
        X, y = linear_data
        with pytest.raises(ModelError, match=r"one family, got \['linear', 'ridge'\]"):
            fit_grid([ModelSpec("ridge"), ModelSpec("linear"), ModelSpec("ridge")], X, y)

    def test_empty_spec_list_rejected(self, linear_data):
        X, y = linear_data
        with pytest.raises(ModelError, match=r"one family, got \[\]"):
            fit_grid([], X, y)


def assert_same_trees(new_trees, old_trees, probe):
    """Node arrays, node values, importances and predictions are equal, bit for bit."""
    assert len(new_trees) == len(old_trees)
    for new, old in zip(new_trees, old_trees):
        assert np.array_equal(new.feature, old.feature)
        assert np.array_equal(new.threshold, old.threshold)
        assert np.array_equal(new.left, old.left)
        assert np.array_equal(new.right, old.right)
        assert np.array_equal(new.value, old.value)
        assert np.array_equal(new.importances_, old.importances_)
        assert np.array_equal(new.predict(probe), old.predict(probe))


def assert_forest_matches_reference(X, y, n_trees=5, depth=None, seed=0):
    probe = np.vstack([X, np.random.default_rng(seed).uniform(-6, 6, size=(20, X.shape[1]))])
    new = RandomForest(n_trees=n_trees, depth=depth, seed=seed).fit(X, y)
    old = trees_reference.RandomForest(n_trees=n_trees, max_depth=depth, seed=seed).fit(X, y)
    assert_same_trees(new.trees, old.trees, probe)
    assert np.array_equal(new.importances_, old.importances_)
    assert np.array_equal(new.predict(probe), old.predict(probe))
    return new


def integer_problem(seed, n=60, d=6, target="regression"):
    """Integer features; head-count-like targets in 0..3, or their 0/1 occupancy indicator."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, d)).astype(np.float64)
    y = (X[:, 0] > 0).astype(np.int64) + (X[:, 1] > 1) + rng.integers(0, 2, size=n)
    return X, (y > 0 if target == "occupancy" else y).astype(np.float64)


# The two kinds of target a forest is grown on: head counts (the counting
# models and selector) and the 0/1 occupancy indicator (the detection selector).
TARGETS = ["regression", "occupancy"]


class TestLockstepForestMatchesReference:
    """On integer-valued targets the level-wise forest is the depth-first, sort-based one."""

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("depth", [1, 3, 8, None])
    def test_depths(self, target, depth):
        X, y = integer_problem(60, target=target)
        assert_forest_matches_reference(X, y, n_trees=8, depth=depth, seed=61)

    @pytest.mark.parametrize("target", TARGETS)
    def test_two_rows(self, target):
        X = np.array([[1.0, 5.0], [2.0, 5.0]])
        y = np.array([1.0, 0.0]) if target == "occupancy" else np.array([0.0, 1.0])
        assert_forest_matches_reference(X, y, n_trees=10, seed=62)

    @pytest.mark.parametrize("target", TARGETS)
    def test_constant_and_duplicated_columns(self, target):
        X, y = integer_problem(63, n=80, d=3, target=target)
        X = np.column_stack([X, X[:, 0], np.full(80, 7.0), X[:, 0]])
        forest = assert_forest_matches_reference(X, y, n_trees=20, seed=63)
        assert forest.importances_[4] == 0

    def test_tied_columns_share_importance_without_sampling(self):
        X, y = integer_problem(69, n=80, d=3)
        X = np.column_stack([X, X[:, 0], np.full(80, 7.0), X[:, 0]])
        grown = trees_module.grow_forest(
            X, y, [np.random.default_rng(s) for s in range(4)], None, X.shape[1]
        )
        wanted = []
        for s in range(4):
            rng = np.random.default_rng(s)
            rows = rng.integers(0, 80, size=80)
            key = int(rng.integers(2**64, dtype=np.uint64))
            wanted.append(trees_reference.KeyedTree().fit(X[rows], y[rows], key))
        assert_same_trees(grown, wanted, X)
        for tree in grown:
            assert tree.importances_[0] == tree.importances_[3] == tree.importances_[5] > 0
            assert tree.importances_[4] == 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_many_equal_values(self, target):
        rng = np.random.default_rng(64)
        X = rng.integers(0, 2, size=(200, 5)).astype(np.float64)
        y = rng.integers(0, 2 if target == "occupancy" else 3, size=200).astype(np.float64)
        assert_forest_matches_reference(X, y, n_trees=10, seed=64)

    @pytest.mark.parametrize("target", TARGETS)
    def test_nan_values_never_split_from_real_ones(self, target):
        X, y = integer_problem(65, target=target)
        X[::3, 1] = np.nan
        X[:, 2] = np.nan
        assert_forest_matches_reference(X, y, n_trees=10, seed=65)

    def test_rounding_noise_on_large_targets_is_no_gain(self):
        X, _ = integer_problem(70)
        y = np.full(X.shape[0], 123456789.0)  # squared sums above 2**53 round
        forest = assert_forest_matches_reference(X, y, n_trees=10, seed=70)
        assert all(len(tree.feature) == 1 for tree in forest.trees)

    @pytest.mark.parametrize("cells", [1, 40, 300])
    @pytest.mark.parametrize("target", TARGETS)
    def test_chunk_boundaries(self, monkeypatch, target, cells):
        # one node per chunk, then chunks that cut a level's nodes into several runs
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        X, y = integer_problem(66, n=90, target=target)
        assert_forest_matches_reference(X, y, n_trees=12, depth=None, seed=66)

    @settings(max_examples=60, deadline=None)
    @given(
        X=hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=25),
                     elements=st.integers(-3, 3)),
        targets=st.lists(st.integers(0, 3), min_size=25, max_size=25),
        target=st.sampled_from(TARGETS),
        depth=st.sampled_from([1, 2, 4, None]),
        n_trees=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_small_integer_matrices(self, X, targets, target, depth, n_trees, seed):
        y = np.array(targets[: X.shape[0]])
        y = (y > 0 if target == "occupancy" else y).astype(np.float64)
        assert_forest_matches_reference(X.astype(np.float64), y, n_trees, depth, seed)


@pytest.fixture
def grown(monkeypatch):
    """The row ids, weights and per-tree sizes handed to every ``grow_trees`` call."""
    calls = []
    grow = trees_module.grow_trees

    def recording(search, y, rows, weights, sizes, *args):
        calls.append((rows.dtype, weights.dtype, sizes.copy()))
        return grow(search, y, rows, weights, sizes, *args)

    monkeypatch.setattr(trees_module, "grow_trees", recording)
    return calls


class TestForestAtRowIdDtypes:
    """Row ids and weights take the smallest unsigned dtype that holds the row count."""

    @pytest.mark.parametrize(
        "n, dtype, n_trees, depth",
        [(255, np.uint8, 10, None), (256, np.uint16, 10, None), (65_537, np.uint32, 2, 2)],
    )
    def test_dtype_boundaries(self, grown, n, dtype, n_trees, depth):
        X, y = integer_problem(90, n=n)
        assert_forest_matches_reference(X, y, n_trees=n_trees, depth=depth, seed=91)
        assert [call[:2] for call in grown] == [(np.dtype(dtype), np.dtype(dtype))]

    @pytest.mark.parametrize("target", TARGETS)
    def test_roots_with_one_distinct_row_beside_larger_ones(self, grown, target):
        X = np.array([[1.0, 4.0], [2.0, 4.0], [3.0, 5.0]])
        y = np.array([0.0, 1.0, 1.0]) if target == "occupancy" else np.array([0.0, 2.0, 3.0])
        assert_forest_matches_reference(X, y, n_trees=30, seed=92)
        ((_, _, sizes),) = grown
        assert np.any(sizes == 1) and np.any(sizes > 1)


class TestBootstrapWeights:
    """A row of weight w grows the tree that w unit-weight copies of it grow, node for node."""

    @pytest.mark.parametrize("cells", [1, 40, 300, 1 << 15])
    @pytest.mark.parametrize("depth", [2, None])
    def test_weights_are_copies(self, monkeypatch, cells, depth):
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        X, y = integer_problem(93, n=40)
        X[7], y[7] = 9.0, 3.0  # beyond every other row in every column
        rng = np.random.default_rng(94)
        rows = [np.sort(rng.choice(40, size=size, replace=False)) for size in (25, 12)]
        rows[0] = np.union1d(rows[0], [7])
        rows.append(np.array([11]))  # a root whose rows are all copies of one row
        weights = [rng.integers(1, 5, size=r.size) for r in rows]
        weights[0][np.searchsorted(rows[0], 7)] = 300  # above 255: uint16 weights
        weights[2][:] = 5
        keys = rng.integers(2**64, size=len(rows), dtype=np.uint64)

        def grow(rows, weights):
            sizes = np.array([r.size for r in rows])
            rows, weights = np.concatenate(rows), np.concatenate(weights)
            return trees_module.grow_trees(
                trees_module._LevelSearch(X), y, rows.astype(np.uint8),
                weights.astype(np.min_scalar_type(weights.max())), sizes, keys, depth, 2,
            )

        weighted = grow(rows, weights)
        copies = [np.repeat(r, w) for r, w in zip(rows, weights)]
        unit = grow(copies, [np.ones_like(c) for c in copies])
        assert_same_trees(weighted, unit, X)
        # the first tree grows a leaf below its root that holds only copies of row 7
        first = unit[0]
        # the first tree with each node's number as its value: the descent gives each row's leaf
        numbered = trees_module.DecisionTree(first.feature, first.threshold, first.left,
                                             first.right, np.arange(first.value.size, dtype=float),
                                             None, first.depth)
        leaf = numbered.predict(X[copies[0]])
        (at,) = set(leaf[copies[0] == 7])
        assert at > 0 and np.all(copies[0][leaf == at] == 7)


def preorder(tree):
    """Each node's (feature, threshold, value), a node before its left, then its right subtree."""
    nodes, stack = [], [0]
    while stack:
        node = stack.pop()
        feature, threshold, value = tree.feature[node], tree.threshold[node], tree.value[node]
        nodes.append((int(feature), float(threshold), float(value)))
        if feature >= 0:
            stack += [int(tree.right[node]), int(tree.left[node])]
    return nodes


def reached(tree, X):
    """Per node of a fitted tree: the rows of ``X`` that reach it, and its depth."""
    nodes, stack = {}, [(0, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        nodes[node] = (rows, depth)
        if tree.feature[node] >= 0:
            goes_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack.append((int(tree.left[node]), rows[goes_left], depth + 1))
            stack.append((int(tree.right[node]), rows[~goes_left], depth + 1))
    return nodes


def assert_boosting_round_matches_reference(X, y, depth):
    """One boosting round equals the sort-based reference's, node for node."""
    new = GradientBoosting(n_trees=1, depth=depth).fit(X, y)
    old = trees_reference.GradientBoosting(n_trees=1, max_depth=depth).fit(X, y)
    assert len(new.trees[0].feature) == len(old.trees[0].feature)
    assert preorder(new.trees[0]) == preorder(old.trees[0])
    assert new.train_losses_ == old.train_losses_


class TestBoostingTrees:
    """Boosting grows its trees with the forests' level-wise search, on all rows and features."""

    @pytest.mark.parametrize("targets", [2, 24])
    @pytest.mark.parametrize("depth", [2, None])
    def test_exact_where_sums_are_exact(self, depth, targets):
        # 2**6 rows and targets in multiples of 1/8: every sum and the residuals are
        # exact; with two target values and four feature values, many splits tie
        rng = np.random.default_rng(67)
        X = rng.integers(0, 4, size=(64, 5)).astype(np.float64)
        X[::3, 1] = np.nan
        X[:, 4] = np.nan
        y = rng.integers(0, targets, size=64) / 8
        assert_boosting_round_matches_reference(X, y, depth)

    def test_nan_values_never_split_from_real_ones(self):
        X, y = integer_problem(65, n=64)
        X[::3, 1] = np.nan
        X[:, 2] = np.nan
        assert_boosting_round_matches_reference(X, y, None)

    @pytest.mark.parametrize("depth", [3, None])
    def test_every_split_is_an_exact_greedy_optimum(self, depth):
        rng = np.random.default_rng(68)
        X = np.round(rng.normal(size=(150, 5)), 1)  # repeated values in every column
        X[::4, 2] = np.nan
        y = X[:, 0] ** 2 + rng.normal(0, 0.2, 150)
        model = GradientBoosting(n_trees=8, depth=depth).fit(X, y)
        oracle = trees_reference.DecisionTree()
        current = np.full(y.shape, model.base_)
        for tree in model.trees:
            residual = y - current
            for node, (rows, level) in reached(tree, X).items():
                best = oracle._best_split(X, residual, rows, np.arange(X.shape[1]))
                if tree.feature[node] < 0:  # too few rows, at the cap, or no split gains
                    assert rows.size < 2 or level == depth or best is None
                    continue
                goes_left = X[rows, tree.feature[node]] <= tree.threshold[node]
                parts = residual[rows][goes_left], residual[rows][~goes_left]
                score = sum(part.sum() ** 2 / part.size for part in parts)
                best_score = best[2] + residual[rows].sum() ** 2 / rows.size
                assert score == pytest.approx(best_score, rel=1e-9)
            current = current + LEARNING_RATE * tree.predict(X)

    def test_unit_weights_keep_every_bit(self):
        # outputs pinned from the grower before rows carried weights: boosting's
        # unit weights change no sum, no score and no leaf value
        rng = np.random.default_rng(90)
        X = np.round(rng.normal(size=(24, 3)), 1)
        y = X[:, 0] - 0.5 * X[:, 1] ** 2 + rng.normal(0, 0.3, 24)
        model = GradientBoosting(n_trees=4, depth=2).fit(X, y)
        assert model.predict(X).tolist() == [
            0.3910813547640043, -0.1233104968893439, 0.3910813547640043, -0.30606721393072894,
            -0.30606721393072894, -0.4410400887970688, -0.7632601327546246, -0.1233104968893439,
            -0.1233104968893439, -0.4410400887970688, -0.8982330076209644, -0.2961548559069497,
            -0.1233104968893439, -0.1233104968893439, -0.5597704850516444, 0.3910813547640043,
            -0.7253886486033586, -0.8982330076209644, 0.519446727048028, -0.8982330076209644,
            -0.1233104968893439, -0.30606721393072894, -0.1233104968893439, -0.30606721393072894,
        ]
        assert model.train_losses_ == [
            2.177868615084108, 1.8889567330599757, 1.6240517796733611, 1.4091495332485335,
            1.2363866877335707,
        ]
        # constant columns: the root has no boundary, so each round is one leaf, the mean
        X, y = np.full((5, 2), 3.0), np.array([0.1, 0.7, 0.25, 1.3, 0.05])
        model = GradientBoosting(n_trees=3, depth=2).fit(X, y)
        assert [len(tree.feature) for tree in model.trees] == [1, 1, 1]
        assert model.predict(X).tolist() == [0.47999999999999987] * 5
        assert model.train_losses_ == [0.22060000000000005] * 4

    def test_one_fit_gives_one_booster(self):
        rng = np.random.default_rng(69)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] ** 2 + rng.normal(0, 0.2, 120)
        first = GradientBoosting(n_trees=15, depth=3).fit(X, y)
        second = GradientBoosting(n_trees=15, depth=3).fit(X, y)
        assert_same_trees(first.trees, second.trees, X)
        assert first.train_losses_ == second.train_losses_
        assert np.array_equal(first.predict(X), second.predict(X))


class TestVarianceOnOccupancyIsGini:
    """On a 0/1 target the variance reduction is half the two-class Gini decrease."""

    @pytest.mark.parametrize("depth", [2, None])
    def test_forest_grows_the_reference_gini_trees(self, depth):
        # continuous features: no two candidate boundaries tie in exact arithmetic
        rng = np.random.default_rng(75)
        X = rng.normal(size=(150, 9))
        occupied = X[:, 0] + 0.5 * X[:, 3] + rng.normal(0, 0.7, 150) > 0
        variance = RandomForest(n_trees=20, depth=depth, seed=76).fit(X, occupied)
        gini = trees_reference.RandomForest(
            task="classification", n_trees=20, max_depth=depth, seed=76
        ).fit(X, occupied.astype(np.int64))
        for new, old in zip(variance.trees, gini.trees, strict=True):
            assert np.array_equal(new.feature, old.feature)
            assert np.array_equal(new.threshold, old.threshold)
            assert np.array_equal(new.left, old.left)
            assert np.array_equal(new.right, old.right)
        assert np.allclose(variance.importances_, gini.importances_, rtol=1e-12, atol=0)


def node_depths(tree):
    """The depth of each node of a fitted tree."""
    depth = np.zeros(len(tree.feature), dtype=np.int64)
    for node in range(len(tree.feature)):
        if tree.feature[node] >= 0:
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return depth


class TestKeyedDraws:
    """A node's draw depends on its path alone, so growth order and batching do not matter."""

    @pytest.mark.parametrize("target", TARGETS + ["fractional"])
    def test_shallow_forest_is_the_deep_forest_cut(self, target):
        X, y = integer_problem(80, n=120, d=7, target=target if target in TARGETS else "regression")
        if target == "fractional":
            y = y + np.random.default_rng(80).normal(0, 0.3, y.size)
        shallow = RandomForest(n_trees=12, depth=4, seed=81).fit(X, y)
        deep = RandomForest(n_trees=12, depth=8, seed=81).fit(X, y)
        for cut, full in zip(shallow.trees, deep.trees, strict=True):
            m = len(cut.feature)
            # breadth first: the nodes down to depth 4 come first
            assert m == np.sum(node_depths(full) <= 4)
            inner = cut.feature >= 0
            # a leaf above the cap is a leaf of the deep tree too
            assert np.all(full.feature[:m][~inner & (node_depths(cut) < 4)] < 0)
            assert np.array_equal(cut.feature[inner], full.feature[:m][inner])
            assert np.array_equal(cut.threshold[inner], full.threshold[:m][inner])
            assert np.array_equal(cut.left[inner], full.left[:m][inner])
            assert np.array_equal(cut.value, full.value[:m])

    @pytest.mark.parametrize("target", TARGETS)
    def test_chunk_size_does_not_change_the_forest(self, monkeypatch, target):
        X, y = integer_problem(82, n=150, d=9, target=target)
        default = RandomForest(n_trees=10, seed=83).fit(X, y)
        for cells in (1, 1 << 40):
            monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
            assert_same_trees(RandomForest(n_trees=10, seed=83).fit(X, y).trees, default.trees, X)

    def test_one_seed_grows_one_forest(self):
        rng = np.random.default_rng(84)
        X = rng.normal(size=(200, 6))
        y = X[:, 0] + rng.normal(0, 0.5, 200)
        first = RandomForest(n_trees=15, seed=85).fit(X, y)
        second = RandomForest(n_trees=15, seed=85).fit(X, y)
        assert_same_trees(first.trees, second.trees, X)
        assert np.array_equal(first.importances_, second.importances_)

    @pytest.mark.parametrize("cells", [1, 40, 1 << 15])
    def test_forest_predict_is_the_per_tree_sum(self, monkeypatch, cells):
        rng = np.random.default_rng(86)
        X = rng.normal(size=(150, 4))
        y = X[:, 0] ** 2 + rng.normal(0, 0.3, 150)
        forest = RandomForest(n_trees=30, depth=6, seed=87).fit(X, y)
        probe = rng.normal(size=(70, 4)) * 2
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)  # rows per predict chunk
        want = np.zeros(probe.shape[0])
        for tree in forest.trees:
            want += tree.predict(probe)
        assert np.array_equal(forest.predict(probe), want / len(forest.trees))


def walk(tree, X):
    """Each row's leaf value, one row and one node at a time, as ``trees_reference`` descends."""
    values = []
    for x in X:
        node = 0
        while tree.feature[node] >= 0:
            goes_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        values.append(tree.value[node])
    return np.array(values, dtype=np.float64)


def walked_forest(trees, X):
    total = np.zeros(X.shape[0])
    for tree in trees:
        total += walk(tree, X)
    return total / len(trees)


def walked_boosting(model, X):
    acc = np.full(X.shape[0], model.base_)
    for tree in model.trees:
        acc += LEARNING_RATE * walk(tree, X)
    return acc


def awkward_rows(trees, X, seed):
    """Rows of ``X``, then rows holding the trees' thresholds, NaN, +-inf and +-0.0."""
    rng = np.random.default_rng(seed)
    rows = [X, rng.normal(size=X.shape) * 3]
    for tree in trees:
        at = np.flatnonzero(tree.feature >= 0)
        exact = X[rng.integers(0, X.shape[0], at.size)].copy()
        exact[np.arange(at.size), tree.feature[at]] = tree.threshold[at]  # exactly at a threshold
        rows.append(exact)
    odd = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=(40, X.shape[1]))
    rows.append(np.where(rng.random(odd.shape) < 0.5, odd, rng.normal(size=odd.shape)))
    return np.vstack(rows)


class TestDescent:
    """Every tree prediction is the node-by-node walk of each row, bit for bit."""

    CELLS = [1, 40, 1 << 15]

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(95)
        X = np.round(rng.normal(size=(120, 4)), 1)  # repeated values; 0.0 is a threshold
        X[::7, 2] = np.nan
        y = X[:, 0] ** 2 + np.nan_to_num(X[:, 2]) + rng.normal(0, 0.3, 120)
        return X, y

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("depth", [3, None])
    def test_forest_predict(self, monkeypatch, problem, cells, depth):
        X, y = problem
        forest = RandomForest(n_trees=12, depth=depth, seed=96).fit(X, y)
        if depth is None:  # trees of mixed depths descend together
            assert len({tree.depth for tree in forest.trees}) > 1
        probe = awkward_rows(forest.trees, X, 97)
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        assert forest.predict(probe).tobytes() == walked_forest(forest.trees, probe).tobytes()
        for tree in forest.trees:
            assert tree.predict(probe).tobytes() == walk(tree, probe).tobytes()

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("depth", [2, None])
    def test_boosting_predict_and_rounds(self, monkeypatch, problem, cells, depth):
        X, y = problem
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        model = GradientBoosting(n_trees=6, depth=depth).fit(X, y)
        probe = awkward_rows(model.trees, X, 98)
        assert model.predict(probe).tobytes() == walked_boosting(model, probe).tobytes()
        # the training predictions of every round, as the fit used them
        current = np.full(y.shape, model.base_)
        losses = [float(np.mean((y - current) ** 2))]
        for tree in model.trees:
            assert tree.predict(X).tobytes() == walk(tree, X).tobytes()
            current = current + LEARNING_RATE * walk(tree, X)
            losses.append(float(np.mean((y - current) ** 2)))
        assert model.train_losses_ == losses

    def test_depth_is_the_deepest_leaf(self, problem):
        X, y = problem
        for tree in RandomForest(n_trees=6, seed=99).fit(X, y).trees:
            assert tree.depth == node_depths(tree).max()

    def test_mixed_depths_and_one_leaf_trees(self):
        # two rows: a bootstrap that draws one row twice grows a one-leaf tree (no passes)
        X, y = np.array([[1.0, 5.0], [2.0, 5.0]]), np.array([0.0, 1.0])
        forest = RandomForest(n_trees=10, seed=62).fit(X, y)
        assert {tree.depth for tree in forest.trees} == {0, 1}
        probe = np.array([[1.0, 0.0], [1.5, 5.0], [2.0, -1.0], [np.nan, 5.0], [-np.inf, 0.0]])
        assert forest.predict(probe).tobytes() == walked_forest(forest.trees, probe).tobytes()
        constant = RandomForest(n_trees=3, seed=1).fit(np.full((6, 2), 3.0), np.arange(6.0))
        assert [tree.depth for tree in constant.trees] == [0, 0, 0]
        assert constant.predict(probe).tobytes() == walked_forest(constant.trees, probe).tobytes()

    def test_zero_rows(self, problem):
        X, y = problem
        empty = np.empty((0, X.shape[1]))
        forest = RandomForest(n_trees=4, depth=3, seed=100).fit(X, y)
        booster = GradientBoosting(n_trees=3, depth=2).fit(X, y)
        for predicted in (forest.predict(empty), forest.trees[0].predict(empty),
                          booster.predict(empty)):
            assert predicted.shape == (0,) and predicted.dtype == np.float64

    def test_zero_columns(self):
        X, y = np.zeros((5, 0)), np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        forest = RandomForest(n_trees=4, seed=101).fit(X, y)
        booster = GradientBoosting(n_trees=3).fit(X, y)
        assert [tree.depth for tree in forest.trees + booster.trees] == [0] * 7
        assert forest.predict(X).tobytes() == walked_forest(forest.trees, X).tobytes()
        assert booster.predict(X).tobytes() == walked_boosting(booster, X).tobytes()

    def test_negative_zero_leaf_keeps_its_sign(self):
        # root splits feature 0 at 0.0: left leaf -0.0, right leaf 1.0
        tree = trees_module.DecisionTree(
            np.array([0, -1, -1]), np.array([0.0, 0.0, 0.0]), np.array([1, -1, -1]),
            np.array([2, -1, -1]), np.array([0.5, -0.0, 1.0]), None, 1,
        )
        X = np.array([[-0.0], [0.0], [-1.0], [np.nan], [np.inf], [-np.inf]])
        predicted = tree.predict(X)
        assert predicted.tobytes() == walk(tree, X).tobytes()
        assert np.signbit(predicted).tolist() == [True, True, True, False, False, True]


class TestTreeHyperparameters:
    """Tree counts and depths are checked when a forest or booster is built."""

    FAMILIES = [RandomForest, GradientBoosting]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_depth_rejected(self, family):
        # it used to fit a constant: every tree a single leaf
        with pytest.raises(ValueError, match="depth"):
            family(n_trees=5, depth=-3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fractional_depth_rejected(self, family):
        with pytest.raises(ValueError, match="depth"):
            family(n_trees=5, depth=2.5)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bool_depth_rejected(self, family):
        with pytest.raises(ValueError, match="depth"):
            family(n_trees=5, depth=True)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_string_depth_rejected(self, family):
        with pytest.raises(ValueError, match="depth"):
            family(n_trees=5, depth="4")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fractional_tree_count_rejected(self, family):
        with pytest.raises(ValueError, match="n_trees"):
            family(n_trees=2.7, depth=3)

    @pytest.mark.parametrize("family", ["random_forest", "gradient_boosting"])
    def test_integral_values_accepted(self, family):
        X = np.random.default_rng(88).normal(size=(30, 2))
        y = X[:, 0] * 2
        model = fit(ModelSpec(family, {"n_trees": np.int64(3), "depth": 2.0}), X, y)
        assert len(model.inner.trees) == 3
        assert model.inner.max_depth == 2


# The grower's level loop, split_level, _search and _boundary_scores as they
# were before node sums were carried from the parent's partition: the oracle,
# bit for bit, on fractional targets, which trees_reference does not cover.
def former_grow_trees(search, y, rows, weights, sizes, keys, max_depth, max_features):
    n_trees, d = keys.size, search.widths.size
    k = min(max_features, d)
    depth_cap = max_depth if max_depth is not None else np.inf
    importances = np.zeros(n_trees * d)

    tree = np.arange(n_trees)
    value, totals = np.empty(n_trees), np.empty(n_trees)
    start = written = 0
    for t, size in enumerate(sizes):
        tree_rows, tree_weights = rows[start : start + size], weights[start : start + size]
        totals[t] = tree_weights.sum()
        value[t] = np.sum(tree_weights * y[tree_rows]) / totals[t]
        start += size
        if size >= 2:
            rows[written : written + size] = tree_rows
            weights[written : written + size] = tree_weights
            written += size
    rows, weights = rows[:written], weights[:written]

    levels = []
    depth = 0
    while tree.size:
        feature, threshold = np.full(tree.size, -1), np.zeros(tree.size)
        levels.append((tree, value, feature, threshold))
        open_nodes = np.flatnonzero((sizes >= 2) & (depth < depth_cap) & (k > 0))
        if not open_nodes.size:
            break
        keep = depth + 1 < depth_cap
        found, value, sizes, totals = former_split_level(
            search, y, importances, rows, weights, sizes[open_nodes], totals[open_nodes],
            tree[open_nodes], trees_module._candidates(keys[open_nodes], d, k), keep,
        )
        feature[open_nodes], threshold[open_nodes] = found
        split = open_nodes[feature[open_nodes] >= 0]
        tree = np.repeat(tree[split], 2)
        keys = trees_module._splitmix(keys[split, None], trees_module._CHILDREN).ravel()
        kept = sizes[sizes >= 2].sum() if keep else 0
        rows, weights = rows[:kept], weights[:kept]
        depth += 1
    return trees_module._trees(levels, importances.reshape(n_trees, d))


def former_split_level(search, y, importances, rows, weights, sizes, totals, tree, feats, keep):
    k = feats.shape[1]
    feature, threshold = np.full(sizes.size, -1), np.zeros(sizes.size)
    children = []
    starts = np.concatenate(([0], np.cumsum(sizes)))
    written = 0
    for a, b in trees_module._chunks(sizes * k + search.widths[feats].sum(axis=1)):
        node_rows, node_w = rows[starts[a] : starts[b]], weights[starts[a] : starts[b]]
        nid = np.repeat(np.arange(b - a), sizes[a:b])
        node_wy = node_w * y[node_rows]
        split, split_feat, split_code = former_search(
            search, importances, nid, node_rows, node_w, node_wy, feats[a:b], tree[a:b],
            sizes[a:b], totals[a:b],
        )
        feature[a:b][split] = split_feat
        threshold[a:b][split] = search.values[search.value_start[split_feat] + split_code]

        moved = split[nid]
        q = (np.cumsum(split) - 1)[nid[moved]]
        node_rows, node_w, node_wy = node_rows[moved], node_w[moved], node_wy[moved]
        child = 2 * q + (search.codes[split_feat[q] * search.n + node_rows] > split_code[q])
        n_children = 2 * split_feat.size
        counts = np.bincount(child, minlength=n_children)
        child_totals = np.bincount(child, weights=node_w, minlength=n_children)
        child_sums = np.bincount(child, weights=node_wy, minlength=n_children)
        children.append((child_sums / child_totals, counts, child_totals))
        if keep:
            stays = counts[child] >= 2
            order = np.argsort(child[stays].astype(np.min_scalar_type(n_children)), kind="stable")
            end = written + order.size
            rows[written:end] = node_rows[stays][order]
            weights[written:end] = node_w[stays][order]
            written = end
    values, counts, child_totals = (np.concatenate(column) for column in zip(*children))
    return (feature, threshold), values, counts, child_totals


def former_search(search, importances, nid, rows, w, wy, feats, tree, sizes, totals):
    n_nodes, k = feats.shape
    sums = np.bincount(nid, weights=wy, minlength=n_nodes)
    col_best, col_code = former_boundary_scores(search, rows, w, wy, feats, sums, sizes, totals)
    best = col_best.max(axis=1)
    parent_score = sums**2 / totals
    decrease = best - parent_score
    gains = np.isfinite(best) & (
        decrease > trees_module._NO_GAIN * np.maximum(1.0, np.abs(parent_score))
    )
    split = np.flatnonzero(gains)
    tied = col_best[split] == best[split, None]
    chosen = np.argmax(tied, axis=1)

    at_split, slot = np.nonzero(tied)
    shares = decrease[split] / tied.sum(axis=1)
    flat = tree[split[at_split]] * search.widths.size + feats[split[at_split], slot]
    np.add.at(importances, flat, shares[at_split])
    return gains, feats[split, chosen], col_code[split, chosen]


def former_boundary_scores(search, rows, w, wy, feats, sums, sizes, totals):
    n_nodes, k = feats.shape
    widths = search.widths[feats].ravel()
    pair_start = np.cumsum(widths) - widths
    n_bins = int(widths.sum())
    keys = np.repeat(pair_start.reshape(n_nodes, k).T, sizes, axis=1)
    keys += search.codes[np.repeat((feats * search.n).T, sizes, axis=1) + rows]
    keys = keys.ravel()
    counts = np.bincount(keys, weights=np.tile(w, k), minlength=n_bins)
    at = np.flatnonzero(counts > 0)
    cum_n = np.zeros(at.size + 1)
    np.cumsum(counts[at], out=cum_n[1:])
    cum_y = np.zeros(at.size + 1)
    np.cumsum(np.bincount(keys, weights=np.tile(wy, k), minlength=n_bins)[at], out=cum_y[1:])

    pair = np.repeat(np.arange(n_nodes * k), widths)[at]
    first = trees_module._run_starts(pair)
    real = at < (pair_start + search.real_codes[feats].ravel())[pair]
    (i,) = np.nonzero(real[:-1] & real[1:] & (pair[:-1] == pair[1:]))
    pair = pair[i]
    node = pair // k
    left = cum_n[i + 1] - cum_n[first[pair]]
    left_sum = cum_y[i + 1] - cum_y[first[pair]]
    score = left_sum**2 / left + (sums[node] - left_sum) ** 2 / (totals[node] - left)

    runs = trees_module._run_starts(pair)
    col_best = np.full(n_nodes * k, -np.inf)
    col_best[pair[runs]] = np.maximum.reduceat(score, runs)
    code = np.where(score == col_best[pair], at[i] - pair_start[pair], n_bins)
    col_code = np.zeros(n_nodes * k, dtype=np.intp)
    col_code[pair[runs]] = np.minimum.reduceat(code, runs)
    return col_best.reshape(n_nodes, k), col_code.reshape(n_nodes, k)


def former_boosting(X, y, n_trees, depth):
    """Boosting's rounds on the former grower, each round's predictions from the descent."""
    search = trees_module._LevelSearch(X)
    key = np.zeros(1, dtype=np.uint64)
    current = np.full(y.shape, y.mean())
    trees, losses = [], [float(np.mean((y - current) ** 2))]
    n = X.shape[0]
    for _ in range(n_trees):
        rows = np.arange(n, dtype=np.min_scalar_type(n))
        (tree,) = former_grow_trees(search, y - current, rows, np.ones_like(rows), np.array([n]),
                                    key, depth, X.shape[1])
        current = current + LEARNING_RATE * tree.predict(X)
        trees.append(tree)
        losses.append(float(np.mean((y - current) ** 2)))
    return trees, losses


def assert_same_bytes(new_trees, old_trees):
    """Every node array, the importances and the depth of each tree, byte for byte."""
    assert len(new_trees) == len(old_trees)
    for new, old in zip(new_trees, old_trees):
        for name in ("feature", "threshold", "left", "right", "value", "importances_"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
        assert new.depth == old.depth


def fractional_problem(seed, n=150):
    """Fractional targets, constant where x0 < 0; repeated values, NaN, a constant
    column and duplicated rows."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 5)), 1)
    X[::5, 1] = np.nan
    X[:, 3] = 2.5
    X[n - 12 :] = X[:12]  # rows that no threshold separates, with different targets
    y = X[:, 0] ** 2 - np.nan_to_num(X[:, 1]) + rng.normal(0, 0.3, n)
    return X, np.where(X[:, 0] < 0, -4.0, y)  # nodes there gain nothing from a split


@pytest.fixture
def levels(monkeypatch):
    """Per ``split_level`` call: its arguments, and whether each chunk's nodes all split."""
    calls = []
    split_level, search = trees_module._LevelSearch.split_level, trees_module._LevelSearch._search

    def recording_split_level(self, y, importances, rows, weights, sizes, sums, totals, *args):
        calls.append(dict(y=y, rows=rows.copy(), weights=weights.copy(), sizes=sizes,
                          sums=sums, totals=totals, chunks=[]))
        out = split_level(self, y, importances, rows, weights, sizes, sums, totals, *args)
        calls[-1]["children"] = out[1:]
        return out

    def recording_search(self, *args):
        out = search(self, *args)
        calls[-1]["chunks"].append(bool(np.all(out[0])))
        return out

    monkeypatch.setattr(trees_module._LevelSearch, "split_level", recording_split_level)
    monkeypatch.setattr(trees_module._LevelSearch, "_search", recording_search)
    return calls


class TestLeanLevel:
    """Carried node sums and compressing only dropped rows keep every bit of the former grower."""

    CELLS = [1, 40, 1 << 15]

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("depth", [3, None])
    def test_boosting_matches_the_former_grower(self, monkeypatch, levels, cells, depth):
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        X, y = fractional_problem(110)
        model = GradientBoosting(n_trees=6, depth=depth).fit(X, y)
        trees, losses = former_boosting(X, y, 6, depth)
        assert_same_bytes(model.trees, trees)
        assert model.train_losses_ == losses
        # both compress paths ran: chunks where every node splits and chunks where one
        # does not, children with one distinct row and children that all keep two or more
        chunks = [all_split for call in levels for all_split in call["chunks"]]
        assert True in chunks and False in chunks
        counts = [call["children"][1] for call in levels]
        assert any(np.any(c == 1) for c in counts) and any(np.all(c >= 2) for c in counts)

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("depth", [2, None])
    def test_forest_matches_the_former_grower(self, monkeypatch, cells, depth):
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        X, y = fractional_problem(111)

        def forest():
            rngs = [np.random.default_rng(s) for s in range(10)]
            return trees_module.grow_forest(X, y, rngs, depth, 2)

        new = forest()
        monkeypatch.setattr(trees_module, "grow_trees", former_grow_trees)
        assert_same_bytes(new, forest())

    @pytest.mark.parametrize("cells", CELLS)
    def test_carried_sums_are_sequential_sums(self, monkeypatch, levels, cells):
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        X, y = fractional_problem(112)
        rng = np.random.default_rng(113)
        rows = np.flatnonzero(rng.random(X.shape[0]) < 0.7).astype(np.uint8)
        weights = rng.integers(1, 4, size=rows.size).astype(np.uint8)  # bootstrap-like copies
        (tree,) = trees_module.grow_trees(
            trees_module._LevelSearch(X), y, rows, weights, np.array([rows.size]),
            np.array([114], dtype=np.uint64), None, 3,
        )
        depths = node_depths(tree)
        assert len(levels) >= depths.max() > 3
        for depth, call in enumerate(levels):
            start = 0
            for size, carried, total in zip(call["sizes"], call["sums"], call["totals"]):
                node_rows = call["rows"][start : start + size]
                node_w = call["weights"][start : start + size]
                fresh = 0.0
                for wy in node_w * y[node_rows]:  # one by one, as np.bincount adds
                    fresh += wy
                assert np.float64(carried).tobytes() == np.float64(fresh).tobytes()
                assert total == node_w.sum()
                start += size
            # the next level's nodes, breadth first, are this level's children in order
            sums, _, totals = call["children"]
            assert tree.value[depths == depth + 1].tobytes() == (sums / totals).tobytes()

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("depth", [1, 3, None])
    def test_rows_leave_at_the_leaf_predict_reaches(self, monkeypatch, cells, depth):
        monkeypatch.setattr(trees_module, "_CHUNK_CELLS", cells)
        rounds = []
        grow = ensembles_module.grow_trees

        def recording(*args):
            (tree,) = grow(*args)
            rounds.append((tree, args[-1].copy()))
            return [tree]

        monkeypatch.setattr(ensembles_module, "grow_trees", recording)
        X, y = fractional_problem(115)
        for X, y in ((X, y), (np.zeros((5, 0)), np.array([0.0, 1.0, 1.0, 2.0, 3.0]))):
            rounds.clear()
            GradientBoosting(n_trees=5, depth=depth).fit(X, y)
            assert len(rounds) == 5
            for tree, leaf_value in rounds:
                assert leaf_value.tobytes() == tree.predict(X).tobytes()
