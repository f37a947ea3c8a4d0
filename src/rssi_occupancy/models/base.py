"""Uniform fit/predict contract over the classifier and regressor families.

Classifier families: knn, wknn, lda, qlda, svm.
Regressor families: gradient_boosting, random_forest, linear, ridge, ransac,
bayesian, theil_sen.

``ModelSpec`` names a family, a hyperparameter mapping (keys restricted to
the family's documented grid dimensions) and a seed; ``fit`` returns an
immutable ``TrainedModel`` whose predictions are deterministic given
(spec, seed, data). Fitted models live in memory only: the pipeline scores
them on held-out data and nothing reloads them, so there is no model file
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .discriminant import LinearDiscriminant
from .ensembles import GradientBoosting, RandomForest
from .linear import BayesianRidge, LeastSquares, RidgeRegression
from .neighbors import NearestNeighbors
from .robust import RansacRegression, TheilSenRegression
from .svm import SupportVectorClassifier, fit_lockstep

CLASSIFIER_FAMILIES = ("knn", "wknn", "lda", "qlda", "svm")
REGRESSOR_FAMILIES = (
    "gradient_boosting",
    "random_forest",
    "linear",
    "ridge",
    "ransac",
    "bayesian",
    "theil_sen",
)
FAMILIES = CLASSIFIER_FAMILIES + REGRESSOR_FAMILIES

_PARAM_KEYS: dict[str, frozenset[str]] = {
    "knn": frozenset({"k"}),
    "wknn": frozenset({"k"}),
    "lda": frozenset(),
    "qlda": frozenset(),
    "svm": frozenset({"kernel", "loss", "C"}),
    "gradient_boosting": frozenset({"n_trees", "depth"}),
    "random_forest": frozenset({"n_trees", "depth"}),
    "linear": frozenset(),
    "ridge": frozenset({"lam"}),
    "ransac": frozenset({"residual_quantile"}),
    "bayesian": frozenset({"lam"}),
    "theil_sen": frozenset({"n_subsets"}),
}

_DEFAULTS: dict[str, dict] = {
    "knn": {"k": 5},
    "wknn": {"k": 5},
    "lda": {},
    "qlda": {},
    "svm": {"kernel": "linear", "loss": "hinge", "C": 1.0},
    "gradient_boosting": {"n_trees": 100, "depth": 4},
    "random_forest": {"n_trees": 100, "depth": None},
    "linear": {},
    "ridge": {"lam": 1.0},
    "ransac": {"residual_quantile": 0.5},
    "bayesian": {"lam": 1.0},
    "theil_sen": {"n_subsets": 200},
}


class ModelError(ValueError):
    """Unknown family, bad hyperparameters, or degenerate training input."""


def family_task(family: str) -> str:
    if family in CLASSIFIER_FAMILIES:
        return "classification"
    if family in REGRESSOR_FAMILIES:
        return "regression"
    raise ModelError(f"unknown model family {family!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus its hyperparameter configuration and seed."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        allowed = _PARAM_KEYS.get(self.family)
        if allowed is None:
            raise ModelError(f"unknown model family {self.family!r}")
        unknown = set(self.params) - allowed
        if unknown:
            raise ModelError(
                f"{self.family}: unknown hyperparameters {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )

    def resolved_params(self) -> dict:
        merged = dict(_DEFAULTS[self.family])
        merged.update(self.params)
        return merged


def default_grid(family: str) -> list[dict]:
    """The documented hyperparameter grid, in deterministic order."""
    if family in ("knn", "wknn"):
        return [{"k": k} for k in (1, 3, 5, 11)]
    if family in ("lda", "qlda", "linear"):
        return [{}]
    if family == "svm":
        return [
            {"kernel": kernel, "loss": loss, "C": c}
            for kernel in ("linear", "poly", "sigmoid", "rbf")
            for loss in ("hinge", "squared_hinge")
            for c in (0.1, 1.0, 10.0)
        ]
    if family in ("random_forest", "gradient_boosting"):
        return [
            {"n_trees": n, "depth": depth} for n in (50, 200) for depth in (4, 8, None)
        ]
    if family in ("ridge", "bayesian"):
        return [{"lam": lam} for lam in (1e-3, 1e-1, 1.0)]
    if family == "theil_sen":
        return [{"n_subsets": n} for n in (200, 500)]
    if family == "ransac":
        return [{"residual_quantile": 0.5}]
    raise ModelError(f"unknown model family {family!r}")


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A fitted model: spec, task, and family-specific fitted state."""

    spec: ModelSpec
    task: str
    n_features: int
    inner: object
    classes: np.ndarray | None = None  # classification only

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels (classification) or real-valued estimates (regression)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"column mismatch: model was fitted on {self.n_features} features, "
                f"got {X.shape[1] if X.ndim == 2 else X.ndim}"
            )
        raw = self.inner.predict(X)
        if self.task == "classification":
            return self.classes[np.asarray(raw, dtype=np.int64)]
        return np.asarray(raw, dtype=np.float64)

    def predict_count(self, X: np.ndarray) -> np.ndarray:
        """Integer occupant view: round half away from zero, clamp at 0."""
        if self.task != "regression":
            raise ModelError("predict_count is defined for regression models only")
        estimates = self.predict(X)
        return np.maximum(np.floor(estimates + 0.5), 0.0).astype(np.int64)


def _build_inner(spec: ModelSpec, params: dict):
    family = spec.family
    if family in ("knn", "wknn"):
        return NearestNeighbors(k=int(params["k"]), weighted=family == "wknn")
    if family in ("lda", "qlda"):
        return LinearDiscriminant(quadratic=family == "qlda")
    if family == "svm":
        return SupportVectorClassifier(
            kernel=params["kernel"],
            loss=params["loss"],
            C=float(params["C"]),
        )
    if family == "random_forest":
        return RandomForest(
            task="regression",
            n_trees=int(params["n_trees"]),
            max_depth=params["depth"],
            seed=spec.seed,
        )
    if family == "gradient_boosting":
        return GradientBoosting(n_trees=int(params["n_trees"]), max_depth=params["depth"])
    if family == "linear":
        return LeastSquares()
    if family == "ridge":
        return RidgeRegression(lam=float(params["lam"]))
    if family == "bayesian":
        return BayesianRidge(lam=float(params["lam"]))
    if family == "ransac":
        return RansacRegression(
            residual_quantile=float(params["residual_quantile"]), seed=spec.seed
        )
    if family == "theil_sen":
        return TheilSenRegression(n_subsets=int(params["n_subsets"]), seed=spec.seed)
    raise ModelError(f"unknown model family {family!r}")


def _checked_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError("X must be a 2-D matrix")
    if X.shape[0] < 2:
        raise ModelError(f"need at least 2 training rows, got {X.shape[0]}")
    y = np.asarray(y)
    if y.shape[0] != X.shape[0]:
        raise ModelError("X and y row counts differ")
    return X, y


def _class_indices(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ModelError("classification needs at least 2 distinct labels")
    return classes, y_idx


def fit(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> TrainedModel:
    """Fit ``spec`` on (X, y); deterministic given the spec's seed."""
    X, y = _checked_input(X, y)
    task = family_task(spec.family)
    params = spec.resolved_params()
    inner = _build_inner(spec, params)

    if task == "classification":
        classes, y_idx = _class_indices(y)
        try:
            inner.fit(X, y_idx, classes.size)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"{spec.family}: degenerate training data ({exc})") from exc
        return TrainedModel(
            spec=spec, task=task, n_features=X.shape[1], inner=inner, classes=classes
        )

    y_float = y.astype(np.float64)
    if np.unique(y_float).size < 2:
        raise ModelError("regression needs at least 2 distinct target values")
    try:
        inner.fit(X, y_float)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"{spec.family}: degenerate training data ({exc})") from exc
    return TrainedModel(spec=spec, task=task, n_features=X.shape[1], inner=inner)


def fit_svm_batch(
    specs: Sequence[ModelSpec], X: np.ndarray, y: np.ndarray
) -> list[TrainedModel | ValueError]:
    """``fit`` of several SVM specs on one training set, solved in lockstep.

    Entry i is what ``fit(specs[i], X, y)`` returns, or the ``ValueError``
    that its configuration raised (``C`` not positive, an unknown kernel). The
    specs' machines of one kernel are solved as one batch
    (``svm.fit_lockstep``). Input that no spec can fit, such as a single
    class, raises ``ModelError`` for the whole batch.
    """
    X, y = _checked_input(X, y)
    classes, y_idx = _class_indices(y)
    results: list[TrainedModel | ValueError] = []
    for spec in specs:
        if spec.family != "svm":
            raise ModelError(f"fit_svm_batch fits svm specs only, got {spec.family!r}")
        try:
            inner = _build_inner(spec, spec.resolved_params())
        except ValueError as exc:
            results.append(exc)
            continue
        results.append(
            TrainedModel(
                spec=spec, task="classification", n_features=X.shape[1], inner=inner,
                classes=classes,
            )
        )
    fit_lockstep(
        [r.inner for r in results if isinstance(r, TrainedModel)], X, y_idx, classes.size
    )
    return results
