"""Uniform fit/predict contract over the classifier and regressor families.

``_FAMILIES`` is the one place a family is defined: its task
(classification or regression), documented grid, constructor, whether the
constructor takes the spec's seed, and for the SVM a batch fitter. The
constructor is the one declaration of a hyperparameter's default and its
check; the grid's axes name the hyperparameters. ``ModelSpec`` names a
family, a hyperparameter mapping (keys restricted to the grid's axes; a
key left out takes the constructor's default) and a seed. ``fit_grid`` is
the one fitting entry: it fits the specs of one family on one training
set, each into an immutable ``TrainedModel`` whose predictions are
deterministic given (spec, seed, data), and yields them in spec order;
``fit`` is ``fit_grid`` of one spec. Fitted models live in memory only:
the pipeline scores them on held-out data and nothing reloads them, so
there is no model file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .discriminant import LinearDiscriminant
from .ensembles import GradientBoosting, RandomForest
from .linear import BayesianRidge, LeastSquares, RidgeRegression
from .neighbors import NearestNeighbors
from .robust import RansacRegression, TheilSenRegression
from .svm import KERNELS, LOSSES, SupportVectorClassifier, fit_lockstep


@dataclass(frozen=True)
class _Family:
    task: str
    grid: tuple[Mapping[str, object], ...]  # its axes are the hyperparameters a spec may set
    model: Callable[..., object]  # (**params[, seed]) -> unfitted model; holds the defaults
    seeded: bool = False  # the constructor takes the spec's seed
    fit_batch: Callable | None = None  # (unfitted models, X, *targets): fits them together


def _grid(**axes: Sequence) -> tuple[dict, ...]:
    """Every combination of the axes; the last axis varies fastest."""
    return tuple(dict(zip(axes, values)) for values in product(*axes.values()))


_K_GRID = _grid(k=(1, 3, 5, 11))
_TREE_GRID = _grid(n_trees=(50, 200), depth=(4, 8, None))

_FAMILIES: dict[str, _Family] = {
    "knn": _Family("classification", _K_GRID, NearestNeighbors),
    "wknn": _Family("classification", _K_GRID, partial(NearestNeighbors, weighted=True)),
    "lda": _Family("classification", _grid(), partial(LinearDiscriminant, quadratic=False)),
    "qlda": _Family("classification", _grid(), partial(LinearDiscriminant, quadratic=True)),
    "svm": _Family(
        "classification",
        _grid(kernel=KERNELS, loss=LOSSES, C=(0.1, 1.0, 10.0)),
        SupportVectorClassifier,
        fit_batch=fit_lockstep,
    ),
    "gradient_boosting": _Family("regression", _TREE_GRID, GradientBoosting),
    "random_forest": _Family("regression", _TREE_GRID, RandomForest, seeded=True),
    "linear": _Family("regression", _grid(), LeastSquares),
    "ridge": _Family("regression", _grid(lam=(1e-3, 1e-1, 1.0)), RidgeRegression),
    "ransac": _Family(
        "regression", _grid(residual_quantile=(0.5,)), RansacRegression, seeded=True
    ),
    "bayesian": _Family("regression", _grid(lam=(1e-3, 1e-1, 1.0)), BayesianRidge),
    "theil_sen": _Family(
        "regression", _grid(n_subsets=(200, 500)), TheilSenRegression, seeded=True
    ),
}

FAMILIES = tuple(_FAMILIES)
CLASSIFIER_FAMILIES = tuple(f for f in FAMILIES if _FAMILIES[f].task == "classification")
REGRESSOR_FAMILIES = tuple(f for f in FAMILIES if _FAMILIES[f].task == "regression")


class ModelError(ValueError):
    """Unknown family, bad hyperparameters, or degenerate training input."""


def _family(family: str) -> _Family:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ModelError(f"unknown model family {family!r}") from None


def family_task(family: str) -> str:
    return _family(family).task


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus its hyperparameter configuration and seed."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        allowed = set().union(*_family(self.family).grid)
        unknown = set(self.params) - allowed
        if unknown:
            raise ModelError(
                f"{self.family}: unknown hyperparameters {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )


def default_grid(family: str) -> list[dict]:
    """The documented hyperparameter grid, in deterministic order."""
    return [dict(params) for params in _family(family).grid]


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


def fit_grid(
    specs: Sequence[ModelSpec], X: np.ndarray, y: np.ndarray
) -> Iterator[TrainedModel | ValueError]:
    """Fit the specs of one family on (X, y): the one way a model is fitted.

    The input is checked and the targets derived once, when this is called.
    Entry i is the fitted model of ``specs[i]``, or the ``ValueError`` that
    its configuration or fit raised; a ``LinAlgError`` becomes a
    ``ModelError``. Input that no spec can fit, such as one class or one
    distinct target, raises ``ModelError`` for the whole grid, as does a spec
    list that is empty or mixes families. A family fits each model only when
    the iterator reaches it, so a caller that drops each model before taking
    the next holds one at a time; a family that names a batch fitter fits
    its whole grid first: the SVM solves every machine of a grid in lockstep
    (``svm.fit_lockstep``).
    """
    families = {spec.family for spec in specs}
    if len(families) != 1:
        raise ModelError(f"fit_grid fits the specs of one family, got {sorted(families)}")
    family = _FAMILIES[families.pop()]
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2:
        raise ModelError("X must be a 2-D matrix")
    if X.shape[0] < 2:
        raise ModelError(f"need at least 2 training rows, got {X.shape[0]}")
    if y.shape[0] != X.shape[0]:
        raise ModelError("X and y row counts differ")
    classes = None
    if family.task == "classification":
        classes, y_idx = np.unique(y, return_inverse=True)
        if classes.size < 2:
            raise ModelError("classification needs at least 2 distinct labels")
        targets = (y_idx, classes.size)
    else:
        targets = (y.astype(np.float64),)
        if np.unique(targets[0]).size < 2:
            raise ModelError("regression needs at least 2 distinct target values")

    def fitted(spec: ModelSpec) -> TrainedModel | ValueError:
        try:
            seed = {"seed": spec.seed} if family.seeded else {}
            inner = family.model(**spec.params, **seed)
            if family.fit_batch is None:
                inner.fit(X, *targets)
        except np.linalg.LinAlgError as exc:
            return ModelError(f"{spec.family}: degenerate training data ({exc})")
        except ValueError as exc:
            return exc
        return TrainedModel(spec, family.task, X.shape[1], inner, classes)

    if family.fit_batch is None:
        return map(fitted, specs)
    results = [fitted(spec) for spec in specs]
    family.fit_batch([r.inner for r in results if isinstance(r, TrainedModel)], X, *targets)
    return iter(results)


def fit(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> TrainedModel:
    """``fit_grid`` of the one spec, raising its error; deterministic given the seed."""
    (model,) = fit_grid([spec], X, y)
    if isinstance(model, ValueError):
        raise model
    return model
