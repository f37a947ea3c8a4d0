"""Hold-out split, k-fold cross-validation, grid search and quality metrics.

``run_pipeline`` wires the whole offline workflow: dedup -> segment ->
featurize (or raw pass-through) -> stratified 75/25 hold-out -> robust
scaling and tree-based selection fitted on the training split -> exhaustive
grid search per model family under k-fold cross-validation -> final test
evaluation of every family's best configuration.

Selection metrics: accuracy for detection, negated RMSE for counting.
Regression test metrics are computed on the unrounded estimates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .dataset import RssiDataset, deduplicate
from .features import (
    FeatureMatrix, build_feature_matrix, build_raw_matrix, check_featurizable, segment, window_length
)
from .models import (
    CLASSIFIER_FAMILIES,
    REGRESSOR_FAMILIES,
    ModelSpec,
    default_grid,
    family_task,
    fit,
    fit_grid,
)
from .preprocess import apply_mask, apply_scaler, fit_scaler, select_features

KFOLD_CHOICES = (3, 5, 10)
SPLIT_MODES = ("random", "chronological")
HOLDOUT_RATIO = 0.75

TASKS = ("detection", "counting")
REPRESENTATIONS = ("features", "raw")


class EvaluationError(ValueError):
    """Bad evaluation input or an unsatisfiable request."""


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class ClassificationMetrics:
    precision: float
    specificity: float
    recall: float
    accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegressionMetrics:
    rmse: float
    mae: float


def classification_metrics(pred: np.ndarray, truth: np.ndarray) -> ClassificationMetrics:
    """Precision, specificity, recall, accuracy; positive = occupied.

    Ratios with a zero denominator are reported as 1 and flagged.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise EvaluationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise EvaluationError("cannot score an empty prediction vector")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))

    degenerate: list[str] = []

    def ratio(numerator: int, denominator: int, name: str) -> float:
        if denominator == 0:
            degenerate.append(name)
            return 1.0
        return numerator / denominator

    precision = ratio(tp, tp + fp, "precision")
    specificity = ratio(tn, fp + tn, "specificity")
    recall = ratio(tp, tp + fn, "recall")
    return ClassificationMetrics(
        precision=precision,
        specificity=specificity,
        recall=recall,
        accuracy=(tp + tn) / pred.size,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        degenerate=tuple(degenerate),
    )


def regression_metrics(pred: np.ndarray, truth: np.ndarray) -> RegressionMetrics:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise EvaluationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise EvaluationError("cannot score empty vectors")
    errors = pred - truth
    return RegressionMetrics(
        rmse=float(np.sqrt(np.mean(errors**2))), mae=float(np.mean(np.abs(errors)))
    )


def holdout_split(
    matrix: FeatureMatrix,
    task: str = "classification",
    seed: int = 0,
    mode: str = "random",
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Disjoint covering train/test split; |train| = round(HOLDOUT_RATIO * N).

    Classification splits are stratified on the occupancy label: each class
    gets the floor of its share, and leftover rows go to the largest
    remainders, ties to the earlier class. A regression split is the
    stratified split of one class.
    ``mode="chronological"`` takes the first rows as training data instead,
    for callers worried about temporal leakage.
    """
    if mode not in SPLIT_MODES:
        raise EvaluationError(f"unknown split mode {mode!r}")
    n = matrix.n_rows
    if n < 4:
        raise EvaluationError(f"need at least 4 rows to split, got {n}")
    n_train = round(HOLDOUT_RATIO * n)  # in [3, n - 1] for every n >= 4

    if mode == "chronological":
        train_idx = np.arange(n_train)
    else:
        rng = np.random.default_rng(seed)
        labels = matrix.labels_occupancy if task == "classification" else np.zeros(n, dtype=bool)
        members = {c: np.flatnonzero(labels == c) for c in np.unique(labels)}
        for c, rows in members.items():
            if rows.size < 2:
                raise EvaluationError(
                    f"stratified split impossible: class {c} has {rows.size} member(s)"
                )
        exact = HOLDOUT_RATIO * np.array([rows.size for rows in members.values()])
        take = np.floor(exact).astype(np.int64)
        take[np.argsort(take - exact, kind="stable")[: n_train - take.sum()]] += 1
        train_idx = np.concatenate(
            [rng.permutation(rows)[:t] for rows, t in zip(members.values(), take)]
        )
    in_train = np.zeros(n, dtype=bool)
    in_train[train_idx] = True
    return matrix.take_rows(np.flatnonzero(in_train)), matrix.take_rows(np.flatnonzero(~in_train))


def kfold_split(n_rows: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (fit, validate) index pairs; validation folds partition the rows."""
    if k not in KFOLD_CHOICES:
        raise EvaluationError(f"k must be one of {KFOLD_CHOICES}, got {k}")
    if n_rows < k:
        raise EvaluationError(f"cannot make {k} folds from {n_rows} rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    folds = np.array_split(perm, k)
    pairs = []
    for i in range(k):
        validate_idx = np.sort(folds[i])
        fit_idx = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        pairs.append((fit_idx, validate_idx))
    return pairs


@dataclass
class ConfigScore:
    params: dict
    fold_scores: list[float]
    n_failed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_scores)) if self.fold_scores else float("-inf")

    @property
    def sd(self) -> float:
        return float(np.std(self.fold_scores)) if self.fold_scores else float("nan")


@dataclass
class GridSearchResult:
    family: str
    scores: list[ConfigScore]
    best_index: int
    metric: str

    @property
    def best_params(self) -> dict:
        return self.scores[self.best_index].params

    @property
    def best_score(self) -> float:
        return self.scores[self.best_index].mean


def _fold_predictions(
    specs: Sequence[ModelSpec], X_fit: np.ndarray, y_fit: np.ndarray, X_val: np.ndarray
) -> list[np.ndarray | None]:
    """Each spec fitted on one fold and its validation rows predicted; None where that failed.

    The specs are fitted by ``fit_grid``, the one fitting entry for every
    family: a spec whose configuration or fit raises ``ValueError`` fails
    alone, and input that fails the grid, such as a fold with one class,
    fails the fold for every spec. A predict that raises ``ValueError`` fails
    its spec; other exceptions propagate. Each model is scored and dropped
    before the next one fits (a batch family fits its grid first).
    """
    try:
        fitted = fit_grid(specs, X_fit, y_fit)
    except ValueError:
        return [None] * len(specs)
    predictions: list[np.ndarray | None] = []
    for model in fitted:
        try:
            predictions.append(None if isinstance(model, ValueError) else model.predict(X_val))
        except ValueError:
            predictions.append(None)
        del model  # so that it is freed before the next spec fits
    return predictions


def grid_search(
    family: str,
    grid: Sequence[Mapping],
    train: FeatureMatrix,
    k: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Evaluate every config with k-fold CV; ties break by grid order.

    Metric: accuracy for classifiers, negated RMSE for regressors. A fold
    whose fit or predict raises ``ValueError`` (``ModelError`` and
    ``LinAlgError`` among them) counts as failed; other exceptions are
    programming errors and propagate. Configs whose fit fails on every fold
    are excluded (kept in the report with an empty score list); if every
    config fails, that is an error. Each fold fits the whole grid with one
    ``fit_grid`` call (``_fold_predictions``), for every family.
    """
    if not grid:
        raise EvaluationError("empty hyperparameter grid")
    task = family_task(family)
    y = train.labels_for(task)
    folds = kfold_split(train.n_rows, k, seed)

    specs = [ModelSpec(family=family, params=dict(params), seed=seed) for params in grid]
    scores = [ConfigScore(params=dict(params), fold_scores=[], n_failed=0) for params in grid]
    for fit_idx, val_idx in folds:
        predictions = _fold_predictions(specs, train.rows[fit_idx], y[fit_idx], train.rows[val_idx])
        for score, pred in zip(scores, predictions):
            if pred is None:
                score.n_failed += 1
            elif task == "classification":
                score.fold_scores.append(float(np.mean(pred == y[val_idx])))
            else:
                score.fold_scores.append(-regression_metrics(pred, y[val_idx]).rmse)

    usable = [i for i, s in enumerate(scores) if s.fold_scores]
    if not usable:
        raise EvaluationError(f"{family}: every grid configuration failed to fit")
    best_index = max(usable, key=lambda i: (scores[i].mean, -i))
    metric = "accuracy" if task == "classification" else "neg_rmse"
    return GridSearchResult(family=family, scores=scores, best_index=best_index, metric=metric)


@dataclass(frozen=True)
class PipelineConfig:
    families: tuple[str, ...] = ()
    window_s: float = 1.0
    k: int = 5
    seed: int = 0
    split_mode: str = "random"
    grids: Mapping[str, Sequence[Mapping]] | None = None


@dataclass
class FamilyResult:
    family: str
    search: GridSearchResult
    test_metrics: ClassificationMetrics | RegressionMetrics

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "metric": self.search.metric,
            "grid": [
                {
                    "params": _json_params(s.params),
                    "cv_mean": s.mean if s.fold_scores else None,
                    "cv_sd": s.sd if s.fold_scores else None,
                    "folds_failed": s.n_failed,
                }
                for s in self.search.scores
            ],
            "best_params": _json_params(self.search.best_params),
            "best_cv_score": self.search.best_score,
            "test": asdict(self.test_metrics),
        }


def _json_params(params: Mapping) -> dict:
    return {key: params[key] for key in sorted(params)}


@dataclass
class EvalReport:
    task: str
    representation: str
    config: PipelineConfig
    fingerprint: dict
    family_results: list[FamilyResult]
    best_family: str
    prediction_cadence: str
    run_config: dict | None = None
    versions: dict = field(default_factory=lambda: {"rssi_occupancy": __version__})

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "representation": self.representation,
            "window_s": self.config.window_s,
            "holdout_ratio": HOLDOUT_RATIO,
            "k": self.config.k,
            "seed": self.config.seed,
            "split_mode": self.config.split_mode,
            "families": [r.as_dict() for r in self.family_results],
            "best_family": self.best_family,
            "prediction_cadence": self.prediction_cadence,
            "fingerprint": self.fingerprint,
            "run_config": self.run_config,
            "versions": self.versions,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def scores_csv(self) -> str:
        lines = ["family,config_index,params,cv_mean,cv_sd,folds_failed"]
        for result in self.family_results:
            for i, score in enumerate(result.search.scores):
                params = ";".join(f"{k}={v}" for k, v in sorted(score.params.items()))
                mean = repr(score.mean) if score.fold_scores else ""
                sd = repr(score.sd) if score.fold_scores else ""
                lines.append(
                    f"{result.family},{i},{params},{mean},{sd},{score.n_failed}"
                )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"task={self.task} representation={self.representation}"]
        for result in self.family_results:
            metrics = result.test_metrics
            if isinstance(metrics, ClassificationMetrics):
                lines.append(
                    f"{result.family}: accuracy={metrics.accuracy:.4f} "
                    f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
                    f"specificity={metrics.specificity:.4f} ({result.search.best_params})"
                )
            else:
                lines.append(
                    f"{result.family}: rmse={metrics.rmse:.4f} mae={metrics.mae:.4f} "
                    f"({result.search.best_params})"
                )
        lines.append(f"best family: {self.best_family}")
        return "\n".join(lines)


def _count_balance(counts: np.ndarray) -> dict:
    values, freq = np.unique(counts, return_counts=True)
    return {str(int(v)): int(f) for v, f in zip(values, freq)}


def run_pipeline(
    dataset: RssiDataset,
    task: str,
    representation: str,
    config: PipelineConfig,
) -> EvalReport:
    """Execute the full offline workflow and score each family on the test set.

    ``best_family`` has the highest best CV score (accuracy, or negated RMSE
    for counting); ties go to the earlier family, as in ``grid_search``. A
    window too short for the representation raises ``FeatureError`` first.
    """
    if task not in TASKS:
        raise EvaluationError(f"unknown task {task!r}; expected one of {TASKS}")
    if representation not in REPRESENTATIONS:
        raise EvaluationError(f"unknown representation {representation!r}")
    if task == "detection" and representation == "raw":
        raise EvaluationError(
            "detection requires the features representation: the classifiers "
            "cannot consume unsegmented raw samples"
        )
    if config.k not in KFOLD_CHOICES:
        raise EvaluationError(f"k must be one of {KFOLD_CHOICES}, got {config.k}")
    if config.split_mode not in SPLIT_MODES:
        raise EvaluationError(f"unknown split mode {config.split_mode!r}")
    families = config.families or (
        CLASSIFIER_FAMILIES if task == "detection" else REGRESSOR_FAMILIES
    )
    if len(set(families)) != len(families):
        raise EvaluationError(f"a family is listed more than once: {list(families)}")
    model_task = "classification" if task == "detection" else "regression"
    for family in families:
        if family_task(family) != model_task:
            raise EvaluationError(f"family {family!r} does not solve task {task!r}")
    length = window_length(config.window_s, dataset.sampling_hz)
    if representation == "features":
        check_featurizable(length, dataset.sampling_hz)

    def stage(name, function, *args, **kwargs):
        try:
            return function(*args, **kwargs)
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    deduped = stage("deduplicate", deduplicate, dataset)
    windows = stage("segment", segment, deduped, config.window_s)
    if representation == "features":
        matrix = stage("featurize", build_feature_matrix, windows)
        cadence = f"per-window (one estimate every {config.window_s:g} s)"
    else:
        matrix = stage("raw-matrix", build_raw_matrix, windows)
        cadence = (
            f"per-sample (one estimate every {1000.0 / dataset.sampling_hz:g} ms "
            f"at {dataset.sampling_hz:g} Hz)"
        )

    train, test = stage(
        "holdout-split",
        holdout_split,
        matrix,
        model_task,
        config.seed,
        config.split_mode,
    )

    scaler = stage("fit-scaler", fit_scaler, train)
    train = stage("apply-scaler", apply_scaler, train, scaler)
    test = stage("apply-scaler", apply_scaler, test, scaler)

    n_features_total = train.n_features
    n_kept = n_features_total
    if representation == "features":
        mask = stage("select-features", select_features, train, train.labels_for(model_task),
                     config.seed)
        train = stage("apply-selection", apply_mask, train, mask)
        test = stage("apply-selection", apply_mask, test, mask)
        n_kept = int(mask.kept.size)

    y_train = train.labels_for(model_task)
    y_test = test.labels_for(model_task)
    score_test = classification_metrics if model_task == "classification" else regression_metrics

    family_results: list[FamilyResult] = []
    for family in families:
        grid = list((config.grids or {}).get(family, default_grid(family)))
        search = stage(f"grid-search[{family}]", grid_search, family, grid, train,
                       config.k, config.seed)
        spec = ModelSpec(family=family, params=search.best_params, seed=config.seed)
        model = stage(f"final-fit[{family}]", fit, spec, train.rows, y_train)
        pred = stage(f"test-predict[{family}]", model.predict, test.rows)
        family_results.append(FamilyResult(family=family, search=search,
                                           test_metrics=score_test(pred, y_test)))

    best = max(family_results, key=lambda r: r.search.best_score)

    fingerprint = {
        "n_records": len(dataset),
        "n_records_deduped": len(deduped),
        "n_windows": len(windows),
        "n_rows": matrix.n_rows,
        "n_train": train.n_rows,
        "n_test": test.n_rows,
        "occupied_fraction": float(np.mean(matrix.labels_occupancy)),
        "count_histogram": _count_balance(matrix.labels_count),
        "n_features_total": n_features_total,
        "n_features_kept": n_kept,
        "sampling_hz": dataset.sampling_hz,
        "nonfinite_replaced": matrix.diagnostics.nonfinite_replaced,
        "hf_ratio_ill_posed": matrix.diagnostics.hf_ratio_ill_posed,
    }
    return EvalReport(
        task=task,
        representation=representation,
        config=config,
        fingerprint=fingerprint,
        family_results=family_results,
        best_family=best.family,
        prediction_cadence=cadence,
    )
