"""Robust-scaler normalization and tree-based feature selection.

Both transforms are fitted on training data only and applied unchanged to
test data, so no test statistic leaks into the model.

Scaling: x_nor = (x - Q2) / (Q3 - Q1) per column, with quartiles interpolated
linearly between closest ranks; zero-IQR columns are centered only
(divisor 1).

Selection: a random forest of 50 fully grown trees is fitted on the training
matrix against the 0/1 occupancy indicator (detection) or the head counts
(counting), and columns whose normalized total variance reduction reaches
the mean importance are kept; on the indicator, that reduction is half the
two-class Gini decrease. Exact duplicate columns are fitted once and share
their importance equally, which keeps the ranking symmetric under feature
duplication. The mask is never empty: if no column reaches the threshold
the single top column is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import FeatureMatrix
from .models.ensembles import RandomForest

SELECTION_TREES = 50


class PreprocessError(ValueError):
    """Bad input to scaling or selection."""


@dataclass(frozen=True)
class ScalerParams:
    """Per-column training quartiles."""

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.q1.shape[0]


@dataclass(frozen=True)
class SelectionMask:
    """Kept column indices plus the per-column importance distribution."""

    kept: np.ndarray  # strictly increasing column indices
    importances: np.ndarray  # non-negative, sums to 1


def fit_scaler(train: FeatureMatrix) -> ScalerParams:
    """Per-column Q1/Q2/Q3 of the training matrix."""
    if train.n_rows < 1:
        raise PreprocessError("cannot fit a scaler on an empty matrix")
    q1, q2, q3 = np.percentile(train.rows, (25, 50, 75), axis=0)
    return ScalerParams(q1=q1, q2=q2, q3=q3)


def apply_scaler(matrix: FeatureMatrix, params: ScalerParams) -> FeatureMatrix:
    """x_nor = (x - Q2) / (Q3 - Q1); zero-IQR columns only get centered."""
    if matrix.n_features != params.n_columns:
        raise PreprocessError(
            f"column mismatch: matrix has {matrix.n_features}, scaler {params.n_columns}"
        )
    iqr = params.q3 - params.q1
    divisor = np.where(iqr > 0, iqr, 1.0)
    return replace(matrix, rows=(matrix.rows - params.q2) / divisor)


def _duplicate_groups(rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unique-column representatives plus the member indices of each group."""
    groups: dict[bytes, list[int]] = {}
    for j in range(rows.shape[1]):
        groups.setdefault(rows[:, j].tobytes(), []).append(j)
    representatives = np.array([members[0] for members in groups.values()], dtype=np.int64)
    return representatives, [np.array(m, dtype=np.int64) for m in groups.values()]


def select_features(train: FeatureMatrix, labels: np.ndarray, seed: int = 0) -> SelectionMask:
    """Forest-importance selection; deterministic under ``seed``."""
    y = np.asarray(labels).astype(np.float64)
    if np.unique(y).size < 2:
        raise PreprocessError("selection needs at least 2 distinct labels")
    if train.n_rows < 2:
        raise PreprocessError("selection needs at least 2 rows")

    representatives, groups = _duplicate_groups(train.rows)
    forest = RandomForest(n_trees=SELECTION_TREES, seed=seed)
    forest.fit(train.rows[:, representatives], y)

    importances = np.zeros(train.n_features)
    for group, unique_importance in zip(groups, forest.importances_):
        importances[group] = unique_importance / group.size

    total = importances.sum()
    importances = importances / total if total > 0 else np.full_like(importances, 1.0 / importances.size)

    # epsilon keeps exact-equality cases (uniform importances) in the mask
    kept = np.flatnonzero(importances >= importances.mean() - 1e-12)
    if kept.size == 0:
        kept = np.array([int(np.argmax(importances))], dtype=np.int64)
    return SelectionMask(kept=kept, importances=importances)


def apply_mask(matrix: FeatureMatrix, mask: SelectionMask) -> FeatureMatrix:
    if mask.kept.size and int(mask.kept.max()) >= matrix.n_features:
        raise PreprocessError("selection mask refers to columns beyond the matrix width")
    return matrix.take_columns(mask.kept)
