"""k-nearest-neighbour classifiers: plain majority vote and distance-weighted.

``squared_distances`` is the one pairwise distance: the SVM's RBF kernel uses it too.
"""

from __future__ import annotations

import numpy as np

from . import checks

_WEIGHT_EPS = 1e-9  # keeps 1/(d + eps) finite for exact duplicates


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a - b|**2 for each row a of ``A`` and b of ``B``: |a|**2 + |b|**2 - 2ab, clipped at 0."""
    d2 = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * A @ B.T
    np.maximum(d2, 0.0, out=d2)
    return d2


class NearestNeighbors:
    """Stores the training set; votes among the k nearest rows (Euclidean).

    ``weighted=False``: unweighted majority, ties broken toward the smallest
    class index. ``weighted=True``: votes weighted by 1/(distance + 1e-9).
    """

    def __init__(self, k: int = 5, weighted: bool = False):
        self.k = checks.count("k", k)
        self.weighted = weighted
        self.X_: np.ndarray | None = None
        self.y_idx_: np.ndarray | None = None
        self.n_classes = 0

    def fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> "NearestNeighbors":
        X = np.asarray(X, dtype=np.float64)
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds {X.shape[0]} training rows")
        self.X_ = X
        self.y_idx_ = np.asarray(y_idx, dtype=np.int64)
        self.n_classes = n_classes
        return self

    def _neighbor_ids(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = squared_distances(X, self.X_)
        part = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
        rows = np.arange(X.shape[0])[:, None]
        picked = d2[rows, part]
        # stable order: by distance, then training index, for deterministic votes
        order = np.lexsort((part, picked), axis=1)
        ids = part[rows, order]
        return ids, d2[rows, ids]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        ids, d2 = self._neighbor_ids(X)
        labels = self.y_idx_[ids]
        votes = np.zeros((X.shape[0], self.n_classes))
        if self.weighted:
            weights = 1.0 / (np.sqrt(d2) + _WEIGHT_EPS)
        else:
            weights = np.ones_like(d2)
        for c in range(self.n_classes):
            votes[:, c] = np.sum(weights * (labels == c), axis=1)
        return np.argmax(votes, axis=1)
