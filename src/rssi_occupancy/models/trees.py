"""CART-style decision trees shared by the forests, boosting and the selector.

Split search is vectorized: per node, candidate features are gathered into an
(n, f) block, column-sorted once, and the best threshold per feature falls out
of prefix sums. Regression splits maximize the sum-of-squares reduction,
classification splits the Gini impurity reduction; both are equivalent to
maximizing sum(left_stat)/n_left + sum(right_stat)/n_right. A node is split
whenever it has two or more rows, lies above the depth cap and some split
reduces impurity, so a leaf may hold a single row.

Thresholds are stored as the largest value routed left and compared with
``<=``, which avoids the floating-point pitfalls of midpoints.

Feature importance: when several candidate features tie exactly for the best
split (e.g. duplicated columns), the impurity decrease is credited equally to
all of them and the split uses the lowest feature index. This keeps
importances symmetric under feature duplication while staying deterministic.
"""

from __future__ import annotations

import numpy as np

_NO_GAIN = 1e-12


class DecisionTree:
    """One fitted tree; criterion is "variance" (regression) or "gini"."""

    def __init__(
        self,
        criterion: str = "variance",
        max_depth: int | None = None,
        max_features: int | None = None,
    ):
        if criterion not in ("variance", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        # Parallel node arrays, filled during fit.
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray | float] = []
        self.importances_: np.ndarray | None = None
        self.n_classes: int = 0

    # -- fitting ------------------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None
    ) -> "DecisionTree":
        """Grow the tree; ``rng`` draws the candidate features when ``max_features`` is set."""
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        self.importances_ = np.zeros(d)
        if self.criterion == "gini":
            y = np.asarray(y, dtype=np.int64)
            self.n_classes = int(y.max()) + 1 if y.size else 0
        else:
            y = np.asarray(y, dtype=np.float64)

        depth_cap = self.max_depth if self.max_depth is not None else np.inf
        stack: list[tuple[np.ndarray, int, int, bool]] = []

        root_rows = np.arange(n)
        stack.append((root_rows, 0, -1, False))
        while stack:
            rows, depth, parent, is_right = stack.pop()
            node_id = len(self.feature)
            if parent >= 0:
                if is_right:
                    self.right[parent] = node_id
                else:
                    self.left[parent] = node_id
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.value.append(self._leaf_value(y[rows]))

            if depth >= depth_cap or rows.size < 2:
                continue
            split = self._best_split(X, y, rows, rng)
            if split is None:
                continue
            feat, thr, decrease, tied = split
            share = decrease / len(tied)
            for t in tied:
                self.importances_[t] += share
            self.feature[node_id] = feat
            self.threshold[node_id] = thr
            mask = X[rows, feat] <= thr
            stack.append((rows[~mask], depth + 1, node_id, True))
            stack.append((rows[mask], depth + 1, node_id, False))
        self._finalize()
        return self

    def _leaf_value(self, y_node: np.ndarray):
        if self.criterion == "gini":
            return np.bincount(y_node, minlength=self.n_classes).astype(np.float64)
        return float(y_node.mean()) if y_node.size else 0.0

    def _candidate_features(self, d: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return np.sort(rng.choice(d, size=self.max_features, replace=False))

    def _best_split(self, X, y, rows, rng):
        n = rows.size
        feats = self._candidate_features(X.shape[1], rng)
        block = X[np.ix_(rows, feats)]
        order = np.argsort(block, axis=0, kind="stable")
        xs = np.take_along_axis(block, order, axis=0)

        # valid split positions: strictly increasing neighbours
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            return None

        if self.criterion == "variance":
            ys = y[rows][order]
            cum = np.cumsum(ys, axis=0)
            total = cum[-1, 0]
            score = cum[:-1] ** 2 / left_n[:, None] + (total - cum[:-1]) ** 2 / right_n[:, None]
            parent_score = total**2 / n
        else:
            y_node = y[rows]
            score = np.zeros((n - 1, len(feats)))
            parent_score = 0.0
            for c in range(self.n_classes):
                members = (y_node == c).astype(np.float64)
                n_c = members.sum()
                if n_c == 0:
                    continue
                cum = np.cumsum(members[order], axis=0)
                score += cum[:-1] ** 2 / left_n[:, None] + (n_c - cum[:-1]) ** 2 / right_n[:, None]
                parent_score += n_c**2 / n

        score = np.where(valid, score, -np.inf)
        col_best_pos = np.argmax(score, axis=0)
        col_best = score[col_best_pos, np.arange(len(feats))]
        best = col_best.max()
        decrease = best - parent_score
        if not np.isfinite(best) or decrease <= _NO_GAIN * max(1.0, abs(parent_score)):
            return None
        tied_cols = np.flatnonzero(col_best == best)
        chosen_col = int(tied_cols[0])
        pos = int(col_best_pos[chosen_col])
        threshold = float(xs[pos, chosen_col])
        return int(feats[chosen_col]), threshold, float(decrease), feats[tied_cols]

    def _finalize(self) -> None:
        self._feat = np.array(self.feature, dtype=np.int64)
        self._thr = np.array(self.threshold, dtype=np.float64)
        self._left = np.array(self.left, dtype=np.int64)
        self._right = np.array(self.right, dtype=np.int64)
        if self.criterion == "gini":
            self._val = np.vstack([v for v in self.value]) if self.value else np.empty((0, 0))
        else:
            self._val = np.array(self.value, dtype=np.float64)

    # -- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Regression: leaf means. Classification: per-class count vectors."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        if self.criterion == "gini":
            out = np.zeros((n, self.n_classes))
        else:
            out = np.zeros(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if self._feat[node] < 0:
                out[rows] = self._val[node]
                continue
            mask = X[rows, self._feat[node]] <= self._thr[node]
            stack.append((int(self._left[node]), rows[mask]))
            stack.append((int(self._right[node]), rows[~mask]))
        return out
