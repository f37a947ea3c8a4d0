"""Bagged and boosted tree ensembles, both grown by ``trees.grow_trees``.

Random forests bootstrap rows per tree and search floor(sqrt(d)) candidate
features per split; per-tree generators are spawned from one seed sequence,
so results are seed-deterministic. Each tree's generator draws its
bootstrap and a root key, and the tree grows on the bootstrap's distinct
rows, each weighted by its multiplicity, as on the sample with its copies.
A node's candidates come from keys derived from its path, so no draw
depends on the order nodes are grown in: a forest capped at depth d is the
deeper forest of the same seed cut at depth d, and on integer-valued
targets (head counts, the 0/1 occupancy indicator) it equals the forest
grown node by node. The forest predicts the mean of its trees, and
boosting the base plus its shrunken rounds: each is one call to
``trees.leaf_sum``, which descends all the trees at once and adds their
leaf values in tree order. The selector ranks splits on the indicator by
variance reduction, half the two-class Gini decrease. Both constructors
take ``n_trees=`` and ``depth=``, the keys of the families' grid; tree
counts and depths must be integers >= 1 (a depth may be None: unbounded).

Gradient boosting (Friedman, 2001) fits one regression tree per round to
the residuals under squared loss, with shrinkage 0.1; the recorded training
loss per round is non-increasing. Its trees grow on all rows, each of
weight 1 (no bootstrap), with every feature a candidate at every node; the
rank codes of ``X`` are built once per fit. A round's training predictions
are the leaf values the grower records as its rows leave the partition, so
no round descends its own tree. The residuals are fractional,
so a near-tie between splits depends on float rounding (see ``trees``).
"""

from __future__ import annotations

import numpy as np

from . import checks
from .trees import DecisionTree, _LevelSearch, grow_forest, grow_trees, leaf_sum

LEARNING_RATE = 0.1


class RandomForest:
    """Bagging ensemble of variance-criterion trees; predicts their mean."""

    def __init__(self, n_trees: int = 100, depth: int | None = None, seed: int = 0):
        self.n_trees = checks.count("n_trees", n_trees)
        self.max_depth = None if depth is None else checks.count("depth", depth)
        self.seed = int(seed)
        self.trees: list[DecisionTree] = []
        self.importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        d = X.shape[1]
        k = max(1, int(np.sqrt(d)))

        children = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        rngs = [np.random.default_rng(child) for child in children]
        self.trees = grow_forest(X, y, rngs, self.max_depth, k)
        raw_importance = np.zeros(d)
        for tree in self.trees:
            raw_importance += tree.importances_
        total = raw_importance.sum()
        self.importances_ = raw_importance / total if total > 0 else np.full(d, 1.0 / max(d, 1))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return leaf_sum(self.trees, X) / len(self.trees)


class GradientBoosting:
    """Squared-loss boosting of regression trees with shrinkage."""

    def __init__(self, n_trees: int = 100, depth: int | None = 4):
        self.n_trees = checks.count("n_trees", n_trees)
        self.max_depth = None if depth is None else checks.count("depth", depth)
        self.base_: float = 0.0
        self.trees: list[DecisionTree] = []
        self.train_losses_: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoosting":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        search = _LevelSearch(X)
        key = np.zeros(1, dtype=np.uint64)  # every feature is a candidate: the key draws nothing
        self.base_ = float(y.mean())
        current = np.full(y.shape, self.base_)
        self.trees = []
        self.train_losses_ = [float(np.mean((y - current) ** 2))]
        n = X.shape[0]
        leaf_value = np.empty(n)  # each row's leaf in the round's tree: its training prediction
        for _ in range(self.n_trees):
            residual = y - current
            rows = np.arange(n, dtype=np.min_scalar_type(n))
            (tree,) = grow_trees(search, residual, rows, np.ones_like(rows), np.array([n]), key,
                                 self.max_depth, X.shape[1], leaf_value)
            current = current + LEARNING_RATE * leaf_value
            self.trees.append(tree)
            self.train_losses_.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return leaf_sum(self.trees, X, base=self.base_, scale=LEARNING_RATE)
