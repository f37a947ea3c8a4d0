"""Bagged and boosted tree ensembles built on the CART core.

Random forests bootstrap rows per tree and draw floor(sqrt(d)) candidate
features per split; per-tree generators are spawned from one seed sequence,
so results are seed-deterministic. ``trees.grow_forest`` grows all trees in
lockstep: every bootstrap is drawn first, each column gets rank codes once,
and each step scores the next depth-first node of every tree in one batched
search whose temporaries are capped by one module constant. Each tree keeps
its own generator and depth-first order, so every draw is the one a
tree-by-tree fit would make, and on integer-valued targets (head counts,
the 0/1 occupancy indicator) the forest is bit-identical to one. The forest
predicts the mean of its trees; the selector ranks splits on the indicator by
variance reduction, half the two-class Gini decrease.

Gradient boosting fits regression trees on all features to residuals under
squared loss with shrinkage 0.1; the recorded training loss per round is
non-increasing. Its trees keep ``DecisionTree.fit``'s per-node sorted
search: the residuals are fractional, and binned sums would re-associate
their additions and change the fitted trees.
"""

from __future__ import annotations

import numpy as np

from .trees import DecisionTree, grow_forest

LEARNING_RATE = 0.1


class RandomForest:
    """Bagging ensemble of variance-criterion trees; predicts their mean."""

    def __init__(self, n_trees: int = 100, max_depth: int | None = None, seed: int = 0):
        self.n_trees = int(n_trees)
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.max_depth = max_depth
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
        self.importances_ = raw_importance / total if total > 0 else np.full(d, 1.0 / d)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)


class GradientBoosting:
    """Squared-loss boosting of regression trees with shrinkage."""

    def __init__(self, n_trees: int = 100, max_depth: int | None = 4):
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.base_: float = 0.0
        self.trees: list[DecisionTree] = []
        self.train_losses_: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoosting":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base_ = float(y.mean())
        current = np.full(y.shape, self.base_)
        self.trees = []
        self.train_losses_ = [float(np.mean((y - current) ** 2))]
        for _ in range(self.n_trees):
            residual = y - current
            tree = DecisionTree(max_depth=self.max_depth).fit(X, residual)
            current = current + LEARNING_RATE * tree.predict(X)
            self.trees.append(tree)
            self.train_losses_.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.full(X.shape[0], self.base_)
        for tree in self.trees:
            acc += LEARNING_RATE * tree.predict(X)
        return acc
