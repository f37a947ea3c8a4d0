"""Bagged and boosted tree ensembles built on the CART core.

Random forests bootstrap rows per tree and draw floor(sqrt(d)) candidate
features per split; per-tree generators are spawned from one seed sequence,
so results are seed-deterministic. ``trees.grow_forest`` grows all trees in
lockstep: every bootstrap is drawn first, each column gets rank codes once,
and each step scores the next depth-first node of every tree in one batched
search whose temporaries are capped by one module constant. Each tree keeps
its own generator and depth-first order, so every draw is the one a
tree-by-tree fit would make, and on integer-valued targets (head counts,
class indices) the forest is bit-identical to one. Every tree votes over the
forest's classes, including classes its bootstrap sample missed.

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
    """Bagging ensemble; task is "regression" (variance) or "classification" (gini)."""

    def __init__(
        self,
        task: str = "regression",
        n_trees: int = 100,
        max_depth: int | None = None,
        seed: int = 0,
    ):
        self.task = task
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.seed = int(seed)
        self.trees: list[DecisionTree] = []
        self.n_classes = 0
        self.importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        d = X.shape[1]
        criterion = "gini" if self.task == "classification" else "variance"
        if self.task == "classification":
            y = np.asarray(y, dtype=np.int64)
            self.n_classes = int(y.max()) + 1
        else:
            y = np.asarray(y, dtype=np.float64)
        k = max(1, int(np.sqrt(d)))

        children = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        rngs = [np.random.default_rng(child) for child in children]
        self.trees = grow_forest(X, y, rngs, criterion, self.max_depth, k, self.n_classes)
        raw_importance = np.zeros(d)
        for tree in self.trees:
            raw_importance += tree.importances_
        total = raw_importance.sum()
        self.importances_ = raw_importance / total if total > 0 else np.full(d, 1.0 / d)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.task == "classification":
            votes = np.zeros((X.shape[0], self.n_classes))
            for tree in self.trees:
                counts = tree.predict(X)
                votes += counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
            return np.argmax(votes, axis=1)
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
            tree = DecisionTree(criterion="variance", max_depth=self.max_depth).fit(X, residual)
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
