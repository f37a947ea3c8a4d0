"""Reference trees and forests, grown one tree and one node at a time.

Per node, the candidate columns are gathered, column-sorted and scored by
prefix sums, and a node's rows are copied out of ``X[rows]``.

* ``DecisionTree`` grows one tree depth first on all features, numbered in
  pre-order; it is the former package code. ``GradientBoosting`` grows its
  trees this way. The tests compare the package's boosting against it node
  for node where every sum is exact (dyadic targets), and check every split
  of fractional-target boosting against its sorted search's best score.
* ``KeyedTree`` is a forest's tree: a recursion grows it node by node,
  depth first, and draws each node's candidate features from the node's
  key, with splitmix64 written out in Python integers. The tree is then
  numbered breadth first, and importances add each split's shares in that
  order. ``RandomForest`` grows one per tree. The tests compare the
  package's level-wise forest against it exactly on integer-valued
  targets: a depth-first reference that matches level-wise growth shows
  that the draws do not depend on the order in which nodes are visited.

The Gini criterion, which the package no longer has, is the oracle for the
variance criterion on the 0/1 occupancy indicator: it grows the same trees
with twice the impurity decrease. A forest's trees keep the forest's class
count, so that ``RandomForest.predict`` adds vote vectors of one length.
"""

import numpy as np

_NO_GAIN = 1e-12
LEARNING_RATE = 0.1
_MASK = (1 << 64) - 1


def splitmix64(state, number):
    """Output ``number`` (1 is the first) of splitmix64 started at ``state``."""
    z = (state + number * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def keyed_candidates(key, d, k):
    """Outputs 3 .. d + 2 of a node key are its features' keys; the k smallest win."""
    if k >= d:
        return np.arange(d)
    ranked = sorted(range(d), key=lambda j: splitmix64(key, j + 3))
    return np.array(sorted(ranked[:k]))


class DecisionTree:
    def __init__(self, criterion="variance", max_depth=None):
        self.criterion = criterion
        self.max_depth = max_depth
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []
        self.importances_ = None
        self.n_classes = 0

    def _prepare(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        self.importances_ = np.zeros(X.shape[1])
        if self.criterion == "gini":
            y = np.asarray(y, dtype=np.int64)
            self.n_classes = max(self.n_classes, int(y.max()) + 1 if y.size else 0)
        else:
            y = np.asarray(y, dtype=np.float64)
        depth_cap = self.max_depth if self.max_depth is not None else np.inf
        return X, y, depth_cap

    def fit(self, X, y):
        X, y, depth_cap = self._prepare(X, y)
        stack = [(np.arange(X.shape[0]), 0, -1, False)]
        while stack:
            rows, depth, parent, is_right = stack.pop()
            node_id = self._add_node(parent, is_right, self._leaf_value(y[rows]))
            if depth >= depth_cap or rows.size < 2:
                continue
            split = self._best_split(X, y, rows, np.arange(X.shape[1]))
            if split is None:
                continue
            feat, thr, decrease, tied = split
            self._set_split(node_id, feat, thr, decrease, tied)
            mask = X[rows, feat] <= thr
            stack.append((rows[~mask], depth + 1, node_id, True))
            stack.append((rows[mask], depth + 1, node_id, False))
        self._finalize()
        return self

    def _add_node(self, parent, is_right, value):
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
        self.value.append(value)
        return node_id

    def _set_split(self, node_id, feat, thr, decrease, tied):
        share = decrease / len(tied)
        for t in tied:
            self.importances_[t] += share
        self.feature[node_id] = feat
        self.threshold[node_id] = thr

    def _leaf_value(self, y_node):
        if self.criterion == "gini":
            return np.bincount(y_node, minlength=self.n_classes).astype(np.float64)
        return float(y_node.mean()) if y_node.size else 0.0

    def _best_split(self, X, y, rows, feats):
        n = rows.size
        block = X[np.ix_(rows, feats)]
        order = np.argsort(block, axis=0, kind="stable")
        xs = np.take_along_axis(block, order, axis=0)

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

    def _finalize(self):
        self._feat = np.array(self.feature, dtype=np.int64)
        self._thr = np.array(self.threshold, dtype=np.float64)
        self._left = np.array(self.left, dtype=np.int64)
        self._right = np.array(self.right, dtype=np.int64)
        if self.criterion == "gini":
            self._val = np.vstack([v for v in self.value]) if self.value else np.empty((0, 0))
        else:
            self._val = np.array(self.value, dtype=np.float64)

    def predict(self, X):
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


class _Node:
    def __init__(self, value):
        self.value = value
        self.split = None  # (feature, threshold, decrease, tied features)
        self.children = ()


class KeyedTree(DecisionTree):
    def __init__(self, criterion="variance", max_depth=None, max_features=None):
        super().__init__(criterion, max_depth)
        self.max_features = max_features

    def fit(self, X, y, key):
        X, y, depth_cap = self._prepare(X, y)
        k = X.shape[1] if self.max_features is None else self.max_features
        level = [self._grow(X, y, np.arange(X.shape[0]), 0, key, depth_cap, k)]
        while level:  # breadth first: a node's id is its place in this order
            for node in level:
                node_id = self._add_node(-1, False, node.value)
                if node.split is not None:
                    self._set_split(node_id, *node.split)
            level = [child for node in level for child in node.children]
        # so the split nodes' children are nodes 1, 2, 3, ... in their parents' order
        next_child = 1
        for node_id, feat in enumerate(self.feature):
            if feat >= 0:
                self.left[node_id], self.right[node_id] = next_child, next_child + 1
                next_child += 2
        self._finalize()
        return self

    def _grow(self, X, y, rows, depth, key, depth_cap, k):
        node = _Node(self._leaf_value(y[rows]))
        if depth >= depth_cap or rows.size < 2:
            return node
        node.split = self._best_split(X, y, rows, keyed_candidates(key, X.shape[1], k))
        if node.split is not None:
            feat, thr = node.split[:2]
            mask = X[rows, feat] <= thr
            node.children = (
                self._grow(X, y, rows[mask], depth + 1, splitmix64(key, 1), depth_cap, k),
                self._grow(X, y, rows[~mask], depth + 1, splitmix64(key, 2), depth_cap, k),
            )
        return node


class RandomForest:
    def __init__(self, task="regression", n_trees=100, max_depth=None, seed=0):
        self.task = task
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.seed = int(seed)
        self.trees = []
        self.n_classes = 0
        self.importances_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        criterion = "gini" if self.task == "classification" else "variance"
        if self.task == "classification":
            y = np.asarray(y, dtype=np.int64)
            self.n_classes = int(y.max()) + 1
        else:
            y = np.asarray(y, dtype=np.float64)
        k = max(1, int(np.sqrt(d)))

        children = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        raw_importance = np.zeros(d)
        for child in children:
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, size=n)
            key = int(rng.integers(2**64, dtype=np.uint64))
            tree = KeyedTree(criterion=criterion, max_depth=self.max_depth, max_features=k)
            if self.task == "classification":
                tree.n_classes = self.n_classes
            tree.fit(X[rows], y[rows], key)
            raw_importance += tree.importances_
            self.trees.append(tree)
        total = raw_importance.sum()
        self.importances_ = raw_importance / total if total > 0 else np.full(d, 1.0 / d)
        return self

    def predict(self, X):
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
    def __init__(self, n_trees=100, max_depth=4):
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.base_ = 0.0
        self.trees = []
        self.train_losses_ = []

    def fit(self, X, y):
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

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        acc = np.full(X.shape[0], self.base_)
        for tree in self.trees:
            acc += LEARNING_RATE * tree.predict(X)
        return acc
