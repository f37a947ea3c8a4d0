"""CART-style decision trees shared by the forests, boosting and the selector.

A node is split whenever it has two or more rows, lies above the depth cap
and some split reduces impurity, so a leaf may hold a single row. Trees
have one criterion: a split maximizes the variance reduction, i.e.
sum(left)**2/n_left + sum(right)**2/n_right, and a leaf holds the mean
target. On the 0/1 occupancy indicator that is half the two-class Gini
decrease (Breiman et al., CART, 1984). Thresholds are stored as the largest
value routed left and compared with ``<=``, which avoids the floating-point
pitfalls of midpoints.

Feature importance: when several candidate features tie exactly for the best
split (e.g. duplicated columns), the impurity decrease is credited equally to
all of them and the split uses the lowest feature index. This keeps
importances symmetric under feature duplication while staying deterministic.

Trees grow in one of two ways, with the same rules:

* ``DecisionTree.fit`` grows one tree depth first on all features. Per
  node, the columns are gathered into an (n, d) block, column-sorted, and
  every boundary is scored from prefix sums over the sorted rows. Gradient
  boosting fits its trees this way.
* ``grow_forest`` grows all trees of a random forest in lockstep. Each
  column gets rank codes once per fit: a row's code is the rank of its value
  among the column's distinct values, so every distinct value keeps its own
  bin and thresholds stay exact (the exact greedy search on sorted column
  blocks of XGBoost, Chen & Guestrin, KDD 2016). Trees keep their rows as
  row ids into the forest's ``X``. Each step pops the next depth-first node
  of every unfinished tree, draws that node's candidate features from the
  tree's own generator, and scores all popped nodes at once: one
  ``np.bincount`` over (node, feature, code) keys counts the rows per bin,
  one weighted ``np.bincount`` sums their targets, and a cumsum along the
  codes gives every boundary's score. Since each tree still visits its
  nodes depth first, every generator draw is the one that growing the trees
  one by one would make. A step's search is cut into chunks so that neither
  their rows x features nor their nodes x features x codes exceed
  ``_CHUNK_CELLS``, which keeps each temporary array within 256 KiB; a
  chunk holds at least one node, so only a single node larger than the
  bound exceeds it. A node's cost is linear in its rows plus the codes of
  its widest candidate column.

Exactness: on integer-valued targets (head counts, the 0/1 occupancy
indicator) every bin sum and prefix sum is an exact integer, so the
lockstep forest equals the depth-first, sort-based growth bit for bit:
features, thresholds, children, leaf values and importances (this holds
while the sums stay below 2**53).
On fractional targets the bin sums re-associate the additions and a
near-tie may break the other way. That is why boosting, whose residuals are
fractional, keeps the sorted search: grown on bin sums, its 45 Hz
counting-features CV RMSE moved from 0.1033 to 0.0841.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

_NO_GAIN = 1e-12
# Bound on the cells of one chunk of a batched split search (see the module docstring).
_CHUNK_CELLS = 1 << 15


class DecisionTree:
    """One fitted tree: variance-reduction splits, leaf means."""

    def __init__(self, max_depth: int | None = None):
        self.max_depth = max_depth
        # Parallel node arrays, filled during fit.
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.importances_: np.ndarray | None = None

    # -- fitting ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        """Grow the tree depth first, searching every feature at every node."""
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        self.importances_ = np.zeros(d)
        y = np.asarray(y, dtype=np.float64)

        depth_cap = self.max_depth if self.max_depth is not None else np.inf
        stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(n), 0, -1, False)]
        while stack:
            rows, depth, parent, is_right = stack.pop()
            node_id = self._add_node(parent, is_right)
            self.value[node_id] = float(y[rows].mean()) if rows.size else 0.0

            if depth >= depth_cap or rows.size < 2:
                continue
            split = self._best_split(X, y, rows)
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

    def _add_node(self, parent: int, is_right: bool) -> int:
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
        self.value.append(0.0)
        return node_id

    def _best_split(self, X, y, rows):
        n = rows.size
        block = X[rows]
        order = np.argsort(block, axis=0, kind="stable")
        xs = np.take_along_axis(block, order, axis=0)

        # valid split positions: strictly increasing neighbours
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            return None

        cum = np.cumsum(y[rows][order], axis=0)
        total = cum[-1, 0]
        score = cum[:-1] ** 2 / left_n[:, None] + (total - cum[:-1]) ** 2 / right_n[:, None]
        parent_score = total**2 / n

        score = np.where(valid, score, -np.inf)
        col_best_pos = np.argmax(score, axis=0)
        col_best = score[col_best_pos, np.arange(X.shape[1])]
        best = col_best.max()
        decrease = best - parent_score
        if not np.isfinite(best) or decrease <= _NO_GAIN * max(1.0, abs(parent_score)):
            return None
        tied = np.flatnonzero(col_best == best)
        feat = int(tied[0])
        threshold = float(xs[col_best_pos[feat], feat])
        return feat, threshold, float(decrease), tied

    def _finalize(self) -> None:
        self._feat = np.array(self.feature, dtype=np.int64)
        self._thr = np.array(self.threshold, dtype=np.float64)
        self._left = np.array(self.left, dtype=np.int64)
        self._right = np.array(self.right, dtype=np.int64)
        self._val = np.array(self.value, dtype=np.float64)

    # -- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The leaf mean of each row.

        All rows descend together, one level per pass: each pass moves every
        row that sits at an inner node to the child its value selects.
        """
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            feat = self._feat[at]
            inner = feat >= 0
            rows, at, feat = rows[inner], at[inner], feat[inner]
            goes_left = X[rows, feat] <= self._thr[at]
            node[rows] = np.where(goes_left, self._left[at], self._right[at])
        return self._val[node]


def grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_depth: int | None,
    max_features: int,
) -> list[DecisionTree]:
    """Grow one tree per generator, all in lockstep (see the module docstring).

    Generator i first draws tree i's bootstrap sample of the rows of ``X``,
    then ``max_features`` candidate features per split.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    search = _LockstepSearch(X, np.asarray(y, dtype=np.float64), len(rngs))
    draw = max_features < d
    k = max_features if draw else d
    depth_cap = max_depth if max_depth is not None else np.inf

    trees, stacks = [], []
    for t, rng in enumerate(rngs):
        tree = DecisionTree(max_depth)
        tree.importances_ = search.importances[t]
        trees.append(tree)
        stacks.append([(rng.integers(0, n, size=n).astype(np.int32), 0, -1, False)])

    growing = list(range(len(trees)))
    while growing:
        leaves, nodes, feats = [], [], []
        for t in growing:
            rows, depth, parent, is_right = stacks[t].pop()
            node = _Node(t, trees[t]._add_node(parent, is_right), rows, depth)
            if depth >= depth_cap or rows.size < 2:
                leaves.append(node)
                continue
            nodes.append(node)
            feats.append(rngs[t].choice(d, size=k, replace=False) if draw else np.arange(d))
        search.leaf_values(trees, leaves)
        if nodes:
            sorted_feats = np.sort(feats, axis=1)
            for t, node_id, depth, left, right in search.splits(trees, nodes, sorted_feats):
                stacks[t].append((right, depth + 1, node_id, True))
                stacks[t].append((left, depth + 1, node_id, False))
        growing = [t for t in growing if stacks[t]]
    for tree in trees:
        tree._finalize()
    return trees


class _Node(NamedTuple):
    """A node popped in this step: its tree's index, its id in that tree, its rows."""

    tree: int
    node_id: int
    rows: np.ndarray
    depth: int


class _LockstepSearch:
    """The rank codes of one forest fit and the batched search over them."""

    def __init__(self, X: np.ndarray, y: np.ndarray, n_trees: int):
        self.values = [np.unique(column) for column in X.T]
        self.widths = np.array([v.size for v in self.values])
        # codes[j * n + i]: rank of X[i, j] among the distinct values of column j
        self.codes = np.empty(X.size, dtype=np.min_scalar_type(max(self.widths, default=0)))
        for j, values in enumerate(self.values):
            self.codes[j * X.shape[0] : (j + 1) * X.shape[0]] = np.searchsorted(values, X[:, j])
        # np.unique sorts NaN last; no boundary may fall between a real value and NaN.
        self.real_codes = np.array([np.searchsorted(v, np.nan) for v in self.values])
        self.n = X.shape[0]
        self.y = y
        self.importances = np.zeros((n_trees, X.shape[1]))  # row t: tree t's importances_

    def leaf_values(self, trees: list[DecisionTree], leaves: list[_Node]) -> None:
        """Set the value of each node in ``leaves``."""
        sizes = [leaf.rows.size for leaf in leaves]
        for start, stop in _chunks(sizes, [0] * len(sizes)):
            batch = leaves[start:stop]
            nid, rows = _lay_out(batch)
            self._set_values(trees, batch, nid, self.y[rows])

    def _set_values(self, trees, nodes, nid, y) -> None:
        n_nodes = len(nodes)
        sums = np.bincount(nid, weights=y, minlength=n_nodes)
        values = (sums / np.maximum(np.bincount(nid, minlength=n_nodes), 1)).tolist()
        for node, value in zip(nodes, values):
            trees[node.tree].value[node.node_id] = value

    def splits(self, trees: list[DecisionTree], nodes: list, feats: np.ndarray) -> list:
        """Value, search and split each node in ``nodes``.

        ``feats[i]`` holds node i's candidate features in ascending order.
        Returns (tree index, node id, depth, left rows, right rows) per split.
        ``nodes`` is emptied chunk by chunk, so that a node's rows are freed
        once its children hold them.
        """
        k = feats.shape[1]
        widest = self.widths[feats].max(axis=1) * k
        sizes = [node.rows.size * k for node in nodes]
        found = []
        for start, stop in _chunks(sizes, widest.tolist()):
            batch = nodes[start:stop]
            nodes[start:stop] = [None] * len(batch)
            found += self._search(trees, batch, feats[start:stop])
        return found

    def _search(self, trees: list[DecisionTree], nodes: list[_Node], feats: np.ndarray) -> list:
        n_nodes, k = feats.shape
        nid, rows = _lay_out(nodes)
        y = self.y[rows]
        self._set_values(trees, nodes, nid, y)

        width = int(self.widths[feats].max())
        at, boundary_score, parent_score = self._boundary_scores(nid, rows, y, feats, width)
        score = np.full((k, n_nodes, width), -np.inf)
        score.ravel()[at] = boundary_score
        # first maxima: the lowest threshold code, then the lowest feature index
        col_best_pos = np.argmax(score, axis=2)
        col_best = np.take_along_axis(score, col_best_pos[..., None], axis=2)[..., 0]
        best = col_best.max(axis=0)
        decrease = best - parent_score
        gains = np.isfinite(best) & (decrease > _NO_GAIN * np.maximum(1.0, np.abs(parent_score)))
        tied = col_best == best
        chosen = np.argmax(tied, axis=0)
        node_range = np.arange(n_nodes)
        split_feat = feats[node_range, chosen]
        split_code = col_best_pos[chosen, node_range]
        goes_left = self.codes[(split_feat * self.n)[nid] + rows] <= split_code[nid]

        # Each tree has one node per step, so no (tree, feature) pair repeats.
        split_nodes = np.flatnonzero(gains)
        slot, at_split = np.nonzero(tied[:, split_nodes])
        shares = decrease[split_nodes] / tied[:, split_nodes].sum(axis=0)
        tree_ids = np.array([node.tree for node in nodes])[split_nodes]
        self.importances[tree_ids[at_split], feats[split_nodes[at_split], slot]] += shares[at_split]

        found = []
        ends = np.cumsum([node.rows.size for node in nodes]).tolist()
        for i, feat, code in zip(split_nodes.tolist(), split_feat[split_nodes].tolist(),
                                 split_code[split_nodes].tolist()):
            node = nodes[i]
            trees[node.tree].feature[node.node_id] = feat
            trees[node.tree].threshold[node.node_id] = float(self.values[feat][code])
            start = ends[i - 1] if i else 0
            node_rows, mask = rows[start : ends[i]], goes_left[start : ends[i]]
            found.append((node.tree, node.node_id, node.depth, node_rows[mask], node_rows[~mask]))
        return found

    def _boundary_scores(self, nid, rows, y, feats, width):
        """Score every boundary of every node's candidate features.

        Bins are (candidate slot, node, code). Returns the flat index of
        each boundary's bin, its score, and each node's parent score.
        """
        n_nodes, k = feats.shape
        slot_bins = n_nodes * width
        # keys[s]: each row's bin for its node's candidate feature in slot s
        offsets = feats * self.n
        base = nid * width
        keys = np.empty((k, rows.size), dtype=np.intp)
        for s in range(k):
            np.add(base, self.codes[offsets[nid, s] + rows], out=keys[s])
            keys[s] += s * slot_bins
        keys = keys.ravel()
        counts = np.bincount(keys, minlength=k * slot_bins).reshape(k, n_nodes, width)
        cum = np.bincount(keys, weights=np.tile(y, k), minlength=counts.size).reshape(counts.shape)
        present = counts > 0
        left_n = np.cumsum(counts, axis=2, out=counts)  # in place: bins dominate memory
        np.cumsum(cum, axis=2, out=cum)
        n = left_n[0, :, -1]
        # a boundary follows a code present in the node and precedes a larger real value
        n_real = np.take_along_axis(left_n, self.real_codes[feats].T[..., None] - 1, axis=2)
        at = np.flatnonzero(present & (left_n < n_real))
        at_node = at // width % n_nodes
        left = left_n.ravel()[at].astype(np.float64)
        right = n[at_node] - left
        total = cum[0, :, -1]
        left_sum = cum.ravel()[at]
        score = left_sum**2 / left + (total[at_node] - left_sum) ** 2 / right
        return at, score, total**2 / n


def _lay_out(nodes: list[_Node]) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the nodes laid end to end, the index of its node, and the rows."""
    sizes = [node.rows.size for node in nodes]
    return np.repeat(np.arange(len(nodes)), sizes), np.concatenate([node.rows for node in nodes])


def _chunks(row_cells: list[int], node_cells: list[int]):
    """Cut consecutive nodes into runs (start, stop) under ``_CHUNK_CELLS``.

    A run costs the sum of its row cells and, for its bins, its node count
    times its largest node cells. A run holds at least one node.
    """
    start, rows, widest = 0, 0, 0
    for i, (r, w) in enumerate(zip(row_cells, node_cells)):
        rows, widest = rows + r, max(widest, w)
        if i > start and (rows > _CHUNK_CELLS or (i - start + 1) * widest > _CHUNK_CELLS):
            yield start, i
            start, rows, widest = i, r, w
    if row_cells:
        yield start, len(row_cells)
