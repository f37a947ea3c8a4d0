"""CART-style regression trees shared by the forests, boosting and the selector.

A node is split whenever it has two or more distinct rows, lies above the
depth cap and some split reduces impurity, so a leaf may hold a single row
(copies of one row have no boundary between them). Trees have one
criterion: a split maximizes the variance reduction, i.e.
sum(left)**2/n_left + sum(right)**2/n_right, and a leaf holds the mean
target. On the 0/1 occupancy indicator that is half the two-class Gini
decrease (Breiman et al., CART, 1984). Thresholds are stored as the largest
value routed left and compared with ``<=``, which avoids the floating-point
pitfalls of midpoints.

Feature importance: when several candidate features tie exactly for the best
split (e.g. duplicated columns), the impurity decrease is credited equally to
all of them and the split uses the lowest feature index. This keeps
importances symmetric under feature duplication while staying deterministic.

One grower, ``grow_trees``, grows every tree: a batch of trees together,
level by level, each on its own distinct rows of one matrix. Each row
carries an integer weight, its multiplicity, and a tree grows on a row of
weight w as on w copies of it: the sizes and sums above count and add rows
by weight. ``_LevelSearch`` gives each column of the matrix rank codes
once: a row's code is the rank of its value among the column's distinct
values, so every distinct value keeps its own bin and thresholds stay exact
(the exact greedy search on sorted column blocks of XGBoost, Chen &
Guestrin, KDD 2016). A level's open nodes (two or more distinct rows, above
the depth cap) keep their rows as row ids into the matrix, end to end in
one buffer, and the rows' weights in a second; both take the smallest
unsigned dtype that holds the matrix's row count. One search scores them
all: a weighted ``np.bincount`` over (node, candidate, code) keys adds the
row weights per bin, a second one their weighted targets, and prefix sums
over the occupied bins score every boundary. Then each split node's rows
are reordered in place, left child before right, by a stable sort of their
child numbers in the smallest unsigned dtype (numpy radix-sorts keys of 16
bits or fewer), and rows of children that cannot split are dropped. A
matrix with no columns has no candidates, so each tree is one leaf.

Keyed draws: a tree starts from a 64-bit root key. A node's key is a
splitmix64 state (Steele, Lea & Flood, OOPSLA 2014): its first output is the
left child's key, its second the right child's, and the next d are the keys
of the d features; the node's candidates are the ``max_features`` features
with the smallest keys. Like Random123's counter-based generators (Salmon et
al., SC 2011), a node's draw depends on its path from the root, not on the
order nodes are visited. So the trees equal those grown node by node, depth
first, from the same keys, and a tree capped at depth d is the deeper tree
of its key cut at d. A random forest (``grow_forest``) grows each tree on a
bootstrap sample, drawn by the tree's generator before its root key, as the
sample's distinct rows weighted by their multiplicities (Breiman, Random
Forests, 2001); n draws hold about 63% distinct rows. Gradient boosting
grows one tree per round on all rows, each of weight 1, with every feature a
candidate, so its key draws nothing. A tree's nodes are numbered breadth
first, each split node's children left then right in their parents' order;
importances add shares in that order.

A level's search is cut into chunks of consecutive nodes whose distinct rows
x candidates plus bins stay within ``_CHUNK_CELLS``, so that each temporary
array stays within 256 KiB; a (node, candidate) pair has one bin per
distinct value of its column. A chunk holds at least one node, so only a
single node larger than the bound exceeds it.

A node's target sum comes down from its parent's level. ``np.bincount`` adds
its weights one by one in input order, and the parent's partition adds each
child's weighted targets in the order that the stable sort keeps in the
buffer, so a child's sum there has the bits of a fresh ``np.bincount`` over
its rows at its own level; only the roots add their rows anew. A level keeps
each chunk's child sums and totals, and divides them into values once, after
concatenation, so carrying the sums adds no per-node array per chunk; the
last level's per-node arrays are freed before the trees are assembled, whose
arrays set the grower's peak memory. A chunk compresses its rows only when
some are dropped: the rows of its nodes that do not split, and then of
children with one distinct row. Where every node splits and every child
keeps two or more distinct rows, as in most chunks of a forest, the rows go
to the stable sort as they are. A row that is dropped leaves at a leaf, and
``grow_trees`` can record that leaf's value per row (a root's value where the
row never goes below it): for boosting's one tree per round that is the
tree's prediction on its training rows, the float the descent returns.

Exactness: on integer-valued targets (head counts, the 0/1 occupancy
indicator) every weight, bin sum and prefix sum is an exact integer, so a
forest equals the depth-first, sort-based growth on its bootstrap samples,
copies and all, bit for bit: features, thresholds, children, leaf values and
importances (while a chunk's weighted target sums stay below 2**53). On
fractional targets, such as boosting's residuals, the bin sums re-associate
the additions and the prefix sums run across a chunk's (node, candidate)
pairs. Each split is still a greedy optimum up to that rounding, but a
near-tie between candidate splits may break the other way than in a sorted
search, and which way depends on how the nodes fall into chunks. So a change
to ``_CHUNK_CELLS`` may move boosting's output: at 45 Hz, a bound of 1 moves
its counting-features CV RMSE from 0.0847 to 0.0794.

Prediction: every tree prediction is one call to ``leaf_sum``, which adds
``scale`` times each tree's leaf value to ``base`` per row: one tree with
``base`` -0.0 (``-0.0 + v`` is ``v``, signed zeros included), a forest's
sum, and boosting's base plus its shrunken rounds. The trees' nodes lie end
to end in one child table, where a leaf's children are itself, and each pass
moves all (tree, row) pairs of a chunk of rows by one gather-compare-gather
step: right where the row's value is not ``<=`` the threshold (NaN goes
right), and a pair at a leaf stays. After as many passes as the deepest tree
has levels (``DecisionTree.depth``), every pair is at its leaf. A chunk
holds at most ``_CHUNK_CELLS`` pairs, or one row, and its leaf values are
added tree by tree, so sums keep the bits of a per-tree loop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_NO_GAIN = 1e-12
# Bound on the cells of one chunk of a batched split search (see the module docstring).
_CHUNK_CELLS = 1 << 15
# splitmix64's state increment and output multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_CHILDREN = np.array([1, 2], dtype=np.uint64)  # output numbers of the left and right child keys


class DecisionTree:
    """One fitted tree: per node, a split feature (-1 at a leaf), threshold, children, value."""

    def __init__(self, feature, threshold, left, right, value, importances, depth):
        self.feature, self.threshold = feature, threshold
        self.left, self.right, self.value = left, right, value
        self.importances_, self.depth = importances, depth  # depth: its deepest leaf's level

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The leaf value of each row."""
        return leaf_sum([self], X, base=-0.0)


def leaf_sum(trees: Sequence[DecisionTree], X: np.ndarray, base: float = 0.0,
             scale: float = 1.0) -> np.ndarray:
    """Per row of ``X``, ``base`` plus ``scale`` times each tree's leaf value, in tree order."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    columns = X.T.ravel()  # X[i, j] is columns[j * n + i]
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum(sizes) - sizes
    child = np.repeat(np.arange(sum(sizes)), 2)  # a leaf's children are itself
    column_start = np.zeros(child.size // 2, dtype=np.intp)
    threshold_or_value = np.concatenate([tree.value for tree in trees])
    for tree, root in zip(trees, roots):  # node i's children: child[2 * i] (left), child[2 * i + 1]
        (inner,) = np.nonzero(tree.feature >= 0)
        child.reshape(-1, 2)[root + inner] = np.column_stack((tree.left, tree.right))[inner] + root
        column_start[root + inner] = tree.feature[inner] * n
        threshold_or_value[root + inner] = tree.threshold[inner]  # a leaf keeps its value
    passes = max(tree.depth for tree in trees)
    total = np.full(n, base)
    step = max(1, _CHUNK_CELLS // len(trees))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        at, row = np.repeat(roots, rows.size), np.tile(rows, len(trees))
        for _ in range(passes):
            right = ~(columns[column_start[at] + row] <= threshold_or_value[at])
            at = child[2 * at + right]
        part = total[start : start + rows.size]
        for tree_values in threshold_or_value[at].reshape(len(trees), -1):
            part += scale * tree_values
    return total


def grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_depth: int | None,
    max_features: int,
) -> list[DecisionTree]:
    """Grow one tree per generator on its bootstrap sample (see ``grow_trees``).

    Generator i draws tree i's bootstrap sample of the rows of ``X``, then
    the tree's root key. The tree grows on the sample's distinct rows,
    ascending, each weighted by the number of times it was drawn.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    dtype = np.min_scalar_type(n)  # holds every row id and multiplicity
    rows, weights = [], []
    keys = np.empty(len(rngs), dtype=np.uint64)
    for t, rng in enumerate(rngs):
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        distinct = np.flatnonzero(drawn > 0)
        rows.append(distinct.astype(dtype))
        weights.append(drawn[distinct].astype(dtype))
        keys[t] = rng.integers(2**64, dtype=np.uint64)
    sizes = np.array([tree_rows.size for tree_rows in rows])
    rows, weights = np.concatenate(rows), np.concatenate(weights)  # the trees' rows, end to end
    y = np.asarray(y, dtype=np.float64)
    return grow_trees(_LevelSearch(X), y, rows, weights, sizes, keys, max_depth, max_features)


def grow_trees(
    search: _LevelSearch,
    y: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    keys: np.ndarray,
    max_depth: int | None,
    max_features: int,
    leaf_value: np.ndarray | None = None,
) -> list[DecisionTree]:
    """Grow one tree per root key, all level by level (see the module docstring).

    ``rows`` holds each tree's distinct rows of the searched matrix, tree by
    tree, ``sizes[t]`` of them for tree t, and ``weights`` each row's
    integer multiplicity; both are overwritten. ``y`` is the target of every
    row of the matrix. Each split node searches ``max_features`` candidate
    features drawn from its key. If ``leaf_value`` is given, the value of
    the leaf each row of ``rows`` ends in is written to ``leaf_value[row]``:
    for one tree, the tree's prediction on those rows.
    """
    n_trees, d = keys.size, search.widths.size
    k = min(max_features, d)
    depth_cap = max_depth if max_depth is not None else np.inf
    importances = np.zeros(n_trees * d)  # [t * d + j]: tree t, feature j

    tree = np.arange(n_trees)
    value, sums, totals = np.empty(n_trees), np.empty(n_trees), np.empty(n_trees)
    start = written = 0
    for t, size in enumerate(sizes):
        tree_rows, tree_weights = rows[start : start + size], weights[start : start + size]
        tree_wy = tree_weights * y[tree_rows]
        totals[t] = tree_weights.sum()
        value[t] = np.sum(tree_wy) / totals[t]
        # a node's target sum adds its rows' weighted targets one by one, in row order,
        # as np.bincount does; so do its children's, which each level carries down
        sums[t] = np.bincount(np.zeros(size, dtype=np.intp), weights=tree_wy, minlength=1)[0]
        if leaf_value is not None:
            leaf_value[tree_rows] = value[t]  # where the row goes below the root, overwritten
        start += size
        if size >= 2:  # a root with one distinct row never opens, so its row leaves the buffer
            rows[written : written + size] = tree_rows
            weights[written : written + size] = tree_weights
            written += size
    rows, weights = rows[:written], weights[:written]

    levels = []  # per level and node: tree index, value, split feature, threshold
    depth = 0
    while tree.size:
        feature, threshold = np.full(tree.size, -1), np.zeros(tree.size)
        levels.append((tree, value, feature, threshold))
        # with no columns there are no candidates, and every tree is one leaf
        open_nodes = np.flatnonzero((sizes >= 2) & (depth < depth_cap) & (k > 0))
        if not open_nodes.size:
            break
        keep = depth + 1 < depth_cap
        found, sums, sizes, totals = search.split_level(
            y, importances, rows, weights, sizes[open_nodes], sums[open_nodes],
            totals[open_nodes], tree[open_nodes], _candidates(keys[open_nodes], d, k), keep,
            None if leaf_value is None else value[open_nodes], leaf_value,
        )
        value = sums / totals
        feature[open_nodes], threshold[open_nodes] = found
        split = open_nodes[feature[open_nodes] >= 0]
        tree = np.repeat(tree[split], 2)
        keys = _splitmix(keys[split, None], _CHILDREN).ravel()
        kept = sizes[sizes >= 2].sum() if keep else 0
        rows, weights = rows[:kept], weights[:kept]
        depth += 1
    del keys, sizes, sums, totals  # the last level's; the trees' arrays set the peak memory
    return _trees(levels, importances.reshape(n_trees, d))


def _splitmix(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output number ``counters`` (1 is the first) of splitmix64 from state ``keys``.

    Both are uint64 arrays and broadcast; the arithmetic wraps modulo 2**64.
    """
    z = keys + counters * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    return z ^ (z >> np.uint64(31))


def _candidates(keys: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per node key, the k features with the smallest feature keys, ascending."""
    if k >= d:
        return np.broadcast_to(np.arange(d), (keys.size, d))
    counters = np.arange(3, d + 3, dtype=np.uint64)
    feats = np.empty((keys.size, k), dtype=np.intp)
    step = max(1, _CHUNK_CELLS // d)
    for start in range(0, keys.size, step):
        feature_keys = _splitmix(keys[start : start + step, None], counters)
        feats[start : start + step] = np.argpartition(feature_keys, k - 1, axis=1)[:, :k]
    feats.sort(axis=1)
    return feats


def _trees(levels: list, importances: np.ndarray) -> list[DecisionTree]:
    """Each tree's node arrays, numbered breadth first, from the per-level node arrays."""
    tree, value, feature, threshold = (np.concatenate(column) for column in zip(*levels))
    # the q-th split node of a level has children 2q and 2q + 1 of the next level
    starts = np.cumsum([0] + [level[0].size for level in levels])
    node_depth = np.repeat(np.arange(len(levels)), np.diff(starts))  # a tree's last is deepest
    left = np.full(tree.size, -1)
    for start, stop, (_, _, level_feature, _) in zip(starts, starts[1:], levels):
        split = np.flatnonzero(level_feature >= 0)
        left[start + split] = stop + 2 * np.arange(split.size)

    order = np.argsort(tree, kind="stable")  # tree by tree, each breadth first
    position = np.argsort(order)
    trees = []
    for t, nodes in enumerate(np.split(order, np.cumsum(np.bincount(tree))[:-1])):
        tree_left = np.where(left[nodes] >= 0, position[left[nodes]] - position[nodes[0]], -1)
        tree_right = np.where(tree_left >= 0, tree_left + 1, -1)
        trees.append(DecisionTree(feature[nodes], threshold[nodes], tree_left, tree_right,
                                  value[nodes], importances[t], int(node_depth[nodes[-1]])))
    return trees


class _LevelSearch:
    """The rank codes of a matrix ``X``, and the batched split search over them."""

    def __init__(self, X: np.ndarray):
        values = [np.unique(column) for column in X.T]
        self.widths = np.array([v.size for v in values])
        # column j's distinct values, ascending, start at value_start[j]
        self.values = np.concatenate(values) if values else np.empty(0)
        self.value_start = np.cumsum(self.widths) - self.widths
        # codes[j * n + i]: rank of X[i, j] among the distinct values of column j
        self.codes = np.empty(X.size, dtype=np.min_scalar_type(max(self.widths, default=0)))
        for j, column in enumerate(values):
            self.codes[j * X.shape[0] : (j + 1) * X.shape[0]] = np.searchsorted(column, X[:, j])
        # np.unique sorts NaN last; no boundary may fall between a real value and NaN.
        self.real_codes = np.array([np.searchsorted(v, np.nan) for v in values])
        self.n = X.shape[0]

    def split_level(self, y, importances, rows, weights, sizes, sums, totals, tree, feats,
                    keep: bool, value, leaf_value):
        """Search and split a level's open nodes, whose rows lie end to end in ``rows``.

        ``y`` is the target of every row and ``weights`` the multiplicity of
        each row in ``rows``; node i has ``sizes[i]`` distinct rows, weighted
        target sum ``sums[i]``, total weight ``totals[i]`` and value
        ``value[i]``, its candidate features ``feats[i]`` in ascending order,
        and its tree ``tree[i]``; each split adds its decrease to
        ``importances[tree * d + feature]``. Returns each node's split feature
        (-1 where no split gains) and threshold, then each split node's left
        and right child's weighted target sum, distinct-row count and total
        weight, interleaved. If ``keep``, ``rows`` and ``weights`` are
        rewritten in place to hold the rows of the children with two or more
        distinct rows, in child order. If ``leaf_value`` is not None, each row
        that ends in a leaf here (of a node that does not split, or of a
        child that is not kept) has that leaf's value written to it.
        """
        k = feats.shape[1]
        feature, threshold = np.full(sizes.size, -1), np.zeros(sizes.size)
        children = []  # per chunk: its children's sums, sizes and totals
        starts = np.concatenate(([0], np.cumsum(sizes)))
        written = 0
        for a, b in _chunks(sizes * k + self.widths[feats].sum(axis=1)):
            node_rows, node_w = rows[starts[a] : starts[b]], weights[starts[a] : starts[b]]
            nid = np.repeat(np.arange(b - a), sizes[a:b])
            node_wy = node_w * y[node_rows]
            split, split_feat, split_code = self._search(
                importances, node_rows, node_w, node_wy, feats[a:b], tree[a:b], sizes[a:b],
                sums[a:b], totals[a:b],
            )
            feature[a:b][split] = split_feat
            threshold[a:b][split] = self.values[self.value_start[split_feat] + split_code]

            # a row of the q-th split node goes to child 2q (left) or 2q + 1 (right)
            q = nid
            if split_feat.size < b - a:  # drop the rows of the nodes that do not split
                moved = split[nid]
                if leaf_value is not None:
                    leaf_value[node_rows[~moved]] = value[a:b][nid[~moved]]
                q = (np.cumsum(split) - 1)[nid[moved]]
                node_rows, node_w, node_wy = node_rows[moved], node_w[moved], node_wy[moved]
            child = 2 * q + (self.codes[split_feat[q] * self.n + node_rows] > split_code[q])
            n_children = 2 * split_feat.size
            counts = np.bincount(child, minlength=n_children)
            child_totals = np.bincount(child, weights=node_w, minlength=n_children)
            child_sums = np.bincount(child, weights=node_wy, minlength=n_children)
            children.append((child_sums, counts, child_totals))
            if not keep:  # at the depth cap every child is a leaf
                if leaf_value is not None:
                    leaf_value[node_rows] = (child_sums / child_totals)[child]
                continue
            if np.any(counts < 2):  # drop the rows of the children with one distinct row
                stays = counts[child] >= 2
                if leaf_value is not None:
                    leaf_value[node_rows[~stays]] = (child_sums / child_totals)[child[~stays]]
                child, node_rows, node_w = child[stays], node_rows[stays], node_w[stays]
            # a stable sort on keys of 16 bits or fewer is a radix sort
            order = np.argsort(child.astype(np.min_scalar_type(n_children)), kind="stable")
            end = written + order.size  # never past this chunk's rows
            rows[written:end] = node_rows[order]
            weights[written:end] = node_w[order]
            written = end
        child_sums, counts, child_totals = (np.concatenate(column) for column in zip(*children))
        return (feature, threshold), child_sums, counts, child_totals

    def _search(self, importances, rows, w, wy, feats, tree, sizes, sums, totals):
        """The best split of each node of a chunk, and the importance of its decrease.

        Returns which nodes split, and the feature and threshold code of each
        split, in node order.
        """
        col_best, col_code = self._boundary_scores(rows, w, wy, feats, sums, sizes, totals)
        # first maxima: the lowest threshold code, then the lowest feature index
        best = col_best.max(axis=1)
        parent_score = sums**2 / totals
        decrease = best - parent_score
        gains = np.isfinite(best) & (decrease > _NO_GAIN * np.maximum(1.0, np.abs(parent_score)))
        split = np.flatnonzero(gains)
        tied = col_best[split] == best[split, None]
        chosen = np.argmax(tied, axis=1)

        at_split, slot = np.nonzero(tied)  # node by node, so each tree's shares add in node order
        shares = decrease[split] / tied.sum(axis=1)
        flat = tree[split[at_split]] * self.widths.size + feats[split[at_split], slot]
        np.add.at(importances, flat, shares[at_split])
        return gains, feats[split, chosen], col_code[split, chosen]

    def _boundary_scores(self, rows, w, wy, feats, sums, sizes, totals):
        """Score every boundary of every node's candidate features.

        Bins are (node, candidate slot, code), each pair with its column's
        width; a bin counts the weight of its rows and sums their weighted
        targets. Returns, per node and slot, the best boundary's score (-inf
        where the column has none) and its code, the lowest among equal
        scores.
        """
        n_nodes, k = feats.shape
        widths = self.widths[feats].ravel()  # pair p = node * k + slot
        pair_start = np.cumsum(widths) - widths
        n_bins = int(widths.sum())
        # keys[s]: each row's bin for its node's candidate feature in slot s; rows lie node by node
        keys = np.repeat(pair_start.reshape(n_nodes, k).T, sizes, axis=1)
        keys += self.codes[np.repeat((feats * self.n).T, sizes, axis=1) + rows]
        keys = keys.ravel()
        counts = np.bincount(keys, weights=np.tile(w, k), minlength=n_bins)
        at = np.flatnonzero(counts > 0)  # the bins that hold rows, ascending
        # running row weights and target sums over the occupied bins, from 0: the
        # partial sums over all bins, which an empty bin only repeats
        cum_n = np.zeros(at.size + 1)
        np.cumsum(counts[at], out=cum_n[1:])
        cum_y = np.zeros(at.size + 1)
        np.cumsum(np.bincount(keys, weights=np.tile(wy, k), minlength=n_bins)[at], out=cum_y[1:])
        del keys, counts

        # every pair holds rows, so each pair's occupied bins form one run, in pair order
        pair = np.repeat(np.arange(n_nodes * k), widths)[at]
        first = _run_starts(pair)
        # a boundary follows an occupied real code and precedes the pair's next
        # occupied code, if that is real too (NaN codes come last)
        real = at < (pair_start + self.real_codes[feats].ravel())[pair]
        (i,) = np.nonzero(real[:-1] & real[1:] & (pair[:-1] == pair[1:]))
        pair = pair[i]
        node = pair // k
        left = cum_n[i + 1] - cum_n[first[pair]]
        left_sum = cum_y[i + 1] - cum_y[first[pair]]
        score = left_sum**2 / left + (sums[node] - left_sum) ** 2 / (totals[node] - left)

        # pair ascends, so each pair's boundaries form one run
        runs = _run_starts(pair)
        col_best = np.full(n_nodes * k, -np.inf)
        col_best[pair[runs]] = np.maximum.reduceat(score, runs)
        # the lowest code among each pair's best scores
        code = np.where(score == col_best[pair], at[i] - pair_start[pair], n_bins)
        col_code = np.zeros(n_nodes * k, dtype=np.intp)
        col_code[pair[runs]] = np.minimum.reduceat(code, runs)
        return col_best.reshape(n_nodes, k), col_code.reshape(n_nodes, k)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal elements of ``a``."""
    return np.flatnonzero(np.concatenate((a[:1] == a[:1], a[1:] != a[:-1])))


def _chunks(cells: np.ndarray):
    """Cut consecutive nodes into runs (start, stop) of at most ``_CHUNK_CELLS`` cells.

    A run holds at least one node.
    """
    ends = np.cumsum(cells)
    start = 0
    while start < ends.size:
        bound = (ends[start - 1] if start else 0) + _CHUNK_CELLS
        stop = max(int(np.searchsorted(ends, bound, side="right")), start + 1)
        yield start, stop
        start = stop
