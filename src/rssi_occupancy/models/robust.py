"""Outlier-robust regressors: inlier-consensus (RANSAC-style) and Theil-Sen.

The consensus estimator samples minimal row subsets, fits least squares, and
keeps the model with the largest inlier set; the inlier threshold is a
quantile of |y - median(y)| (quantile 0.5 gives the classic MAD threshold).
On head counts 0-3 that threshold is one whole person: on the acceptance
scenario every row is an inlier, and the consensus estimator reduces to
ordinary least squares on all rows.
The Theil-Sen estimator aggregates least-squares fits on random subsets with
the spatial median (Weiszfeld iteration).

Both draw through one sampler, ``_subset_solutions``: from the estimator's
seed, random subsets of d + 1 rows (d features), each with its least-squares
solution, or None for a degenerate subset: one whose design (features and
intercept) has a lower rank than the whole training design. Both skip the
degenerate ones. An exactly dependent feature column, such as an
interquartile range kept beside both quartiles, lowers both ranks alike, so
it does not make every subset degenerate.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

import numpy as np

from . import checks
from .linear import Affine, _least_squares

RANSAC_TRIALS = 100
_WEISZFELD_MAX_ITER = 500
_WEISZFELD_TOL = 1e-10


def _subset_solutions(X: np.ndarray, y: np.ndarray, seed: int) -> Iterator[np.ndarray | None]:
    """Endlessly, the solution [w..., b] on a random subset of d + 1 rows, or None if degenerate.

    Raises ValueError at once if ``X`` has fewer than d + 1 rows.
    """
    n, d = X.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} rows, got {n}")
    full_rank = _least_squares(X, y)[1]
    rng = np.random.default_rng(seed)

    def solve(subset: np.ndarray) -> np.ndarray | None:
        solution, rank = _least_squares(X[subset], y[subset])
        return solution if rank >= full_rank else None

    return (solve(rng.choice(n, size=d + 1, replace=False)) for _ in count())


class RansacRegression(Affine):
    """Iterative inlier consensus around a least-squares base model."""

    def __init__(self, residual_quantile: float = 0.5, seed: int = 0):
        self.residual_quantile = checks.positive("residual_quantile", residual_quantile)
        if self.residual_quantile > 1:
            raise ValueError(f"residual_quantile must be in (0, 1], got {residual_quantile}")
        self.seed = int(seed)
        self.n_inliers_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RansacRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        solutions = _subset_solutions(X, y, self.seed)
        threshold = float(np.quantile(np.abs(y - np.median(y)), self.residual_quantile))
        if threshold <= 0:
            threshold = 1e-12

        best: tuple[int, float] | None = None
        best_mask: np.ndarray | None = None
        for solution in islice(solutions, RANSAC_TRIALS):
            if solution is None:
                continue
            residuals = np.abs(X @ solution[:-1] + solution[-1] - y)
            mask = residuals <= threshold
            score = (int(mask.sum()), -float(np.sum(residuals[mask] ** 2)))
            if best is None or score > best:
                best = score
                best_mask = mask
        if best_mask is None:
            raise ValueError("every sampled subset was rank-deficient")

        self._set(_least_squares(X[best_mask], y[best_mask])[0])
        self.n_inliers_ = int(best_mask.sum())
        return self


def spatial_median(points: np.ndarray) -> np.ndarray:
    """Geometric median via Weiszfeld updates; exact for coincident points."""
    points = np.asarray(points, dtype=np.float64)
    center = points.mean(axis=0)
    scale = max(float(np.max(np.abs(points))), 1.0)
    for _ in range(_WEISZFELD_MAX_ITER):
        distances = np.linalg.norm(points - center, axis=1)
        if np.all(distances < _WEISZFELD_TOL * scale):
            return center
        weights = 1.0 / np.maximum(distances, _WEISZFELD_TOL * scale)
        updated = (weights[:, None] * points).sum(axis=0) / weights.sum()
        if np.linalg.norm(updated - center) < _WEISZFELD_TOL * scale:
            return updated
        center = updated
    return center


class TheilSenRegression(Affine):
    """Spatial-median aggregation of least-squares fits on random row subsets."""

    def __init__(self, n_subsets: int = 200, seed: int = 0):
        self.n_subsets = checks.count("n_subsets", n_subsets)
        self.seed = int(seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TheilSenRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        drawn = islice(_subset_solutions(X, y, self.seed), 10 * self.n_subsets)
        solutions = list(islice((s for s in drawn if s is not None), self.n_subsets))
        if not solutions:
            raise ValueError("every sampled subset was rank-deficient")

        self._set(spatial_median(np.vstack(solutions)))
        return self
