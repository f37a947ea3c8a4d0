"""Linear and quadratic discriminant classifiers on Gaussian class models.

LDA pools one covariance across classes (linear decision surfaces); the
quadratic variant estimates one covariance per class. Singular covariance
matrices are ridged with eps*I, eps = 1e-6 * trace/dim, escalating tenfold
until the factorization succeeds.
"""

from __future__ import annotations

import numpy as np

_RIDGE_SCALE = 1e-6


def _regularized_cholesky(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    trace = float(np.trace(cov))
    eps = _RIDGE_SCALE * (trace / dim if trace > 0 else 1.0)
    attempt = cov
    for _ in range(12):
        try:
            return np.linalg.cholesky(attempt)
        except np.linalg.LinAlgError:
            attempt = cov + eps * np.eye(dim)
            eps *= 10.0
    raise np.linalg.LinAlgError("covariance not positive definite even after ridging")


def _solve_chol(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, z)


class LinearDiscriminant:
    """Class means + pooled covariance; quadratic=True fits per-class covariances."""

    def __init__(self, quadratic: bool = False):
        self.quadratic = quadratic
        self.means_: np.ndarray | None = None
        self.log_priors_: np.ndarray | None = None
        self.chol_: list[np.ndarray] | np.ndarray | None = None
        self.log_det_: np.ndarray | None = None
        self.n_classes = 0

    def fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> "LinearDiscriminant":
        X = np.asarray(X, dtype=np.float64)
        y_idx = np.asarray(y_idx, dtype=np.int64)
        n, d = X.shape
        self.n_classes = n_classes
        self.means_ = np.zeros((n_classes, d))
        counts = np.zeros(n_classes)
        for c in range(n_classes):
            members = X[y_idx == c]
            counts[c] = members.shape[0]
            if counts[c] == 0:
                raise ValueError(f"class {c} has no training rows")
            self.means_[c] = members.mean(axis=0)
        self.log_priors_ = np.log(counts / n)

        if self.quadratic:
            self.chol_ = []
            self.log_det_ = np.zeros(n_classes)
            for c in range(n_classes):
                members = X[y_idx == c] - self.means_[c]
                denom = max(members.shape[0] - 1, 1)
                cov = members.T @ members / denom
                chol = _regularized_cholesky(cov)
                self.chol_.append(chol)
                self.log_det_[c] = 2.0 * np.sum(np.log(np.diag(chol)))
        else:
            centered = X - self.means_[y_idx]
            denom = max(n - n_classes, 1)
            cov = centered.T @ centered / denom
            self.chol_ = _regularized_cholesky(cov)
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        n_classes = self.n_classes
        scores = np.zeros((X.shape[0], n_classes))
        if self.quadratic:
            for c in range(n_classes):
                diff = X - self.means_[c]
                z = np.linalg.solve(self.chol_[c], diff.T)
                mahal = np.sum(z**2, axis=0)
                scores[:, c] = -0.5 * (self.log_det_[c] + mahal) + self.log_priors_[c]
        else:
            for c in range(n_classes):
                beta = _solve_chol(self.chol_, self.means_[c])
                scores[:, c] = X @ beta - 0.5 * self.means_[c] @ beta + self.log_priors_[c]
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_scores(X), axis=1)
