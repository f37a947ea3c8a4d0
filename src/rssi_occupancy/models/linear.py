"""Linear regressors: ordinary least squares, ridge, and Bayesian ridge.

Ridge and the Bayesian variant center the predictors and target so the
intercept stays unpenalized. The Bayesian model runs MacKay-style evidence
iteration: noise precision and weight precision are re-estimated from the
posterior until their relative change drops below 1e-4 (or 300 iterations).
These and the robust regressors share ``Affine``'s ``X @ coef_ + intercept_``.
"""

from __future__ import annotations

import numpy as np

from . import checks

BAYES_TOL = 1e-4
BAYES_MAX_ITER = 300


def _least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Least-squares coefficients [w..., b] of y on X and an intercept, and the design's rank."""
    design = np.column_stack([X, np.ones(X.shape[0])])
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return solution, int(rank)


class Affine:
    """A regressor that predicts ``X @ coef_ + intercept_``."""

    coef_: np.ndarray | None = None
    intercept_: float = 0.0

    def _set(self, solution: np.ndarray) -> None:
        """Take coefficients [w..., b], as ``_least_squares`` returns them."""
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_


class LeastSquares(Affine):
    """Ordinary least squares with an explicit intercept column."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LeastSquares":
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
        self._set(_least_squares(X, y)[0])
        return self


class RidgeRegression(Affine):
    """Closed-form L2-penalized least squares; lam=0 reproduces OLS."""

    def __init__(self, lam: float = 1.0):
        self.lam = checks.positive("lam", lam, zero=True)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        xc = X - x_mean
        yc = y - y_mean
        gram = xc.T @ xc + self.lam * np.eye(X.shape[1])
        try:
            self.coef_ = np.linalg.solve(gram, xc.T @ yc)
        except np.linalg.LinAlgError:
            self.coef_ = np.linalg.lstsq(xc, yc, rcond=None)[0]
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self


class BayesianRidge(Affine):
    """Evidence-iterated ridge; ``lam`` seeds the initial weight precision."""

    def __init__(self, lam: float = 1.0):
        self.lam_init = checks.positive("lam", lam)
        self.alpha_: float = 1.0  # noise precision
        self.lambda_: float = 1.0  # weight precision
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BayesianRidge":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = X.shape[0]
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        xc = X - x_mean
        yc = y - y_mean

        u, s, vt = np.linalg.svd(xc, full_matrices=False)
        uty = u.T @ yc
        s2 = s**2

        y_var = float(np.var(yc))
        alpha = 1.0 / y_var if y_var > 0 else 1.0
        lam = self.lam_init
        coef = np.zeros(X.shape[1])
        tiny = 1e-12
        for iteration in range(1, BAYES_MAX_ITER + 1):
            shrink = (alpha * s) / (lam + alpha * s2)
            coef = vt.T @ (shrink * uty)
            gamma = float(np.sum(alpha * s2 / (lam + alpha * s2)))
            residual = yc - xc @ coef
            lam_new = gamma / max(float(coef @ coef), tiny)
            alpha_new = max(n - gamma, tiny) / max(float(residual @ residual), tiny)
            change = abs(lam_new - lam) / max(lam, tiny) + abs(alpha_new - alpha) / max(
                alpha, tiny
            )
            lam, alpha = lam_new, alpha_new
            if change < BAYES_TOL:
                break
        self.n_iter_ = iteration
        self.alpha_ = alpha
        self.lambda_ = lam
        shrink = (alpha * s) / (lam + alpha * s2)
        self.coef_ = vt.T @ (shrink * uty)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self
