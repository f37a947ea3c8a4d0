"""Reference support vector machines, one machine and one solver loop at a time.

These are the ``_BinarySVM`` and ``SupportVectorClassifier`` that
``rssi_occupancy.models.svm`` used before it solved the machines of one
kernel in lockstep: accelerated projected gradient on the dual box QP, with
its own Python loop over one problem. The tests compare the lockstep solver
against them bit for bit: weights, intercepts, support rows, dual
coefficients, convergence flags and predictions. Kernels and iteration cap
follow ``models.svm``, and so does the dual's product (:func:`dual_product`):
the linear kernel's is taken through the factor ``[X, 1]`` of the Gram
matrix, the other kernels build ``Q`` whole for the hinge part, and squared
hinge adds its diagonal ``1/(2C)`` as the term ``v * (1 / (2C))``.
"""

from __future__ import annotations

import numpy as np

KERNELS = ("linear", "poly", "rbf")
LOSSES = ("hinge", "squared_hinge")

_TOL = 1e-4
_MAX_ITER = 8000
_DEGREE = 3
_COEF0 = 1.0


def _kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    if kind == "linear":
        return A @ B.T
    if kind == "poly":
        return (gamma * (A @ B.T) + _COEF0) ** _DEGREE
    if kind == "rbf":
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel {kind!r}")


def _scale_gamma(X: np.ndarray) -> float:
    variance = float(X.var())
    if variance <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * variance)


def dual_product(kernel: str, X: np.ndarray, y: np.ndarray, loss: str, C: float, gamma: float):
    """``v -> Q v`` of the dual: ``Q = (y y^T) * (K + 1)``, plus ``I / (2C)`` if squared.

    Taken as ``models.svm`` takes it. The linear kernel's ``X X^T + 1`` is
    ``Z Z^T`` with ``Z = [X, 1]``, so its hinge part is ``y * (Z (Z^T (y * v)))``;
    ``Z^T`` is made contiguous, since a gemv on the strided view ``Z.T`` runs
    another BLAS kernel, which rounds differently. The other kernels take
    ``(y y^T) * (K + 1)`` whole. Squared hinge adds ``v * (1 / (2C))``.
    """
    if kernel == "linear":
        Z = np.column_stack([X, np.ones(X.shape[0])])
        Zt = np.ascontiguousarray(Z.T)

        def hinge(v: np.ndarray) -> np.ndarray:
            return y * (Z @ (Zt @ (y * v)))
    else:
        hinge = ((y[:, None] * y[None, :]) * (_kernel_matrix(kernel, X, X, gamma) + 1.0)).__matmul__
    if loss != "squared_hinge":
        return hinge
    shift = 1.0 / (2.0 * C)
    return lambda v: hinge(v) + v * shift


def _spectral_norm(matvec, dim: int, iterations: int = 30) -> float:
    v = np.full(dim, 1.0 / np.sqrt(dim))
    norm = 1.0
    for _ in range(iterations):
        w = matvec(v)
        norm = float(np.linalg.norm(w))
        if norm <= 0:
            return 1.0
        v = w / norm
    return norm


class _BinarySVM:
    """One binary machine; labels are +-1."""

    def __init__(self, kernel: str, loss: str, C: float):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.kernel = kernel
        self.loss = loss
        self.C = float(C)
        self.gamma: float = 1.0
        # linear models store (w, b); kernel models store rows + coefficients
        self.w: np.ndarray | None = None
        self.b: float = 0.0
        self.support_rows: np.ndarray | None = None
        self.dual_coef: np.ndarray | None = None
        self.converged: bool = False

    def _fit_dual(self, X: np.ndarray, y: np.ndarray) -> None:
        m = X.shape[0]
        Q_dot = dual_product(self.kernel, X, y, self.loss, self.C, self.gamma)
        upper = np.inf if self.loss == "squared_hinge" else self.C
        lipschitz = _spectral_norm(Q_dot, m) * 1.05

        def project(a: np.ndarray) -> np.ndarray:
            return np.clip(a, 0.0, upper)

        alpha = np.zeros(m)
        velocity = alpha
        t_prev = 1.0
        pg0: float | None = None
        self.converged = False
        for iteration in range(_MAX_ITER):
            grad_v = Q_dot(velocity) - 1.0
            alpha_next = project(velocity - grad_v / lipschitz)
            if grad_v @ (alpha_next - alpha) > 0:  # restart momentum on non-descent
                t_prev = 1.0
                velocity = alpha_next
            else:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2))
                velocity = alpha_next + ((t_prev - 1.0) / t_next) * (alpha_next - alpha)
                t_prev = t_next
            alpha = alpha_next
            if iteration % 10 == 9:
                grad = Q_dot(alpha) - 1.0
                pg = float(np.linalg.norm(alpha - project(alpha - grad)))
                if pg0 is None:
                    pg0 = max(pg, 1.0)
                if pg <= _TOL * pg0:
                    self.converged = True
                    break

        dual = alpha * y
        if self.kernel == "linear":
            self.w = X.T @ dual
            self.b = float(dual.sum())
        else:
            keep = np.abs(alpha) > 0
            self.support_rows = X[keep]
            self.dual_coef = dual[keep]
            self.b = float(dual.sum())

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BinarySVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.gamma = _scale_gamma(X)
        self._fit_dual(X, y)
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.w is not None:
            return X @ self.w + self.b
        K = _kernel_matrix(self.kernel, X, self.support_rows, self.gamma)
        K = K + 1.0
        return K @ self.dual_coef


class SupportVectorClassifier:
    """One-vs-rest wrapper; binary problems use a single machine."""

    def __init__(self, kernel="linear", loss="hinge", C=1.0):
        self.kernel = kernel
        self.loss = loss
        self.C = C
        self.machines: list[_BinarySVM] = []
        self.n_classes = 0

    def fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> "SupportVectorClassifier":
        self.n_classes = n_classes
        self.machines = []
        if n_classes == 2:
            y = np.where(np.asarray(y_idx) == 1, 1.0, -1.0)
            self.machines.append(_BinarySVM(self.kernel, self.loss, self.C).fit(X, y))
        else:
            for c in range(n_classes):
                y = np.where(np.asarray(y_idx) == c, 1.0, -1.0)
                self.machines.append(
                    _BinarySVM(self.kernel, self.loss, self.C).fit(X, y)
                )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.n_classes == 2:
            return (self.machines[0].decision(X) >= 0).astype(np.int64)
        scores = np.column_stack([m.decision(X) for m in self.machines])
        return np.argmax(scores, axis=1)
