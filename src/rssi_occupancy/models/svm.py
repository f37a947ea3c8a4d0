"""Support vector classifiers trained by minimizing L2-regularized hinge losses.

Solver (the objective is the contract, not the algorithm): the dual box QP is
solved with accelerated projected gradient descent (Nesterov momentum with
adaptive restart). The bias is handled by augmenting the kernel with +1 (a
regularized bias, the liblinear convention), which removes the equality
constraint. Squared hinge uses the standard diagonal shift I/(2C) with an
unbounded box. Convergence is certified by the projected-gradient norm
dropping below 1e-4 (relative).

Kernels: linear, polynomial (degree 3, coef0 1), and RBF; gamma follows the
"scale" convention 1/(n_features * var(X)).

Multiclass inputs are reduced one-vs-rest; occupancy detection itself is
binary.

Lockstep solving. The solver's unit of work is every binary machine of one
kernel on one training set: in a grid search, a fold's (loss, C) configs
times their one-vs-rest classes. ``fit_lockstep`` runs each such batch of B
problems as one loop. Every problem of a batch multiplies by the same chain
of kernel factors, ``(Z^T, Z)`` for the linear kernel and ``(K,)``
otherwise, so a step makes one stacked matvec, each factor broadcast over
the problems rather than copied and its gemvs writing into a buffer made
once, and does every other update on ``(B, m)`` arrays: the step sizes and
box bounds are held whole, so the divide and the clip take arrays of one
shape, and each result is written into a buffer the loop owns. Each problem
keeps its own step size, convergence test, ``converged`` flag and count of
steps since its last restart; FISTA's momentum (t_k - 1)/t_{k+1} depends on
that count k alone, so it is read from a table computed once at import
(``_MOMENTUM``), with the float operations of a one-problem loop. A problem
that converges leaves the batch: its iterate is stored as it stood and its
row is dropped from the stacked arrays, so no step is spent on it while the
others run on (problems of one batch converge hundreds of iterations apart).
The loop ends when the batch is empty or at the iteration cap.
``fit_lockstep`` is the only way a classifier is fitted; a single fit is the
batch of one.

A batch gives every problem the bits it would get alone. Each product with
a kernel factor is a BLAS gemv per row (``A @ v[..., None]``), each inner
product a ddot per row, and each row sum numpy's pairwise sum of that row,
all as on one 1-D vector. The batch never turns its matvecs into one
matrix-matrix product: GEMM blocks its sums in another order, and a
machine's bits would then depend on the batch it was fitted in. The hinge
dual shares one kernel matrix K (which includes the bias's +1) across
one-vs-rest labels: ``Q v`` is taken as ``y * (K (y * v))``, which rounds as
``((y y^T) * K) v`` does because y is +-1 and rounding is symmetric in sign.
Squared hinge adds its diagonal 1/(2C) as the term ``v * (1 / (2C))`` of its
own rows, which the batch keeps last, never as a shifted copy of K; so a
batch holds one kernel whatever its losses and C values.

The linear kernel's K = XX^T + 1 has rank at most d + 1, often far below m:
it is Z Z^T with Z = [X, 1], m x (d + 1). So a linear batch never forms K:
it takes ``K s`` as ``Z (Z^T s)``, two thin gemvs that cost O(m d), not O(m^2)
(linear SVM solvers keep the factor for this reason: Hsieh et al., ICML
2008, the method behind LIBLINEAR). Z^T is held C-contiguous; a gemv on the
strided view ``Z.T`` runs another BLAS kernel, which rounds differently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .neighbors import squared_distances

KERNELS = ("linear", "poly", "rbf")
LOSSES = ("hinge", "squared_hinge")

_TOL = 1e-4
_MAX_ITER = 8000
_DEGREE = 3
_COEF0 = 1.0


def _momentum_table(n: int) -> np.ndarray:
    """FISTA's momentum (t_k - 1) / t_{k+1} for k < n steps since a restart, t_0 = 1.

    ``t**2`` is C's ``pow``, as in a loop over one problem's scalar t; it need
    not round as ``t * t`` (numpy's ``**2`` on arrays) does.
    """
    table = np.empty(n)
    t = 1.0
    for k in range(n):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))
        table[k] = (t - 1.0) / t_next
        t = t_next
    return table


_MOMENTUM = _momentum_table(_MAX_ITER)


def _kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """The kernel of each row of ``A`` with each row of ``B``, plus 1 (the regularized bias)."""
    if kind == "poly":
        K = A @ B.T
        K *= gamma
        K += _COEF0
        K **= _DEGREE
    elif kind == "rbf":
        K = squared_distances(A, B)
        K *= -gamma
        np.exp(K, out=K)
    else:
        raise ValueError(f"unknown kernel {kind!r}")
    K += 1.0
    return K


def _scale_gamma(X: np.ndarray) -> float:
    variance = float(X.var())
    if variance <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * variance)


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``u @ v`` for every pair of rows: one ddot per row."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _spectral_norm(
    matvec: Callable[[np.ndarray], np.ndarray], n_problems: int, dim: int, iterations: int = 30
) -> np.ndarray:
    """Power-iteration estimate of each problem's operator norm; 1 where an iterate vanishes."""
    v = np.full((n_problems, dim), 1.0 / np.sqrt(dim))
    norm = np.ones(n_problems)
    live = np.ones(n_problems, dtype=bool)
    for _ in range(iterations):
        w = matvec(v)
        fresh = np.sqrt(_rowdot(w, w))
        vanished = live & (fresh <= 0)
        live &= ~vanished
        norm[live] = fresh[live]
        norm[vanished] = 1.0
        v[live] = w[live] / fresh[live, None]
    return norm


class _BinarySVM:
    """One fitted binary machine; labels are +-1."""

    def __init__(self, kernel: str, gamma: float, converged: bool):
        self.kernel = kernel
        self.gamma = gamma
        self.converged = converged
        # linear models store (w, b); kernel models store rows + coefficients
        self.w: np.ndarray | None = None
        self.b: float = 0.0
        self.support_rows: np.ndarray | None = None
        self.dual_coef: np.ndarray | None = None

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.w is not None:
            return X @ self.w + self.b
        return _kernel_matrix(self.kernel, X, self.support_rows, self.gamma) @ self.dual_coef


def _dual_matvec(
    chain: tuple[np.ndarray, ...], Y: np.ndarray, shift: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """``Q v`` of each row: ``y * (F_k ... F_1 (y * v))``, the F those of ``chain``.

    Each factor's product is one stacked matmul, a gemv per row. The last
    ``shift.size`` rows add ``shift * v``, each its own ``shift``. The returned
    array is a buffer that the next call overwrites.
    """
    n, m = Y.shape
    signed = np.empty((n, m, 1))
    stages = [np.empty((n, F.shape[0], 1)) for F in chain]
    out = np.empty((n, m))
    tail = n - shift.size
    shift = np.repeat(shift[:, None], m, axis=1)

    def matvec(V: np.ndarray) -> np.ndarray:
        np.multiply(Y, V, out=signed[..., 0])
        vectors = signed
        for F, stage in zip(chain, stages):
            vectors = np.matmul(F, vectors, out=stage)
        np.multiply(Y, vectors[..., 0], out=out)
        if tail < n:
            term = signed[tail:, :, 0]  # free once the first factor has read it
            np.multiply(V[tail:], shift, out=term)
            out[tail:] += term
        return out

    return matvec


def _solve_dual(
    kernel: str, X: np.ndarray, gamma: float, squared: np.ndarray, C: np.ndarray,
    labels: np.ndarray,
) -> list[_BinarySVM]:
    n_problems, m = labels.shape
    rows = np.argsort(squared, kind="stable")  # the problem of each row; squared hinge last
    squared, C, Y = squared[rows], C[rows], labels[rows]
    if kernel == "linear":
        # K = XX^T + 1 = ZZ^T with Z = [X, 1], a product of two thin gemvs
        Z = np.column_stack([X, np.ones(m)])
        chain = (np.ascontiguousarray(Z.T), Z)  # Z.T's strided view would gemv differently
    else:
        chain = (_kernel_matrix(kernel, X, X, gamma),)
    shift = 1.0 / (2.0 * C[squared])  # squared hinge's diagonal 1/(2C), a term of its own rows
    matvec = _dual_matvec(chain, Y, shift)
    # held whole, so the step's divide and clip take arrays of one shape
    upper = np.repeat(np.where(squared, np.inf, C)[:, None], m, axis=1)
    lipschitz = np.repeat((_spectral_norm(matvec, n_problems, m) * 1.05)[:, None], m, axis=1)

    # the iterate, the velocity, and two buffers that the step writes and then swaps in
    alpha, velocity, alpha_next, step = np.zeros((4, n_problems, m))
    since = np.zeros((n_problems, 1), dtype=np.intp)  # steps since each problem's last restart
    pg0 = None
    final = np.zeros((n_problems, m))
    converged = np.zeros(n_problems, dtype=bool)
    for iteration in range(_MAX_ITER):
        grad_v = matvec(velocity)
        grad_v -= 1.0
        np.divide(grad_v, lipschitz, out=alpha_next)
        np.subtract(velocity, alpha_next, out=alpha_next)
        # clipped as tests/svm_reference.py clips: np.clip keeps -0.0, np.maximum(x, 0.0) gives +0.0
        alpha_next.clip(0.0, upper, out=alpha_next)
        np.subtract(alpha_next, alpha, out=step)
        restart = (_rowdot(grad_v, step) > 0)[:, None]  # non-descent
        step *= _MOMENTUM[since]
        step += alpha_next
        np.copyto(step, alpha_next, where=restart)
        alpha, velocity, alpha_next, step = alpha_next, step, alpha, velocity
        since += 1
        since[restart] = 0
        if iteration % 10 == 9:
            grad = matvec(alpha)
            grad -= 1.0
            gap = np.subtract(alpha, grad, out=alpha_next)
            gap.clip(0.0, upper, out=gap)
            np.subtract(alpha, gap, out=gap)
            pg = np.sqrt(_rowdot(gap, gap))
            if pg0 is None:
                pg0 = np.maximum(pg, 1.0)
            done = pg <= _TOL * pg0
            if done.any():  # converged problems leave the batch
                final[rows[done]] = alpha[done]
                converged[rows[done]] = True
                if done.all():
                    break
                live = ~done
                shift = shift[live[live.size - shift.size :]]
                rows, alpha, velocity, since, pg0, lipschitz, upper, Y = (
                    a[live] for a in (rows, alpha, velocity, since, pg0, lipschitz, upper, Y)
                )
                alpha_next, step = np.empty_like(alpha), np.empty_like(alpha)
                matvec = _dual_matvec(chain, Y, shift)
    else:  # the iteration cap: the problems still in the batch end unconverged
        final[rows] = alpha

    machines = []
    for alpha, y, ok in zip(final, labels, converged.tolist()):
        machine = _BinarySVM(kernel, gamma, ok)
        dual = alpha * y
        machine.b = float(dual.sum())
        if kernel == "linear":
            machine.w = X.T @ dual
        else:
            keep = np.abs(alpha) > 0
            machine.support_rows = X[keep]
            machine.dual_coef = dual[keep]
        machines.append(machine)
    return machines


class SupportVectorClassifier:
    """One-vs-rest wrapper; binary problems use a single machine. Fitted by ``fit_lockstep``."""

    def __init__(self, kernel="linear", loss="hinge", C=1.0):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        self.C = float(C)
        if not self.C > 0:  # rejects NaN too
            raise ValueError(f"C must be positive, got {C}")
        self.kernel = kernel
        self.loss = loss
        self.machines: list[_BinarySVM] = []
        self.n_classes = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.n_classes == 2:
            return (self.machines[0].decision(X) >= 0).astype(np.int64)
        scores = np.column_stack([m.decision(X) for m in self.machines])
        return np.argmax(scores, axis=1)


def fit_lockstep(
    classifiers: Sequence[SupportVectorClassifier], X: np.ndarray, y_idx: np.ndarray, n_classes: int
) -> None:
    """Fit every classifier on (X, y_idx), one lockstep batch per kernel.

    A batch holds each of its classifiers' machines: one for two classes, one
    per class (one-vs-rest) otherwise. The machines are those each classifier
    would get fitted alone. Features that are not finite raise ``ValueError``.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("svm: training features hold NaN or infinite values")
    y_idx = np.asarray(y_idx)
    gamma = _scale_gamma(X)
    positives = [1] if n_classes == 2 else range(n_classes)
    labels = [np.where(y_idx == c, 1.0, -1.0) for c in positives]
    batches: dict[str, list[SupportVectorClassifier]] = {}
    for classifier in classifiers:
        batches.setdefault(classifier.kernel, []).append(classifier)
    for kernel, members in batches.items():
        # one problem per (classifier, label), classifier-major
        squared = np.repeat([c.loss == "squared_hinge" for c in members], len(labels))
        C = np.repeat([c.C for c in members], len(labels))
        machines = _solve_dual(kernel, X, gamma, squared, C, np.tile(labels, (len(members), 1)))
        for i, classifier in enumerate(members):
            classifier.n_classes = n_classes
            classifier.machines = machines[i * len(labels) : (i + 1) * len(labels)]
