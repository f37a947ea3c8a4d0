"""Support vector classifiers trained by minimizing regularized hinge losses.

Solvers (the objective is the contract, not the algorithm):

- L2 penalty: the dual box QP is solved with accelerated projected gradient
  descent (Nesterov momentum with adaptive restart). The bias is handled by
  augmenting the kernel with +1 (a regularized bias, the liblinear
  convention), which removes the equality constraint. Squared hinge uses the
  standard diagonal shift I/(2C) with an unbounded box. Convergence is
  certified by the projected-gradient norm dropping below 1e-4 (relative).
- L1 penalty: proximal gradient (FISTA) on the primal coefficients with a
  soft-threshold step; the intercept is explicit and unpenalized. Squared
  hinge is smooth and solved exactly to the same tolerance; plain hinge is
  smoothed (Huber, mu=1e-3) for the gradient steps while the true hinge
  objective is tracked and the best iterate returned.

Kernels: linear, polynomial (degree 3, coef0 1), sigmoid (coef0 1), and RBF;
gamma follows the "scale" convention 1/(n_features * var(X)).

Multiclass inputs are reduced one-vs-rest; occupancy detection itself is
binary.

Lockstep solving. The solver's unit of work is every binary machine of one
kernel and one penalty on one training set: in a grid search, a fold's
(loss, C) configs times their one-vs-rest classes. ``fit_lockstep`` runs each
such batch of B problems as one loop. A step makes one stacked matvec against
the batch's single Gram matrix (``X`` itself for linear L1), broadcast over a
``(B, m, p)`` view rather than copied, and does every other update on
``(B, m)`` arrays. Each problem keeps its own step size, momentum and restart
state, best iterate, convergence test and ``converged`` flag. A problem that
converges leaves the batch: its iterate is stored as it stood and its row is
dropped from the stacked arrays, so no step is spent on it while the others
run on (dual problems of one batch converge hundreds of iterations apart).
The loop ends when the batch is empty or at the iteration cap. A single
``SupportVectorClassifier.fit`` is the batch of one.

A batch gives every problem the bits it would get alone. Each product with
the Gram matrix is a BLAS gemv per row (``A @ v[..., None]``), each inner
product a ddot per row, and each row sum numpy's pairwise sum of that row,
all as on one 1-D vector. The batch never turns its matvecs into one
matrix-matrix product: GEMM blocks its sums in another order, and a
machine's bits would then depend on the batch it was fitted in. The hinge
dual shares one kernel matrix K across one-vs-rest labels: ``Q v`` is taken as
``y * (K (y * v))``, which rounds as ``((y y^T) * K) v`` does because y is
+-1 and rounding is symmetric in sign. Squared hinge shifts K's diagonal by
1/(2C): the batch holds one shifted copy of K per distinct C, broadcast over
the problems that use it. The squared bias move in the L1 convergence test
uses Python's scalar ``pow``, as the one-problem loop did: it differs from
``x * x`` in the last bit for about 0.1% of values.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

KERNELS = ("linear", "poly", "sigmoid", "rbf")
PENALTIES = ("l1", "l2")
LOSSES = ("hinge", "squared_hinge")

_TOL = 1e-4
_MAX_ITER_DUAL = 2000
_MAX_ITER_PRIMAL = 2000
_HUBER_MU = 1e-3
_DEGREE = 3
_COEF0 = 1.0


def _kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    if kind == "linear":
        return A @ B.T
    if kind == "poly":
        return (gamma * (A @ B.T) + _COEF0) ** _DEGREE
    if kind == "sigmoid":
        return np.tanh(gamma * (A @ B.T) + _COEF0)
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


def _matvec(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``A @ v`` for every row v of V: one gemv per row, A broadcast, not copied."""
    return np.matmul(A, V[..., None])[..., 0]


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

    def __init__(self, kernel: str, penalty: str, gamma: float, converged: bool):
        self.kernel = kernel
        self.penalty = penalty
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
        K = _kernel_matrix(self.kernel, X, self.support_rows, self.gamma)
        if self.penalty == "l2":
            K = K + 1.0
            return K @ self.dual_coef
        return K @ self.dual_coef + self.b


# --- L2 penalty: dual box QP ------------------------------------------------


def _dual_matvec(
    matrices: list[np.ndarray], which: np.ndarray, Y: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """``Q v`` of each row: ``y * (matrices[which] (y * v))``, one stacked gemv per run of rows."""
    cuts = [0, *(np.flatnonzero(np.diff(which)) + 1).tolist(), which.size]
    runs = [(matrices[which[a]], a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    def matvec(V: np.ndarray) -> np.ndarray:
        signed = Y * V
        return Y * np.concatenate([_matvec(A, signed[a:b]) for A, a, b in runs])

    return matvec


def _solve_dual(
    kernel: str, X: np.ndarray, gamma: float, squared: np.ndarray, C: np.ndarray,
    labels: np.ndarray,
) -> list[_BinarySVM]:
    n_problems, m = labels.shape
    K = _kernel_matrix(kernel, X, X, gamma) + 1.0
    # K for hinge; squared hinge shifts its diagonal, one copy per distinct C
    shifts = list(dict.fromkeys(C[squared].tolist()))
    matrices = [K, *(K + np.eye(m) / (2.0 * c) for c in shifts)]
    which = np.array([shifts.index(c) + 1 if sq else 0 for sq, c in zip(squared, C.tolist())])
    Y = labels
    matvec = _dual_matvec(matrices, which, Y)
    upper = np.where(squared, np.inf, C)[:, None]
    lipschitz = (_spectral_norm(matvec, n_problems, m) * 1.05)[:, None]

    rows = np.arange(n_problems)  # the problem of each row still in the batch
    alpha = np.zeros((n_problems, m))
    velocity = alpha
    t_prev = np.ones((n_problems, 1))
    pg0 = None
    final = np.zeros((n_problems, m))
    converged = np.zeros(n_problems, dtype=bool)
    for iteration in range(_MAX_ITER_DUAL):
        grad_v = matvec(velocity) - 1.0
        alpha_next = np.clip(velocity - grad_v / lipschitz, 0.0, upper)
        restart = (_rowdot(grad_v, alpha_next - alpha) > 0)[:, None]  # non-descent
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2))
        momentum = alpha_next + ((t_prev - 1.0) / t_next) * (alpha_next - alpha)
        velocity = np.where(restart, alpha_next, momentum)
        t_prev = np.where(restart, 1.0, t_next)
        alpha = alpha_next
        if iteration % 10 == 9:
            grad = matvec(alpha) - 1.0
            gap = alpha - np.clip(alpha - grad, 0.0, upper)
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
                rows, alpha, velocity, t_prev, pg0, lipschitz, upper, Y, which = (
                    a[live] for a in (rows, alpha, velocity, t_prev, pg0, lipschitz, upper, Y, which)
                )
                matvec = _dual_matvec(matrices, which, Y)
    else:  # the iteration cap: the problems still in the batch end unconverged
        final[rows] = alpha

    machines = []
    for alpha, y, ok in zip(final, labels, converged.tolist()):
        machine = _BinarySVM(kernel, "l2", gamma, ok)
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


# --- L1 penalty: primal proximal gradient -------------------------------------


def _solve_primal_l1(
    kernel: str, X: np.ndarray, gamma: float, squared: np.ndarray, C: np.ndarray,
    labels: np.ndarray,
) -> list[_BinarySVM]:
    G = X if kernel == "linear" else _kernel_matrix(kernel, X, X, gamma)
    n_problems, p = C.size, G.shape[1]
    Y = labels
    squared_rows = squared[:, None]
    # C * dloss * -y, reassociated exactly: y is +-1
    C_neg_Y = C[:, None] * -Y
    mu = _HUBER_MU

    # spectral norm of the bias-augmented Gram [G, 1]^T [G, 1], shared by the batch
    def augmented_gram(W: np.ndarray) -> np.ndarray:
        fitted = _matvec(G, W[:, :-1]) + W[:, -1:]
        return np.concatenate(
            [_matvec(G.T, fitted), fitted.sum(axis=1, keepdims=True)], axis=1
        )

    aug_norm = _spectral_norm(augmented_gram, 1, p + 1)[0]
    curvature = np.where(squared, 2.0 * C, C / mu)
    lipschitz = curvature * aug_norm * 1.05
    step = (1.0 / lipschitz)[:, None]

    rows = np.arange(n_problems)  # the problem of each row still in the batch
    coef = np.zeros((n_problems, p))
    bias = np.zeros((n_problems, 1))
    z_coef, z_bias = coef, bias
    t_prev = 1.0  # no restarts: every problem runs the same momentum sequence
    best_obj = np.full(n_problems, np.inf)
    best_coef, best_bias = coef, bias
    gm0 = None
    final_coef, final_bias = np.zeros((n_problems, p)), np.zeros((n_problems, 1))
    converged = np.zeros(n_problems, dtype=bool)
    for iteration in range(_MAX_ITER_PRIMAL):
        t = np.maximum(1.0 - Y * (_matvec(G, z_coef) + z_bias), 0.0)
        dloss = np.where(squared_rows, 2.0 * t, np.minimum(t / mu, 1.0))
        weight = dloss * C_neg_Y
        grad_coef = _matvec(G.T, weight)
        grad_bias = weight.sum(axis=1, keepdims=True)

        coef_next = z_coef - step * grad_coef
        coef_next = np.sign(coef_next) * np.maximum(np.abs(coef_next) - step, 0.0)
        bias_next = z_bias - step * grad_bias

        step_coef, step_bias = coef_next - coef, bias_next - bias
        bias_moves = [d**2 for d in step_bias[:, 0].tolist()]
        move = np.sqrt((step_coef**2).sum(axis=1) + bias_moves)
        if gm0 is None:
            gm0 = np.maximum(move * lipschitz, 1.0)
            done = np.zeros(rows.size, dtype=bool)
        else:
            done = move * lipschitz <= _TOL * gm0

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2))
        z_coef = coef_next + ((t_prev - 1.0) / t_next) * step_coef
        z_bias = bias_next + ((t_prev - 1.0) / t_next) * step_bias
        t_prev = t_next
        coef, bias = coef_next, bias_next

        # the true (unsmoothed) objective picks the best iterate
        t = np.maximum(1.0 - Y * (_matvec(G, coef) + bias), 0.0)
        obj = np.abs(coef).sum(axis=1) + C * np.where(squared_rows, t**2, t).sum(axis=1)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_coef = np.where(better[:, None], coef, best_coef)
        best_bias = np.where(better[:, None], bias, best_bias)
        if done.any():  # converged problems leave the batch
            final_coef[rows[done]], final_bias[rows[done]] = best_coef[done], best_bias[done]
            converged[rows[done]] = True
            if done.all():
                break
            live = ~done
            (rows, Y, C_neg_Y, squared_rows, C, step, lipschitz, gm0, coef, bias, z_coef, z_bias,
             best_obj, best_coef, best_bias) = (
                a[live] for a in (rows, Y, C_neg_Y, squared_rows, C, step, lipschitz, gm0, coef,
                                  bias, z_coef, z_bias, best_obj, best_coef, best_bias)
            )
    else:  # the iteration cap: the problems still in the batch end unconverged
        final_coef[rows], final_bias[rows] = best_coef, best_bias

    machines = []
    for coef, (bias,), ok in zip(final_coef, final_bias.tolist(), converged.tolist()):
        machine = _BinarySVM(kernel, "l1", gamma, ok)
        machine.b = bias
        if kernel == "linear":
            machine.w = coef
        else:
            keep = coef != 0.0
            if not keep.any():
                keep[0] = True
            machine.support_rows = X[keep]
            machine.dual_coef = coef[keep]
        machines.append(machine)
    return machines


class SupportVectorClassifier:
    """One-vs-rest wrapper; binary problems use a single machine."""

    def __init__(self, kernel="linear", penalty="l2", loss="hinge", C=1.0):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if penalty not in PENALTIES:
            raise ValueError(f"unknown penalty {penalty!r}")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.kernel = kernel
        self.penalty = penalty
        self.loss = loss
        self.C = float(C)
        self.machines: list[_BinarySVM] = []
        self.n_classes = 0

    def fit(self, X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> "SupportVectorClassifier":
        fit_lockstep([self], X, y_idx, n_classes)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.n_classes == 2:
            return (self.machines[0].decision(X) >= 0).astype(np.int64)
        scores = np.column_stack([m.decision(X) for m in self.machines])
        return np.argmax(scores, axis=1)


def fit_lockstep(
    classifiers: Sequence[SupportVectorClassifier], X: np.ndarray, y_idx: np.ndarray, n_classes: int
) -> None:
    """Fit every classifier on (X, y_idx), one lockstep batch per (kernel, penalty).

    A batch holds each of its classifiers' machines: one for two classes, one
    per class (one-vs-rest) otherwise. The machines are those each classifier
    would get fitted alone.
    """
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx)
    gamma = _scale_gamma(X)
    positives = [1] if n_classes == 2 else range(n_classes)
    labels = [np.where(y_idx == c, 1.0, -1.0) for c in positives]
    batches: dict[tuple[str, str], list[SupportVectorClassifier]] = {}
    for classifier in classifiers:
        batches.setdefault((classifier.kernel, classifier.penalty), []).append(classifier)
    for (kernel, penalty), members in batches.items():
        # one problem per (classifier, label), classifier-major
        squared = np.repeat([c.loss == "squared_hinge" for c in members], len(labels))
        C = np.repeat([c.C for c in members], len(labels))
        solve = _solve_dual if penalty == "l2" else _solve_primal_l1
        machines = solve(kernel, X, gamma, squared, C, np.tile(labels, (len(members), 1)))
        for i, classifier in enumerate(members):
            classifier.n_classes = n_classes
            classifier.machines = machines[i * len(labels) : (i + 1) * len(labels)]
