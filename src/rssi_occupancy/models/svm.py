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

Lockstep solving. The solver's unit of work is one training set and one
label: ``fit_lockstep`` solves one batch for detection's label, or one per
class for one-vs-rest, and a batch holds one problem per classifier, whatever
its kernel, loss and C. The problems are grouped into one run of rows per
kernel, and each run multiplies by its kernel's chain of factors, signed by
the label y: ``(y * Z)^T`` (held C-contiguous) then ``y * Z`` with Z = [X, 1]
for the linear kernel, ``(y y^T) * (K + 1)`` otherwise. So ``Q v`` is the
chain's product plus squared hinge's diagonal term, with no multiply by y. A
batch holds one matrix per kernel; the next label re-signs it in place by
``s s^T``, s the product of the two labels, so no signed copy is made per
class. A step makes each live run's stacked matvec, each factor broadcast
over its problems rather than copied and its gemvs writing into buffers made
once, and does every other update once over the whole batch on ``(B, m)``
arrays: the step sizes and box bounds are held whole, so the divide and the
clip take arrays of one shape, and each result is written into a buffer the
loop owns. Each problem keeps its own step size, convergence test,
``converged`` flag and count of steps since its last restart; FISTA's
momentum (t_k - 1)/t_{k+1} depends on that count k alone, so it is read from
a table computed once at import (``_MOMENTUM``), with the float operations of
a one-problem loop. A problem that converges leaves the batch: its iterate
is stored as it stood and its row is dropped from the stacked arrays, so no
step is spent on it while the others run on (problems of one batch converge
hundreds of iterations apart). The loop ends when the batch is empty or at
the iteration cap. ``fit_lockstep`` is the only way a classifier is fitted; a
single fit is the batch of one.

A batch gives every problem the bits it would get alone. Each product with
a kernel factor is a BLAS gemv per row (``A @ v[..., None]``), each inner
product a ddot per row, and each row sum numpy's pairwise sum of that row,
all as on one 1-D vector. The batch never turns its matvecs into one
matrix-matrix product: GEMM blocks its sums in another order, and a
machine's bits would then depend on the batch it was fitted in. The signed
factors round as the unsigned product ``y * (F (y * v))`` does: y is +-1, so
each signed term is the unsigned one exactly, and rounding is symmetric in
sign; the two can differ only in the sign of an exact zero, which the
gradient's ``- 1`` and the norms' squares erase. Squared hinge adds its
diagonal 1/(2C) as the term ``v * shift`` of each row, never as a shifted copy
of K; a hinge row's shift is 0.0, and its ``v * 0.0`` is a zero (v stays in
its box), so one multiply-add over the batch serves both losses.

The linear kernel's K = XX^T + 1 has rank at most d + 1, often far below m:
it is Z Z^T with Z = [X, 1], m x (d + 1). So a linear run never forms K:
it takes ``K s`` as ``Z (Z^T s)``, two thin gemvs that cost O(m d), not O(m^2)
(linear SVM solvers keep the factor for this reason: Hsieh et al., ICML
2008, the method behind LIBLINEAR). Z^T is held C-contiguous; a gemv on the
strided view ``Z.T`` runs another BLAS kernel, which rounds differently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import checks
from .neighbors import squared_distances

KERNELS = ("linear", "poly", "rbf")
LOSSES = ("hinge", "squared_hinge")

_TOL = 1e-4
_MAX_ITER = 8000
_DEGREE = 3
_COEF0 = 1.0
_BUILD_ORDER = ("rbf", "poly", "linear")  # the order of a batch's kernel runs


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


def _factors(kernel: str, X: np.ndarray, gamma: float) -> tuple[np.ndarray, ...]:
    """The chain of factors whose product is K + 1: ``(Z^T, Z)``, Z = [X, 1], for linear."""
    if kernel == "linear":
        # K = XX^T + 1 = ZZ^T, a product of two thin gemvs
        Z = np.column_stack([X, np.ones(X.shape[0])])
        # Z.T's strided view would gemv differently; and a copy, never a view of an
        # F-ordered Z, since the chain is signed in place
        return (np.array(Z.T, order="C"), Z)
    return (_kernel_matrix(kernel, X, X, gamma),)


def _sign(chain: tuple[np.ndarray, ...], s: np.ndarray) -> None:
    """Multiply the chain's product by ``s s^T`` elementwise, in place and exactly (s is +-1)."""
    first, last = chain[0], chain[-1]  # one array for K
    first *= s  # the input's side
    last *= s[:, None]  # the output's side


def _runs(chains: dict[str, tuple[np.ndarray, ...]], run: np.ndarray) -> list[tuple]:
    """(chain, start, stop) of every chain that has rows; ``run`` is each row's chain, ascending."""
    bounds = np.searchsorted(run, np.arange(len(chains) + 1)).tolist()
    return [(chain, start, stop) for chain, start, stop in zip(chains.values(), bounds, bounds[1:])
            if start < stop]


def _keep(a: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``a[live]``, moved into the leading rows of ``a``'s own buffer."""
    kept = a[live]
    a[: len(kept)] = kept
    return a[: len(kept)]


def _machine(kernel: str, X: np.ndarray, gamma: float, y: np.ndarray, alpha: np.ndarray,
             converged: bool) -> _BinarySVM:
    """The machine of a problem that left its batch with the iterate ``alpha``."""
    machine = _BinarySVM(kernel, gamma, converged)
    dual = alpha * y
    machine.b = float(dual.sum())
    if kernel == "linear":
        machine.w = X.T @ dual
    else:
        keep = np.abs(alpha) > 0
        machine.support_rows = X[keep]
        machine.dual_coef = dual[keep]
    return machine


def _solve_dual(
    classifiers: Sequence[SupportVectorClassifier], chains: dict[str, tuple[np.ndarray, ...]],
    X: np.ndarray, gamma: float, y: np.ndarray,
) -> list[_BinarySVM]:
    """One machine per classifier on the labels ``y``; each chain is signed by ``y``.

    The classifiers come in one run per kernel, in the order of ``chains``.
    """
    n_problems, m = len(classifiers), y.size
    rows = np.arange(n_problems)  # the problem of each row
    kernels = list(chains)
    run = np.array([kernels.index(c.kernel) for c in classifiers])  # the chain of each row
    runs = _runs(chains, run)
    C = np.array([c.C for c in classifiers])
    squared = np.array([c.loss == "squared_hinge" for c in classifiers])
    # held whole, so the step's multiply, divide and clip take arrays of one shape;
    # squared hinge's diagonal 1/(2C) is a term of its own rows, 0.0 on hinge rows
    shift = np.repeat(np.where(squared, 1.0 / (2.0 * C), 0.0)[:, None], m, axis=1)
    upper = np.repeat(np.where(squared, np.inf, C)[:, None], m, axis=1)
    product = np.empty((n_problems, m))
    middle = np.empty((n_problems, X.shape[1] + 1, 1))  # Z^T v of the linear rows

    def dual(V: np.ndarray, term: np.ndarray) -> np.ndarray:
        """``Q v`` of each row of ``V``, written into ``product``; ``term`` is a free buffer.

        Each factor's product is one stacked matmul over its run, a gemv per row.
        """
        out = product[: len(V)]
        for chain, start, stop in runs:
            vectors = V[start:stop, :, None]
            if len(chain) == 2:  # (Z^T, Z): through the thin middle
                vectors = np.matmul(chain[0], vectors, out=middle[start:stop])
            np.matmul(chain[-1], vectors, out=out[start:stop, :, None])
        out += np.multiply(V, shift, out=term)
        return out

    norm = _spectral_norm(lambda V: dual(V, np.empty_like(V)), n_problems, m)
    lipschitz = np.repeat((norm * 1.05)[:, None], m, axis=1)

    # the iterate, the velocity and a free buffer; a step writes the next iterate into the
    # free buffer, then the step itself into the spent velocity's, which is the next velocity
    alpha, velocity, alpha_next = np.zeros((3, n_problems, m))
    since = np.zeros((n_problems, 1), dtype=np.intp)  # steps since each problem's last restart
    pg0 = None
    machines: list[_BinarySVM | None] = [None] * n_problems
    for iteration in range(_MAX_ITER):
        grad_v = dual(velocity, alpha_next)
        grad_v -= 1.0
        np.divide(grad_v, lipschitz, out=alpha_next)
        np.subtract(velocity, alpha_next, out=alpha_next)
        # clipped as tests/svm_reference.py clips: np.clip keeps -0.0, np.maximum(x, 0.0) gives +0.0
        alpha_next.clip(0.0, upper, out=alpha_next)
        step = np.subtract(alpha_next, alpha, out=velocity)
        restart = (_rowdot(grad_v, step) > 0)[:, None]  # non-descent
        step *= _MOMENTUM[since]
        step += alpha_next
        np.copyto(step, alpha_next, where=restart)
        alpha, velocity, alpha_next = alpha_next, step, alpha
        since += 1
        since[restart] = 0
        if iteration % 10 == 9:
            grad = dual(alpha, alpha_next)
            grad -= 1.0
            gap = np.subtract(alpha, grad, out=alpha_next)
            gap.clip(0.0, upper, out=gap)
            np.subtract(alpha, gap, out=gap)
            pg = np.sqrt(_rowdot(gap, gap))
            if pg0 is None:
                pg0 = np.maximum(pg, 1.0)
            done = pg <= _TOL * pg0
            if done.any():  # converged problems leave the batch with their iterates
                for row, a in zip(rows[done].tolist(), alpha[done]):
                    machines[row] = _machine(classifiers[row].kernel, X, gamma, y, a, True)
                if done.all():
                    break
                live = ~done
                rows, run, since, pg0 = rows[live], run[live], since[live], pg0[live]
                alpha, velocity, upper, lipschitz, shift = (
                    _keep(a, live) for a in (alpha, velocity, upper, lipschitz, shift)
                )
                alpha_next = alpha_next[: rows.size]
                runs = _runs(chains, run)
    else:  # the iteration cap: the problems still in the batch end unconverged
        for row, a in zip(rows.tolist(), alpha):
            machines[row] = _machine(classifiers[row].kernel, X, gamma, y, a, False)
    return machines


class SupportVectorClassifier:
    """One-vs-rest wrapper; binary problems use a single machine. Fitted by ``fit_lockstep``."""

    def __init__(self, kernel="linear", loss="hinge", C=1.0):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        self.C = checks.positive("C", C)
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
    """Fit every classifier on (X, y_idx), one lockstep batch per label.

    The labels are class 1 against 0 for two classes, and each class against
    the rest otherwise; a batch holds every classifier's machine of its
    label. The machines are those each classifier would get fitted alone.
    Features that are not finite raise ``ValueError``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("svm: training features hold NaN or infinite values")
    if not classifiers:
        return
    y_idx = np.asarray(y_idx)
    gamma = _scale_gamma(X)
    # one run per kernel; RBF's matrix is built first, so its two-array transient
    # (squared_distances) ends before poly's matrix exists
    members = sorted(classifiers, key=lambda c: _BUILD_ORDER.index(c.kernel))
    kernels = dict.fromkeys(c.kernel for c in members)
    chains = {kernel: _factors(kernel, X, gamma) for kernel in kernels}
    for classifier in members:
        classifier.n_classes = n_classes
        classifier.machines = []
    sign = np.ones(X.shape[0])  # the label that the chains are signed by
    for label in [1] if n_classes == 2 else range(n_classes):
        y = np.where(y_idx == label, 1.0, -1.0)
        for chain in chains.values():
            _sign(chain, sign * y)
        sign = y
        for classifier, machine in zip(members, _solve_dual(members, chains, X, gamma, y)):
            classifier.machines.append(machine)
