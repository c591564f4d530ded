"""Soft-margin SVM on precomputed kernel arrays, trained by SMO.

The dual problem  max sum(a) - 1/2 aQa  s.t. 0 <= a <= C, y.a = 0  is
solved by sequential minimal optimization with second-order working-set
selection (WSS2; Fan, Chen & Lin, JMLR 6:1889, 2005). With v_t = y_t - u_t,
where u = K(a*y), ``i`` is the argmax of v over the up set and ``j`` the
index of the low set with v_j < v_i that maximizes the guaranteed gain
b^2 / eta, b = v_i - v_j and eta = K_ii + K_jj - 2 K_ij; the two-variable
subproblem is then solved analytically. eta depends on the kernel alone, so
it is one m x m table (``_eta_table``) that ``fit_multiclass`` builds once
for all its one-vs-rest problems. Kernel rows are read instead of
columns, which needs a symmetric kernel. ``fit`` raises ``ValueError`` on an
asymmetric kernel, on C or tol not > 0 (C = inf is allowed), on a
``max_passes`` that is not an integer >= 0 and on a ``sample_weight`` that
is not one finite entry > 0 per label.

``sample_weight`` scales the box of each variable: 0 <= a_t <= C * w_t, the
per-instance C of LIBSVM's weighted SVC; None means unit weights, so the
solver always sets ``caps``. Equal rows with equal labels can thus be merged
into one variable whose weight is their count: the merged dual has the same
optimum value, and its optimum spread evenly over a group is an optimum of
the unmerged dual.

The state is v on each set: ``up_v`` holds v_t on the up set and -inf
outside it, ``low_v`` v_t on the low set and +inf outside it. A pair update
subtracts step * (K_i - K_j) from both; only a_i and a_j move, so only they
can change sets, taking v from the array that still holds it. Alphas, label
signs and memberships are Python floats and bools. Once the incremental gap
max_up(v) - min_low(v) drops to ``tol``, both arrays are rebuilt from the
exact v = y - K(a*y); the bias and the reported gap come from it, and if its
gap is still above ``tol`` the loop goes on. So every returned model has an
exact KKT gap <= tol, which bounds every KKT residual by tol; the pairwise
updates keep sum(a_i y_i) = 0 to float precision throughout.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateModelError
from .qkernel import _checked_weights, asymmetry

_BOUND_EPS = 1e-12
# Largest |K - K^T| accepted, relative to max|K|.
_SYMMETRY_RTOL = 1e-9


@dataclass
class SvmModel:
    """dual_coefs holds a_i * y_i for support vectors only (a_i > 0), and
    ``caps`` the box bound C * w_i of each of them (None: every bound is C,
    which only a hand-built model leaves; the solver always sets it).

    ``iterations`` counts SMO pair updates and ``kkt_gap`` is the exact final
    violation gap max(0, max_up(v) - min_low(v)) of the solver's final
    alphas, taken before alphas <= 1e-12 are dropped from ``dual_coefs``. So
    at C <= ~2e-12, where a dropped alpha can sit at the bound C, a gap
    recomputed from the model's own ``dual_coefs`` can read higher.
    """

    dual_coefs: np.ndarray
    support_indices: np.ndarray
    bias: float
    C: float
    iterations: int = 0
    kkt_gap: float = 0.0
    caps: np.ndarray | None = None

    def __post_init__(self):
        self.dual_coefs = np.asarray(self.dual_coefs, dtype=np.float64)
        self.support_indices = np.asarray(self.support_indices, dtype=np.int64)
        if self.dual_coefs.shape != self.support_indices.shape:
            raise ValueError("dual_coefs and support_indices lengths differ")
        caps = self.C
        if self.caps is not None:
            self.caps = caps = np.asarray(self.caps, dtype=np.float64)
            if caps.shape != self.dual_coefs.shape:
                raise ValueError("caps and dual_coefs lengths differ")
        if np.any(np.abs(self.dual_coefs) > caps + 1e-9):
            raise ValueError("dual coefficients exceed the box constraint")


def _check_kernel(k: np.ndarray, m: int) -> None:
    """Raise ValueError unless K is m x m, finite and symmetric to within
    _SYMMETRY_RTOL * max|K|, with no m x m temporary (``asymmetry``)."""
    if k.shape != (m, m):
        raise ValueError(f"kernel shape {k.shape} does not match {m} labels")
    scale = max(float(k.max()), -float(k.min()))
    if not np.isfinite(scale):
        raise ValueError("kernel has non-finite entries")
    limit = _SYMMETRY_RTOL * scale
    worst = asymmetry(k)
    if worst > limit:
        raise ValueError(f"kernel is not symmetric: |K - K^T| reaches {worst:.3e} "
                         f"(limit {limit:.3e})")


def _check_args(C: float, tol: float, max_passes: int) -> None:
    """Raise ValueError unless C > 0 (inf allowed), tol > 0 and max_passes >= 0."""
    if not (C > 0 and tol > 0 and isinstance(max_passes, numbers.Integral) and max_passes >= 0):
        raise ValueError(f"need C > 0, tol > 0 and an integer max_passes >= 0, "
                         f"got C={C}, tol={tol}, max_passes={max_passes!r}")


def fit(kernel, y: Sequence[float], C: float = 1.0, tol: float = 1e-3,
        max_passes: int = 100_000, sample_weight: Sequence[float] | None = None) -> SvmModel:
    """Train a binary SVM on a precomputed symmetric kernel with labels in
    {-1, +1}; variable t is boxed by C * sample_weight[t] (unit weights if None)."""
    _check_args(C, tol, max_passes)
    y = np.asarray(y, dtype=np.float64)
    w = _checked_weights(sample_weight, len(y))
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel(k, len(y))
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    return _smo(k, _eta_table(k), y, C, tol, max_passes, w)


def _eta_table(k: np.ndarray) -> np.ndarray:
    """eta[i, t] = max(K_ii + K_tt - 2 K_it, 1e-12) for every pair: the WSS2
    denominator, which depends on the kernel only, so every one-vs-rest
    problem of a kernel reads the same table. One m x m array, no other."""
    diag = np.diagonal(k)
    eta = np.add(k, k)
    np.subtract(diag, eta, out=eta)
    eta += diag[:, None]
    np.maximum(eta, _BOUND_EPS, out=eta)
    return eta


def _smo(k: np.ndarray, eta: np.ndarray, y: np.ndarray, C: float, tol: float,
         max_passes: int, w: np.ndarray) -> SvmModel:
    """The solver of ``fit`` and ``fit_multiclass``, on inputs they checked;
    ``eta`` is ``_eta_table(k)``."""
    if np.all(y == y[0]):
        raise DegenerateModelError("all training labels belong to one class")
    m = len(y)
    pos = (y > 0).tolist()
    alpha = [0.0] * m
    # Each variable's box bound C * w_t, and that bound less the bound slack.
    cap = (C * w).tolist()
    below_c = [c - _BOUND_EPS for c in cap]
    # Membership; outside a set its array holds -inf (up) or +inf (low).
    in_up, in_low = list(pos), [not p for p in pos]
    up_v, low_v = np.where(y > 0, y, -np.inf), np.where(y > 0, np.inf, y)
    zeros = np.zeros(m)
    scalar = np.empty(())  # one 0-d operand for v_i and the step
    gain, delta = np.empty(m), np.empty(m)
    subtract, maximum, square = np.subtract, np.maximum, np.square
    exact, iterations = False, 0
    while True:
        i = int(up_v.argmax())
        v_i = up_v.item(i)
        gap = v_i - low_v.item(low_v.argmin())
        if gap <= tol:
            if exact:
                break
            # Confirm on the exact gradient; go on from it if still above tol.
            v = y - k @ (np.fromiter(alpha, float, m) * y)
            up_v = np.where(up_v > -np.inf, v, -np.inf)
            low_v = np.where(low_v < np.inf, v, np.inf)
            exact = True
            continue
        if iterations == max_passes:
            raise ConvergenceError(f"SMO did not converge within {max_passes} passes "
                                   f"(gap {gap:.3e})")
        # j maximizes b_t^2 / eta_t over the low set where b_t = v_i - v_t > 0.
        eta_i = eta[i]
        scalar[()] = v_i
        subtract(scalar, low_v, out=gain)
        maximum(gain, zeros, out=gain)
        square(gain, out=gain)
        gain /= eta_i
        j = int(gain.argmax())
        v_j = low_v.item(j) if in_low[j] else up_v.item(j)
        a_i, a_j, pos_i, pos_j = alpha[i], alpha[j], pos[i], pos[j]
        step = min((v_i - v_j) / eta_i.item(j), cap[i] - a_i if pos_i else a_i,
                   a_j if pos_j else cap[j] - a_j)
        alpha[i] = min(max(a_i + step if pos_i else a_i - step, 0.0), cap[i])
        alpha[j] = min(max(a_j - step if pos_j else a_j + step, 0.0), cap[j])
        scalar[()] = step
        subtract(k[i], k[j], out=delta)
        delta *= scalar
        up_v -= delta
        low_v -= delta
        for t in (i, j):
            below, above = alpha[t] < below_c[t], alpha[t] > _BOUND_EPS
            is_up, is_low = (below, above) if pos[t] else (above, below)
            if is_up != in_up[t] or is_low != in_low[t]:
                v_t = up_v.item(t) if in_up[t] else low_v.item(t)
                up_v[t] = v_t if is_up else -np.inf
                low_v[t] = v_t if is_low else np.inf
                in_up[t], in_low[t] = is_up, is_low
        iterations, exact = iterations + 1, False

    alpha = np.fromiter(alpha, float, m)
    free = (alpha > _BOUND_EPS) & (alpha < np.array(below_c))
    if free.any():
        bias = float(np.mean(v[free]))
    else:
        hi, lo = float(up_v.max()), float(low_v.min())
        bias = 0.5 * ((hi if np.isfinite(hi) else 0.0) + (lo if np.isfinite(lo) else 0.0))

    support = np.flatnonzero(alpha > _BOUND_EPS)
    return SvmModel((alpha * y)[support], support, bias, C,
                    iterations=iterations, kkt_gap=max(gap, 0.0),
                    caps=C * w[support])


def decision(model: SvmModel, kernel_row: Sequence[float]) -> float:
    """Decision value from one row of test-vs-train kernel values."""
    row = np.asarray(kernel_row, dtype=np.float64)
    return float(row[model.support_indices] @ model.dual_coefs + model.bias)


def dual_objective(kernel, y: Sequence[float], alpha: Sequence[float]) -> float:
    """Value of the dual objective sum(a) - 1/2 sum a_i a_j y_i y_j K_ij."""
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    coef = alpha * y
    return float(np.sum(alpha) - 0.5 * coef @ k @ coef)


def alphas_from_model(model: SvmModel, m: int) -> np.ndarray:
    """Reconstruct the full alpha vector (a_i = |dual_coef_i|, zero elsewhere)."""
    alpha = np.zeros(m)
    alpha[model.support_indices] = np.abs(model.dual_coefs)
    return alpha


@dataclass
class MulticlassModel:
    """One-vs-rest ensemble; class order is the sorted label order, and
    ``class_weights`` holds each class's summed training ``sample_weight``."""

    classes: tuple
    models: tuple[SvmModel, ...]
    class_weights: np.ndarray

    def decision_matrix(self, cross) -> np.ndarray:
        rows = np.asarray(cross, dtype=np.float64)
        scores = np.empty((len(rows), len(self.classes)))
        for c, model in enumerate(self.models):
            scores[:, c] = rows[:, model.support_indices] @ model.dual_coefs + model.bias
        return scores


def fit_multiclass(kernel, labels: Sequence, C: float = 1.0, tol: float = 1e-3,
                   max_passes: int = 100_000,
                   sample_weight: Sequence[float] | None = None) -> MulticlassModel:
    """Train one binary model per class against the rest, each with the
    boxes C * sample_weight of ``fit``."""
    _check_args(C, tol, max_passes)
    labels = list(labels)
    w = _checked_weights(sample_weight, len(labels))
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateModelError(f"need at least 2 classes, got {classes}")
    k = np.asarray(kernel, dtype=np.float64)
    _check_kernel(k, len(labels))
    position = {cls_label: c for c, cls_label in enumerate(classes)}
    codes = np.array([position[lab] for lab in labels])
    eta = _eta_table(k)
    models = [_smo(k, eta, np.where(codes == c, 1.0, -1.0), C, tol, max_passes, w)
              for c in range(len(classes))]
    return MulticlassModel(classes, tuple(models),
                           np.bincount(codes, weights=w, minlength=len(classes)))


def predict(model: MulticlassModel, cross) -> list:
    """Highest one-vs-rest score wins. An exact tie goes to the tied class
    with the largest training weight, then to the smaller class index, so a
    row on which every score ties gets the majority class."""
    scores = model.decision_matrix(cross)
    tied = scores == scores.max(axis=1, keepdims=True)
    best = np.argmax(np.where(tied, model.class_weights, -np.inf), axis=1)
    return [model.classes[i] for i in best]
