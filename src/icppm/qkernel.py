"""Kernel matrices: classical (linear, rbf) and quantum overlap kernels.

A quantum kernel entry is |<psi(x')|psi(x)>|^2 with psi(x) = V(x)|0...0>.
Each input row's feature-map state is simulated once, as one batch
(``qsim.feature_map_states``), and all entries are read off the state inner
products: a Gram matrix is |S S^H|^2 over its strict upper triangle
(m(m-1)/2 logical entries, tracked in ``eval_count``), mirrored, with the
diagonal fixed at 1; a cross matrix is |S_test S_train^H|^2. The batch holds
m * 2^n complex amplitudes. Both products read the conjugated batch of
their columns: ``gram`` returns the train rows' conjugated batch
(``KernelMatrix.conj_states``), and ``cross`` given it simulates only the
test rows that are no train row, so a fold simulates each distinct row
once (bit for bit where a state does not depend on its batch; see qsim).

Shot mode samples a fold's two kernels as the row blocks of one
[train; test] x train matrix: its row r is binomial(shots, p) / shots over
the exact row, with p clamped to 1, drawn from a generator seeded by
(shot seed, r) (``_sample``). So Gram row i draws from (seed, i) before its
strict upper triangle is mirrored, and cross row i, a test row, from
(seed, len(train) + i): no test row replays the draws of the train row with
its index, and the draws do not depend on whether ``cross`` got the train
states or simulated them.

A classical Gram matrix is the cross matrix of the rows with themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qsim import EXACT, FeatureMapKind, ShotConfig, _checked_rows, feature_map_states

KERNEL_VARIANTS = ("linear", "rbf", "quantum")
# Elements per row block of an m-column pass (rows * m): the RBF chain and
# the symmetry scan allocate one block, not a second m x m array.
_BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class KernelKind:
    variant: str
    gamma: float | None = None
    feature_map: FeatureMapKind | None = None
    shots: ShotConfig = EXACT

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ConfigError(f"unknown kernel {self.variant!r}, expected {KERNEL_VARIANTS}")
        if self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ConfigError(f"rbf gamma must be positive and finite, got {self.gamma}")
        if self.variant == "quantum" and self.feature_map is None:
            raise ConfigError("quantum kernel requires a feature map")

    @classmethod
    def linear(cls) -> "KernelKind":
        return cls("linear")

    @classmethod
    def rbf(cls, gamma: float | None = None) -> "KernelKind":
        return cls("rbf", gamma=gamma)

    @classmethod
    def quantum(cls, feature_map: FeatureMapKind, shots: ShotConfig = EXACT) -> "KernelKind":
        return cls("quantum", feature_map=feature_map, shots=shots)


@dataclass
class KernelMatrix:
    """Kernel values plus work counters.

    ``eval_count`` counts logical quantum entries (the strict upper triangle
    of a Gram matrix, every entry of a cross matrix); ``states_simulated``
    counts feature-map states simulated to produce them. Both are 0 for
    classical kernels. ``conj_states`` is the complex-conjugated (m, 2**n)
    batch of the rows a quantum Gram matrix was read off, for ``cross`` to
    reuse; it is None for classical and cross matrices.
    """

    values: np.ndarray
    eval_count: int = 0
    states_simulated: int = 0
    conj_states: np.ndarray | None = None


def _as_matrix(data) -> np.ndarray:
    out = np.asarray(data, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got shape {out.shape}")
    return out


def _checked_weights(sample_weight, m: int) -> np.ndarray:
    """``sample_weight`` as a float array, m unit weights for None; ValueError
    unless it holds m entries, each finite and > 0. The one weight rule of
    ``svm`` and ``vqc``."""
    if sample_weight is None:
        return np.ones(m)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"need one sample weight per label, got {w.shape} for {m} labels")
    if not np.all(np.isfinite(w)):
        raise ValueError("sample weights must be finite")
    if not np.all(w > 0):
        raise ValueError(f"sample weights must be > 0, got minimum {w.min()}")
    return w


def asymmetry(values: np.ndarray) -> float:
    """Largest |K - K^T| entry of a square matrix (NaN or inf if an entry is
    not finite), from square tiles of the upper triangle against their
    transposed partners, so both are read along rows and no m x m temporary
    is allocated."""
    m = len(values)
    side = math.isqrt(_BLOCK_ELEMENTS)
    buf = np.empty(side * side)
    worst = 0.0
    for lo in range(0, m, side):
        for hi in range(lo, m, side):
            tile = values[lo:lo + side, hi:hi + side]
            diff = buf[:tile.size].reshape(tile.shape)
            with np.errstate(invalid="ignore"):  # inf - inf
                np.subtract(tile, values[hi:hi + side, lo:lo + side].T, out=diff)
            np.abs(diff, out=diff)
            worst = float(np.maximum(worst, diff.max()))  # keeps a NaN
    return worst


def _overlaps(rows: np.ndarray, conj_cols: np.ndarray) -> np.ndarray:
    """|<psi(c)|psi(r)>|^2 for every state pair, from (B, 2**n) batches of
    the row states and of the conjugated column states."""
    return np.abs(rows @ conj_cols.T) ** 2


def _sample(overlaps: np.ndarray, shots: ShotConfig, first_row: int) -> np.ndarray:
    """Shot frequencies of an overlap matrix, written over it: its row i is
    row r = ``first_row`` + i of a larger sampled matrix and draws
    binomial(shots, p) from ``default_rng((seed, r))``, with p clamped to 1,
    which exact self-overlaps exceed in the last bit."""
    np.minimum(overlaps, 1.0, out=overlaps)
    for r, row in enumerate(overlaps, first_row):
        row[:] = np.random.default_rng((shots.seed, r)).binomial(shots.shots, row)
    overlaps /= shots.shots
    return overlaps


def gram(train, kind: KernelKind) -> KernelMatrix:
    """Symmetric train-by-train kernel matrix.

    A classical kernel is ``cross`` of the rows with themselves. For the
    quantum kernel every row's state is simulated once; the strict upper
    triangle is read off the state inner products (or their ``_sample``),
    mirrored, and the diagonal is 1 by construction. The conjugated states
    come back as ``conj_states`` for ``cross``.
    """
    x = _as_matrix(train)
    if kind.variant != "quantum":
        return cross(x, x, kind)
    m = len(x)
    states = feature_map_states(kind.feature_map, x)
    conj_states = states.conj()
    overlaps = _overlaps(states, conj_states)
    if not kind.shots.exact:
        overlaps = _sample(overlaps, kind.shots, first_row=0)
    upper = np.triu(overlaps, 1)
    del overlaps
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return KernelMatrix(values, eval_count=m * (m - 1) // 2, states_simulated=m,
                        conj_states=conj_states)


def cross(test, train, kind: KernelKind, train_states: np.ndarray | None = None) -> KernelMatrix:
    """Rectangular test-by-train kernel matrix (all p*m entries).

    For the quantum kernel, ``train_states`` is the ``conj_states`` of
    ``gram(train, kind)``; given it, a test row equal by value to a train
    row takes its state and only the others are simulated. A batch whose
    shape is not (m, 2**n) for ``train`` raises ValueError. In shot mode test row i is row m + i of the sampled
    [train; test] x train matrix whose first m rows are the Gram matrix's.
    """
    xt = _as_matrix(test)
    xr = _as_matrix(train)
    if xt.shape[1] != xr.shape[1]:
        raise ValueError(f"dimension mismatch: {xt.shape[1]} vs {xr.shape[1]}")
    if kind.variant == "linear":
        return KernelMatrix(xt @ xr.T)
    if kind.variant == "rbf":
        gamma = kind.gamma if kind.gamma is not None else 1.0 / xr.shape[1]
        # exp(-gamma * max(|t|^2 + |r|^2 - 2 t.r, 0)): the dot products go into
        # the output (a Gram keeps numpy's syrk path), the rest per row block.
        values = np.matmul(xt, xr.T, out=np.empty((len(xt), len(xr))))
        sq_t, sq_r = np.sum(xt ** 2, axis=1), np.sum(xr ** 2, axis=1)
        rows = max(1, _BLOCK_ELEMENTS // max(len(xr), 1))
        buf = np.empty(rows * len(xr))
        for lo in range(0, len(xt), rows):
            dots = values[lo:lo + rows]
            block = np.add(sq_t[lo:lo + rows, None], sq_r,
                           out=buf[:dots.size].reshape(dots.shape))
            dots *= 2.0
            block -= dots
            np.maximum(block, 0.0, out=block)
            block *= -gamma
            np.exp(block, out=dots)
        return KernelMatrix(values)
    xt = _checked_rows(xt)
    simulated = 0
    if train_states is None:
        train_states = feature_map_states(kind.feature_map, xr)
        np.conjugate(train_states, out=train_states)
        simulated = len(xr)
    elif train_states.shape != (len(xr), 2 ** xr.shape[1]):
        raise ValueError(f"train states of shape {train_states.shape} do not match "
                         f"{len(xr)} train rows of {xr.shape[1]} qubits")
    # Each test row's equal train row or -1, by bytes after + 0.0 (-0.0 is 0.0).
    index = {row.tobytes(): i for i, row in enumerate(xr + 0.0)}
    train_of = np.array([index.get(row.tobytes(), -1) for row in xt + 0.0], dtype=np.intp)
    new = train_of < 0
    simulated += int(np.count_nonzero(new))
    # The new rows first, so their simulation's workspace is freed before
    # the batch is assembled.
    fresh = feature_map_states(kind.feature_map, xt[new]) if new.any() else None
    states = np.empty((len(xt), train_states.shape[1]), dtype=np.complex128)
    states[~new] = train_states[train_of[~new]]
    np.conjugate(states, out=states)
    if fresh is not None:
        states[new] = fresh
    values = _overlaps(states, train_states)
    if not kind.shots.exact:
        values = _sample(values, kind.shots, first_row=len(xr))
    return KernelMatrix(values, eval_count=values.size, states_simulated=simulated)

