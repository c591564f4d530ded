"""Variational quantum classifier.

The circuit is a data feature map followed by L trainable layers (RY
rotations plus a CNOT ring). Class scores are read out from the first
ceil(log2 C) qubits: the 2^r marginal bitstring probabilities are dealt
round-robin onto the C classes (bitstring b -> class b mod C) and
renormalized. Training minimizes cross-entropy by full-batch gradient
descent, one step per epoch over every training row, with parameter-shift
gradients (RY generators admit the exact +-pi/2 rule) or SPSA as a cheaper
seeded alternative.

Rows run as one batch: ``qsim.feature_map_states`` simulates the feature
map once per call (once per ``train``), and the weight layers act on that
(rows, 2^n) batch with one angle per RY gate for all rows and the CNOT
ring as one basis-index permutation. ``train`` allocates one workspace and
reuses it for every loss, parameter-shift step and readout: three (rows,
2^n) complex buffers, which take turns as the unshifted prefix state, the
state being advanced, and the gate scratch or the ring's destination, plus
one (rows, 2^n) float buffer for |psi|^2. With the cached feature-map
states it holds 4.5 batches, whatever the number of layers. ``loss`` and
``parameter_shift_gradient`` allocate one workspace per call, and
``forward_many`` one spare batch and one |psi|^2 buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, TrainingError
from .qkernel import _as_matrix
from .qsim import (
    EXACT,
    FeatureMapKind,
    ShotConfig,
    _apply_op,
    feature_map_states,
    sample_indices,
)

_P_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    method: str = "parameter_shift"
    seed: int = 0
    spsa_step: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.method not in ("parameter_shift", "spsa"):
            raise ConfigError(f"unknown gradient method {self.method!r}")


@dataclass
class VqcModel:
    feature_map: FeatureMapKind
    theta: np.ndarray
    classes: tuple
    entangle: bool = True
    loss_history: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2:
            raise ValueError(f"theta must be (layers, qubits), got shape {self.theta.shape}")
        if len(self.classes) < 2:
            raise ValueError("a classifier needs at least 2 classes")
        if self.readout_qubits > self.n_qubits:
            raise ConfigError(
                f"{len(self.classes)} classes need {self.readout_qubits} readout "
                f"qubits but the circuit has only {self.n_qubits}"
            )

    @property
    def n_qubits(self) -> int:
        return self.theta.shape[1]

    @property
    def n_layers(self) -> int:
        return self.theta.shape[0]

    @property
    def readout_qubits(self) -> int:
        return max(1, math.ceil(math.log2(len(self.classes))))


def _ring_permutation(n: int, entangle: bool) -> np.ndarray | None:
    """Basis-index permutation of one layer's CNOT ring, or None without a ring.

    The ring CNOT(0, 1), ..., CNOT(n-1, 0) sends basis state k to ring(k);
    with ``perm`` its inverse, ``psi[:, perm]`` applies the ring to a batch.
    """
    if not entangle or n < 2:
        return None
    k = np.arange(2 ** n)
    image = k.copy()
    for c in range(n):
        t = (c + 1) % n
        image ^= ((image >> (n - 1 - c)) & 1) << (n - 1 - t)
    perm = np.empty_like(k)
    perm[image] = k
    return perm


def _workspace(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """Three complex state buffers and one |psi|^2 buffer for batches of up
    to ``rows`` states of n qubits; a batch of b rows uses ``buf[:b]`` of
    each, which stays C-contiguous."""
    dim = 2 ** n
    return (*(np.empty((rows, dim), dtype=np.complex128) for _ in range(3)),
            np.empty((rows, dim)))


def _ry_block(psi: np.ndarray, angles: np.ndarray, scratch: np.ndarray) -> None:
    """RY(angles[q]) on every qubit q of a (B, 2**n) batch, in place; one
    angle per gate for all rows."""
    n = len(angles)
    view = psi.reshape((len(psi),) + (2,) * n)
    for q in range(n):
        _apply_op(view, n, "RY", (q,), float(angles[q]), scratch)


def _ring(psi: np.ndarray, spare: np.ndarray, perm: np.ndarray | None):
    """The CNOT ring as ``psi[:, perm]`` written into ``spare``; returns
    (state, free buffer)."""
    if perm is None:
        return psi, spare
    # mode="clip" skips the bounds check for which numpy would first gather
    # into a temporary of the output's size.
    np.take(psi, perm, axis=1, out=spare, mode="clip")
    return spare, psi


def _run_layers(psi: np.ndarray, spare: np.ndarray, theta: np.ndarray,
                perm: np.ndarray | None, start: int = 0):
    """Weight layers ``start``.. applied to the (B, 2**n) batch ``psi``, with
    ``spare`` as gate scratch and ring destination; both are overwritten.
    Returns (final state, free buffer)."""
    for layer in theta[start:]:
        _ry_block(psi, layer, spare)
        psi, spare = _ring(psi, spare, perm)
    return psi, spare


def _readout(psi: np.ndarray, n_classes: int, shots: ShotConfig,
             probs: np.ndarray) -> np.ndarray:
    """Class scores per row of a (B, 2**n) batch, shape (B, n_classes);
    |psi|^2 goes into ``probs``, a (B, 2**n) float buffer.

    Marginal of the first r qubits (exact, or counted from ``shots.shots``
    samples per row, every row drawn with ``shots.seed``), bitstring b dealt
    to class b mod C, renormalized.
    """
    b, dim = psi.shape
    n = dim.bit_length() - 1
    r = max(1, math.ceil(math.log2(n_classes)))
    np.abs(psi, out=probs)
    np.square(probs, out=probs)
    if shots.exact:
        marginal = probs.reshape(b, 2 ** r, dim >> r).sum(axis=2)
    else:
        counts = [
            np.bincount(sample_indices(p, shots.shots, shots.seed) >> (n - r), minlength=2 ** r)
            for p in probs
        ]
        marginal = np.array(counts).reshape(b, 2 ** r) / shots.shots
    # 2**r < 2C, so each class collects one or two bitstrings.
    dealt = np.zeros((b, 2 * n_classes))
    dealt[:, :2 ** r] = marginal
    scores = dealt.reshape(b, 2, n_classes).sum(axis=1)
    total = scores.sum(axis=1, keepdims=True)
    out = np.full_like(scores, 1.0 / n_classes)
    np.divide(scores, total, out=out, where=total > 0)
    return out


def _feature_states(model: VqcModel, xs) -> np.ndarray:
    xs = _as_matrix(xs)
    if xs.shape[1] != model.n_qubits:
        raise ValueError(f"expected {model.n_qubits} features, got shape {xs.shape}")
    return feature_map_states(model.feature_map, xs)


def forward_many(model: VqcModel, xs, shots: ShotConfig = EXACT) -> np.ndarray:
    """Per-class probability scores of every row, shape (rows, classes)."""
    states = _feature_states(model, xs)
    psi, _ = _run_layers(states, np.empty_like(states), model.theta,
                         _ring_permutation(model.n_qubits, model.entangle))
    return _readout(psi, len(model.classes), shots, np.empty(states.shape))


def forward(model: VqcModel, x: Sequence[float], shots: ShotConfig = EXACT) -> np.ndarray:
    """Per-class probability scores (nonnegative, summing to 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_qubits,):
        raise ValueError(f"expected {model.n_qubits} features, got shape {x.shape}")
    return forward_many(model, x[None, :], shots)[0]


def predict(model: VqcModel, x: Sequence[float], shots: ShotConfig = EXACT):
    """Class with the highest score; ties go to the smaller class index."""
    return model.classes[int(np.argmax(forward(model, x, shots)))]


def predict_many(model: VqcModel, xs, shots: ShotConfig = EXACT) -> list:
    """``predict`` for every row of ``xs``, from one batch of states."""
    return [model.classes[i] for i in np.argmax(forward_many(model, xs, shots), axis=1)]


def _cross_entropy(p_true: np.ndarray) -> float:
    # math.log summed row by row, as a per-row loop would, so that shot-mode
    # losses do not move with numpy's vectorised log.
    total = 0.0
    for p in p_true:
        total += -math.log(max(p, _P_FLOOR))
    return total / len(p_true)


def _batch_loss(
    states: np.ndarray,
    theta: np.ndarray,
    class_idx: np.ndarray,
    n_classes: int,
    perm: np.ndarray | None,
    shots: ShotConfig,
    ws: tuple[np.ndarray, ...],
) -> float:
    """Mean cross-entropy over a batch of cached feature-map states."""
    b = len(states)
    psi, spare, _, probs = (buf[:b] for buf in ws)
    np.copyto(psi, states)
    psi, _ = _run_layers(psi, spare, theta, perm)
    scores = _readout(psi, n_classes, shots, probs)
    return _cross_entropy(scores[np.arange(b), class_idx])


def _labelled_states(model: VqcModel, xs, labels) -> tuple[np.ndarray, np.ndarray]:
    """Feature-map states and class indices of a labelled batch, which must
    not be empty: its mean loss would be 0/0."""
    class_idx = _class_indices(model.classes, labels)
    states = _feature_states(model, xs)
    if len(states) == 0:
        raise ValueError("empty batch: the mean loss of zero samples is undefined")
    return states, class_idx


def loss(model: VqcModel, xs, labels, shots: ShotConfig = EXACT) -> float:
    """Mean cross-entropy of the model on (samples, labels)."""
    states, class_idx = _labelled_states(model, xs, labels)
    return _batch_loss(
        states, model.theta, class_idx, len(model.classes),
        _ring_permutation(model.n_qubits, model.entangle), shots,
        _workspace(len(states), model.n_qubits),
    )


def _class_indices(classes: tuple, labels) -> np.ndarray:
    lookup = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([lookup[lab] for lab in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not among model classes {classes}") from exc


def _shift_gradient(
    states: np.ndarray,
    theta: np.ndarray,
    class_idx: np.ndarray,
    n_classes: int,
    perm: np.ndarray | None,
    shots: ShotConfig,
    ws: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Parameter-shift gradient of the mean cross-entropy on cached states.

    RY(t +- pi/2) = RY(+-pi/2) RY(t), and the RYs of one layer commute, so
    the two circuits shifted at (l, q) share everything up to the end of
    layer l's RY block: each is one RY(+-pi/2) on a copy of that prefix
    state, then the ring and the later layers, run in the other two buffers.
    """
    m = len(states)
    n_layers, n = theta.shape
    rows = np.arange(m)
    shifted_p = np.empty((2, m, n_layers, n))
    prefix, work, spare, probs = (buf[:m] for buf in ws)
    np.copyto(prefix, states)
    for l in range(n_layers):
        _ry_block(prefix, theta[l], work)
        for q in range(n):
            for side, angle in enumerate((math.pi / 2.0, -math.pi / 2.0)):
                np.copyto(work, prefix)
                _apply_op(work.reshape((m,) + (2,) * n), n, "RY", (q,), angle, spare)
                psi, free = _ring(work, spare, perm)
                psi, _ = _run_layers(psi, free, theta, perm, l + 1)
                shifted_p[side, :, l, q] = _readout(psi, n_classes, shots, probs)[rows, class_idx]
        prefix, work = _ring(prefix, work, perm)
    p_true = _readout(prefix, n_classes, shots, probs)[rows, class_idx]
    inv_p = -1.0 / np.maximum(p_true, _P_FLOOR)
    # dp/dt = (p(t + pi/2) - p(t - pi/2)) / 2; rows are summed in order.
    terms = inv_p[:, None, None] * 0.5 * (shifted_p[0] - shifted_p[1])
    return terms.sum(axis=0) / m


def parameter_shift_gradient(
    model: VqcModel,
    xs,
    labels,
    shots: ShotConfig = EXACT,
) -> np.ndarray:
    """Exact gradient of the mean cross-entropy w.r.t. every theta entry.

    Each RY weight parameter obeys the parameter-shift rule
    dp/dt = (p(t + pi/2) - p(t - pi/2)) / 2 for every outcome probability.
    """
    states, class_idx = _labelled_states(model, xs, labels)
    return _shift_gradient(
        states, model.theta, class_idx, len(model.classes),
        _ring_permutation(model.n_qubits, model.entangle), shots,
        _workspace(len(states), model.n_qubits),
    )


def _spsa_gradient(
    theta: np.ndarray,
    states: np.ndarray,
    class_idx: np.ndarray,
    n_classes: int,
    perm: np.ndarray | None,
    rng: np.random.Generator,
    c_step: float,
    shots: ShotConfig,
    ws: tuple[np.ndarray, ...],
) -> np.ndarray:
    delta = rng.choice((-1.0, 1.0), size=theta.shape)
    up = _batch_loss(states, theta + c_step * delta, class_idx, n_classes, perm, shots, ws)
    down = _batch_loss(states, theta - c_step * delta, class_idx, n_classes, perm, shots, ws)
    return (up - down) / (2.0 * c_step) * delta


def train(
    xs,
    labels: Sequence,
    feature_map: FeatureMapKind,
    n_layers: int,
    opt: OptimizerConfig = OptimizerConfig(),
    entangle: bool = True,
    shots: ShotConfig = EXACT,
) -> VqcModel:
    """Gradient-descent training; theta starts at uniform(-0.1, 0.1) per seed.

    The feature-map states of ``xs`` do not depend on theta: they are
    simulated once, and every loss and gradient evaluation applies only the
    weight layers to them. Zero epochs return the freshly initialized model.
    A non-finite loss aborts with a TrainingError naming the epoch.
    """
    xs = _as_matrix(xs)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ConfigError(f"need at least 2 classes to train, got {classes}")
    if n_layers < 1:
        raise ConfigError(f"need at least 1 weight layer, got {n_layers}")
    n = xs.shape[1]
    rng = np.random.default_rng(opt.seed)
    theta = rng.uniform(-0.1, 0.1, size=(n_layers, n))
    model = VqcModel(feature_map, theta, classes, entangle)
    class_idx = _class_indices(classes, labels)
    n_classes = len(classes)
    states = feature_map_states(feature_map, xs)
    perm = _ring_permutation(n, entangle)
    ws = _workspace(len(xs), n)

    history = [_batch_loss(states, model.theta, class_idx, n_classes, perm, shots, ws)]
    for epoch in range(opt.epochs):
        if not math.isfinite(history[-1]):
            raise TrainingError("training loss diverged", epoch=epoch)
        if opt.method == "parameter_shift":
            grad = _shift_gradient(states, model.theta, class_idx, n_classes, perm, shots, ws)
        else:
            grad = _spsa_gradient(model.theta, states, class_idx, n_classes, perm, rng,
                                  opt.spsa_step, shots, ws)
        model.theta = model.theta - opt.learning_rate * grad
        history.append(_batch_loss(states, model.theta, class_idx, n_classes, perm, shots, ws))
        if not math.isfinite(history[-1]):
            raise TrainingError("training loss diverged", epoch=epoch)
    model.loss_history = tuple(history)
    return model
