"""Variational quantum classifier.

The circuit is a data feature map followed by L trainable layers (RY
rotations plus a CNOT ring from two qubits on). Class scores are read out
from the first ceil(log2 C) qubits: the 2^r marginal bitstring
probabilities (in shot mode, frequencies sampled from them) are dealt
round-robin onto the C classes (bitstring b -> class b mod C) and
renormalized. Training minimizes cross-entropy by full-batch gradient
descent, one step per epoch over every training row. A row may carry a
weight (``sample_weight``, such as a count; None means 1 per row): the
loss is sum_t w_t (-log p_t) / sum_t w_t, so a row of weight c counts as c
equal rows with its label. The default method takes exact gradients: in
exact mode by adjoint differentiation, one forward pass that also gives
the loss and one backward walk, O(L) layer passes; in shot mode by the
parameter-shift rule (RY generators admit the exact +-pi/2 rule), the
estimator hardware would use.
``parameter_shift_gradient`` applies that rule in either mode and is the
reference for ``adjoint_gradient``. SPSA is a cheaper seeded alternative.

Which models simulate states (``simulates_states``): every model in shot
mode, every ``zz`` and ``angle_zz`` model, and every angle-map model of two
or more weight layers; ``parameter_shift_gradient`` always does, as the
cross-check. An exact angle-map model of one weight layer, the default
``vqc_angle_1``, simulates none. Its state before the ring is a product
state, qubit q reading 1 with probability sin^2(a_q/2) for a = L x +
theta_0, and the ring is linear over GF(2), so the readout value is the
XOR of the ring columns of the qubits that read 1 (``_parity_patterns``).
Qubits with equal columns form a group, odd with probability
f = (1 - prod cos a_q)/2, and a class score is a sum of products of each
group's f or 1 - f: a classical product-of-cosines model, computed exactly
in O(rows 2^G n) with G <= r + 1 groups (``_parity_scores``), whose
gradient is read back through the same products (``_parity_gradient``).
On 9 qubits and 6 classes (r = 3) the groups are qubit 0 (column 3),
qubits 3-8 (column 4), qubit 2 (column 5) and qubit 1 (column 7): 16
parity patterns instead of 512 amplitudes. Its exact scores, losses
(each epoch's, the final one, ``loss`` and SPSA's) and adjoint gradients
(each exact training step and ``adjoint_gradient``) come from these
patterns, and ``forward_many`` and ``predict_many`` score exact rows with
them.

Rows run as one batch: the weight layers act on a (rows, 2^n) batch with
one angle per RY gate for all rows and the CNOT ring as one basis-index
permutation. Every evaluation starts from the state after weight layer
0's RY block (``_first_block``). For the ``zz`` and ``angle_zz`` maps,
``qsim.feature_map_states`` simulates the feature map once per batch, and
each evaluation copies those states and runs layer 0's RYs on them. The
``angle`` map is folded into layer 0 instead: on each qubit
RY(theta_0q) RY(x_q)^L = RY(L x_q + theta_0q), and no entangler sits
between the two, so that state is a product state, which
``qsim.product_states`` writes from the angles L x + theta_0 without a
gate. An angle-map batch keeps only the (rows, n) angles L x, and an exact
epoch runs (L - 1) n RY gates forward and 2 (L - 1) n backward, none at
L = 1; the other maps run L n forward. The adjoint reads each layer's
gradient with 2 einsums per head qubit, whose half-runs are at least
``_TAIL_BLOCK`` = 16 floats, plus one 16 x 16 product over the rows'
16-float blocks for the (at most four) tail qubits (``_tail_pairs``).

Every loss and gradient reads one labelled batch (``_Batch``): the
encoded rows (the angles or the cached feature-map states), each row's
class index and weight, the class count, the ring permutation and its
inverse, the parity patterns of a model that has them and, allocated when
a statevector path first runs, the class indicator per basis state and a
workspace that every such loss, gradient and readout reuses, so the
parity path holds no (rows, 2^n) buffer. The workspace is three
(rows, 2^n) state buffers, which take turns as the states being advanced
(the prefix and the shifted state, or the adjoint's state and costate)
and the gate scratch or the ring's destination, plus one (rows, 2^n)
float buffer for |psi|^2 and the adjoint's weights. The state buffers take the dtype of
the encoded rows: float64 on the angle map, whose product states, RYs and
ring are all real, and complex128 on the others. So a batch holds four
float (rows, 2^n) buffers on the angle map and, with the cached states,
4.5 complex batches on the others, whatever the number of layers; the
adjoint's costate and gradient sums run on float views with one part per
amplitude (real) or two (complex). ``train`` builds one labelled batch
for all its epochs; ``loss`` and the two gradient functions build one per
call, and ``forward_many`` on a statevector path allocates the state, one
spare and one |psi|^2 buffer (the ``zz`` and ``angle_zz`` states are
rotated in place).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateModelError, TrainingError
from .qkernel import _as_matrix, _checked_weights
from .qsim import (
    EXACT,
    FeatureMapKind,
    ShotConfig,
    _apply_op,
    _checked_rows,
    feature_map_states,
    product_states,
)

_P_FLOOR = 1e-12
# SPSA perturbation c: grad ~ (L(theta + c delta) - L(theta - c delta)) / 2c * delta.
_SPSA_STEP = 0.1
# The largest float64 below 1/2.
_BELOW_HALF = math.nextafter(0.5, 0.0)
# Float64s per block of the adjoint's tail product: a qubit whose half-runs
# are shorter than this is read from one (block, block) product per layer.
_TAIL_BLOCK = 16


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    method: str = "parameter_shift"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.method not in ("parameter_shift", "spsa"):
            raise ConfigError(f"unknown gradient method {self.method!r}")


@dataclass
class VqcModel:
    feature_map: FeatureMapKind
    theta: np.ndarray
    classes: tuple
    loss_history: tuple[float, ...] = field(default_factory=tuple)
    # The norm of the gradient each training epoch stepped with.
    grad_norms: tuple[float, ...] = field(default_factory=tuple)

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
        return _readout_qubits(len(self.classes))


def _readout_qubits(n_classes: int) -> int:
    """r = max(1, ceil(log2 C)): the qubits whose 2^r bitstrings cover C
    classes."""
    return max(1, math.ceil(math.log2(n_classes)))


@functools.lru_cache(maxsize=None)
def _ring_permutation(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-index permutations (perm, image) of one layer's CNOT ring; the
    identity for one qubit, which has no ring. Built once per width and
    returned read-only.

    The ring CNOT(0, 1), ..., CNOT(n-1, 0) sends basis state k to
    ``image[k]``; with ``perm`` its inverse, ``psi[:, perm]`` applies the
    ring to a batch.
    """
    k = np.arange(2 ** n)
    image = k.copy()
    for c in range(n if n > 1 else 0):
        t = (c + 1) % n
        image ^= ((image >> (n - 1 - c)) & 1) << (n - 1 - t)
    perm = np.empty_like(k)
    perm[image] = k
    perm.flags.writeable = image.flags.writeable = False
    return perm, image


@functools.lru_cache(maxsize=None)
def _tail_pairs(n: int, parts: int) -> tuple[int, int, np.ndarray]:
    """(head, width, pairs) for the adjoint's gradient read-out on n qubits
    whose amplitudes take ``parts`` float64s each.

    In the float view of a row, qubit q pairs each float a with a & h == 0
    with a + h, where h = parts * 2**(n-1-q) is its half-run. The first
    ``head`` qubits have half-runs of at least ``width`` =
    min(_TAIL_BLOCK, row length) floats; every pair of a later (tail) qubit
    lies inside one aligned block of ``width`` floats. Row t of the
    read-only (n - head, width / 2) table ``pairs`` holds, for tail qubit
    head + t, the flat index (a + h) * width + a of each of its pairs in a
    (width, width) matrix. Built once per (n, parts).
    """
    width = min(_TAIL_BLOCK, parts << n)
    runs = [parts << (n - 1 - q) for q in range(n)]
    head = sum(h >= width for h in runs)
    pairs = np.array([[(a + h) * width + a for a in range(width) if not a & h]
                      for h in runs[head:]])
    pairs.flags.writeable = False
    return head, width, pairs


def _ry_block(psi: np.ndarray, angles: np.ndarray, scratch: np.ndarray) -> None:
    """RY(angles[q]) on every qubit q of a (B, 2**n) batch, in place; one
    angle per gate for all rows."""
    n = len(angles)
    view = psi.reshape((len(psi),) + (2,) * n)
    for q in range(n):
        _apply_op(view, n, "RY", (q,), float(angles[q]), scratch)


def _ring(psi: np.ndarray, spare: np.ndarray, perm: np.ndarray):
    """The CNOT ring as ``psi[:, perm]`` written into ``spare``; returns
    (state, free buffer)."""
    # mode="clip" skips the bounds check for which numpy would first gather
    # into a temporary of the output's size.
    np.take(psi, perm, axis=1, out=spare, mode="clip")
    return spare, psi


def _run_layers(psi: np.ndarray, spare: np.ndarray, theta: np.ndarray,
                perm: np.ndarray, start: int):
    """Weight layers ``start``.. applied to the (B, 2**n) batch ``psi``, with
    ``spare`` as gate scratch and ring destination; both are overwritten.
    Returns (final state, free buffer)."""
    for layer in theta[start:]:
        _ry_block(psi, layer, spare)
        psi, spare = _ring(psi, spare, perm)
    return psi, spare


def _readout(psi: np.ndarray, n_classes: int, shots: ShotConfig,
             probs: np.ndarray) -> np.ndarray:
    """Class scores per row of a real or complex (B, 2**n) batch, shape
    (B, n_classes); |psi|^2 goes into ``probs``, a (B, 2**n) float buffer.

    The exact marginal of the first r qubits, which shot mode replaces by
    one multinomial draw of ``shots.shots`` per row, all rows from one
    generator seeded by ``shots.seed``; bitstring b is dealt to class
    b mod C and the scores renormalized.
    """
    b, dim = psi.shape
    r = _readout_qubits(n_classes)
    if np.iscomplexobj(psi):
        psi = np.abs(psi, out=probs)
    np.square(psi, out=probs)
    marginal = probs.reshape(b, 2 ** r, dim >> r).sum(axis=2)
    if not shots.exact:
        rng = np.random.default_rng(shots.seed)
        marginal = rng.multinomial(shots.shots, marginal) / shots.shots
    # 2**r < 2C, so each class collects one or two bitstrings.
    dealt = np.zeros((b, 2 * n_classes))
    dealt[:, :2 ** r] = marginal
    scores = dealt.reshape(b, 2, n_classes).sum(axis=1)
    return scores / scores.sum(axis=1, keepdims=True)


def _folds(model: VqcModel) -> bool:
    """Whether the feature map folds into weight layer 0 (the angle map)."""
    return model.feature_map.variant == "angle"


def simulates_states(model: VqcModel, shots: ShotConfig = EXACT) -> bool:
    """Whether ``model``'s scores, losses and adjoint gradients under
    ``shots`` come from simulated states. An exact angle-map model with one
    weight layer takes them from its parity patterns (``_parity_scores``)
    and simulates none; every other model, and every shot readout, does."""
    return not (shots.exact and _folds(model) and model.n_layers == 1)


@dataclass(frozen=True)
class _Patterns:
    """The parity form of a one-layer angle model (``_parity_patterns``) as
    read-only index tables, with every product's axis first.

    ``slots`` (K, G): column g lists group g's qubits in order, padded with
    n (a zero angle). ``on_pattern`` (2^G, C): 1 where parity pattern s is
    dealt to class c. ``pick`` (G, 2^G): the factor of group g in pattern
    s, as the index g + G (bit G-1-g of s) into a row's P(even) of each
    group followed by its P(odd) of each group. ``varied`` (G, G, 2^G):
    ``pick`` with, in variant v, group v's factor taken from a (-1, 1)
    appended after those 2 G entries. ``others`` (K-1, K): the slots of a
    group other than slot k.
    """

    slots: np.ndarray
    on_pattern: np.ndarray
    pick: np.ndarray
    varied: np.ndarray
    others: np.ndarray


@functools.lru_cache(maxsize=None)
def _parity_patterns(n: int, n_classes: int) -> _Patterns:
    """The parity form of a one-layer angle model on n qubits and
    ``n_classes`` classes, built once per (n, C).

    The ring is linear over GF(2): input bit q flips readout value b by its
    column ``image[1 << (n-1-q)] >> (n-r)``, so b is the XOR of the columns
    of the set bits. Qubits with equal columns form one group, whose parity
    is all that b reads; a zero column is read by no class and is dropped.
    Groups are in column order. Parity pattern s has bit G-1-g set when
    group g is odd and reads value b = XOR of those groups' columns, which
    is dealt to class b mod C.
    """
    _, image = _ring_permutation(n)
    r = _readout_qubits(n_classes)
    column = [int(image[1 << (n - 1 - q)]) >> (n - r) for q in range(n)]
    keys = sorted(set(column) - {0})
    groups = [[q for q in range(n) if column[q] == key] for key in keys]
    width, n_groups = max(map(len, groups)), len(keys)
    value = np.zeros(1, dtype=np.int64)
    for key in reversed(keys):
        value = np.concatenate([value, value ^ key])
    bits = (np.arange(2 ** n_groups) >> np.arange(n_groups - 1, -1, -1)[:, None]) & 1
    pick = np.arange(n_groups)[:, None] + n_groups * bits
    own = np.eye(n_groups, dtype=bool)[:, :, None]
    tables = _Patterns(
        slots=np.array([g + [n] * (width - len(g)) for g in groups]).T,
        on_pattern=(value[:, None] % n_classes == np.arange(n_classes)) * 1.0,
        pick=pick,
        varied=np.where(own, 2 * n_groups + bits[:, None], pick[:, None]),
        others=np.array([[j for j in range(width) if j != k] for k in range(width)],
                        dtype=np.intp).T,
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _parity_scores(angles: np.ndarray, theta0: np.ndarray, patterns: _Patterns):
    """Exact class scores of a one-layer angle model, shape (rows, C), and
    the tape ``_parity_gradient`` reads, from the (rows, n) angles L x.

    With a = L x + theta0, qubit q is 1 with probability sin^2(a_q/2),
    independently, and the ring only XORs bits, so a group is odd with
    probability f = (1 - prod cos a_q)/2. Both f and 1 - f come from
    -expm1(sum log1p(-2 min(sin^2, cos^2)(a_q/2)))/2 and one minus it,
    swapped where the group's product of cosines is negative, so that each
    keeps its relative precision. A parity pattern's probability is the
    product of each group's f or 1 - f, and a class scores the sum of its
    patterns: every term is non-negative. No state is simulated: the cost
    is O(rows 2^G n).
    """
    m, n = angles.shape
    a = np.zeros((m, n + 1))
    np.add(angles, theta0, out=a[:, :n])
    half = a[:, patterns.slots] * 0.5
    s, c = np.sin(half), np.cos(half)
    s2, c2 = s * s, c * c
    cos = c2 - s2
    # min(sin^2, cos^2) <= 1/2 exactly, but an ulp of error in sin and cos
    # could lift both squares above 1/2 at a = pi/2; the cap keeps log1p
    # finite. e = -(1 - |prod cos a_q|)/2 per row and group, in [-1/2, 0];
    # padding adds 0.
    m_q = np.minimum(np.minimum(s2, c2), _BELOW_HALF)
    e = np.expm1(np.log1p(-2.0 * m_q).sum(axis=1)) * 0.5
    negative, big, small = np.prod(cos, axis=1) < 0.0, 1.0 + e, -e
    # P(even) of each group, then P(odd) of each group.
    pair = np.concatenate((np.where(negative, small, big), np.where(negative, big, small)),
                          axis=1)
    scores = pair[:, patterns.pick].prod(axis=1) @ patterns.on_pattern
    scores /= scores.sum(axis=1, keepdims=True)
    return scores, (s, c, cos, pair)


def _parity_gradient(weights: np.ndarray, class_idx: np.ndarray, patterns: _Patterns,
                     n: int, tape) -> np.ndarray:
    """d loss/d theta0 of a one-layer angle model on n qubits, shape (n,),
    from the tape of ``_parity_scores``, with ``weights`` the loss's
    derivative by each row's score on its class ``class_idx``.

    A class score is linear in each group's pair (1 - f, f), so its
    derivative by f_g is the score with that pair set to (-1, 1): the
    other groups' factors, multiplied without a division. Then
    d f/d a_q = sin(a_q)/2 prod_{q' != q} cos a_q', the product of the
    other cosines of q's group.
    """
    s, c, cos, pair = tape
    m = len(pair)
    varied = np.concatenate([pair, np.broadcast_to((-1.0, 1.0), (m, 2))], axis=1)
    d_scores = varied[:, patterns.varied].prod(axis=1) @ patterns.on_pattern
    bar_f = weights[:, None] * d_scores[np.arange(m), :, class_idx]
    d_f = s * c * cos[:, patterns.others].prod(axis=1)
    # Padding slots (index n) are written and dropped; a qubit in no group
    # keeps a zero gradient.
    grad = np.zeros(n + 1)
    grad[patterns.slots] = np.einsum("ig,ikg->kg", bar_f, d_f)
    return grad[:n]


def _encode(model: VqcModel, xs) -> np.ndarray:
    """The rows as ``_first_block`` takes them: the (rows, n) angles L x for
    the angle map, else the (rows, 2**n) feature-map states. A row of the
    wrong width or with a non-finite feature raises ValueError."""
    xs = _as_matrix(xs)
    if xs.shape[1] != model.n_qubits:
        raise ValueError(f"expected {model.n_qubits} features, got shape {xs.shape}")
    if _folds(model):
        return model.feature_map.layers * _checked_rows(xs)
    return feature_map_states(model.feature_map, xs)


def _first_block(encoded: np.ndarray, folded: bool, theta0: np.ndarray,
                 out: np.ndarray, scratch: np.ndarray) -> None:
    """The state after weight layer 0's RY block, written into ``out``.

    Folded (angle map), ``encoded`` holds the angles L x and the state is
    the product state of L x + theta0. Otherwise ``encoded`` holds the
    feature-map states, which are copied into ``out`` (unless ``out`` is
    ``encoded`` itself) and rotated by RY(theta0) with ``scratch``.
    """
    if folded:
        product_states(encoded + theta0, out, scratch)
        return
    if out is not encoded:
        np.copyto(out, encoded)
    _ry_block(out, theta0, scratch)


def _run_circuit(encoded: np.ndarray, folded: bool, theta: np.ndarray,
                 perm: np.ndarray, psi: np.ndarray, spare: np.ndarray):
    """Every weight layer from the encoded rows, in the buffers ``psi`` and
    ``spare``. Returns (final state, free buffer); the free buffer holds the
    state before the last ring."""
    _first_block(encoded, folded, theta[0], psi, spare)
    psi, spare = _ring(psi, spare, perm)
    return _run_layers(psi, spare, theta, perm, 1)


def forward_many(model: VqcModel, xs, shots: ShotConfig = EXACT) -> np.ndarray:
    """Per-class probability scores of every row, shape (rows, classes)."""
    encoded = _encode(model, xs)
    if not simulates_states(model, shots):
        patterns = _parity_patterns(model.n_qubits, len(model.classes))
        return _parity_scores(encoded, model.theta[0], patterns)[0]
    folded = _folds(model)
    shape = (len(encoded), 2 ** model.n_qubits)
    psi = np.empty(shape, encoded.dtype) if folded else encoded
    perm, _ = _ring_permutation(model.n_qubits)
    psi, _ = _run_circuit(encoded, folded, model.theta, perm, psi,
                          np.empty(shape, encoded.dtype))
    return _readout(psi, len(model.classes), shots, np.empty(shape))


def predict_many(model: VqcModel, xs, shots: ShotConfig = EXACT) -> list:
    """The class with the highest score for every row of ``xs``, from one
    batch of states; ties go to the smaller class index."""
    return [model.classes[i] for i in np.argmax(forward_many(model, xs, shots), axis=1)]


def _cross_entropy(p_true: np.ndarray, weight: np.ndarray, total_weight: float) -> float:
    """sum_t w_t (-log p_t) / sum_t w_t."""
    # math.log summed row by row, as a per-row loop would, so that shot-mode
    # losses do not move with numpy's vectorised log; a unit weight leaves
    # each term's bits as they are.
    total = 0.0
    for p, w in zip(p_true.tolist(), weight.tolist()):
        total += w * -math.log(max(p, _P_FLOOR))
    return total / total_weight


def prior_loss(labels) -> float:
    """Mean cross-entropy of scoring every row with the class frequencies
    of ``labels``, the loss of a classifier that learned only the class
    prior: the entropy of the labels in nats."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _class_indices(classes: tuple, labels) -> np.ndarray:
    lookup = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([lookup[lab] for lab in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not among model classes {classes}") from exc


@dataclass(frozen=True)
class _Batch:
    """A labelled batch: the encoded rows (``_encode``) and whether they are
    folded angles, each row's class index, each row's weight and their sum,
    the class count, the ring permutation, its inverse ``image`` and, when
    exact scores come from parity patterns (``simulates_states``), their
    ``_parity_patterns``, else None. The float class indicator per basis
    state the adjoint reads and the workspace (three state buffers of the
    encoded rows' dtype and one |psi|^2 buffer, each (rows, 2**n)) are
    allocated when a statevector path first asks for them."""

    encoded: np.ndarray
    folded: bool
    class_idx: np.ndarray
    weight: np.ndarray
    total_weight: float
    n_classes: int
    perm: np.ndarray
    image: np.ndarray
    parity: _Patterns | None

    @classmethod
    def of(cls, model: VqcModel, xs, labels, sample_weight=None) -> "_Batch":
        """The batch of (xs, labels) under ``model``'s feature map and
        classes: one label per row, and not empty, as its mean loss would
        be 0/0; ``sample_weight`` holds one finite weight > 0 per row (None:
        unit weights)."""
        class_idx = _class_indices(model.classes, labels)
        encoded = _encode(model, xs)
        m, n, n_classes = len(encoded), model.n_qubits, len(model.classes)
        if len(class_idx) != m:
            raise ValueError(f"{m} rows of xs but {len(class_idx)} labels")
        if m == 0:
            raise ValueError("empty batch: the mean loss of zero samples is undefined")
        weight = _checked_weights(sample_weight, m)
        perm, image = _ring_permutation(n)
        parity = None if simulates_states(model) else _parity_patterns(n, n_classes)
        return cls(encoded, _folds(model), class_idx, weight, float(weight.sum()), n_classes,
                   perm, image, parity)

    @functools.cached_property
    def on_class(self) -> np.ndarray:
        """(C, 2**n): 1 where the ring image of basis state k is read as class c."""
        shift = len(self.perm).bit_length() - 1 - _readout_qubits(self.n_classes)
        return (np.arange(self.n_classes)[:, None]
                == (self.image >> shift) % self.n_classes) * 1.0

    @functools.cached_property
    def ws(self) -> tuple[np.ndarray, ...]:
        """Three state buffers and one |psi|^2 buffer, each (rows, 2**n)."""
        shape = (len(self.encoded), len(self.perm))
        return (*(np.empty(shape, self.encoded.dtype) for _ in range(3)), np.empty(shape))

    def p_true(self, psi: np.ndarray, shots: ShotConfig) -> np.ndarray:
        """Each row's score on its own class from the final states ``psi``;
        the readout's |psi|^2 goes into the workspace's float buffer."""
        scores = _readout(psi, self.n_classes, shots, self.ws[3])
        return scores[np.arange(len(psi)), self.class_idx]


def _forward(batch: _Batch, theta: np.ndarray, shots: ShotConfig):
    """The batch's weighted mean cross-entropy, true-class scores and the
    tape ``_adjoint`` walks back: in exact mode with parity patterns, the
    tape of ``_parity_scores``; else the circuit runs in the workspace and
    the tape is (final state, free buffer), the free buffer holding the
    state before the last ring."""
    if shots.exact and batch.parity is not None:
        scores, tape = _parity_scores(batch.encoded, theta[0], batch.parity)
        p_true = scores[np.arange(len(scores)), batch.class_idx]
    else:
        tape = _run_circuit(batch.encoded, batch.folded, theta, batch.perm, *batch.ws[:2])
        p_true = batch.p_true(tape[0], shots)
    return _cross_entropy(p_true, batch.weight, batch.total_weight), p_true, tape


def loss(model: VqcModel, xs, labels, shots: ShotConfig = EXACT,
         sample_weight: Sequence[float] | None = None) -> float:
    """Weighted mean cross-entropy of the model on (samples, labels)."""
    return _forward(_Batch.of(model, xs, labels, sample_weight), model.theta, shots)[0]


def _shift_gradient(batch: _Batch, theta: np.ndarray, shots: ShotConfig) -> np.ndarray:
    """Parameter-shift gradient of the batch's weighted mean cross-entropy.

    RY(t +- pi/2) = RY(+-pi/2) RY(t), and the RYs of one layer commute, so
    the two circuits shifted at (l, q) share everything up to the end of
    layer l's RY block: each is one RY(+-pi/2) on a copy of that prefix
    state, then the ring and the later layers, run in the other two buffers.
    Layer 0's prefix is ``_first_block``.
    """
    m = len(batch.encoded)
    n_layers, n = theta.shape
    shifted_p = np.empty((2, m, n_layers, n))
    prefix, work, spare = batch.ws[:3]
    _first_block(batch.encoded, batch.folded, theta[0], prefix, work)
    for l in range(n_layers):
        if l:
            _ry_block(prefix, theta[l], work)
        for q in range(n):
            for side, angle in enumerate((math.pi / 2.0, -math.pi / 2.0)):
                np.copyto(work, prefix)
                _apply_op(work.reshape((m,) + (2,) * n), n, "RY", (q,), angle, spare)
                psi, free = _ring(work, spare, batch.perm)
                psi, _ = _run_layers(psi, free, theta, batch.perm, l + 1)
                shifted_p[side, :, l, q] = batch.p_true(psi, shots)
        prefix, work = _ring(prefix, work, batch.perm)
    p_true = batch.p_true(prefix, shots)
    inv_p = -batch.weight / np.maximum(p_true, _P_FLOOR)
    # dp/dt = (p(t + pi/2) - p(t - pi/2)) / 2; rows are summed in order.
    terms = inv_p[:, None, None] * 0.5 * (shifted_p[0] - shifted_p[1])
    return terms.sum(axis=0) / batch.total_weight


def parameter_shift_gradient(
    model: VqcModel,
    xs,
    labels,
    shots: ShotConfig = EXACT,
    sample_weight: Sequence[float] | None = None,
) -> np.ndarray:
    """Exact gradient of the weighted mean cross-entropy w.r.t. every theta
    entry.

    Each RY weight parameter obeys the parameter-shift rule
    dp/dt = (p(t + pi/2) - p(t - pi/2)) / 2 for every outcome probability.
    """
    return _shift_gradient(_Batch.of(model, xs, labels, sample_weight), model.theta, shots)


def _adjoint(batch: _Batch, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact weighted mean cross-entropy and its gradient from one forward
    pass and one backward walk (adjoint differentiation, Jones & Gacon,
    arXiv:2009.02823). A batch with parity patterns walks back through
    the forward pass's pattern products instead (``_parity_gradient``).

    Over phi, the state before the last ring, the loss gradient is that of
    sum_k w_k |phi_k|^2 with w_k = -c/(M max(p, floor)), c the row's weight
    and M the weights' sum, where the ring image of basis state k falls in
    the row's class, else 0; lambda = w phi. The
    RYs of a layer commute, so at the end of layer l's RY block
    d loss/d theta[l, q] = Re<lambda|-iY_q|phi>, the sum over qubit q's
    float pairs (a, a + h) of lambda[a + h] phi[a] - lambda[a] phi[a + h]:
    two einsums over strided halves per head qubit and, for the tail
    qubits, one gather from a (width, width) product (``_tail_pairs``).
    phi and lambda then step back through RY(-theta[l]) and the ring
    before it, in the workspace: the final state's buffer becomes the
    scratch, the third buffer lambda and the |psi|^2 buffer w.
    """
    m = len(batch.encoded)
    n_layers, n = theta.shape
    value, p_true, tape = _forward(batch, theta, EXACT)
    weights = -batch.weight / (batch.total_weight * np.maximum(p_true, _P_FLOOR))
    if batch.parity is not None:
        return value, _parity_gradient(weights, batch.class_idx, batch.parity, n, tape)[None, :]
    psi, phi = tape
    lam, w = batch.ws[2:]
    # w = (each row's weight on its class) @ (class indicator per basis
    # state): one product into the buffer, each entry a weight or 0.
    np.matmul(np.eye(batch.n_classes)[batch.class_idx] * weights[:, None], batch.on_class,
              out=w)
    # Float64 views (rows, 2**n, parts): real states have one part, complex
    # ones a real and an imaginary part.
    parts = phi.itemsize // 8
    phi_f, lam_f = (a.view(np.float64).reshape(m, -1, parts) for a in (phi, lam))
    for part in range(parts):
        np.multiply(phi_f[..., part], w, out=lam_f[..., part])
    grad = np.empty(theta.shape)
    head, width, pairs = _tail_pairs(n, parts)
    scratch = psi
    for l in range(n_layers - 1, -1, -1):
        for q in range(head):
            # Float64 views of qubit q's halves: (runs, 0 or 1, run).
            lv, pv = (a.view(np.float64).reshape(-1, 2, parts << (n - q - 1))
                      for a in (lam, phi))
            grad[l, q] = (np.einsum("ij,ij->", lv[:, 1], pv[:, 0])
                          - np.einsum("ij,ij->", lv[:, 0], pv[:, 1]))
        # The tail qubits pair floats inside one block: with M[a, b] the sum
        # over blocks of lambda[a] phi[b], qubit q's entry is the sum of
        # M[a + h, a] - M[a, a + h] over its pairs.
        lam_b, phi_b = (a.view(np.float64).reshape(-1, width) for a in (lam, phi))
        prod = lam_b.T @ phi_b
        grad[l, head:] = (prod - prod.T).ravel()[pairs].sum(axis=1)
        if l:
            _ry_block(phi, -theta[l], scratch)
            _ry_block(lam, -theta[l], scratch)
            phi, scratch = _ring(phi, scratch, batch.image)
            lam, scratch = _ring(lam, scratch, batch.image)
    return value, grad


def adjoint_gradient(model: VqcModel, xs, labels,
                     sample_weight: Sequence[float] | None = None) -> np.ndarray:
    """Exact gradient of the weighted mean cross-entropy w.r.t. every theta
    entry by adjoint differentiation; exact mode only, as it reads the
    simulated state, which hardware cannot."""
    return _adjoint(_Batch.of(model, xs, labels, sample_weight), model.theta)[1]


def _spsa_gradient(batch: _Batch, theta: np.ndarray, shots: ShotConfig,
                   rng: np.random.Generator) -> np.ndarray:
    delta = rng.choice((-1.0, 1.0), size=theta.shape)
    up = _forward(batch, theta + _SPSA_STEP * delta, shots)[0]
    down = _forward(batch, theta - _SPSA_STEP * delta, shots)[0]
    return (up - down) / (2.0 * _SPSA_STEP) * delta


def _check_weight_layers(n_layers: int) -> None:
    if n_layers < 1:
        raise ConfigError(f"need at least 1 weight layer, got {n_layers}")


def train(
    xs,
    labels: Sequence,
    feature_map: FeatureMapKind,
    n_layers: int,
    opt: OptimizerConfig = OptimizerConfig(),
    shots: ShotConfig = EXACT,
    sample_weight: Sequence[float] | None = None,
) -> VqcModel:
    """Gradient-descent training on the weighted mean cross-entropy (unit
    weights if ``sample_weight`` is None); theta starts at uniform(-0.1,
    0.1) per seed.

    The encoded rows do not depend on theta: the ``zz`` and ``angle_zz``
    feature-map states are simulated once and the angle map's angles taken
    once, and every loss and gradient evaluation runs only the weight layers
    from them. Each epoch takes the loss and the gradient at the current
    theta, in exact parameter-shift mode from one adjoint pass, and records
    the loss and the gradient's norm; the final theta gets one more loss.
    Zero epochs return the freshly initialized model. A non-finite loss
    aborts with a TrainingError naming the epoch whose update led to it
    (epoch 0 for the initial loss).
    """
    xs = _as_matrix(xs)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateModelError(f"need at least 2 classes to train, got {classes}")
    _check_weight_layers(n_layers)
    rng = np.random.default_rng(opt.seed)
    theta = rng.uniform(-0.1, 0.1, size=(n_layers, xs.shape[1]))
    model = VqcModel(feature_map, theta, classes)
    batch = _Batch.of(model, xs, labels, sample_weight)

    def step(theta):
        if opt.method == "spsa":
            return _forward(batch, theta, shots)[0], _spsa_gradient(batch, theta, shots, rng)
        if shots.exact:
            return _adjoint(batch, theta)
        return _forward(batch, theta, shots)[0], _shift_gradient(batch, theta, shots)

    history, norms = [], []
    for epoch in range(opt.epochs):
        value, grad = step(model.theta)
        history.append(value)
        norms.append(float(np.linalg.norm(grad)))
        if not math.isfinite(value):
            raise TrainingError("training loss diverged", epoch=max(epoch - 1, 0))
        model.theta = model.theta - opt.learning_rate * grad
    history.append(_forward(batch, model.theta, shots)[0])
    if not math.isfinite(history[-1]):
        raise TrainingError("training loss diverged", epoch=max(opt.epochs - 1, 0))
    model.loss_history = tuple(history)
    model.grad_norms = tuple(norms)
    return model
