"""Dense statevector simulator for small feature-map circuits.

States hold all 2^n complex amplitudes. Qubit q corresponds to axis q of
the state reshaped to [2]*n, i.e. qubit 0 is the most significant bit of
the basis index; index 0 is |0...0>. One gate engine, ``_apply_op``, updates
a batch of states in place via axis slicing, O(2^n) per gate and state, and
never materializes a 2^n x 2^n matrix (the dense-matrix construction used
for cross-checks lives in ``icppm.oracles``). ``feature_map_states`` runs one
feature map over many inputs and serves the kernels and the VQC; ``run``
simulates one circuit gate by gate as a batch of one, and ``kernel_overlap``
reads a kernel entry off two such states, as the per-pair reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IcppmError

_SINGLE_QUBIT = ("H", "RY", "P")
_TWO_QUBIT = ("CNOT", "RZZ")
_PARAMETRIZED = ("RY", "P", "RZZ")
GATE_KINDS = _SINGLE_QUBIT + _TWO_QUBIT

FEATURE_MAPS = ("angle", "zz", "angle_zz")


@dataclass(frozen=True)
class GateOp:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in _SINGLE_QUBIT else 2
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} expects {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct: {self.targets}")
        if (self.angle is None) == (self.kind in _PARAMETRIZED):
            raise ValueError(f"{self.kind}: angle is {'required' if self.angle is None else 'not allowed'}")


@dataclass(frozen=True)
class CircuitSpec:
    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        for op in self.ops:
            for t in op.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(
                        f"gate target {t} out of range for {self.n_qubits} qubits"
                    )


@dataclass(frozen=True)
class FeatureMapKind:
    variant: str
    layers: int = 1

    def __post_init__(self):
        if self.variant not in FEATURE_MAPS:
            raise ConfigError(f"unknown feature map {self.variant!r}, expected {FEATURE_MAPS}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")


@dataclass(frozen=True)
class ShotConfig:
    """shots=None means exact expectation values; otherwise sampled counts."""

    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1 or None, got {self.shots}")

    @property
    def exact(self) -> bool:
        return self.shots is None


EXACT = ShotConfig()


def _idx(n: int, *fixed: tuple[int, int]) -> tuple:
    """Index into a (B, 2, ..., 2) state batch that fixes (qubit, bit) pairs."""
    sel: list = [slice(None)] * (n + 1)
    for q, bit in fixed:
        sel[q + 1] = bit
    return tuple(sel)


def _per_row(angle, n_free: int):
    """A scalar angle as is; a per-row angle shaped to broadcast against
    a gate's amplitude slice, which keeps ``n_free`` qubit axes."""
    if isinstance(angle, np.ndarray):
        return angle.reshape((-1,) + (1,) * n_free)
    return angle


def _apply_op(psi: np.ndarray, n: int, kind: str, targets: tuple[int, ...],
              angle=None) -> None:
    """Mutate a (B, 2, ..., 2) batch of B states of n qubits in place.

    ``angle`` is one float for the whole batch or an array of B angles,
    one per state.
    """
    if kind == "H":
        (q,) = targets
        i0, i1 = _idx(n, (q, 0)), _idx(n, (q, 1))
        s0, s1 = psi[i0], psi[i1]
        inv = 1.0 / math.sqrt(2.0)
        new0 = (s0 + s1) * inv
        new1 = (s0 - s1) * inv
        psi[i0] = new0
        psi[i1] = new1
    elif kind == "RY":
        (q,) = targets
        i0, i1 = _idx(n, (q, 0)), _idx(n, (q, 1))
        if isinstance(angle, np.ndarray):
            c, s = _per_row(np.cos(angle / 2.0), n - 1), _per_row(np.sin(angle / 2.0), n - 1)
        else:
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        s0, s1 = psi[i0], psi[i1]
        new0 = c * s0 - s * s1
        new1 = s * s0 + c * s1
        psi[i0] = new0
        psi[i1] = new1
    elif kind == "P":
        (q,) = targets
        psi[_idx(n, (q, 1))] *= _per_row(np.exp(1j * angle), n - 1)
    elif kind == "CNOT":
        c, t = targets
        i10 = _idx(n, (c, 1), (t, 0))
        i11 = _idx(n, (c, 1), (t, 1))
        tmp = psi[i10].copy()
        psi[i10] = psi[i11]
        psi[i11] = tmp
    elif kind == "RZZ":
        a, b = targets
        same = _per_row(np.exp(-0.5j * angle), n - 2)
        diff = np.conj(same)
        psi[_idx(n, (a, 0), (b, 0))] *= same
        psi[_idx(n, (a, 1), (b, 1))] *= same
        psi[_idx(n, (a, 0), (b, 1))] *= diff
        psi[_idx(n, (a, 1), (b, 0))] *= diff
    else:  # pragma: no cover - guarded by GateOp validation
        raise ValueError(f"unhandled gate {kind}")


def _apply_ops(amps: np.ndarray, n: int, ops: Iterable[GateOp]) -> np.ndarray:
    """Run gates on one state: a batch of one through ``_apply_op``."""
    psi = amps.reshape([1] + [2] * n)
    for op in ops:
        _apply_op(psi, n, op.kind, op.targets, op.angle)
    return psi.reshape(-1)


def run(circuit: CircuitSpec) -> np.ndarray:
    """Amplitudes of ``circuit`` applied to |0...0>, shape (2**n,)."""
    amps = np.zeros(2 ** circuit.n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    amps = _apply_ops(amps, circuit.n_qubits, circuit.ops)
    norm = float(np.sum(np.abs(amps) ** 2))
    if abs(norm - 1.0) > 1e-10:
        raise IcppmError(f"norm drifted to {norm} after {len(circuit.ops)} gates")
    return amps


def _feature_map_ops(kind: FeatureMapKind, x: np.ndarray) -> list[GateOp]:
    n = len(x)
    ops: list[GateOp] = []
    for _ in range(kind.layers):
        if kind.variant == "angle":
            ops.extend(GateOp("RY", (i,), float(x[i])) for i in range(n))
            continue
        ops.extend(GateOp("H", (i,)) for i in range(n))
        single = "P" if kind.variant == "zz" else "RY"
        ops.extend(GateOp(single, (i,), 2.0 * float(x[i])) for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                angle = 2.0 * (math.pi - float(x[i])) * (math.pi - float(x[j]))
                ops.append(GateOp("RZZ", (i, j), angle))
    return ops


def build_feature_map(kind: FeatureMapKind, x: Sequence[float]) -> CircuitSpec:
    """Encode a feature vector; the qubit count equals the feature dimension."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("feature vector must be one-dimensional and non-empty")
    return CircuitSpec(len(x), tuple(_feature_map_ops(kind, x)))


# Basis states per block when folding diagonal gates into phases; bounds the
# (block, n(n-1)/2) pair table at a few MB for wide maps.
_PHASE_BLOCK = 4096


def _layer_phase(kind: FeatureMapKind, x: np.ndarray) -> np.ndarray:
    """exp(i phi) of one layer's diagonal gates, shape (B, 2**n).

    Per basis state k with bits b and per row x,
    phi = (2x).b + a.diff - sum(a)/2, where a_ij = 2(pi - x_i)(pi - x_j) is
    the RZZ angle of pair i < j and diff_ij marks b_i != b_j. The first term
    is the P(2x_i) gates of the ``zz`` map; ``angle_zz`` has RY there instead,
    which is not diagonal and runs as a gate.
    """
    b, n = x.shape
    iu, ju = np.triu_indices(n, 1)
    c = math.pi - x
    a = 2.0 * c[:, iu] * c[:, ju]
    shifts = np.arange(n - 1, -1, -1)
    phase = np.empty((b, 2 ** n))
    for start in range(0, 2 ** n, _PHASE_BLOCK):
        k = np.arange(start, min(start + _PHASE_BLOCK, 2 ** n))
        bits = (k[:, None] >> shifts) & 1
        # a.diff - sum(a)/2 in one product: each pair adds +a/2 or -a/2.
        block = a @ ((bits[:, iu] != bits[:, ju]) - 0.5).T
        if kind.variant == "zz":
            block += (2.0 * x) @ bits.T
        phase[:, start:start + len(k)] = block
    return np.exp(1j * phase)


def feature_map_states(kind: FeatureMapKind, x) -> np.ndarray:
    """States V(x)|0...0> for every row of ``x``, shape (B, 2**n).

    Same circuit as ``build_feature_map`` per row, run for the whole batch at
    once: H and RY through ``_apply_op`` with one angle per row, and each
    layer's diagonal gates folded into one phase per basis state.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected a non-empty (rows, features) matrix, got shape {x.shape}")
    b, n = x.shape
    psi = np.zeros((b,) + (2,) * n, dtype=np.complex128)
    psi[(slice(None),) + (0,) * n] = 1.0
    phase = None if kind.variant == "angle" else _layer_phase(kind, x).reshape(psi.shape)
    for _ in range(kind.layers):
        if kind.variant == "angle":
            for q in range(n):
                _apply_op(psi, n, "RY", (q,), x[:, q])
            continue
        for q in range(n):
            _apply_op(psi, n, "H", (q,))
        if kind.variant == "angle_zz":
            for q in range(n):
                _apply_op(psi, n, "RY", (q,), 2.0 * x[:, q])
        psi *= phase
    return psi.reshape(b, -1)


def weight_layer(theta: Sequence[float], n_qubits: int, entangle: bool = True) -> CircuitSpec:
    """One trainable layer: RY(theta_i) per qubit, then a CNOT ring.

    The ring i -> (i+1) mod n is dropped for a single qubit, or when
    ``entangle`` is off.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (n_qubits,):
        raise ValueError(f"expected {n_qubits} parameters, got shape {theta.shape}")
    ops = [GateOp("RY", (i,), float(theta[i])) for i in range(n_qubits)]
    if entangle and n_qubits >= 2:
        ops.extend(GateOp("CNOT", (i, (i + 1) % n_qubits)) for i in range(n_qubits))
    return CircuitSpec(n_qubits, tuple(ops))


def sample_indices(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling of basis-state indices, seeded per evaluation."""
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    u = np.random.default_rng(seed).random(shots)
    return np.searchsorted(cum, u, side="right")


def sampled_frequency(p: float, shots: int, seed: int) -> float:
    """Frequency of an outcome of probability ``p`` over ``shots`` seeded draws.

    A draw hits when its uniform falls below p: the slot [0, p) that the
    all-zeros outcome owns in ``sample_indices``' CDF, so this is its
    zero-outcome count on the same stream.
    """
    u = np.random.default_rng(seed).random(shots)
    return int(np.count_nonzero(u < p)) / shots


def kernel_overlap(
    x: Sequence[float],
    x2: Sequence[float],
    kind: FeatureMapKind,
    shots: ShotConfig = EXACT,
) -> float:
    """Kernel entry |<psi(x2)|psi(x)>|^2 from two gate-by-gate states.

    Shot mode estimates it by ``sampled_frequency`` over ``shots.shots``
    draws seeded by ``shots.seed``.
    """
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x.shape != x2.shape:
        raise ValueError(f"feature dimensions differ: {x.shape} vs {x2.shape}")
    psi = run(build_feature_map(kind, x))
    psi2 = run(build_feature_map(kind, x2))
    p = float(np.abs(np.vdot(psi2, psi)) ** 2)
    return p if shots.exact else sampled_frequency(p, shots.shots, shots.seed)
