"""Dense statevector simulator for small feature-map circuits.

States hold all 2^n complex amplitudes, or 2^n float64 ones where every
gate is real (the VQC on the angle map). Qubit q corresponds to axis q of
the state reshaped to [2]*n, i.e. qubit 0 is the most significant bit of
the basis index; index 0 is |0...0>. One gate engine, ``_apply_op``, updates
a batch of states in place via axis slicing, O(2^n) per gate and state, and
never materializes a 2^n x 2^n matrix (the dense-matrix construction used
for cross-checks lives in ``icppm.oracles``). H and RY copy the target
qubit's two halves into two scratch half-batches that the caller passes,
each contiguous run of amplitudes as one void item, compute on those
contiguous copies and copy the results back the same way, so a gate
allocates no batch-sized temporary. They are real 2x2 gates and compute on
float64 views on every qubit, so they take real batches as they are: a
run is 2^(n-q-1) amplitudes of the batch's item size.
``feature_map_states`` runs one feature map over many inputs with one
scratch buffer for the whole call and serves the kernels and the VQC. It
writes the first layer's H on every qubit of |0...0> as one fill with
(1/sqrt 2)^n, rounded as the n gates round it, so the states keep their
bits. ``product_states`` writes RY on every qubit of |0...0> as n outer
products into two float buffers instead of n gates; the angle map, whose
only gates are RY, is written with it in ``feature_map_states`` (into the
real and imaginary parts of a complex batch) and in the VQC (into a real
batch and a spare).
``run`` simulates one circuit gate by gate as a batch of one, and
``kernel_overlap`` reads an exact kernel entry off two such states, as the
per-pair reference. Shot sampling lives with its readouts, in
``icppm.qkernel`` and ``icppm.vqc``.
"""

from __future__ import annotations

import functools
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

# numpy's smallest ufunc buffer, in elements.
_MIN_BUFSIZE = 16


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


def _halves(scratch: np.ndarray | None, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 arrays of ``shape`` over ``scratch``, which must hold at
    least twice their bytes (None allocates them)."""
    size = math.prod(shape)
    if scratch is None:
        flat = np.empty(2 * size)
    else:
        flat = scratch.reshape(-1).view(np.float64)[:2 * size]
    return flat[:size].reshape(shape), flat[size:].reshape(shape)


def _runs(a: np.ndarray, nbytes: int) -> np.ndarray:
    """A C-contiguous array as a 1-D array of void items of ``nbytes`` each."""
    return a.reshape(-1).view(np.dtype((np.void, nbytes)))


def _apply_op(psi: np.ndarray, n: int, kind: str, targets: tuple[int, ...],
              angle=None, scratch: np.ndarray | None = None) -> None:
    """Mutate a C-contiguous (B, 2, ..., 2) batch of B states of n qubits in
    place.

    The batch is complex128; H and RY also take a float64 batch of real
    states. ``angle`` is one float for the whole batch; RY also takes an
    array of B angles, one per state. ``scratch`` is any C-contiguous array
    of at least the batch's bytes that H and RY may overwrite; without it
    they allocate their own.
    """
    if kind in ("H", "RY"):
        (q,) = targets
        # H and RY are real, so they act on real and imaginary parts alike:
        # the arithmetic runs on float64 views.
        t0, t1 = _halves(scratch, (len(psi), 2 ** n * psi.itemsize // 16))
        # Qubit q's halves alternate in runs of 2**(n-q-1) amplitudes. Each
        # copy between a half and a scratch half moves whole runs as void
        # items, one strided axis, and the arithmetic runs on the contiguous
        # scratch halves only.
        runs = _runs(psi, psi.itemsize << (n - q - 1)).reshape(-1, 2)
        s0, s1 = runs[:, 0], runs[:, 1]
        r0, r1 = _runs(t0, s0.itemsize), _runs(t1, s0.itemsize)
        if kind == "H":
            inv = 1.0 / math.sqrt(2.0)
            np.copyto(r0, s0)
            np.copyto(r1, s1)
            # Both halves are out, so the state's own memory is a third
            # contiguous buffer.
            u = psi.reshape(-1).view(np.float64)[:t0.size].reshape(t0.shape)
            np.add(t0, t1, out=u)
            np.subtract(t0, t1, out=t0)
            np.multiply(u, inv, out=t1)      # (s0 + s1) / sqrt 2
            t0 *= inv                        # (s0 - s1) / sqrt 2
            np.copyto(s0, r1)
            np.copyto(s1, r0)
            return
        per_row = isinstance(angle, np.ndarray)
        if per_row:
            c, s = np.cos(angle / 2.0)[:, None], np.sin(angle / 2.0)[:, None]
            # A (B, 1) factor broadcasts along the rows, and numpy would
            # copy it into a buffer of its default size (64 KiB) on every
            # multiply; its smallest buffer keeps the gate at the scalar
            # gate's allocations.
            bufsize = np.setbufsize(_MIN_BUFSIZE)
        else:
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        try:
            np.copyto(r0, s0)
            t0 *= c
            np.copyto(r1, s1)
            t1 *= s
            t0 -= t1                         # c s0 - s s1
            np.copyto(r1, s0)
            t1 *= s                          # s s0
            np.copyto(s0, r0)
            np.copyto(r0, s1)
            t0 *= c
            t0 += t1                         # c s1 + s s0
            np.copyto(s1, r0)
        finally:
            if per_row:
                np.setbufsize(bufsize)
    elif kind == "P":
        (q,) = targets
        psi[_idx(n, (q, 1))] *= np.exp(1j * angle)
    elif kind == "CNOT":
        c, t = targets
        i10 = _idx(n, (c, 1), (t, 0))
        i11 = _idx(n, (c, 1), (t, 1))
        tmp = psi[i10].copy()
        psi[i10] = psi[i11]
        psi[i11] = tmp
    elif kind == "RZZ":
        a, b = targets
        same = np.exp(-0.5j * angle)
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
# (block, n(n-1)/2) pair table at a few MB for wide maps. The block size
# decides how BLAS splits the products, so changing it moves the last bit.
_PHASE_BLOCK = 4096


def _layer_phase(kind: FeatureMapKind, x: np.ndarray) -> np.ndarray:
    """exp(i phi) of one layer's diagonal gates, shape (B, 2**n).

    Per basis state k with bits b and per row x,
    phi = (2x).b + a.diff - sum(a)/2, where a_ij = 2(pi - x_i)(pi - x_j) is
    the RZZ angle of pair i < j and diff_ij marks b_i != b_j. The first term
    is the P(2x_i) gates of the ``zz`` map; ``angle_zz`` has RY there instead,
    which is not diagonal and runs as a gate. phi is written into the
    imaginary part of the returned buffer and exponentiated in place.
    """
    b, n = x.shape
    if b == 1:
        # numpy's one-row (matrix-vector) product rounds unlike a batch's.
        return _layer_phase(kind, np.repeat(x, 2, axis=0))[:1]
    iu, ju = np.triu_indices(n, 1)
    c = math.pi - x
    a = 2.0 * c[:, iu] * c[:, ju]
    phase = np.zeros((b, 2 ** n), dtype=np.complex128)
    for start in range(0, 2 ** n, _PHASE_BLOCK):
        bits, signs = _phase_tables(n, start, min(start + _PHASE_BLOCK, 2 ** n))
        # a.diff - sum(a)/2 in one product: each pair adds +a/2 or -a/2.
        block = a @ signs.T
        if kind.variant == "zz":
            block += (2.0 * x) @ bits.T
        phase.imag[:, start:start + len(bits)] = block
    return np.exp(phase, out=phase)


@functools.lru_cache(maxsize=1)
def _phase_tables(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only bits (first qubit most significant) of the n-qubit basis
    states start..stop-1, and per pair i < j +0.5 where they differ, -0.5
    where they agree. One entry: a fold's calls share it; it holds one block."""
    k = np.arange(start, stop)
    bits = ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    iu, ju = np.triu_indices(n, 1)
    signs = (bits[:, iu] != bits[:, ju]) - 0.5
    bits.flags.writeable = signs.flags.writeable = False
    return bits, signs


def _uniform_amplitude(n: int) -> float:
    """Every amplitude of H on each of n qubits of |0...0>: (1/sqrt 2)^n, as
    the n sequential products the gates perform, so the bits match theirs."""
    amp = 1.0
    for _ in range(n):
        amp *= 1.0 / math.sqrt(2.0)
    return amp


def _checked_rows(x) -> np.ndarray:
    """``x`` as a float64 (rows, features) matrix with at least one feature
    and only finite values; ValueError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected a non-empty (rows, features) matrix, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"feature row {int(np.argmin(finite))} is not finite")
    return x


def product_states(angles: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """RY(angles[:, q]) on every qubit q of |0...0>, written into ``out``, a
    float (rows, 2**n) buffer for the (rows, n) ``angles``; ``spare``, a
    second such buffer, is overwritten. A complex state takes
    ``out.real`` and ``out.imag`` and zeroes the imaginary parts after.

    The result is the product state of the per-qubit factors
    (cos(a/2), sin(a/2)), built by n outer products over the rows, least
    significant qubit first, so it costs O(2^n) per row instead of n gates.
    The partial products alternate between the two buffers, so no operand
    overlaps the product it feeds and no batch-sized temporary is made.
    """
    b, n = angles.shape
    half = angles / 2.0
    factors = np.empty((b, n, 2))
    np.cos(half, out=factors[..., 0])
    np.sin(half, out=factors[..., 1])
    parts = (out, spare)
    # The product over the last k qubits sits in parts[(n - k) % 2][:, :2**k].
    parts[n % 2][:, :1] = 1.0
    for k in range(n):
        low = parts[(n - k) % 2][:, :2 ** k]
        high = parts[(n - k - 1) % 2][:, :2 ** (k + 1)]
        # A (B, 2, 1) x (B, 1, 2**k) matmul, not the broadcast np.multiply
        # of the same operands: that is faster per call, but on a complex
        # state's out.real/out.imag views numpy's overlap check copies the
        # operand into a batch-sized temporary, and it keeps the sign of a
        # -0.0 product where matmul's sum from +0.0 gives +0.0.
        np.matmul(factors[:, n - 1 - k, :, None], low[:, None, :],
                  out=high.reshape(b, 2, 2 ** k))


def feature_map_states(kind: FeatureMapKind, x) -> np.ndarray:
    """States V(x)|0...0> for every row of ``x``, shape (B, 2**n).

    Same state as ``build_feature_map`` per row, for the whole batch at
    once. The ``angle`` map's L layers of RY(x) are RY(L x) on each qubit
    with no entangler between them, so its states are ``product_states`` of
    L x and run no gate. The other maps run H and RY through ``_apply_op``
    with one angle per row and one scratch buffer for the whole call, and
    fold each layer's diagonal gates into one phase per basis state. Their
    first layer's H gates act on |0...0> and are one fill with their known
    output, so the one-layer ``zz`` map runs no gate and allocates no
    scratch. Zero rows give a (0, 2**n) batch; a non-finite feature raises
    ValueError. A row's state has the same bits in any batch where BLAS
    rounds each product row alike (checked: OpenBLAS 0.3.31, 1-2 threads).
    """
    x = _checked_rows(x)
    b, n = x.shape
    if kind.variant == "angle":
        out = np.empty((b, 2 ** n), dtype=np.complex128)
        product_states(kind.layers * x, out.real, out.imag)
        out.imag[...] = 0.0
        return out
    shape = (b,) + (2,) * n
    # The phase table first, so its temporaries are freed before psi.
    phase = _layer_phase(kind, x).reshape(shape)
    psi = np.full(shape, _uniform_amplitude(n), dtype=np.complex128)
    no_gates = kind.variant == "zz" and kind.layers == 1
    scratch = None if no_gates else np.empty_like(psi)
    for layer in range(kind.layers):
        if layer > 0:
            for q in range(n):
                _apply_op(psi, n, "H", (q,), scratch=scratch)
        if kind.variant == "angle_zz":
            for q in range(n):
                _apply_op(psi, n, "RY", (q,), 2.0 * x[:, q], scratch)
        psi *= phase
    return psi.reshape(b, 2 ** n)


def weight_layer(theta: Sequence[float], n_qubits: int) -> CircuitSpec:
    """One trainable layer: RY(theta_i) per qubit, then the CNOT ring
    i -> (i+1) mod n, which a single qubit does without."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (n_qubits,):
        raise ValueError(f"expected {n_qubits} parameters, got shape {theta.shape}")
    ops = [GateOp("RY", (i,), float(theta[i])) for i in range(n_qubits)]
    if n_qubits >= 2:
        ops.extend(GateOp("CNOT", (i, (i + 1) % n_qubits)) for i in range(n_qubits))
    return CircuitSpec(n_qubits, tuple(ops))


def kernel_overlap(x: Sequence[float], x2: Sequence[float], kind: FeatureMapKind) -> float:
    """Exact kernel entry |<psi(x2)|psi(x)>|^2 from two gate-by-gate states."""
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x.shape != x2.shape:
        raise ValueError(f"feature dimensions differ: {x.shape} vs {x2.shape}")
    psi = run(build_feature_map(kind, x))
    psi2 = run(build_feature_map(kind, x2))
    return float(np.abs(np.vdot(psi2, psi)) ** 2)
