"""Independent cross-checks for the statevector engine.

Everything here deliberately takes the slow road: every gate becomes an
explicit 2^n x 2^n matrix via Kronecker products and is multiplied onto the
state vector, so agreement with the stride-based engine is meaningful. Kept
out of any hot path; used by tests and the ``kernel-check`` CLI command,
which also checks the batched engines against per-pair overlaps of two
gate-by-gate ``qsim.run`` states: the only reference above the dense cap.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce

import numpy as np

from . import qkernel, qsim, vqc
from .errors import ConfigError
from .qsim import CircuitSpec, FeatureMapKind, GateOp

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

MAX_ORACLE_QUBITS = 10
# Largest gap allowed between a batched engine (kernels, VQC) and a reference.
BATCHED_TOL = 1e-12
# Weight layers and rows of the VQC part of ``run_kernel_check``; the
# gradient is checked on the first row only, as it needs 2 L n + 1 dense
# circuits.
_VQC_LAYERS = 2
_VQC_ROWS = 3


def _chain(n: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with qubit 0 as the leftmost (most significant) factor."""
    return reduce(np.kron, (factors.get(q, _I2) for q in range(n)))


def _single_qubit_matrix(op: GateOp) -> np.ndarray:
    if op.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    if op.kind == "RY":
        c, s = math.cos(op.angle / 2.0), math.sin(op.angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if op.kind == "P":
        return np.array([[1, 0], [0, np.exp(1j * op.angle)]], dtype=np.complex128)
    raise ValueError(f"not a single-qubit gate: {op.kind}")


def gate_unitary(op: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate."""
    if len(op.targets) == 1:
        return _chain(n_qubits, {op.targets[0]: _single_qubit_matrix(op)})
    if op.kind == "CNOT":
        c, t = op.targets
        return _chain(n_qubits, {c: _P0}) + _chain(n_qubits, {c: _P1, t: _X})
    if op.kind == "RZZ":
        a, b = op.targets
        dim = 2 ** n_qubits
        diag = np.empty(dim, dtype=np.complex128)
        for idx in range(dim):
            bit_a = (idx >> (n_qubits - 1 - a)) & 1
            bit_b = (idx >> (n_qubits - 1 - b)) & 1
            sign = -1.0 if bit_a == bit_b else 1.0
            diag[idx] = np.exp(0.5j * sign * op.angle)
        return np.diag(diag)
    raise ValueError(f"unhandled gate {op.kind}")


def state_via_unitary(circuit: CircuitSpec, initial: np.ndarray | None = None) -> np.ndarray:
    """State after applying each gate's dense matrix, in order, to ``initial``
    (default |0...0>)."""
    n = circuit.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ConfigError(f"dense oracle is capped at {MAX_ORACLE_QUBITS} qubits, got {n}")
    if initial is None:
        state = np.zeros(2 ** n, dtype=np.complex128)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=np.complex128)
    for op in circuit.ops:
        state = gate_unitary(op, n) @ state
    return state


def kernel_via_unitary(x, x2, kind: FeatureMapKind) -> float:
    """Kernel value |<psi(x2)|psi(x)>|^2 from two dense-oracle states."""
    psi = state_via_unitary(qsim.build_feature_map(kind, x))
    psi2 = state_via_unitary(qsim.build_feature_map(kind, x2))
    return float(np.abs(np.vdot(psi2, psi)) ** 2)


def vqc_probs_via_unitary(model: vqc.VqcModel, x) -> np.ndarray:
    """VQC class scores from dense unitaries: the feature map, then every
    weight layer, read out round-robin from the first r qubits."""
    return _vqc_scores(model, state_via_unitary(qsim.build_feature_map(model.feature_map, x)))


def _vqc_scores(model: vqc.VqcModel, state: np.ndarray) -> np.ndarray:
    for layer in model.theta:
        state = state_via_unitary(qsim.weight_layer(layer, model.n_qubits, model.entangle), state)
    n_classes = len(model.classes)
    marginal = (np.abs(state) ** 2).reshape(2 ** model.readout_qubits, -1).sum(axis=1)
    scores = np.zeros(n_classes)
    for b, value in enumerate(marginal):
        scores[b % n_classes] += value
    return scores / scores.sum()


def vqc_gradient_via_unitary(model: vqc.VqcModel, x, c: int) -> np.ndarray:
    """d(-log p_c)/d theta of one row by the +-pi/2 shift rule on the oracle;
    the feature-map state is shared by all shifted circuits."""
    state = state_via_unitary(qsim.build_feature_map(model.feature_map, x))
    p_c = _vqc_scores(model, state)[c]
    grad = np.zeros_like(model.theta)
    for l, q in np.ndindex(*model.theta.shape):
        sides = []
        for shift in (math.pi / 2.0, -math.pi / 2.0):
            theta = model.theta.copy()
            theta[l, q] += shift
            shifted = vqc.VqcModel(model.feature_map, theta, model.classes, model.entangle)
            sides.append(_vqc_scores(shifted, state)[c])
        grad[l, q] = -0.5 * (sides[0] - sides[1]) / p_c
    return grad


def angle_kernel_closed_form(x, x2, layers: int = 1) -> float:
    """Product form of the angle-map kernel: prod cos^2(layers*(x_i - x2_i)/2)."""
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return float(np.prod(np.cos(layers * (x - x2) / 2.0) ** 2))


def run_kernel_check(
    n_qubits: int,
    variant: str,
    layers: int = 1,
    n_samples: int = 20,
    seed: int = 0,
    perturb: float = 0.0,
) -> dict:
    """Self-check of the kernel and VQC engines against each other and the
    dense oracles.

    The batched ``qkernel.gram``/``cross`` matrices must agree with per-pair
    overlaps of two gate-by-gate ``qsim.run`` states and, up to the dense
    cap, with dense unitaries to ``BATCHED_TOL``. Up to the dense cap,
    batched VQC class scores must match ``vqc_probs_via_unitary`` to
    ``BATCHED_TOL`` and the parameter-shift gradient must match the shift
    rule applied to it, to ``BATCHED_TOL`` times max(1, largest gradient
    entry): the -1/p of the cross-entropy scales float error with the
    gradient. Returns a report dict with ``passed`` and a list of failure
    strings. ``perturb`` injects an angle error into the first parametrized
    gate of the second state of each per-pair overlap and into the first
    weight of the VQC oracle; any nonzero value must make the check fail.
    """
    if n_qubits < 1 or n_qubits > 20:
        raise ConfigError(f"kernel-check needs 1..20 qubits (capped at 20), got {n_qubits}")
    kind = FeatureMapKind(variant, layers)
    quantum = qkernel.KernelKind.quantum(kind)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, math.pi, size=(n_samples, n_qubits))
    failures: list[str] = []
    dense_ok = n_qubits <= MAX_ORACLE_QUBITS

    def overlap(a, b) -> float:
        ops = list(qsim.build_feature_map(kind, b).ops)
        if perturb:
            pos = next(p for p, op in enumerate(ops) if op.angle is not None)
            ops[pos] = replace(ops[pos], angle=ops[pos].angle + perturb)
        psi_a = qsim.run(qsim.build_feature_map(kind, a))
        psi_b = qsim.run(CircuitSpec(n_qubits, tuple(ops)))
        return float(np.abs(np.vdot(psi_b, psi_a)) ** 2)

    def compare(what: str, i: int, j: int, got: float, want: float, tol: float) -> None:
        if abs(got - want) > tol:
            failures.append(f"{what} at pair ({i},{j}): |dk|={abs(got - want):.3e}")

    # Entry i of the ring pairs sample i with sample i+1 (mod n).
    ring = qkernel.cross(xs, np.roll(xs, -1, axis=0), quantum).values.diagonal()
    dense_refs: dict[tuple[int, int], float] = {}
    for i in range(n_samples):
        j = (i + 1) % n_samples
        k_ij = overlap(xs[i], xs[j])
        k_ii = overlap(xs[i], xs[i])
        if abs(k_ii - 1.0) > 1e-10:
            failures.append(f"self-overlap at {i} is {k_ii!r}, expected 1")
        compare("batched cross differs from per-pair overlap", i, j, ring[i], k_ij, BATCHED_TOL)
        if dense_ok:
            ref = dense_refs[i, j] = kernel_via_unitary(xs[i], xs[j], kind)
            compare("dense-matrix mismatch", i, j, k_ij, ref, 1e-10)
            compare("batched cross differs from dense oracle", i, j, ring[i], ref, BATCHED_TOL)
            state = qsim.run(qsim.build_feature_map(kind, xs[i]))
            ref_state = state_via_unitary(qsim.build_feature_map(kind, xs[i]))
            if np.max(np.abs(state - ref_state)) > 1e-10:
                failures.append(f"state mismatch against dense unitary at sample {i}")
        if variant == "angle":
            ref = angle_kernel_closed_form(xs[i], xs[j], layers)
            compare("closed-form mismatch", i, j, k_ij, ref, 1e-10)

    m = min(n_samples, 12)
    gram = qkernel.gram(xs[:m], quantum).values
    for i in range(m):
        for j in range(i + 1, m):
            compare("batched Gram differs from per-pair overlap", i, j,
                    gram[i, j], overlap(xs[i], xs[j]), BATCHED_TOL)
            if (i, j) in dense_refs:
                compare("batched Gram differs from dense oracle", i, j,
                        gram[i, j], dense_refs[i, j], BATCHED_TOL)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    if min_eig < -1e-8:
        failures.append(f"gram matrix has eigenvalue {min_eig:.3e} < -1e-8")
    if dense_ok:
        failures += _vqc_check(kind, xs[:_VQC_ROWS], rng, perturb)

    return {
        "n_qubits": n_qubits,
        "feature_map": variant,
        "layers": layers,
        "samples": n_samples,
        "dense_oracle": dense_ok,
        "min_gram_eigenvalue": min_eig,
        "failures": failures,
        "passed": not failures,
    }


def _vqc_check(kind: FeatureMapKind, xs: np.ndarray, rng: np.random.Generator,
               perturb: float) -> list[str]:
    n = xs.shape[1]
    classes = (0, 1, 2) if n >= 2 else (0, 1)
    model = vqc.VqcModel(kind, rng.uniform(-math.pi, math.pi, (_VQC_LAYERS, n)), classes)
    oracle_theta = model.theta.copy()
    oracle_theta[0, 0] += perturb
    oracle = vqc.VqcModel(kind, oracle_theta, classes)
    failures = []
    probs = vqc.forward_many(model, xs)
    for i, x in enumerate(xs):
        gap = float(np.max(np.abs(probs[i] - vqc_probs_via_unitary(oracle, x))))
        if gap > BATCHED_TOL:
            failures.append(f"batched VQC scores differ from dense oracle at row {i}: {gap:.3e}")
    label = int(rng.integers(len(classes)))
    grad = vqc.parameter_shift_gradient(model, xs[:1], [label])
    want = vqc_gradient_via_unitary(oracle, xs[0], label)
    gap = float(np.max(np.abs(grad - want)))
    if gap > BATCHED_TOL * max(1.0, float(np.max(np.abs(want)))):
        failures.append(f"VQC parameter-shift gradient differs from dense oracle: {gap:.3e}")
    return failures
