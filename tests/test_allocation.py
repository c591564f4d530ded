"""Traced allocation peaks of the statevector engine stay at its workspace.

``vqc.train`` holds the cached feature-map states plus one workspace (three
state buffers and a |psi|^2 buffer), and ``feature_map_states`` holds its
result, one gate scratch buffer when a gate runs (every map but the
one-layer ``zz``) and, for maps with diagonal layers, the phase table. A
quantum fold's ``gram`` and ``cross`` hold one train batch, its conjugate
and the test batch. A batch-sized temporary per gate, shift step or readout
would lift the traced peak above these by at least half a batch (120 KiB at
30 rows and 9 qubits); numpy's own iteration buffers and small per-call
arrays fit in the slack. More epochs or layers, beyond the second layer's
scratch, must not raise the peak.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from icppm.qkernel import KernelKind, cross, gram
from icppm.qsim import FEATURE_MAPS, FeatureMapKind, feature_map_states
from icppm.vqc import OptimizerConfig, train

ROWS, QUBITS = 30, 9
BATCH = ROWS * 2 ** QUBITS * 16  # bytes of one complex state batch
SLACK = 128 * 1024
# Small objects that grow with epochs, such as the loss history.
EPOCH_SLACK = 4096


def traced_peak(fn) -> int:
    """Bytes allocated by ``fn`` at its peak, over what was live before."""
    fn()  # lazy set-up inside numpy happens once, untraced
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def data():
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, np.pi, (ROWS, QUBITS)), list(rng.integers(0, 3, ROWS))


def test_train_peak_is_states_plus_workspace():
    xs, labels = data()
    workspace = BATCH + 3 * BATCH + BATCH // 2

    def peak(epochs: int, layers: int = 1) -> int:
        opt = OptimizerConfig(learning_rate=0.5, epochs=epochs)
        return traced_peak(lambda: train(xs, labels, FeatureMapKind("angle"), layers, opt))

    one, five = peak(1), peak(5)
    assert one <= workspace + SLACK
    assert five <= one + EPOCH_SLACK
    # The adjoint's backward walk through three layers reuses the same
    # buffers.
    assert peak(1, layers=3) <= one + EPOCH_SLACK


@pytest.mark.parametrize("variant", FEATURE_MAPS)
def test_feature_map_states_peak_is_result_scratch_and_phases(variant):
    xs, _ = data()

    def peak(layers: int) -> int:
        return traced_peak(lambda: feature_map_states(FeatureMapKind(variant, layers), xs))

    one, two, three = peak(1), peak(2), peak(3)
    if variant == "zz":
        # One layer runs no gate; from the second on, the scratch is held.
        assert one <= 2 * BATCH + SLACK
        assert two <= 3 * BATCH + SLACK
    else:
        assert one <= (2 if variant == "angle" else 3) * BATCH + SLACK
        assert two <= one + EPOCH_SLACK
    assert three <= two + EPOCH_SLACK


@pytest.mark.parametrize("variant", ["angle", "zz"])
def test_fold_peak_is_one_train_batch_its_conjugate_and_the_test_batch(variant):
    xs, _ = data()
    test = np.random.default_rng(1).uniform(0.0, np.pi, (ROWS // 3, QUBITS))
    kind = KernelKind.quantum(FeatureMapKind(variant))

    def fold():
        k_train = gram(xs, kind)
        cross(test, xs, kind, train_states=k_train.conj_states)

    assert traced_peak(fold) <= 2 * BATCH + BATCH // 3 + SLACK
