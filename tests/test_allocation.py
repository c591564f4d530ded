"""Traced allocation peaks of the statevector engine and the kernel matrices
stay at their workspace.

``vqc.train`` on a statevector path holds one workspace (three state
buffers and a |psi|^2 buffer) plus, on the ``zz`` and ``angle_zz`` maps,
the cached feature-map states; the angle map keeps only its (rows, n)
angles, as it is folded into the first weight layer, and its states are
real, so its workspace is four float buffers. ``feature_map_states`` holds its
result, one gate scratch buffer when a gate runs (every map but the
one-layer ``zz`` and the ``angle`` map, which runs no gate) and, for maps
with diagonal layers, the phase table. A
quantum fold's ``gram`` and ``cross`` hold one train batch, its conjugate
and the test batch. A batch-sized temporary per gate, shift step or readout
would lift the traced peak above these by at least half a batch (120 KiB at
30 rows and 9 qubits); numpy's own iteration buffers and small per-call
arrays fit in the slack. More epochs or layers, beyond the second layer's
scratch, must not raise the peak. An RY gate with one angle per row
allocates no more than one with a single angle, beyond its per-row
factors.

An RBF ``gram`` or ``cross`` holds its output and one row block, and a
kernel run holds one kernel matrix at a time, never two of one fold or one
of the fold before. The SVM fit adds its η table, and a regrouped fold
drops its distinct Gram matrix before the fit, so the fit holds the
(row, label) gather and the table.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import random_log
from icppm import bench
from icppm.bench import ExperimentConfig, run_experiment
from icppm.eventlog import build_prefix_log
from icppm.qkernel import KernelKind, cross, gram
from icppm.qsim import FEATURE_MAPS, FeatureMapKind, _apply_op, feature_map_states
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
    workspace = 3 * BATCH + BATCH // 2

    def peak(variant: str, epochs: int, layers: int = 1) -> int:
        opt = OptimizerConfig(learning_rate=0.5, epochs=epochs)
        return traced_peak(lambda: train(xs, labels, FeatureMapKind(variant), layers, opt))

    # The angle map caches no states and its workspace is four float
    # buffers, 2 complex batches, so one complex state buffer would lift
    # the peak past the bound; zz adds its states to the complex workspace.
    # Two weight layers, as a one-layer angle model simulates no state.
    for variant, bound in (("angle", 2 * BATCH), ("zz", BATCH + workspace)):
        one, five = peak(variant, 1, layers=2), peak(variant, 5, layers=2)
        assert one <= bound + SLACK
        assert five <= one + EPOCH_SLACK
        # The adjoint's backward walk through three layers reuses the same
        # buffers.
        assert peak(variant, 1, layers=3) <= one + EPOCH_SLACK


def test_per_row_ry_allocates_as_the_scalar_ry():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(ROWS,) + (2,) * QUBITS) + 0j
    scratch = np.empty_like(psi)
    angles = rng.uniform(0.0, np.pi, ROWS)
    # Beyond the scalar gate: the per-row half angles, cosines and sines, a
    # few small arrays, where one numpy iteration buffer takes 64 KiB.
    factors = 4096
    for q in range(QUBITS):
        scalar = traced_peak(lambda: _apply_op(psi, QUBITS, "RY", (q,), 0.7, scratch))
        per_row = traced_peak(lambda: _apply_op(psi, QUBITS, "RY", (q,), angles, scratch))
        assert per_row <= scalar + factors, q


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
        # The angle map's product states are built in the result itself.
        assert one <= (1 if variant == "angle" else 3) * BATCH + SLACK
        assert two <= one + EPOCH_SLACK
    assert three <= two + EPOCH_SLACK


@pytest.mark.parametrize("variant", ["angle", "zz"])
def test_fold_peak_is_one_train_batch_its_conjugate_and_the_test_batch(variant):
    xs, _ = data()
    test = np.random.default_rng(1).uniform(0.0, np.pi, (ROWS // 3, QUBITS))
    kind = KernelKind.quantum(FeatureMapKind(variant))

    def fold(test):
        k_train = gram(xs, kind)
        cross(test, xs, kind, train_states=k_train.conj_states)

    # New test rows; all but one new; and half of the rows repeating train
    # rows, which take their states. Beside the train states, cross holds
    # at most two test batches: the new rows' states (or their simulation's
    # workspace) and the assembled batch.
    conj_states = gram(xs, kind).conj_states
    for rows in (test, np.vstack([test[:-1], xs[:1]]), np.vstack([test[:5], xs[:5]])):
        assert traced_peak(lambda: fold(rows)) <= 2 * BATCH + BATCH // 3 + SLACK
        crossed = traced_peak(lambda: cross(rows, xs, kind, train_states=conj_states))
        assert crossed <= 2 * (BATCH // 3) + SLACK


def test_rbf_kernels_peak_at_their_output_and_one_row_block():
    rng = np.random.default_rng(2)
    xt, xr = rng.normal(size=(700, 9)), rng.normal(size=(800, 9))
    # Both span more than ten row blocks of the 32768-element budget.
    assert traced_peak(lambda: gram(xr, KernelKind.rbf())) < 1.15 * 800 * 800 * 8
    assert traced_peak(lambda: cross(xt, xr, KernelKind.rbf())) < 1.15 * 700 * 800 * 8


def test_kernel_run_holds_one_kernel_matrix_at_a_time(monkeypatch):
    log = random_log(5, n_cases=330)
    samples = build_prefix_log(log, 1, None)
    # The continuous avg_delay feature makes nearly every train row distinct,
    # so each fold fits on about as many (row, label) groups as samples.
    cfg = ExperimentConfig(classifier="svc_rbf", k=2, folds=3, tol=1e-2,
                           inter_features=("avg_delay",))
    distinct = []
    fold = bench._kernel_fold

    def recorded_fold(*args):
        predictions = fold(*args)
        distinct.append(args[-1]["distinct_train_rows"])
        return predictions

    monkeypatch.setattr(bench, "_kernel_fold", recorded_fold)
    peak = traced_peak(lambda: run_experiment(cfg, log, samples))
    m_g = max(distinct)
    assert m_g >= 800
    # The fit holds the Gram (or its (row, label) gather) and the η table. A
    # second live kernel array (the distinct Gram kept alive into the fit of
    # a regrouped fold, or a matrix of the fold before) lifts the peak to 3
    # Gram bytes or more.
    assert peak < 2.3 * m_g * m_g * 8


def test_regrouped_fold_fits_on_the_gather_and_the_eta_table_alone():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(600, 2))
    # 600 distinct rows; the first 300 carry a second label, so the fold
    # fits 900 (row, label) groups.
    x = np.vstack([rows, rows[:300]])
    y = np.r_[(rows[:, 0] > 0).astype(np.int64), np.full(300, 2)]
    cfg = ExperimentConfig(classifier="svc_rbf", tol=1e-2)
    groups = bench._fold_groups(x, y, merge=True)
    assert (len(groups[0]), len(groups[1])) == (600, 900)
    part = {"fit_time_s": 0.0}
    fold = lambda: bench._kernel_fold(cfg, KernelKind.rbf(cfg.gamma), groups,
                                      rng.normal(size=(40, 2)), part)
    m_g = 900
    # The gather and the table are 2 group Grams; the distinct Gram kept
    # alive into the fit would add 600² / 900² = 0.44 more.
    assert traced_peak(fold) < 2.3 * m_g * m_g * 8
