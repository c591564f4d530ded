from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icppm import oracles, qsim
from icppm.errors import ConfigError, IcppmError
from icppm.qsim import (
    EXACT,
    FEATURE_MAPS,
    CircuitSpec,
    FeatureMapKind,
    GateOp,
    ShotConfig,
    _apply_op,
    build_feature_map,
    feature_map_states,
    kernel_overlap,
    run,
    sample_indices,
    sampled_frequency,
    weight_layer,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Agreed independently by the stride simulator, the dense-matrix route, and
# a from-scratch derivation; frozen here so a regression in any one route
# cannot silently move the reference.
ZZ_KERNEL_1L = 0.1005585206612868
ZZ_KERNEL_2L = 0.4968460645961656


def random_circuit(rng: np.random.Generator, n: int, depth: int) -> CircuitSpec:
    ops = []
    for _ in range(depth):
        kind = rng.choice(["H", "RY", "P", "CNOT", "RZZ"])
        if kind in ("CNOT", "RZZ") and n < 2:
            kind = "RY"
        if kind in ("CNOT", "RZZ"):
            a, b = rng.choice(n, size=2, replace=False)
            targets = (int(a), int(b))
        else:
            targets = (int(rng.integers(n)),)
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind != "H" and kind != "CNOT" else None
        ops.append(GateOp(kind, targets, angle))
    return CircuitSpec(n, tuple(ops))


class TestGateOp:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateOp("SWAP", (0, 1))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            GateOp("H", (0, 1))
        with pytest.raises(ValueError):
            GateOp("CNOT", (0,))

    def test_distinct_targets(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (1, 1))

    def test_angle_requirements(self):
        with pytest.raises(ValueError):
            GateOp("RY", (0,))
        with pytest.raises(ValueError):
            GateOp("H", (0,), 0.5)

    def test_rz_is_not_a_gate(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateOp("RZ", (0,), 0.5)


def run_ops(n: int, *ops: GateOp) -> np.ndarray:
    return run(CircuitSpec(n, ops))


class TestSingleGates:
    def test_h_on_zero(self):
        out = run_ops(1, GateOp("H", (0,)))
        assert np.allclose(out, [INV_SQRT2, INV_SQRT2])

    def test_ry_pi_flips(self):
        out = run_ops(1, GateOp("RY", (0,), math.pi))
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_phase_gate_only_touches_one_amplitude(self):
        start = run_ops(1, GateOp("H", (0,)))
        out = run_ops(1, GateOp("H", (0,)), GateOp("P", (0,), math.pi / 3))
        assert out[0] == start[0]
        assert np.isclose(out[1], start[1] * np.exp(1j * math.pi / 3))

    def test_qubit_zero_is_most_significant(self):
        out = run_ops(2, GateOp("RY", (0,), math.pi))
        assert np.argmax(np.abs(out) ** 2) == 2

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            run_ops(1, GateOp("RY", (1,), 0.3))


class TestTwoQubitGates:
    def test_bell_state(self):
        circuit = CircuitSpec(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))))
        out = run(circuit)
        assert np.allclose(out, [INV_SQRT2, 0.0, 0.0, INV_SQRT2])

    def test_uniform_superposition(self):
        circuit = CircuitSpec(2, (GateOp("H", (0,)), GateOp("H", (1,))))
        assert np.allclose(np.abs(run(circuit)) ** 2, 0.25)

    def test_rzz_diagonal_phases(self):
        theta = 0.9
        circuit = CircuitSpec(2, (GateOp("H", (0,)), GateOp("H", (1,)), GateOp("RZZ", (0, 1), theta)))
        out = run(circuit)
        same = 0.5 * np.exp(-0.5j * theta)
        diff = 0.5 * np.exp(0.5j * theta)
        assert np.allclose(out, [same, diff, diff, same])

    def test_rzz_symmetric_in_targets(self):
        prep = (GateOp("H", (0,)), GateOp("RY", (1,), 0.4))
        a = run(CircuitSpec(2, prep + (GateOp("RZZ", (0, 1), 0.7),)))
        b = run(CircuitSpec(2, prep + (GateOp("RZZ", (1, 0), 0.7),)))
        assert np.allclose(a, b)

    def test_cnot_control_versus_target(self):
        flip0 = GateOp("RY", (0,), math.pi)
        assert np.argmax(np.abs(run_ops(2, flip0, GateOp("CNOT", (0, 1))))) == 3
        assert np.argmax(np.abs(run_ops(2, flip0, GateOp("CNOT", (1, 0))))) == 2


class TestCircuitSpec:
    def test_needs_one_qubit(self):
        with pytest.raises(ValueError):
            CircuitSpec(0, ())

    def test_target_range_checked(self):
        with pytest.raises(ValueError):
            CircuitSpec(1, (GateOp("CNOT", (0, 1)),))


class TestStateVector:
    def test_zero_state(self):
        s = run(CircuitSpec(3, ()))
        assert s.dtype == np.complex128
        assert s.shape == (8,)
        assert s[0] == 1.0
        assert np.count_nonzero(s) == 1


class TestShotConfig:
    def test_defaults_exact(self):
        assert EXACT.exact
        assert ShotConfig(100).exact is False

    def test_positive_shots(self):
        with pytest.raises(ConfigError):
            ShotConfig(0)

    def test_sampling_deterministic_per_seed(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        a = sample_indices(probs, 1000, seed=7)
        b = sample_indices(probs, 1000, seed=7)
        c = sample_indices(probs, 1000, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sampled_frequency_is_zero_outcome_count(self):
        rng = np.random.default_rng(12)
        for shots in (1, 7, 200):
            for seed in range(20):
                probs = rng.dirichlet(np.ones(8))
                zeros = np.count_nonzero(sample_indices(probs, shots, seed) == 0)
                assert sampled_frequency(probs[0], shots, seed) == zeros / shots

    def test_sampled_frequency_within_bound(self):
        est = sampled_frequency(0.5, 40_000, seed=3)
        assert abs(est - 0.5) < 2.5 / math.sqrt(40_000)


class TestFeatureMaps:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            FeatureMapKind("amplitude")

    def test_layers_at_least_one(self):
        with pytest.raises(ConfigError):
            FeatureMapKind("zz", 0)

    def test_qubits_equal_features(self):
        for variant in FEATURE_MAPS:
            circuit = build_feature_map(FeatureMapKind(variant), [0.1, 0.2, 0.3])
            assert circuit.n_qubits == 3

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            build_feature_map(FeatureMapKind("angle"), [])

    def test_angle_map_gate_structure(self):
        circuit = build_feature_map(FeatureMapKind("angle"), [0.1, 0.2, 0.3])
        assert [op.kind for op in circuit.ops] == ["RY"] * 3
        assert [op.angle for op in circuit.ops] == [0.1, 0.2, 0.3]

    def test_zz_map_gate_structure(self):
        circuit = build_feature_map(FeatureMapKind("zz"), [0.1, 0.2, 0.3])
        kinds = [op.kind for op in circuit.ops]
        assert kinds == ["H"] * 3 + ["P"] * 3 + ["RZZ"] * 3
        pair_targets = [op.targets for op in circuit.ops if op.kind == "RZZ"]
        assert pair_targets == [(0, 1), (0, 2), (1, 2)]
        p0 = next(op for op in circuit.ops if op.kind == "P")
        assert p0.angle == pytest.approx(0.2)
        rzz01 = circuit.ops[6]
        assert rzz01.angle == pytest.approx(2.0 * (math.pi - 0.1) * (math.pi - 0.2))

    def test_angle_zz_swaps_phase_for_rotation(self):
        circuit = build_feature_map(FeatureMapKind("angle_zz"), [0.1, 0.2])
        kinds = [op.kind for op in circuit.ops]
        assert kinds == ["H", "H", "RY", "RY", "RZZ"]
        assert circuit.ops[2].angle == pytest.approx(0.2)

    def test_layer_count_duplicates_block(self):
        one = build_feature_map(FeatureMapKind("zz", 1), [0.1, 0.2, 0.3])
        two = build_feature_map(FeatureMapKind("zz", 2), [0.1, 0.2, 0.3])
        assert len(two.ops) == 2 * len(one.ops)
        assert two.ops[: len(one.ops)] == one.ops
        assert two.ops[len(one.ops):] == one.ops


class TestKernelOverlap:
    def test_frozen_zz_values(self):
        x, x2 = (0.5, 1.0), (0.2, 0.8)
        assert kernel_overlap(x, x2, FeatureMapKind("zz", 1)) == pytest.approx(
            ZZ_KERNEL_1L, abs=1e-10
        )
        assert kernel_overlap(x, x2, FeatureMapKind("zz", 2)) == pytest.approx(
            ZZ_KERNEL_2L, abs=1e-10
        )

    def test_angle_closed_form(self):
        rng = np.random.default_rng(0)
        for layers in (1, 2, 3):
            for n in (1, 2, 4):
                x, x2 = rng.uniform(0, math.pi, (2, n))
                want = oracles.angle_kernel_closed_form(x, x2, layers)
                got = kernel_overlap(x, x2, FeatureMapKind("angle", layers))
                assert got == pytest.approx(want, abs=1e-12)

    def test_angle_orthogonal_point(self):
        assert kernel_overlap([0.0], [math.pi], FeatureMapKind("angle")) < 1e-30

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(1)
        for variant in FEATURE_MAPS:
            x = rng.uniform(0, math.pi, 3)
            assert kernel_overlap(x, x, FeatureMapKind(variant)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for variant in FEATURE_MAPS:
            x, x2 = rng.uniform(0, math.pi, (2, 3))
            k1 = kernel_overlap(x, x2, FeatureMapKind(variant))
            k2 = kernel_overlap(x2, x, FeatureMapKind(variant))
            assert k1 == pytest.approx(k2, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for variant in FEATURE_MAPS:
            for _ in range(10):
                x, x2 = rng.uniform(0, math.pi, (2, 2))
                k = kernel_overlap(x, x2, FeatureMapKind(variant))
                assert 0.0 <= k <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_overlap([0.1], [0.1, 0.2], FeatureMapKind("angle"))

    def test_shot_estimate_reproducible_and_close(self):
        x, x2 = (0.5, 1.0), (0.2, 0.8)
        cfg = ShotConfig(20_000, seed=5)
        a = kernel_overlap(x, x2, FeatureMapKind("zz"), cfg)
        b = kernel_overlap(x, x2, FeatureMapKind("zz"), cfg)
        assert a == b
        sigma = math.sqrt(ZZ_KERNEL_1L * (1 - ZZ_KERNEL_1L) / 20_000)
        assert abs(a - ZZ_KERNEL_1L) < 5 * sigma


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_circuits_match(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            circuit = random_circuit(rng, n, depth=10)
            fast = run(circuit)
            dense = oracles.state_via_unitary(circuit)
            assert np.max(np.abs(fast - dense)) < 1e-10

    @pytest.mark.parametrize("variant", FEATURE_MAPS)
    def test_feature_map_kernels_match(self, variant):
        rng = np.random.default_rng(50)
        for layers in (1, 2):
            kind = FeatureMapKind(variant, layers)
            for _ in range(5):
                x, x2 = rng.uniform(0, math.pi, (2, 3))
                fast = kernel_overlap(x, x2, kind)
                dense = oracles.kernel_via_unitary(x, x2, kind)
                assert abs(fast - dense) < 1e-10

    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        circuit = random_circuit(rng, n, depth=8)
        out = run(circuit)
        assert abs(float(np.sum(np.abs(out) ** 2)) - 1.0) < 1e-12


class TestWeightLayer:
    def test_zero_angles_identity_on_zero_state(self):
        layer = weight_layer(np.zeros(2), 2)
        assert np.allclose(run(layer), [1.0, 0.0, 0.0, 0.0])

    def test_ring_structure(self):
        layer = weight_layer(np.zeros(3), 3)
        cnots = [op.targets for op in layer.ops if op.kind == "CNOT"]
        assert cnots == [(0, 1), (1, 2), (2, 0)]

    def test_single_qubit_has_no_entangler(self):
        layer = weight_layer([0.4], 1)
        assert [op.kind for op in layer.ops] == ["RY"]

    def test_entangle_off(self):
        layer = weight_layer(np.ones(3), 3, entangle=False)
        assert all(op.kind == "RY" for op in layer.ops)

    def test_parameter_shape_checked(self):
        with pytest.raises(ValueError):
            weight_layer([0.1, 0.2], 3)


class TestRun:
    def test_empty_circuit_is_identity(self):
        out = run(CircuitSpec(2, ()))
        assert out.shape == (4,)
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_norm_drift_raises(self, monkeypatch):
        monkeypatch.setattr(qsim, "_apply_op", lambda psi, *_: psi.__imul__(1.1))
        with pytest.raises(IcppmError, match="norm drifted"):
            run(CircuitSpec(1, (GateOp("H", (0,)),)))


class TestBatchedEngine:
    def test_per_row_angles_match_scalar_runs(self):
        rng = np.random.default_rng(31)
        n, b = 3, 4
        start = rng.normal(size=(b, 2 ** n)) + 1j * rng.normal(size=(b, 2 ** n))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        for kind, targets in (("RY", (1,)), ("P", (2,)), ("RZZ", (0, 2))):
            angles = rng.uniform(-math.pi, math.pi, b)
            batch = start.copy().reshape((b,) + (2,) * n)
            _apply_op(batch, n, kind, targets, angles)
            for r in range(b):
                one = qsim._apply_ops(start[r].copy(), n, [GateOp(kind, targets, float(angles[r]))])
                assert np.max(np.abs(batch.reshape(b, -1)[r] - one)) < 1e-15

    def test_scalar_angle_applies_to_every_row(self):
        batch = np.zeros((3, 2), dtype=np.complex128)
        batch[:, 0] = 1.0
        _apply_op(batch, 1, "RY", (0,), math.pi)
        assert np.allclose(batch, [[0.0, 1.0]] * 3)


class TestFeatureMapStates:
    @pytest.mark.parametrize("variant", FEATURE_MAPS)
    @pytest.mark.parametrize("layers", [1, 2])
    def test_rows_match_dense_unitary(self, variant, layers):
        kind = FeatureMapKind(variant, layers)
        x = np.random.default_rng(40 + layers).uniform(0, math.pi, (5, 3))
        states = feature_map_states(kind, x)
        assert states.shape == (5, 8)
        for r in range(5):
            circuit = build_feature_map(kind, x[r])
            assert np.max(np.abs(states[r] - run(circuit))) < 1e-13
            assert np.max(np.abs(states[r] - oracles.state_via_unitary(circuit))) < 1e-12

    def test_single_qubit_and_wide_maps(self):
        kind = FeatureMapKind("zz", 2)
        for n in (1, 7):
            x = np.random.default_rng(n).uniform(0, math.pi, (2, n))
            states = feature_map_states(kind, x)
            for r in range(2):
                want = run(build_feature_map(kind, x[r]))
                assert np.max(np.abs(states[r] - want)) < 1e-12

    def test_phase_blocks_join_seamlessly(self, monkeypatch):
        from icppm import qsim

        kind = FeatureMapKind("zz", 1)
        x = np.random.default_rng(3).uniform(0, math.pi, (3, 4))
        whole = feature_map_states(kind, x)
        monkeypatch.setattr(qsim, "_PHASE_BLOCK", 3)
        assert np.max(np.abs(feature_map_states(kind, x) - whole)) < 1e-15

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            feature_map_states(FeatureMapKind("zz"), np.zeros(3))
        with pytest.raises(ValueError):
            feature_map_states(FeatureMapKind("zz"), np.zeros((2, 0)))
