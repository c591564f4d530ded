from __future__ import annotations

import math

import numpy as np
import pytest

import icppm.vqc as vqc
import oracles as ref
from icppm import oracles, qsim
from icppm.errors import ConfigError, TrainingError
from icppm.qsim import EXACT, FeatureMapKind, ShotConfig, build_feature_map, run
from icppm.vqc import (
    OptimizerConfig,
    VqcModel,
    forward,
    forward_many,
    loss,
    parameter_shift_gradient,
    predict,
    predict_many,
    train,
)

ANGLE = FeatureMapKind("angle")
TOL = oracles.BATCHED_TOL
MAPS = (FeatureMapKind("angle"), FeatureMapKind("zz", 2), FeatureMapKind("angle_zz"))


def separable_fixture():
    """One qubit; class "a" sits near |0>, class "b" near |1>."""
    xs = np.array([[0.1], [0.2], [0.3], [2.9], [3.0], [2.7]])
    labels = ["a", "a", "a", "b", "b", "b"]
    return xs, labels


def finite_difference(model: VqcModel, xs, labels, step: float = 1e-4) -> np.ndarray:
    grad = np.zeros_like(model.theta)
    for l in range(model.n_layers):
        for q in range(model.n_qubits):
            saved = model.theta[l, q]
            model.theta[l, q] = saved + step
            up = loss(model, xs, labels)
            model.theta[l, q] = saved - step
            down = loss(model, xs, labels)
            model.theta[l, q] = saved
            grad[l, q] = (up - down) / (2.0 * step)
    return grad


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(epochs=-1)
        with pytest.raises(ConfigError):
            OptimizerConfig(method="adam")

    def test_zero_epochs_allowed(self):
        assert OptimizerConfig(epochs=0).epochs == 0


class TestVqcModel:
    def test_theta_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            VqcModel(ANGLE, np.zeros(3), ("a", "b"))

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            VqcModel(ANGLE, np.zeros((1, 2)), ("a",))

    def test_readout_must_fit_circuit(self):
        with pytest.raises(ConfigError):
            VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c", "d", "e"))

    def test_readout_qubit_counts(self):
        theta = np.zeros((1, 4))
        assert VqcModel(ANGLE, theta, ("a", "b")).readout_qubits == 1
        assert VqcModel(ANGLE, theta, ("a", "b", "c")).readout_qubits == 2
        assert VqcModel(ANGLE, theta, tuple("abcd")).readout_qubits == 2
        assert VqcModel(ANGLE, theta, tuple("abcde")).readout_qubits == 3


class TestForward:
    def test_probabilities_normalized(self):
        rng = np.random.default_rng(0)
        model = VqcModel(ANGLE, rng.uniform(-1, 1, (2, 3)), ("a", "b", "c"))
        p = forward(model, rng.uniform(0, math.pi, 3))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feature_dimension_checked(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            forward(model, [0.1, 0.2, 0.3])

    def test_first_qubit_drives_binary_readout(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"), entangle=False)
        assert forward(model, [0.0, 0.0])[0] == pytest.approx(1.0)
        assert forward(model, [math.pi, 0.0])[1] == pytest.approx(1.0)

    def test_bitstring_groups_deal_round_robin(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c"), entangle=False)
        assert forward(model, [0.0, 0.0])[0] == pytest.approx(1.0)
        assert forward(model, [0.0, math.pi])[1] == pytest.approx(1.0)
        assert forward(model, [math.pi, 0.0])[2] == pytest.approx(1.0)
        assert forward(model, [math.pi, math.pi])[0] == pytest.approx(1.0)

    def test_identity_weights_match_bare_feature_map(self):
        x = np.array([0.4, 1.1])
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"), entangle=False)
        state = run(build_feature_map(ANGLE, x))
        probs = (np.abs(state) ** 2).reshape(2, 2).sum(axis=1)
        assert forward(model, x) == pytest.approx(probs)

    def test_shot_estimate_near_exact(self):
        rng = np.random.default_rng(1)
        model = VqcModel(ANGLE, rng.uniform(-1, 1, (1, 2)), ("a", "b"))
        x = rng.uniform(0, math.pi, 2)
        exact = forward(model, x)
        shots = 100_000
        est = forward(model, x, ShotConfig(shots, seed=4))
        sigma = math.sqrt(exact[0] * (1 - exact[0]) / shots)
        assert abs(est[0] - exact[0]) < 5 * max(sigma, 1e-4)

    def test_shot_estimate_reproducible(self):
        model = VqcModel(ANGLE, np.full((1, 2), 0.2), ("a", "b"))
        cfg = ShotConfig(500, seed=9)
        a = forward(model, [0.5, 1.0], cfg)
        b = forward(model, [0.5, 1.0], cfg)
        assert np.array_equal(a, b)


class TestPredict:
    def test_follows_argmax(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"), entangle=False)
        assert predict(model, [0.0, 0.0]) == "a"
        assert predict(model, [math.pi, 0.0]) == "b"

    def test_tie_goes_to_smaller_class(self, monkeypatch):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c"))
        monkeypatch.setattr(
            vqc, "forward", lambda m, x, shots=EXACT: np.array([0.4, 0.4, 0.2])
        )
        assert vqc.predict(model, [0.0, 0.0]) == "a"


class TestGradient:
    @pytest.mark.parametrize("n,layers", [(1, 1), (2, 1), (3, 2), (4, 1)])
    def test_parameter_shift_matches_finite_differences(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        xs = rng.uniform(0, math.pi, (3, n))
        labels = ["a", "b", "a"]
        model = VqcModel(ANGLE, rng.uniform(-1.0, 1.0, (layers, n)), ("a", "b"))
        analytic = parameter_shift_gradient(model, xs, labels)
        numeric = finite_difference(model, xs, labels)
        assert np.max(np.abs(analytic - numeric)) < 1e-5

    def test_gradient_zero_at_optimum_direction(self):
        xs = np.array([[0.0], [math.pi]])
        labels = ["a", "b"]
        model = VqcModel(ANGLE, np.zeros((1, 1)), ("a", "b"))
        grad = parameter_shift_gradient(model, xs, labels)
        assert abs(grad[0, 0]) < 1e-9

    def test_unknown_label_rejected(self):
        model = VqcModel(ANGLE, np.zeros((1, 1)), ("a", "b"))
        with pytest.raises(ValueError):
            loss(model, np.array([[0.1]]), ["zzz"])


class TestTrain:
    def test_classes_sorted_and_required(self):
        xs, labels = separable_fixture()
        model = train(xs, ["z" if l == "a" else "y" for l in labels], ANGLE, 1, OptimizerConfig(epochs=1))
        assert model.classes == ("y", "z")
        with pytest.raises(ConfigError):
            train(xs, ["same"] * len(xs), ANGLE, 1)
        with pytest.raises(ConfigError):
            train(xs, labels, ANGLE, 0)

    def test_zero_epochs_returns_seeded_init(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(epochs=0, seed=42)
        model = train(xs, labels, ANGLE, 2, opt)
        want = np.random.default_rng(42).uniform(-0.1, 0.1, (2, 1))
        assert np.array_equal(model.theta, want)
        assert len(model.loss_history) == 1

    def test_loss_non_increasing_on_separable_fixture(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(learning_rate=0.2, epochs=12, seed=0)
        model = train(xs, labels, ANGLE, 1, opt)
        history = np.array(model.loss_history)
        assert len(history) == 13
        assert np.all(np.diff(history) <= 1e-12)
        assert [predict(model, x) for x in xs] == labels

    def test_training_deterministic(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(epochs=3, seed=5)
        a = train(xs, labels, ANGLE, 1, opt)
        b = train(xs, labels, ANGLE, 1, opt)
        assert np.array_equal(a.theta, b.theta)
        assert a.loss_history == b.loss_history

    def test_spsa_runs_and_is_seeded(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(epochs=3, method="spsa", seed=7)
        a = train(xs, labels, ANGLE, 1, opt)
        b = train(xs, labels, ANGLE, 1, opt)
        assert np.array_equal(a.theta, b.theta)
        assert len(a.loss_history) == 4

    def test_divergence_raises_with_epoch(self, monkeypatch):
        xs, labels = separable_fixture()
        monkeypatch.setattr(vqc, "_batch_loss", lambda *a, **k: math.nan)
        with pytest.raises(TrainingError) as err:
            train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=2))
        assert err.value.epoch == 0

    def test_multiclass_training_smoke(self):
        xs = np.array([[0.1, 0.1], [0.2, 0.1], [2.9, 0.2], [3.0, 0.1], [0.2, 3.0], [0.1, 2.9]])
        labels = ["a", "a", "b", "b", "c", "c"]
        model = train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=2, seed=3))
        assert model.classes == ("a", "b", "c")
        assert model.readout_qubits == 2


def grad_gap_ok(got: np.ndarray, want: np.ndarray) -> bool:
    """Gradients agree to TOL times max(1, largest entry): the -1/p of the
    cross-entropy scales float error in p by the same factor as the gradient."""
    return float(np.max(np.abs(got - want))) <= TOL * max(1.0, float(np.max(np.abs(want))))


def random_case(rng, n: int, layers: int, n_classes: int, fm, entangle: bool, rows: int):
    model = VqcModel(fm, rng.uniform(-math.pi, math.pi, (layers, n)),
                     tuple(range(n_classes)), entangle)
    xs = rng.uniform(0.0, math.pi, (rows, n))
    class_idx = rng.integers(0, n_classes, rows)
    return model, xs, class_idx


class TestBatchedEngine:
    @pytest.mark.parametrize("entangle", [True, False])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("fm", MAPS, ids=lambda k: f"{k.variant}{k.layers}")
    def test_matches_per_row_reference_and_dense_oracle(self, fm, layers, entangle):
        rng = np.random.default_rng(100 * layers + 10 * MAPS.index(fm) + entangle)
        for n in range(1, 10):
            n_classes = min(2 + (n + layers) % 5, 2 ** n)
            model, xs, class_idx = random_case(rng, n, layers, n_classes, fm, entangle, rows=2)
            labels = list(class_idx)
            args = (fm, model.theta, xs, class_idx, n_classes, entangle, EXACT)
            probs = forward_many(model, xs)
            want = np.array([ref.vqc_class_probs(fm, model.theta, x, n_classes, entangle, EXACT)
                             for x in xs])
            assert np.max(np.abs(probs - want)) <= TOL
            assert abs(loss(model, xs, labels) - ref.vqc_loss(*args)) <= TOL
            grad = parameter_shift_gradient(model, xs, labels)
            assert grad_gap_ok(grad, ref.vqc_shift_gradient(*args))
            if n <= 5:
                dense = np.array([oracles.vqc_probs_via_unitary(model, x) for x in xs])
                assert np.max(np.abs(probs - dense)) <= TOL
                dense_grad = np.mean([oracles.vqc_gradient_via_unitary(model, x, c)
                                      for x, c in zip(xs, class_idx)], axis=0)
                assert grad_gap_ok(grad, dense_grad)

    @pytest.mark.parametrize("fm", MAPS, ids=lambda k: f"{k.variant}{k.layers}")
    def test_shot_mode_bit_identical_to_reference(self, fm):
        rng = np.random.default_rng(7)
        shots = ShotConfig(40, seed=11)
        for n, layers, n_classes, rows in [(1, 2, 2, 3), (3, 1, 3, 11), (4, 2, 5, 9)]:
            model, xs, class_idx = random_case(rng, n, layers, n_classes, fm, True, rows)
            for x in xs:
                want = ref.vqc_class_probs(fm, model.theta, x, n_classes, True, shots)
                assert np.array_equal(forward(model, x, shots), want)
            grad = parameter_shift_gradient(model, xs, list(class_idx), shots)
            want = ref.vqc_shift_gradient(fm, model.theta, xs, class_idx, n_classes, True, shots)
            assert np.array_equal(grad, want)

    @pytest.mark.parametrize("method", ["parameter_shift", "spsa"])
    def test_shot_mode_training_bit_identical_to_reference(self, method):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, math.pi, (10, 3))
        labels = list(rng.integers(0, 3, 10))
        fm = FeatureMapKind("zz")
        opt = OptimizerConfig(learning_rate=0.3, epochs=2, method=method, seed=4)
        shots = ShotConfig(60, seed=2)
        model = train(xs, labels, fm, 2, opt, shots=shots)
        theta, history = ref.vqc_train(xs, labels, fm, 2, opt, shots=shots)
        assert np.array_equal(model.theta, theta)
        assert model.loss_history == history

    def test_exact_training_matches_reference(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, math.pi, (8, 4))
        labels = list(rng.integers(0, 2, 8))
        opt = OptimizerConfig(learning_rate=0.5, epochs=3, seed=1)
        model = train(xs, labels, ANGLE, 2, opt)
        theta, history = ref.vqc_train(xs, labels, ANGLE, 2, opt)
        assert np.max(np.abs(model.theta - theta)) <= TOL
        assert np.max(np.abs(np.array(model.loss_history) - history)) <= TOL

    @pytest.mark.parametrize("n", range(1, 11))
    def test_ring_permutation_equals_gate_by_gate_ring(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        ring = [op for op in qsim.weight_layer(np.zeros(n), n).ops if op.kind == "CNOT"]
        want = qsim._apply_ops(psi.copy(), n, ring)
        perm = vqc._ring_permutation(n, True)
        got = psi if perm is None else psi[perm]
        assert np.array_equal(got, want)
        assert vqc._ring_permutation(n, False) is None

    def test_feature_map_simulated_once_per_train_call(self, monkeypatch):
        calls = []
        real = vqc.feature_map_states
        monkeypatch.setattr(vqc, "feature_map_states",
                            lambda kind, x: calls.append(len(x)) or real(kind, x))
        xs, labels = separable_fixture()
        for method in ("parameter_shift", "spsa"):
            calls.clear()
            train(xs, labels, ANGLE, 2, OptimizerConfig(epochs=3, method=method))
            assert calls == [len(xs)]

    def test_feature_dimension_checked(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            forward_many(model, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            parameter_shift_gradient(model, np.zeros((1, 3)), ["a"])


class TestEdgeBatches:
    MODEL = VqcModel(FeatureMapKind("zz"), np.full((2, 3), 0.3), ("a", "b", "c"))

    def test_zero_rows(self):
        empty = np.zeros((0, 3))
        assert forward_many(self.MODEL, empty).shape == (0, 3)
        assert forward_many(self.MODEL, empty, ShotConfig(20, seed=1)).shape == (0, 3)
        assert predict_many(self.MODEL, empty) == []
        with pytest.raises(ValueError, match="empty batch"):
            loss(self.MODEL, empty, [])
        with pytest.raises(ValueError, match="empty batch"):
            parameter_shift_gradient(self.MODEL, empty, [])

    def test_non_finite_features_raise(self):
        bad = [[math.nan, 0.0, 0.0]]
        with pytest.raises(ValueError, match="not finite"):
            parameter_shift_gradient(self.MODEL, bad, ["a"])
        with pytest.raises(ValueError, match="not finite"):
            forward_many(self.MODEL, [[0.0, math.inf, 0.0]])


class TestPredictMany:
    def test_equals_per_row_predict(self):
        rng = np.random.default_rng(8)
        model = VqcModel(FeatureMapKind("zz"), rng.uniform(-1, 1, (2, 3)), ("a", "b", "c"))
        xs = rng.uniform(0.0, math.pi, (12, 3))
        assert predict_many(model, xs) == [predict(model, x) for x in xs]
        shots = ShotConfig(30, seed=5)
        assert predict_many(model, xs, shots) == [predict(model, x, shots) for x in xs]

    def test_tie_goes_to_smaller_class(self, monkeypatch):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c"))
        monkeypatch.setattr(vqc, "forward_many",
                            lambda m, xs, shots=EXACT: np.array([[0.2, 0.4, 0.4]] * len(xs)))
        assert vqc.predict_many(model, np.zeros((2, 2))) == ["b", "b"]
