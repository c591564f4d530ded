from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import icppm.vqc as vqc
import oracles as ref
from icppm import oracles, qsim
from icppm.errors import ConfigError, DegenerateModelError, TrainingError
from icppm.qsim import EXACT, FeatureMapKind, ShotConfig, build_feature_map, run
from icppm.vqc import (
    OptimizerConfig,
    VqcModel,
    adjoint_gradient,
    forward_many,
    loss,
    parameter_shift_gradient,
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

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_learning_rate_must_be_finite(self, rate):
        with pytest.raises(ConfigError, match="learning rate"):
            OptimizerConfig(learning_rate=rate)

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
        p = forward_many(model, [rng.uniform(0, math.pi, 3)])[0]
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    # With zero weights a two-qubit layer is its CNOT ring, which sends the
    # basis state |b0 b1> to |b1, b0 xor b1>; the angle map writes x = 0 or
    # pi as bit 0 or 1.
    def test_first_qubit_drives_binary_readout(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        for x, out in [((0, 0), 0), ((1, 0), 0), ((0, 1), 1), ((1, 1), 1)]:
            assert forward_many(model, [math.pi * np.array(x)])[0, out] == pytest.approx(1.0)

    def test_bitstring_groups_deal_round_robin(self):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c"))
        # Inputs reaching output bitstrings 0, 1, 2, 3; bitstring 3 wraps to class 0.
        for x, out in [((0, 0), 0), ((1, 0), 1), ((1, 1), 2), ((0, 1), 0)]:
            assert forward_many(model, [math.pi * np.array(x)])[0, out] == pytest.approx(1.0)

    def test_identity_weights_match_bare_feature_map(self):
        # The ring moves qubit 1 of the bare feature-map state onto qubit 0.
        x = np.array([0.4, 1.1])
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        state = run(build_feature_map(ANGLE, x))
        probs = (np.abs(state) ** 2).reshape(2, 2).sum(axis=0)
        assert forward_many(model, [x])[0] == pytest.approx(probs)

    def test_shot_estimate_near_exact(self):
        rng = np.random.default_rng(1)
        model = VqcModel(ANGLE, rng.uniform(-1, 1, (1, 2)), ("a", "b"))
        x = rng.uniform(0, math.pi, 2)
        exact = forward_many(model, [x])[0]
        shots = 100_000
        est = forward_many(model, [x], ShotConfig(shots, seed=4))[0]
        sigma = math.sqrt(exact[0] * (1 - exact[0]) / shots)
        assert abs(est[0] - exact[0]) < 5 * max(sigma, 1e-4)

    def test_shot_estimate_reproducible(self):
        model = VqcModel(ANGLE, np.full((1, 2), 0.2), ("a", "b"))
        cfg = ShotConfig(500, seed=9)
        a = forward_many(model, [[0.5, 1.0]], cfg)
        b = forward_many(model, [[0.5, 1.0]], cfg)
        assert np.array_equal(a, b)


class TestPredict:
    def test_follows_argmax(self):
        # Zero weights: the ring puts the second input qubit on the readout.
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        xs = [[0.0, 0.0], [0.0, math.pi], [1.0, 0.4], [1.0, 2.6]]
        assert predict_many(model, xs) == ["a", "b", "a", "b"]


class TestGradient:
    @pytest.mark.parametrize("n,layers", [(1, 1), (2, 1), (3, 2), (4, 1)])
    def test_parameter_shift_matches_finite_differences(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        xs = rng.uniform(0, math.pi, (3, n))
        labels = ["a", "b", "a"]
        model = VqcModel(ANGLE, rng.uniform(-1.0, 1.0, (layers, n)), ("a", "b"))
        numeric = finite_difference(model, xs, labels)
        for gradient in (parameter_shift_gradient, adjoint_gradient):
            assert np.max(np.abs(gradient(model, xs, labels) - numeric)) < 1e-5

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

    def test_label_count_must_match_rows(self):
        xs, labels = np.full((6, 2), 0.3), ["a", "b", "a", "b", "a"]
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        for fn in (loss, parameter_shift_gradient, adjoint_gradient):
            with pytest.raises(ValueError, match="6 rows of xs but 5 labels"):
                fn(model, xs, labels)
        with pytest.raises(ValueError, match="6 rows of xs but 5 labels"):
            train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=1))


class TestTrain:
    def test_classes_sorted_and_required(self):
        xs, labels = separable_fixture()
        model = train(xs, ["z" if l == "a" else "y" for l in labels], ANGLE, 1, OptimizerConfig(epochs=1))
        assert model.classes == ("y", "z")
        with pytest.raises(DegenerateModelError, match="at least 2 classes"):
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
        assert predict_many(model, xs) == labels

    def test_training_deterministic(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(epochs=3, seed=5)
        a = train(xs, labels, ANGLE, 1, opt)
        b = train(xs, labels, ANGLE, 1, opt)
        assert np.array_equal(a.theta, b.theta)
        assert a.loss_history == b.loss_history

    def test_gradient_norms_recorded_per_epoch(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(learning_rate=0.2, epochs=3, seed=2)
        model = train(xs, labels, ANGLE, 2, opt)
        assert len(model.grad_norms) == 3
        start = train(xs, labels, ANGLE, 2, OptimizerConfig(epochs=0, seed=2))
        assert start.grad_norms == ()
        assert model.grad_norms[0] == np.linalg.norm(adjoint_gradient(start, xs, labels))

    def test_prior_loss_is_the_label_entropy(self):
        assert vqc.prior_loss(["a", "b"] * 3) == pytest.approx(math.log(2.0), abs=1e-15)
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert vqc.prior_loss([2, 0, 2, 2]) == pytest.approx(want, abs=1e-15)

    def test_spsa_runs_and_is_seeded(self):
        xs, labels = separable_fixture()
        opt = OptimizerConfig(epochs=3, method="spsa", seed=7)
        a = train(xs, labels, ANGLE, 1, opt)
        b = train(xs, labels, ANGLE, 1, opt)
        assert np.array_equal(a.theta, b.theta)
        assert len(a.loss_history) == 4

    @staticmethod
    def diverge_after(monkeypatch, finite_calls: int) -> None:
        """Every training loss comes from ``_forward``, one call per epoch at
        the current theta and one at the final theta; all calls after the
        first ``finite_calls`` return a NaN loss."""
        real, calls = vqc._forward, []

        def forward(*args):
            calls.append(None)
            value, *rest = real(*args)
            return (value if len(calls) <= finite_calls else math.nan, *rest)

        monkeypatch.setattr(vqc, "_forward", forward)

    def test_divergence_raises_with_epoch(self, monkeypatch):
        xs, labels = separable_fixture()
        self.diverge_after(monkeypatch, 0)
        with pytest.raises(TrainingError) as err:
            train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=2))
        assert err.value.epoch == 0

    def test_divergence_after_update_names_that_epoch(self, monkeypatch):
        # The loss at theta_k, k >= 1, names epoch k - 1, whose update gave
        # theta_k; the last one comes from the final plain loss.
        xs, labels = separable_fixture()
        for finite_calls, epoch in [(1, 0), (2, 1)]:
            self.diverge_after(monkeypatch, finite_calls)
            with pytest.raises(TrainingError) as err:
                train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=2))
            assert err.value.epoch == epoch
            monkeypatch.undo()

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


def random_case(rng, n: int, layers: int, n_classes: int, fm, rows: int):
    model = VqcModel(fm, rng.uniform(-math.pi, math.pi, (layers, n)),
                     tuple(range(n_classes)))
    xs = rng.uniform(0.0, math.pi, (rows, n))
    class_idx = rng.integers(0, n_classes, rows)
    return model, xs, class_idx


class TestBatchedEngine:
    # one_row: a batch of one row, as ``forward`` and ``predict`` run it,
    # against a batch of three. At one and two layers the batches of three
    # end with the vqc_train benchmark's shape, 30 rows on 9 qubits, where
    # the adjoint's tail product sums over hundreds of 16-float blocks.
    @pytest.mark.parametrize("one_row", [True, False])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("fm", MAPS, ids=lambda k: f"{k.variant}{k.layers}")
    def test_matches_per_row_reference_and_dense_oracle(self, fm, layers, one_row):
        rng = np.random.default_rng(100 * layers + 10 * MAPS.index(fm) + one_row)
        shapes = [(n, 1 if one_row else 3) for n in range(1, 10)]
        if not one_row and layers < 3:
            shapes.append((9, 30))
        for n, rows in shapes:
            n_classes = min(2 + (n + layers) % 5, 2 ** n)
            model, xs, class_idx = random_case(rng, n, layers, n_classes, fm, rows)
            labels = list(class_idx)
            args = (fm, model.theta, xs, class_idx, n_classes, EXACT)
            probs = forward_many(model, xs)
            want = ref.vqc_class_probs(fm, model.theta, xs, n_classes, EXACT)
            assert np.max(np.abs(probs - want)) <= TOL
            assert abs(loss(model, xs, labels) - ref.vqc_loss(*args)) <= TOL
            grad = parameter_shift_gradient(model, xs, labels)
            adjoint = adjoint_gradient(model, xs, labels)
            want = ref.vqc_shift_gradient(*args)
            assert grad_gap_ok(grad, want)
            assert grad_gap_ok(adjoint, want)
            assert grad_gap_ok(adjoint, grad)
            if n <= 5:
                dense = np.array([oracles.vqc_probs_via_unitary(model, x) for x in xs])
                assert np.max(np.abs(probs - dense)) <= TOL
                dense_grad = np.mean([oracles.vqc_gradient_via_unitary(model, x, c)
                                      for x, c in zip(xs, class_idx)], axis=0)
                assert grad_gap_ok(grad, dense_grad)
                assert grad_gap_ok(adjoint, dense_grad)

    @pytest.mark.parametrize("fm", MAPS, ids=lambda k: f"{k.variant}{k.layers}")
    def test_shot_mode_bit_identical_to_reference(self, fm):
        rng = np.random.default_rng(7)
        shots = ShotConfig(40, seed=11)
        for n, layers, n_classes, rows in [(1, 2, 2, 3), (3, 1, 3, 11), (4, 2, 5, 9)]:
            model, xs, class_idx = random_case(rng, n, layers, n_classes, fm, rows)
            want = ref.vqc_class_probs(fm, model.theta, xs, n_classes, shots)
            assert np.array_equal(forward_many(model, xs, shots), want)
            assert np.array_equal(forward_many(model, xs[:1], shots), want[:1])
            assert loss(model, xs, list(class_idx), shots) == ref.vqc_loss(
                fm, model.theta, xs, class_idx, n_classes, shots)
            grad = parameter_shift_gradient(model, xs, list(class_idx), shots)
            want = ref.vqc_shift_gradient(fm, model.theta, xs, class_idx, n_classes, shots)
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

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_readout_is_multinomial_draw_over_exact_marginal(self, n_classes):
        # Random distributions, some with empty readout groups and some
        # summing to just below or above 1; the draw is dealt round-robin.
        rng = np.random.default_rng(12)
        n = 4
        r = max(1, math.ceil(math.log2(n_classes)))
        probs = rng.dirichlet(np.full(2 ** n, 0.3), size=12)
        probs[3, : 2 ** n >> r] = 0.0
        probs[4, -(2 ** n >> r):] = 0.0
        probs[5] *= 1.0 - 1e-15
        probs[6] *= 1.0 + 1e-15
        psi = np.sqrt(probs).astype(np.complex128)
        marginal = (np.abs(psi) ** 2).reshape(len(psi), 2 ** r, -1).sum(axis=2)
        for shots in (ShotConfig(1, seed=3), ShotConfig(7, seed=4), ShotConfig(200, seed=5)):
            got = vqc._readout(psi, n_classes, shots, np.empty(psi.shape))
            counts = np.random.default_rng(shots.seed).multinomial(shots.shots, marginal)
            for row, freq in zip(got, counts / shots.shots):
                scores = np.zeros(n_classes)
                np.add.at(scores, np.arange(2 ** r) % n_classes, freq)
                assert np.array_equal(row, scores / scores.sum())

    def test_shot_frequencies_have_binomial_mean_and_variance(self):
        # Per row and class, over 500 seeds: the mean frequency against p and
        # the sample variance against p(1 - p)/shots, each within 5 standard
        # errors (the variance's from the binomial fourth central moment).
        rng = np.random.default_rng(21)
        n, n_classes, shots, seeds = 3, 3, 40, 500
        psi = np.sqrt(rng.dirichlet(np.ones(2 ** n), size=4)).astype(np.complex128)
        p = vqc._readout(psi, n_classes, EXACT, np.empty(psi.shape))
        freq = np.array([vqc._readout(psi, n_classes, ShotConfig(shots, seed=s),
                                      np.empty(psi.shape)) for s in range(seeds)])
        pq = p * (1.0 - p)
        var = pq / shots
        mu4 = pq * (1.0 + 3.0 * (shots - 2) * pq) / shots ** 3
        assert np.all(np.abs(freq.mean(axis=0) - p) <= 5.0 * np.sqrt(var / seeds))
        var_se = np.sqrt((mu4 - var ** 2 * (seeds - 3) / (seeds - 1)) / seeds)
        assert np.all(np.abs(freq.var(axis=0, ddof=1) - var) <= 5.0 * var_se)

    def test_identical_rows_draw_independently(self):
        # Two copies of one state in a batch: over 500 seeds the correlation
        # of their errors is within 5 standard errors (1/sqrt(seeds)) of 0.
        seeds = 500
        psi = np.tile(np.sqrt([0.3, 0.2, 0.4, 0.1]).astype(np.complex128), (2, 1))
        freq = np.array([vqc._readout(psi, 2, ShotConfig(50, seed=s), np.empty(psi.shape))
                         for s in range(seeds)])
        errors = freq[:, :, 0] - 0.5
        corr = np.corrcoef(errors[:, 0], errors[:, 1])[0, 1]
        assert abs(corr) <= 5.0 / math.sqrt(seeds)

    def test_exact_training_matches_reference(self):
        # Exact training takes adjoint gradients; the reference takes
        # parameter-shift ones.
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, math.pi, (8, 4))
        labels = list(rng.integers(0, 2, 8))
        opt = OptimizerConfig(learning_rate=0.5, epochs=3, seed=1)
        for layers in (2, 3):
            model = train(xs, labels, ANGLE, layers, opt)
            theta, history = ref.vqc_train(xs, labels, ANGLE, layers, opt)
            assert np.max(np.abs(model.theta - theta)) <= TOL
            assert np.max(np.abs(np.array(model.loss_history) - history)) <= TOL

    def test_exact_epoch_ry_count_is_linear_in_layers(self, monkeypatch):
        # The adjoint runs L n RYs forward and 2 (L - 1) n backward, where
        # parameter shift would run O(L^2 n); one epoch adds the final
        # loss's L n. The angle map folds into weight layer 0, whose n RYs
        # become one product state, so it runs n fewer per pass. The
        # feature map's gates run in qsim, uncounted.
        calls = []
        real = vqc._apply_op
        monkeypatch.setattr(vqc, "_apply_op", lambda psi, n, kind, *rest: (
            calls.append(kind), real(psi, n, kind, *rest)))
        rng = np.random.default_rng(2)
        n = 3
        xs = rng.uniform(0.0, math.pi, (5, n))
        labels = list(rng.integers(0, 2, 5))
        for fm in MAPS:
            folded = fm.variant == "angle"
            for layers in range(1, 5):
                model = VqcModel(fm, rng.uniform(-1.0, 1.0, (layers, n)), (0, 1))
                calls.clear()
                adjoint_gradient(model, xs, labels)
                assert calls == ["RY"] * (3 * layers - (3 if folded else 2)) * n
                calls.clear()
                train(xs, labels, fm, layers, OptimizerConfig(epochs=1))
                assert calls == ["RY"] * (4 * layers - (4 if folded else 2)) * n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_ring_permutation_equals_gate_by_gate_ring(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        ring = [op for op in qsim.weight_layer(np.zeros(n), n).ops if op.kind == "CNOT"]
        want = qsim._apply_ops(psi.copy(), n, ring)
        perm, image = vqc._ring_permutation(n)
        assert np.array_equal(psi[perm], want)
        assert np.array_equal(image[perm], np.arange(2 ** n))
        # Cached per width and shared by every batch, so read-only.
        assert vqc._ring_permutation(n)[0] is perm
        assert not perm.flags.writeable and not image.flags.writeable

    def test_feature_map_simulated_once_per_train_call(self, monkeypatch):
        # The angle map is folded into weight layer 0 and never simulated.
        calls = []
        real = vqc.feature_map_states
        monkeypatch.setattr(vqc, "feature_map_states",
                            lambda kind, x: calls.append(len(x)) or real(kind, x))
        xs, labels = separable_fixture()
        for fm in MAPS:
            for method in ("parameter_shift", "spsa"):
                calls.clear()
                train(xs, labels, fm, 2, OptimizerConfig(epochs=3, method=method))
                assert calls == ([] if fm.variant == "angle" else [len(xs)])

    def test_feature_dimension_checked(self):
        for fm in MAPS:
            model = VqcModel(fm, np.zeros((1, 2)), ("a", "b"))
            with pytest.raises(ValueError, match="expected 2 features"):
                forward_many(model, np.zeros((3, 3)))
            with pytest.raises(ValueError, match="expected 2 features"):
                parameter_shift_gradient(model, np.zeros((1, 3)), ["a"])
            with pytest.raises(ValueError, match="expected 2 features"):
                adjoint_gradient(model, np.zeros((1, 3)), ["a"])

    # Angles outside [0, pi], negative and above 2 pi included, as scaling
    # intervals are user settings.
    @pytest.mark.parametrize("one_row", [True, False])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_folded_first_block_matches_feature_map_then_weight_layer(self, layers, one_row):
        rng = np.random.default_rng(10 * layers + one_row)
        fm = FeatureMapKind("angle", layers)
        rows = 1 if one_row else 7
        for n in range(1, 10):
            xs = rng.uniform(-8.0, 8.0, (rows, n))
            xs[0, 0] = -2.5
            xs[-1, -1] = 2.0 * math.pi + 0.7
            theta0 = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
            model = VqcModel(fm, theta0[None, :], (0, 1))
            want = qsim.feature_map_states(fm, xs)
            vqc._ry_block(want, theta0, np.empty_like(want))
            # The folded block is real: it runs in float64 buffers.
            got = np.empty(want.shape)
            vqc._first_block(vqc._encode(model, xs), True, theta0, got, np.empty(want.shape))
            assert np.max(np.abs(got - want)) <= TOL

    def test_workspace_dtype_follows_the_encoded_rows(self):
        # The angle map's states are real (a product state, RYs and a ring
        # permutation), so its batches run in float64 buffers.
        xs, labels = np.full((3, 2), 0.4), ["a", "b", "a"]
        for fm in MAPS:
            batch = vqc._Batch.of(VqcModel(fm, np.zeros((2, 2)), ("a", "b")), xs, labels)
            want = np.float64 if fm.variant == "angle" else np.complex128
            assert [w.dtype for w in batch.ws] == [want] * 3 + [np.float64]


def statevector_path(model: VqcModel, xs, labels):
    """Class scores, loss and adjoint gradient of ``model`` on the
    statevector path, which every model but an exact one-layer angle model
    takes: the same batch with its parity patterns taken away."""
    batch = dataclasses.replace(vqc._Batch.of(model, xs, labels), parity=None)
    psi, _ = vqc._run_circuit(batch.encoded, batch.folded, model.theta, batch.perm,
                              *batch.ws[:2])
    scores = vqc._readout(psi, batch.n_classes, EXACT, batch.ws[3])
    return (scores, *vqc._adjoint(batch, model.theta))


class TestParityForm:
    """An exact one-layer angle model scores parity patterns, not states."""

    def test_path_follows_layers_map_and_shots(self):
        theta = np.zeros((1, 3))
        assert not vqc.simulates_states(VqcModel(FeatureMapKind("angle", 2), theta, (0, 1)))
        assert vqc.simulates_states(VqcModel(ANGLE, theta, (0, 1)), ShotConfig(10, seed=1))
        assert vqc.simulates_states(VqcModel(ANGLE, np.zeros((2, 3)), (0, 1)))
        for fm in MAPS[1:]:
            assert vqc.simulates_states(VqcModel(fm, theta, (0, 1)))

    def test_groups_of_nine_qubits_and_six_classes(self):
        # Readout value b (3 bits, qubit 0 the highest) flips by 3 for qubit
        # 0, by 7 for qubit 1, by 5 for qubit 2 and by 4 for qubits 3..8:
        # four groups, in column order 3, 4, 5, 7.
        patterns = vqc._parity_patterns(9, 6)
        assert patterns.slots.T.tolist() == [[0, 9, 9, 9, 9, 9], [3, 4, 5, 6, 7, 8],
                                             [2, 9, 9, 9, 9, 9], [1, 9, 9, 9, 9, 9]]
        # Pattern s (group 0 its highest bit) reads the XOR of its odd
        # groups' columns 3, 4, 5 and 7.
        values = [0, 7, 5, 2, 4, 3, 1, 6, 3, 4, 6, 1, 7, 0, 2, 5]
        assert patterns.on_pattern.argmax(axis=1).tolist() == [v % 6 for v in values]
        assert np.all(patterns.on_pattern.sum(axis=1) == 1)

    @pytest.mark.parametrize("n_classes", [2, 6, 9])
    @pytest.mark.parametrize("n", [13, 15])
    def test_wide_models_match_the_statevector_path(self, n, n_classes):
        rng = np.random.default_rng(10 * n + n_classes)
        model, xs, class_idx = random_case(rng, n, 1, n_classes, ANGLE, 6)
        labels = list(class_idx)
        scores, value, grad = statevector_path(model, xs, labels)
        assert np.max(np.abs(forward_many(model, xs) - scores)) <= TOL
        assert abs(loss(model, xs, labels) - value) <= TOL
        assert grad_gap_ok(adjoint_gradient(model, xs, labels), grad)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exact_edges_and_unlikely_classes(self, n):
        # Features exactly at 0 and pi, weights 2e-4 to 1e-3 off 0 or pi, and
        # half the rows labelled with their least likely class of a score
        # above 1e-11, which lies below 1e-6 (one qubit flipped) and above
        # the loss floor. The gradient is checked against the statevector
        # adjoint: the shift rule subtracts two scores near 1/2, which here
        # misses a long-double brute force by up to 1.3e-12 relative, while
        # both adjoint paths stay within 1e-15 of it.
        rng = np.random.default_rng(n)
        n_classes = min(2 + n % 4, 2 ** n)
        theta = (rng.integers(0, 2, (1, n)) * math.pi
                 + rng.choice((-1.0, 1.0), (1, n)) * rng.uniform(2e-4, 1e-3, (1, n)))
        model = VqcModel(ANGLE, theta, tuple(range(n_classes)))
        xs = rng.integers(0, 2, (8, n)) * math.pi
        want = ref.vqc_class_probs(ANGLE, theta, xs, n_classes, EXACT)
        unlikely = np.where(want > 1e-11, want, np.inf).argmin(axis=1)
        class_idx = np.where(np.arange(8) % 2, unlikely, want.argmax(axis=1))
        p_true = want[np.arange(8), class_idx]
        assert np.min(p_true) < 1e-6 and np.min(p_true) > vqc._P_FLOOR
        labels = list(class_idx)
        args = (ANGLE, theta, xs, class_idx, n_classes, EXACT)
        assert np.max(np.abs(forward_many(model, xs) - want)) <= TOL
        assert abs(loss(model, xs, labels) - ref.vqc_loss(*args)) <= TOL
        scores, value, grad = statevector_path(model, xs, labels)
        assert abs(loss(model, xs, labels) - value) <= TOL
        assert grad_gap_ok(adjoint_gradient(model, xs, labels), grad)

    def test_training_holds_no_state_batch(self):
        # 15 qubits and 16 rows: one (rows, 2**15) float buffer is 4 MiB,
        # and the statevector path would hold four.
        rng = np.random.default_rng(4)
        rows, n = 16, 15
        xs = rng.uniform(0.0, math.pi, (rows, n))
        labels = list(rng.integers(0, 6, rows))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model = train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=2))
            predict_many(model, xs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < rows * 2 ** n * 8


class TestSampleWeight:
    """A row of weight c is c equal rows with its label."""

    @staticmethod
    def weighted_and_repeated(fm, layers: int):
        """A model, a weighted batch (xs, labels, counts) of 8 rows on the
        vqc_train benchmark's 9 qubits, and the batch with each row repeated
        ``count`` times."""
        rng = np.random.default_rng(10 * layers + MAPS.index(fm))
        model, xs, labels = random_case(rng, 9, layers, 3, fm, 8)
        counts = rng.integers(1, 5, 8)
        return model, (xs, labels, counts), (np.repeat(xs, counts, axis=0),
                                             np.repeat(labels, counts))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("fm", MAPS, ids=lambda k: f"{k.variant}{k.layers}")
    def test_weights_equal_repeated_rows(self, fm, layers):
        model, (xs, labels, counts), (rep_xs, rep_labels) = self.weighted_and_repeated(fm, layers)
        assert abs(loss(model, xs, labels, sample_weight=counts)
                   - loss(model, rep_xs, rep_labels)) <= 1e-12
        for gradient in (adjoint_gradient, parameter_shift_gradient):
            got = gradient(model, xs, labels, sample_weight=counts)
            assert np.max(np.abs(got - gradient(model, rep_xs, rep_labels))) <= 1e-12

    @pytest.mark.parametrize("method", ["parameter_shift", "spsa"])
    def test_weighted_training_equals_repeated_rows(self, method):
        fm = FeatureMapKind("zz", 2)
        model, (xs, labels, counts), (rep_xs, rep_labels) = self.weighted_and_repeated(fm, 2)
        opt = OptimizerConfig(epochs=3, method=method, seed=7)
        weighted = train(xs, labels, fm, 2, opt, sample_weight=counts)
        repeated = train(rep_xs, rep_labels, fm, 2, opt)
        assert np.max(np.abs(np.subtract(weighted.loss_history, repeated.loss_history))) <= 1e-12
        assert np.max(np.abs(weighted.theta - repeated.theta)) <= 1e-12

    @pytest.mark.parametrize("weights,message", [
        ([1.0, 2.0], "one sample weight per label"),
        ([1.0, math.nan, 1.0], "sample weights must be finite"),
        ([1.0, 0.0, 1.0], "sample weights must be > 0"),
        ([1.0, -2.0, 1.0], "sample weights must be > 0"),
    ], ids=["length", "nan", "zero", "negative"])
    def test_rejected_as_svm_rejects_them(self, weights, message):
        xs, labels = np.full((3, 2), 0.3), ["a", "b", "a"]
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b"))
        for fn in (loss, parameter_shift_gradient, adjoint_gradient):
            with pytest.raises(ValueError, match=message):
                fn(model, xs, labels, sample_weight=weights)
        with pytest.raises(ValueError, match=message):
            train(xs, labels, ANGLE, 1, OptimizerConfig(epochs=1), sample_weight=weights)


class TestEdgeBatches:
    # One model per feature map: the angle map reads its rows as angles, not
    # through feature_map_states, and must check them all the same; the
    # one-layer angle model scores parity patterns.
    MODELS = tuple(VqcModel(fm, np.full((2, 3), 0.3), ("a", "b", "c")) for fm in MAPS) + (
        VqcModel(ANGLE, np.full((1, 3), 0.3), ("a", "b", "c")),)

    def test_zero_rows(self):
        empty = np.zeros((0, 3))
        for model in self.MODELS:
            assert forward_many(model, empty).shape == (0, 3)
            assert forward_many(model, empty, ShotConfig(20, seed=1)).shape == (0, 3)
            assert predict_many(model, empty) == []
            with pytest.raises(ValueError, match="empty batch"):
                loss(model, empty, [])
            with pytest.raises(ValueError, match="empty batch"):
                parameter_shift_gradient(model, empty, [])
            with pytest.raises(ValueError, match="empty batch"):
                adjoint_gradient(model, empty, [])

    def test_non_finite_features_raise(self):
        bad = [[math.nan, 0.0, 0.0]]
        for model in self.MODELS:
            with pytest.raises(ValueError, match="not finite"):
                parameter_shift_gradient(model, bad, ["a"])
            with pytest.raises(ValueError, match="not finite"):
                adjoint_gradient(model, bad, ["a"])
            with pytest.raises(ValueError, match="not finite"):
                forward_many(model, [[0.0, math.inf, 0.0]])
            with pytest.raises(ValueError, match="not finite"):
                train([[0.0, 0.0, -math.inf], [0.1, 0.2, 0.3]], ["a", "b"],
                      model.feature_map, 1, OptimizerConfig(epochs=1))


class TestPredictMany:
    def test_equals_per_row_predict(self):
        rng = np.random.default_rng(8)
        model = VqcModel(FeatureMapKind("zz"), rng.uniform(-1, 1, (2, 3)), ("a", "b", "c"))
        xs = rng.uniform(0.0, math.pi, (12, 3))
        assert predict_many(model, xs) == [predict_many(model, [x])[0] for x in xs]
        # In shot mode the rows of one batch draw one after another from the
        # seed's stream, so only the first row's draw matches a batch of one.
        shots = ShotConfig(30, seed=5)
        scores = forward_many(model, xs, shots)
        assert predict_many(model, xs, shots) == [model.classes[i] for i in scores.argmax(axis=1)]
        assert predict_many(model, xs[:1], shots) == [model.classes[scores[0].argmax()]]

    def test_tie_goes_to_smaller_class(self, monkeypatch):
        model = VqcModel(ANGLE, np.zeros((1, 2)), ("a", "b", "c"))
        monkeypatch.setattr(vqc, "forward_many",
                            lambda m, xs, shots=EXACT: np.array([[0.2, 0.4, 0.4]] * len(xs)))
        assert vqc.predict_many(model, np.zeros((2, 2))) == ["b", "b"]


def _vqc_cases():
    """Case name -> (feature map, layers, xs, labels, opt, shots) for the VQC
    digest."""
    cases = {}
    for fm in (FeatureMapKind("angle"), FeatureMapKind("zz", 2), FeatureMapKind("angle_zz")):
        for n, n_classes in ((3, 2), (4, 3), (5, 5)):
            rng = np.random.default_rng(10 * n + n_classes)
            xs = rng.uniform(0.0, math.pi, (8, n))
            labels = [int(c) for c in rng.permutation(np.arange(8) % n_classes)]
            for layers in (1, 3):
                for method in ("parameter_shift", "spsa"):
                    opt = OptimizerConfig(learning_rate=0.3, epochs=4, method=method, seed=n)
                    for shots in (EXACT, ShotConfig(40, 9)):
                        mode = "exact" if shots.exact else "shots"
                        name = f"{fm.variant}x{fm.layers}/n={n},C={n_classes}/L={layers}/{method}/{mode}"
                        cases[name] = (fm, layers, xs, labels, opt, shots)
    return cases


def _vqc_digest(fm, layers, xs, labels, opt, shots) -> str:
    """sha256 prefix of the trained model and of every loss, score and
    gradient function at its theta."""
    model = train(xs, labels, fm, layers, opt, shots)
    blob = b"".join([
        model.theta.tobytes(),
        np.array(model.loss_history).tobytes(),
        forward_many(model, xs, shots).tobytes(),
        np.float64(loss(model, xs, labels, shots)).tobytes(),
        parameter_shift_gradient(model, xs, labels, shots).tobytes(),
        adjoint_gradient(model, xs, labels).tobytes(),
    ])
    return hashlib.sha256(blob).hexdigest()[:16]


# Taken before the VQC helpers took one labelled batch in place of the
# states, class indices, class count, ring permutation and workspace; any
# change to the weight layers, the readout, the losses or a gradient shows.
# The anglex1 entries were re-pinned when the angle map was folded into
# weight layer 0 as one product state, which moves its amplitudes in the
# last bits; every zzx2 and angle_zzx1 entry held. They were re-pinned again
# when the angle map's states moved to float64 buffers: scores, losses and
# parameter-shift gradients at a given theta kept their bits, but the
# adjoint's gradient sums no longer run over interleaved zero imaginary
# parts, so numpy's einsum adds the same products in another order (1e-16
# apart); every zzx2 and angle_zzx1 entry held. All 72 entries were
# re-pinned when the adjoint read its last qubits, whose half-runs are
# shorter than 16 floats, from one 16 x 16 product per layer instead of
# per-qubit einsums: that adds the same products in another order. In the
# shot-mode and SPSA cases theta, the loss history, the scores, the loss and
# the parameter-shift gradient kept their bytes; in the exact cases, which
# train by the adjoint, they moved by at most 3.1e-15 relative. The 12
# anglex1 L=1 entries were re-pinned when the exact one-layer angle model
# moved from simulated states to parity patterns: in the shot cases only
# the adjoint gradient moved, by at most 1.7e-16; in the exact cases theta,
# the loss history, the scores, the loss and both gradients moved by at
# most 1.7e-15 (absolute, over max(1, largest entry)). Every other entry
# held.
VQC_DIGESTS = {
    'anglex1/n=3,C=2/L=1/parameter_shift/exact': '9a91d52734c58722',
    'anglex1/n=3,C=2/L=1/parameter_shift/shots': 'e25d5dc017ef9730',
    'anglex1/n=3,C=2/L=1/spsa/exact': '820040ae00741f85',
    'anglex1/n=3,C=2/L=1/spsa/shots': '97600c8cbf6afb4b',
    'anglex1/n=3,C=2/L=3/parameter_shift/exact': '485887bd4b87978d',
    'anglex1/n=3,C=2/L=3/parameter_shift/shots': '141dc3d916ff7e2d',
    'anglex1/n=3,C=2/L=3/spsa/exact': '006ab323c5b77507',
    'anglex1/n=3,C=2/L=3/spsa/shots': 'de8b19e43e069892',
    'anglex1/n=4,C=3/L=1/parameter_shift/exact': '7f18fde9a0ff2941',
    'anglex1/n=4,C=3/L=1/parameter_shift/shots': '6c781f870bee870b',
    'anglex1/n=4,C=3/L=1/spsa/exact': 'b9b03ba29422ca8c',
    'anglex1/n=4,C=3/L=1/spsa/shots': 'fedea376715ebb9f',
    'anglex1/n=4,C=3/L=3/parameter_shift/exact': 'c83a4746cb52cfaa',
    'anglex1/n=4,C=3/L=3/parameter_shift/shots': 'a30194f4d24089da',
    'anglex1/n=4,C=3/L=3/spsa/exact': 'a0b4c60d0dde89b6',
    'anglex1/n=4,C=3/L=3/spsa/shots': '5cddcbe4683fecd6',
    'anglex1/n=5,C=5/L=1/parameter_shift/exact': 'b9fe2a74f5481c03',
    'anglex1/n=5,C=5/L=1/parameter_shift/shots': 'ace71347c677316a',
    'anglex1/n=5,C=5/L=1/spsa/exact': '111bb7509da2f227',
    'anglex1/n=5,C=5/L=1/spsa/shots': 'bed0f35c0e1394e0',
    'anglex1/n=5,C=5/L=3/parameter_shift/exact': '896ac3997469c53e',
    'anglex1/n=5,C=5/L=3/parameter_shift/shots': '42077ff0919b2d70',
    'anglex1/n=5,C=5/L=3/spsa/exact': 'ea5e57e4135c3974',
    'anglex1/n=5,C=5/L=3/spsa/shots': '550a80c068493ba0',
    'zzx2/n=3,C=2/L=1/parameter_shift/exact': '51a33ee6a2e4206e',
    'zzx2/n=3,C=2/L=1/parameter_shift/shots': '4cb783f1dfaa039a',
    'zzx2/n=3,C=2/L=1/spsa/exact': '0ffb86f0621eec41',
    'zzx2/n=3,C=2/L=1/spsa/shots': '67f1958798215506',
    'zzx2/n=3,C=2/L=3/parameter_shift/exact': 'f463bec7bcc46631',
    'zzx2/n=3,C=2/L=3/parameter_shift/shots': 'f8e125ff0598253f',
    'zzx2/n=3,C=2/L=3/spsa/exact': '9e627e99cf996610',
    'zzx2/n=3,C=2/L=3/spsa/shots': '5d8e68384b0489ba',
    'zzx2/n=4,C=3/L=1/parameter_shift/exact': '89b0099450023a28',
    'zzx2/n=4,C=3/L=1/parameter_shift/shots': 'b9a9660b02518e2f',
    'zzx2/n=4,C=3/L=1/spsa/exact': 'e399ac2afb29f47f',
    'zzx2/n=4,C=3/L=1/spsa/shots': '43e944f9027cbdeb',
    'zzx2/n=4,C=3/L=3/parameter_shift/exact': '880778048235760c',
    'zzx2/n=4,C=3/L=3/parameter_shift/shots': 'c9571cd67d204849',
    'zzx2/n=4,C=3/L=3/spsa/exact': '4412b8a0f3798dcb',
    'zzx2/n=4,C=3/L=3/spsa/shots': 'effafd01ecaedc2c',
    'zzx2/n=5,C=5/L=1/parameter_shift/exact': '5df05cbaa9170425',
    'zzx2/n=5,C=5/L=1/parameter_shift/shots': '71d7f918a75b33df',
    'zzx2/n=5,C=5/L=1/spsa/exact': '2425de20c94ea548',
    'zzx2/n=5,C=5/L=1/spsa/shots': 'c7293ef52d57f1d4',
    'zzx2/n=5,C=5/L=3/parameter_shift/exact': 'aa3551b75eb3bf26',
    'zzx2/n=5,C=5/L=3/parameter_shift/shots': '2a9d48f06eaeed63',
    'zzx2/n=5,C=5/L=3/spsa/exact': 'f75bfa1c237d91d2',
    'zzx2/n=5,C=5/L=3/spsa/shots': '1a9ef09d1eaebeea',
    'angle_zzx1/n=3,C=2/L=1/parameter_shift/exact': '4b72c4c6411d06ed',
    'angle_zzx1/n=3,C=2/L=1/parameter_shift/shots': '88d083c056453865',
    'angle_zzx1/n=3,C=2/L=1/spsa/exact': '9e59e630bdd22b78',
    'angle_zzx1/n=3,C=2/L=1/spsa/shots': 'd58256ac692c10ca',
    'angle_zzx1/n=3,C=2/L=3/parameter_shift/exact': '0bcbd77b8aef4e94',
    'angle_zzx1/n=3,C=2/L=3/parameter_shift/shots': '4475ee6b55d61037',
    'angle_zzx1/n=3,C=2/L=3/spsa/exact': '360b7493fce18940',
    'angle_zzx1/n=3,C=2/L=3/spsa/shots': '73f6292128c6fd86',
    'angle_zzx1/n=4,C=3/L=1/parameter_shift/exact': 'a4a61c5cc22c746c',
    'angle_zzx1/n=4,C=3/L=1/parameter_shift/shots': '643e4d9d46a28c52',
    'angle_zzx1/n=4,C=3/L=1/spsa/exact': '441e622cc4bd36c7',
    'angle_zzx1/n=4,C=3/L=1/spsa/shots': 'b4d9e01ba40bbdf3',
    'angle_zzx1/n=4,C=3/L=3/parameter_shift/exact': '9053de10718731c2',
    'angle_zzx1/n=4,C=3/L=3/parameter_shift/shots': '9aba7c2acebe17b0',
    'angle_zzx1/n=4,C=3/L=3/spsa/exact': '4299ca91521b0fcd',
    'angle_zzx1/n=4,C=3/L=3/spsa/shots': 'ed41ad235da7fdad',
    'angle_zzx1/n=5,C=5/L=1/parameter_shift/exact': '0d609d570dd34c8b',
    'angle_zzx1/n=5,C=5/L=1/parameter_shift/shots': '6e5907319aa8c2b5',
    'angle_zzx1/n=5,C=5/L=1/spsa/exact': 'ab039f41ed9a396d',
    'angle_zzx1/n=5,C=5/L=1/spsa/shots': '9fbb1173da697c74',
    'angle_zzx1/n=5,C=5/L=3/parameter_shift/exact': '8af6aaa42135527a',
    'angle_zzx1/n=5,C=5/L=3/parameter_shift/shots': 'd5bed72b283f6029',
    'angle_zzx1/n=5,C=5/L=3/spsa/exact': 'f411b9d6b4f33f6f',
    'angle_zzx1/n=5,C=5/L=3/spsa/shots': 'c55235ebd5acd7a0',
}


def test_vqc_models_byte_identical():
    got = {name: _vqc_digest(*case) for name, case in _vqc_cases().items()}
    assert got == VQC_DIGESTS


if __name__ == "__main__":
    for name, case in _vqc_cases().items():
        print(f"    {name!r}: {_vqc_digest(*case)!r},")
