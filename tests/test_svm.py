from __future__ import annotations

import hashlib
import json
import logging
import tracemalloc

import numpy as np
import pytest

import icppm.svm as svm
import oracles
from conftest import random_log
from icppm.bench import ExperimentConfig, emit_results, run_experiment
from icppm.errors import ConvergenceError, DegenerateModelError
from icppm.eventlog import write_csv
from icppm.qkernel import KernelKind, cross, gram
from icppm.qsim import FeatureMapKind, ShotConfig
from icppm.svm import (
    MulticlassModel,
    SvmModel,
    alphas_from_model,
    decision,
    dual_objective,
    fit,
    fit_multiclass,
    predict,
)

LINEAR = KernelKind.linear()
RBF = KernelKind.rbf(gamma=1.0)


def separable_fixture():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    return x, y


def random_problem(seed: int, m: int = 6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 2))
    y = np.ones(m)
    y[rng.permutation(m)[: m // 2]] = -1.0
    k = gram(x, RBF).values
    return k, y


def decisions(model: SvmModel, k: np.ndarray) -> np.ndarray:
    return np.array([decision(model, row) for row in k])


class TestBinaryFit:
    def test_separable_points_classified_perfectly(self):
        x, y = separable_fixture()
        k = gram(x, LINEAR).values
        model = fit(k, y, C=10.0)
        assert np.all(np.sign(decisions(model, k)) == y)

    def test_margin_on_support_vectors(self):
        x, y = separable_fixture()
        k = gram(x, LINEAR).values
        model = fit(k, y, C=10.0, tol=1e-6)
        d = decisions(model, k)
        for idx in model.support_indices:
            assert abs(y[idx] * d[idx] - 1.0) < 1e-4 or y[idx] * d[idx] > 1.0

    def test_equality_constraint_held(self):
        for seed in range(5):
            k, y = random_problem(seed)
            model = fit(k, y)
            assert abs(float(np.sum(model.dual_coefs))) < 1e-6

    def test_box_constraint_held(self):
        for seed in range(5):
            C = 0.37
            k, y = random_problem(seed)
            model = fit(k, y, C=C)
            alpha = alphas_from_model(model, len(y))
            assert np.all(alpha >= 0.0)
            assert np.all(alpha <= C + 1e-9)

    def test_deterministic(self):
        k, y = random_problem(3)
        a = fit(k, y)
        b = fit(k, y)
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert np.array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        k = np.eye(3)
        with pytest.raises(DegenerateModelError):
            fit(k, np.ones(3))

    def test_bad_labels_rejected(self):
        k = np.eye(2)
        with pytest.raises(ValueError):
            fit(k, np.array([0.0, 1.0]))

    def test_bad_c_rejected(self):
        k = np.eye(2)
        with pytest.raises(ValueError):
            fit(k, np.array([-1.0, 1.0]), C=0.0)

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    def test_nan_c_rejected_before_any_work(self, train):
        # A mis-shaped kernel shows that the arguments are checked first.
        with pytest.raises(ValueError, match="got C=nan"):
            train(np.eye(3), [-1.0, 1.0], C=float("nan"))

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_non_positive_tol_rejected_before_any_work(self, train, tol):
        with pytest.raises(ValueError, match=f"tol={tol}"):
            train(np.eye(3), [-1.0, 1.0], tol=tol)

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    def test_nan_tol_rejected_before_any_work(self, train):
        with pytest.raises(ValueError, match="tol=nan"):
            train(np.eye(3), [-1.0, 1.0], tol=float("nan"))

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    @pytest.mark.parametrize("max_passes", [-1, 2.5])
    def test_negative_or_fractional_max_passes_rejected_before_any_work(self, train,
                                                                        max_passes):
        with pytest.raises(ValueError, match=f"max_passes={max_passes}"):
            train(np.eye(3), [-1.0, 1.0], max_passes=max_passes)

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    def test_weight_count_rejected_before_any_work(self, train):
        with pytest.raises(ValueError, match="one sample weight per label"):
            train(np.eye(3), [-1.0, 1.0], sample_weight=[1.0, 1.0, 1.0])

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected_before_any_work(self, train, bad):
        with pytest.raises(ValueError, match="sample weights must be finite"):
            train(np.eye(3), [-1.0, 1.0], sample_weight=[1.0, bad])

    @pytest.mark.parametrize("train", [fit, fit_multiclass])
    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_non_positive_weight_rejected_before_any_work(self, train, bad):
        with pytest.raises(ValueError, match="sample weights must be > 0"):
            train(np.eye(3), [-1.0, 1.0], sample_weight=[1.0, bad])

    def test_kernel_label_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit(np.eye(3), np.array([-1.0, 1.0]))


class TestDualOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_smo_reaches_enumerated_optimum(self, seed):
        k, y = random_problem(seed, m=6)
        C = 1.0
        model = fit(k, y, C=C, tol=1e-8)
        got = dual_objective(k, y, alphas_from_model(model, len(y)))
        want, _ = oracles.qp_dual_optimum(k, y, C)
        assert got == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_conditions_within_tolerance(self, seed):
        tol = 1e-3
        C = 1.0
        k, y = random_problem(seed, m=8)
        model = fit(k, y, C=C, tol=tol)
        alpha = alphas_from_model(model, len(y))
        margins = y * decisions(model, k)
        for i in range(len(y)):
            if alpha[i] < 1e-9:
                assert margins[i] >= 1.0 - tol - 1e-9
            elif alpha[i] > C - 1e-9:
                assert margins[i] <= 1.0 + tol + 1e-9
            else:
                assert abs(margins[i] - 1.0) <= tol + 1e-9

    def test_tight_c_caps_all_coefficients(self):
        k, y = random_problem(11)
        model = fit(k, y, C=1e-3)
        assert np.all(np.abs(model.dual_coefs) <= 1e-3 + 1e-12)


class TestDecision:
    def test_zero_row_returns_bias(self):
        x, y = separable_fixture()
        model = fit(gram(x, LINEAR).values, y)
        assert decision(model, np.zeros(len(y))) == model.bias

    def test_duplicate_test_points_identical(self):
        x, y = separable_fixture()
        k = gram(x, LINEAR).values
        model = fit(k, y)
        row = cross(np.array([[1.0, 0.5]]), x, LINEAR).values[0]
        assert decision(model, row) == decision(model, row.copy())

    def test_linear_primal_agreement(self):
        x, y = separable_fixture()
        k = gram(x, LINEAR).values
        model = fit(k, y, C=10.0)
        w = np.sum(model.dual_coefs[:, None] * x[model.support_indices], axis=0)
        for xi, yi in zip(x, y):
            primal = float(w @ xi + model.bias)
            via_kernel = decision(model, x @ xi)
            assert primal == pytest.approx(via_kernel, abs=1e-9)
            assert np.sign(primal) == yi


class TestMulticlass:
    def _three_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        x = np.vstack([c + 0.2 * rng.normal(size=(6, 2)) for c in centers])
        labels = ["a"] * 6 + ["b"] * 6 + ["c"] * 6
        return x, labels

    def test_perfect_recovery_on_separated_clusters(self):
        x, labels = self._three_clusters()
        k = gram(x, RBF).values
        model = fit_multiclass(k, labels, C=10.0)
        assert predict(model, cross(x, x, RBF).values) == labels

    def test_classes_sorted(self):
        x, labels = self._three_clusters()
        model = fit_multiclass(gram(x, RBF).values, list(reversed(labels)))
        assert model.classes == ("a", "b", "c")

    def test_two_class_matches_binary_signs(self):
        x, y = separable_fixture()
        labels = ["neg" if v < 0 else "pos" for v in y]
        k = gram(x, LINEAR).values
        ovr = fit_multiclass(k, labels, C=10.0)
        binary = fit(k, y, C=10.0)
        want = ["pos" if d > 0 else "neg" for d in decisions(binary, k)]
        assert predict(ovr, k) == want

    def test_each_model_is_the_binary_fit_of_its_class(self):
        x, labels = self._three_clusters()
        k = gram(x, RBF).values
        ovr = fit_multiclass(k, labels, C=2.0)
        for cls_label, model in zip(ovr.classes, ovr.models):
            y = np.array([1.0 if lab == cls_label else -1.0 for lab in labels])
            want = fit(k, y, C=2.0)
            assert np.array_equal(model.dual_coefs, want.dual_coefs)
            assert np.array_equal(model.support_indices, want.support_indices)
            assert (model.bias, model.iterations) == (want.bias, want.iterations)

    @staticmethod
    def _constant_model(biases, weights):
        """Scores equal to ``biases`` on every row: no support vectors."""
        empty = np.array([])
        return MulticlassModel(tuple("abc"[:len(biases)]),
                               tuple(SvmModel(empty, empty, bias=b, C=1.0) for b in biases),
                               np.array(weights, dtype=np.float64))

    def test_tie_goes_to_smaller_class(self):
        tied = self._constant_model([0.5, 0.5], [1.0, 1.0])
        assert predict(tied, np.zeros((3, 4))) == ["a", "a", "a"]

    def test_tie_goes_to_heavier_class_first(self):
        rows = np.zeros((2, 4))
        assert predict(self._constant_model([0.5, 0.5, 0.5], [2.0, 2.0, 1.0]), rows) == ["a", "a"]
        assert predict(self._constant_model([0.5, 0.5, 0.5], [1.0, 3.0, 3.0]), rows) == ["b", "b"]
        # Only the classes at the top score compete.
        assert predict(self._constant_model([0.5, 0.2, 0.5], [1.0, 9.0, 2.0]), rows) == ["c", "c"]
        assert predict(self._constant_model([0.1, 0.7, 0.5], [9.0, 1.0, 9.0]), rows) == ["b", "b"]

    def test_all_tied_scores_predict_the_majority_class(self):
        # One distinct row: every binary bias is -1, so every score ties, and
        # the heaviest class (13 + 4 for "c") wins.
        model = fit_multiclass(np.ones((4, 4)), ["a", "b", "c", "c"],
                               sample_weight=[13, 10, 13, 4])
        assert [m.bias for m in model.models] == [-1.0, -1.0, -1.0]
        assert model.class_weights.tolist() == [13.0, 10.0, 17.0]
        assert predict(model, np.ones((2, 4))) == ["c", "c"]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateModelError):
            fit_multiclass(np.eye(3), ["x", "x", "x"])

    def test_decision_matrix_shape(self):
        x, labels = self._three_clusters()
        model = fit_multiclass(gram(x, RBF).values, labels)
        scores = model.decision_matrix(cross(x[:4], x, RBF).values)
        assert scores.shape == (4, 3)


class TestSvmModel:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            SvmModel(np.array([1.0, 2.0]), np.array([0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            SvmModel(np.array([5.0]), np.array([0]), 0.0, 1.0)

    def test_each_coefficient_checked_against_its_own_cap(self):
        SvmModel(np.array([1.5, -0.5]), np.array([0, 3]), 0.0, 1.0, caps=[2.0, 1.0])
        with pytest.raises(ValueError, match="box constraint"):
            SvmModel(np.array([1.5, -1.5]), np.array([0, 3]), 0.0, 1.0, caps=[2.0, 1.0])
        with pytest.raises(ValueError, match="caps"):
            SvmModel(np.array([1.5]), np.array([0]), 0.0, 1.0, caps=[2.0, 1.0])


def duplicated_problem(seed: int):
    """Distinct rows with a label and a multiplicity each, and the same
    problem with every row repeated that many times."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 2))
    y = np.where(x[:, 0] + 0.7 * rng.normal(size=30) > 0, 1.0, -1.0)
    counts = rng.integers(1, 5, size=30)
    return x, y, counts, np.repeat(x, counts, axis=0), np.repeat(y, counts)


class TestSampleWeight:
    def test_unit_weights_are_byte_identical_to_none(self):
        k, y = _smo_cases()["rbf200@C=1"][:2]
        plain, weighted = fit(k, y), fit(k, y, sample_weight=np.ones(len(y)))
        assert plain.dual_coefs.tobytes() == weighted.dual_coefs.tobytes()
        assert np.array_equal(plain.support_indices, weighted.support_indices)
        assert (plain.bias, plain.iterations, plain.kkt_gap) == (
            weighted.bias, weighted.iterations, weighted.kkt_gap)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("C", [0.05, 1.0, 20.0])
    def test_merged_duplicates_reach_the_expanded_optimum(self, seed, C):
        x, y, counts, x_all, y_all = duplicated_problem(seed)
        tol = 1e-3
        k, k_all = gram(x, RBF).values, gram(x_all, RBF).values
        merged = fit(k, y, C=C, tol=tol, sample_weight=counts)
        expanded = fit(k_all, y_all, C=C, tol=tol)
        alpha = alphas_from_model(merged, len(y))
        alpha_all = alphas_from_model(expanded, len(y_all))
        caps = C * counts
        assert np.all(alpha <= caps)
        assert np.array_equal(merged.caps, caps[merged.support_indices])
        assert merged.kkt_gap == pytest.approx(exact_gap(k, y, alpha, caps), abs=1e-10)
        assert merged.kkt_gap <= tol
        # A feasible alpha with violating-pair gap g is within g * sum(caps) / 2
        # of the optimum, and both problems share the optimum and sum(caps).
        bound = tol * C * len(y_all) / 2 + 1e-9
        assert abs(dual_objective(k, y, alpha) - dual_objective(k_all, y_all, alpha_all)) <= bound

    def test_merged_duplicates_match_the_oracle_optimum(self):
        # The oracle enumerates 3^m active sets: 8 expanded rows.
        x = np.random.default_rng(7).normal(size=(4, 2))
        y, counts = np.array([1.0, -1.0, 1.0, -1.0]), np.array([1, 3, 2, 2])
        k = gram(x, RBF).values
        alpha = alphas_from_model(fit(k, y, C=0.5, tol=1e-9, sample_weight=counts), len(y))
        want, _ = oracles.qp_dual_optimum(gram(np.repeat(x, counts, axis=0), RBF).values,
                                          np.repeat(y, counts), 0.5)
        assert dual_objective(k, y, alpha) == pytest.approx(want, abs=1e-6)

    def test_multiclass_passes_weights_to_every_model(self):
        x, labels = TestMulticlass()._three_clusters()
        k = gram(x, RBF).values
        w = np.arange(1.0, len(labels) + 1)
        ovr = fit_multiclass(k, labels, C=0.1, sample_weight=w)
        for cls_label, model in zip(ovr.classes, ovr.models):
            y = np.array([1.0 if lab == cls_label else -1.0 for lab in labels])
            want = fit(k, y, C=0.1, sample_weight=w)
            assert np.array_equal(model.dual_coefs, want.dual_coefs)
            assert (model.bias, model.iterations) == (want.bias, want.iterations)


def exact_gap(k: np.ndarray, y: np.ndarray, alpha: np.ndarray, C) -> float:
    """max(0, max_up(v) - min_low(v)) with v = y - K(a*y) computed from
    scratch; C is one bound or one bound per variable."""
    v = y - k @ (alpha * y)
    below, above = alpha < C - 1e-12, alpha > 1e-12
    pos = y > 0
    up = (pos & below) | (~pos & above)
    low = (~pos & below) | (pos & above)
    # At C <= 2e-12 an index can sit in neither set, and a set can be empty.
    return max(0.0, float(v[up].max(initial=-np.inf) - v[low].min(initial=np.inf)))


def assert_solved(k: np.ndarray, y: np.ndarray, C: float, tol: float) -> SvmModel:
    """Fit, then check the oracle optimum and the exact KKT gap."""
    model = fit(k, y, C=C, tol=tol)
    alpha = alphas_from_model(model, len(y))
    want, _ = oracles.qp_dual_optimum(k, y, C)
    assert dual_objective(k, y, alpha) == pytest.approx(want, abs=1e-5)
    assert model.kkt_gap == pytest.approx(exact_gap(k, y, alpha, C), abs=1e-10)
    assert model.kkt_gap <= tol
    return model


class TestSolverEdgeCases:
    def test_duplicate_rows_same_label(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        x = np.vstack([x, x[:3]])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        assert_solved(gram(x, RBF).values, y, C=1.0, tol=1e-8)

    def test_identical_pair_with_opposite_labels(self):
        # eta = K_ii + K_jj - 2 K_ij is 0: the step is capped by the box.
        k = np.ones((2, 2))
        y = np.array([1.0, -1.0])
        model = assert_solved(k, y, C=0.5, tol=1e-8)
        assert np.array_equal(alphas_from_model(model, 2), [0.5, 0.5])
        assert model.iterations == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_rows_opposite_labels(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2))
        x = np.vstack([x, x[:2]])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        assert_solved(gram(x, RBF).values, y, C=1.0, tol=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_raw_indefinite_shot_gram_converges_or_raises(self, seed):
        # Shot Grams reach SMO as drawn: symmetric, but not PSD. With eta
        # floored at 1e-12 the solver either stops at an exact KKT gap
        # <= tol or runs out of its pair budget with the typed error.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, np.pi, size=(4, 3))
        x = np.vstack([x, x[:3]])
        kind = KernelKind.quantum(FeatureMapKind("zz", 2), ShotConfig(40, seed))
        k = gram(x, kind).values
        assert np.linalg.eigvalsh(k)[0] < 0.0
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        for max_passes in (100_000, 1):
            try:
                model = fit(k, y, C=1.0, tol=1e-8, max_passes=max_passes)
            except ConvergenceError:
                continue
            alpha = alphas_from_model(model, len(y))
            assert model.kkt_gap == pytest.approx(exact_gap(k, y, alpha, 1.0), abs=1e-10)
            assert model.kkt_gap <= 1e-8


    @pytest.mark.parametrize("C", [1e-13, 1e-12, 1.5e-12, 2e-12])
    @pytest.mark.parametrize("tol", [1e-3, 1e-14])
    def test_degenerate_box_converges_or_raises(self, C, tol):
        # At C <= 2 * 1e-12 an alpha can be neither below C - 1e-12 nor above
        # 1e-12, so its index leaves both the up and the low set.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=40) > 0, 1.0, -1.0)
        k = gram(x, RBF).values
        for max_passes in (100_000, 1):
            try:
                model = fit(k, y, C=C, tol=tol, max_passes=max_passes)
            except ConvergenceError:
                continue
            alpha = alphas_from_model(model, len(y))
            assert np.all(alpha <= C)
            assert model.kkt_gap == pytest.approx(exact_gap(k, y, alpha, C), abs=1e-10)
            assert model.kkt_gap <= tol


class TestExactGradientStop:
    @pytest.mark.parametrize("C", [0.05, 1.0, 100.0])
    def test_reported_gap_is_exact_and_within_tol(self, C):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(150, 3))
        y = np.where(x[:, 0] + 0.5 * rng.normal(size=150) > 0, 1.0, -1.0)
        k = gram(x, RBF).values
        tol = 1e-3
        model = fit(k, y, C=C, tol=tol)
        alpha = alphas_from_model(model, len(y))
        assert model.iterations > 0
        assert model.kkt_gap == pytest.approx(exact_gap(k, y, alpha, C), abs=1e-10)
        assert model.kkt_gap <= tol

    def test_multiclass_models_carry_counters(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 2))
        labels = [("a", "b", "c")[int(v) % 3] for v in 3 * (x[:, 0] + 2)]
        model = fit_multiclass(gram(x, RBF).values, labels, tol=1e-4)
        for m in model.models:
            assert m.iterations > 0
            assert 0.0 <= m.kkt_gap <= 1e-4

    def test_iteration_budget_exhausted_raises(self):
        k, y = random_problem(1, m=8)
        with pytest.raises(ConvergenceError):
            fit(k, y, tol=1e-12, max_passes=1)


class TestSymmetryGuard:
    def test_asymmetric_kernel_rejected(self):
        k, y = random_problem(0)
        k = k.copy()
        k[1, 4] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            fit(k, y)
        with pytest.raises(ValueError, match="not symmetric"):
            fit_multiclass(k, ["p" if v > 0 else "n" for v in y])

    def test_float_level_asymmetry_accepted(self):
        k, y = random_problem(0)
        noisy = k.copy()
        noisy[1, 4] += 1e-15
        noisy[5, 0] -= 1e-15
        model = fit(noisy, y, tol=1e-8)
        got = dual_objective(k, y, alphas_from_model(model, len(y)))
        assert got == pytest.approx(oracles.qp_dual_optimum(k, y, 1.0)[0], abs=1e-5)

    def test_asymmetry_in_last_row_block_found(self):
        x = np.random.default_rng(3).normal(size=(300, 2))
        k = gram(x, RBF).values
        k[299, 0] += 1e-6
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            fit(k, y)

    def test_non_finite_kernel_rejected(self):
        k, y = random_problem(0)
        k = k.copy()
        k[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit(k, y)

    def test_check_allocates_no_full_matrix(self):
        m = 1000
        k = gram(np.random.default_rng(4).normal(size=(m, 2)), RBF).values
        tracemalloc.start()
        try:
            svm._check_kernel(k, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k.nbytes / 8


class TestRunCounters:
    def test_smo_counters_in_results_json_only(self, tmp_path, caplog):
        log = random_log(2, n_cases=24)
        path = tmp_path / "log.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        cfg = ExperimentConfig(dataset=str(path), classifier="svc_rbf", k=2, folds=2)
        with caplog.at_level(logging.INFO, logger="icppm.bench"):
            result = run_experiment(cfg)
        fold_lines = [r.getMessage() for r in caplog.records if "accuracy" in r.getMessage()]
        assert len(fold_lines) == cfg.folds
        assert all("smo_iterations=" in line and "smo_kkt_gap=" in line for line in fold_lines)
        assert result.smo_iterations > 0
        assert 0.0 <= result.smo_kkt_gap <= cfg.tol
        csv_path, json_path = emit_results([result], tmp_path / "out")
        run = json.loads(json_path.read_text())["runs"][0]
        assert run["smo_iterations"] == result.smo_iterations
        assert run["smo_kkt_gap"] == result.smo_kkt_gap
        assert "smo" not in csv_path.read_text()

    def test_no_smo_counters_without_svm(self, tmp_path):
        log = random_log(2, n_cases=12)
        path = tmp_path / "log.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        result = run_experiment(ExperimentConfig(dataset=str(path), classifier="majority",
                                                 folds=2))
        assert result.smo_iterations == 0
        assert result.smo_kkt_gap is None


class TestDualObjective:
    def test_zero_alpha_gives_zero(self):
        k, y = random_problem(2)
        assert dual_objective(k, y, np.zeros(len(y))) == 0.0

    def test_matches_quadratic_form(self):
        k, y = random_problem(4)
        alpha = np.full(len(y), 0.25)
        coef = alpha * y
        want = alpha.sum() - 0.5 * coef @ k @ coef
        assert dual_objective(k, y, alpha) == pytest.approx(want)


def _smo_cases():
    """Case name -> (kernel, labels, C, tol, max_passes) for the SMO digest."""
    cases = {}
    for m in (20, 200, 600):
        rng = np.random.default_rng(m)
        x = rng.normal(size=(m, 3))
        y = np.where(x[:, 0] + 0.5 * rng.normal(size=m) > 0, 1.0, -1.0)
        k = gram(x, RBF).values
        for C in (1e-13, 0.3, 1.0, 100.0, np.inf):
            cases[f"rbf{m}@C={C:g}"] = (k, y, C, 1e-3, 20_000)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, np.pi, size=(4, 3))
    x = np.vstack([x, x[:3]])
    kind = KernelKind.quantum(FeatureMapKind("zz", 2), ShotConfig(40, 0))
    shot_y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    cases["shot7"] = (gram(x, kind).values, shot_y, 1.0, 1e-8, 100_000)
    k, y = cases["rbf20@C=1"][:2]
    for max_passes in (0, 1):
        cases[f"rbf20@passes={max_passes}"] = (k, y, 1.0, 1e-3, max_passes)
    return cases


def _smo_digest(k, y, C, tol, max_passes) -> str:
    """sha256 prefix of every field of the fitted model, or of the error text."""
    try:
        model = fit(k, y, C=C, tol=tol, max_passes=max_passes)
    except ConvergenceError as err:
        blob = str(err).encode()
    else:
        blob = b"".join([
            model.dual_coefs.tobytes(),
            model.support_indices.tobytes(),
            np.float64(model.bias).tobytes(),
            np.int64(model.iterations).tobytes(),
            np.float64(model.kkt_gap).tobytes(),
        ])
    return hashlib.sha256(blob).hexdigest()[:16]


# Taken before the SMO loop moved its up/low values into the solver state;
# any change to the pair path, the clip, the bias or the stop shows here.
SMO_DIGESTS = {
    'rbf20@C=1e-13': '00e720bce715d093',
    'rbf20@C=0.3': '95fddea35e9fd446',
    'rbf20@C=1': 'f25170ab7e813fc5',
    'rbf20@C=100': '4fb026948b5e6414',
    'rbf20@C=inf': '4fb026948b5e6414',
    'rbf200@C=1e-13': '4f8e0db044a27148',
    'rbf200@C=0.3': 'dd57317433abfb3e',
    'rbf200@C=1': 'f9d7f458f7e98d91',
    'rbf200@C=100': 'f5724e5890af9c81',
    'rbf200@C=inf': 'c8090987cc65c151',
    'rbf600@C=1e-13': '5dff9fe05e7b8697',
    'rbf600@C=0.3': '6cb89bd6bcb1aa78',
    'rbf600@C=1': '77c23b84c2a41c2c',
    'rbf600@C=100': 'cdcabd94afe05700',
    'rbf600@C=inf': '19c755716a416986',
    'shot7': 'cdf9f331410df31c',
    'rbf20@passes=0': 'be513023ec3ce0a2',
    'rbf20@passes=1': '339e87469e2a2690',
}


def test_smo_models_byte_identical():
    got = {name: _smo_digest(*case) for name, case in _smo_cases().items()}
    assert got == SMO_DIGESTS


if __name__ == "__main__":
    for name, case in _smo_cases().items():
        print(f"    {name!r}: {_smo_digest(*case)!r},")
