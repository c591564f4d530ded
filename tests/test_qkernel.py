from __future__ import annotations

import math

import numpy as np
import pytest

from icppm import oracles, qkernel
from icppm.errors import ConfigError
from icppm.qkernel import (
    KernelKind,
    KernelMatrix,
    cache_key,
    cross,
    gram,
    load_kernel,
    pair_seed,
    psd_repair,
    save_kernel,
)
from icppm.qsim import FeatureMapKind, ShotConfig, kernel_overlap

QUANTUM = KernelKind.quantum(FeatureMapKind("zz"))


def points(seed: int, m: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, math.pi, (m, dim))


class TestKernelKind:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            KernelKind("poly")

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError):
            KernelKind.rbf(gamma=0.0)
        with pytest.raises(ConfigError):
            KernelKind.rbf(gamma=-1.0)

    def test_quantum_needs_feature_map(self):
        with pytest.raises(ConfigError):
            KernelKind("quantum")


class TestClassicalKernels:
    def test_linear_matches_dot_products(self):
        x = points(0, 6, 3)
        got = gram(x, KernelKind.linear()).values
        assert np.allclose(got, x @ x.T)

    def test_linear_orthogonal_vectors(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert gram(x, KernelKind.linear()).values[0, 1] == 0.0

    def test_rbf_unit_diagonal(self):
        x = points(1, 5, 4)
        got = gram(x, KernelKind.rbf()).values
        assert np.allclose(np.diag(got), 1.0)

    def test_rbf_explicit_value(self):
        x = np.array([[0.0], [2.0]])
        got = gram(x, KernelKind.rbf(gamma=0.5)).values
        assert got[0, 1] == pytest.approx(math.exp(-0.5 * 4.0))

    def test_rbf_default_gamma_is_one_over_dim(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        got = gram(x, KernelKind.rbf()).values
        assert got[0, 1] == pytest.approx(math.exp(-0.5 * 2.0))

    def test_classical_kernels_report_zero_evals(self):
        x = points(2, 4, 2)
        assert gram(x, KernelKind.linear()).eval_count == 0
        assert gram(x, KernelKind.rbf()).eval_count == 0

    @pytest.mark.parametrize("kind", [KernelKind.linear(), KernelKind.rbf(), KernelKind.rbf(0.7)])
    def test_gram_is_cross_of_rows_with_themselves(self, kind):
        x = points(3, 9, 4)
        assert np.array_equal(gram(x, kind).values, cross(x, x, kind).values)


class TestQuantumGram:
    def test_matches_pairwise_overlaps(self):
        x = points(3, 5, 2)
        got = gram(x, QUANTUM).values
        for i in range(5):
            for j in range(5):
                want = 1.0 if i == j else kernel_overlap(x[i], x[j], QUANTUM.feature_map)
                assert got[i, j] == pytest.approx(want, abs=1e-10)

    def test_symmetric_with_unit_diagonal(self):
        x = points(4, 8, 3)
        got = gram(x, QUANTUM).values
        assert np.array_equal(got, got.T)
        assert np.array_equal(np.diag(got), np.ones(8))

    def test_eval_count_is_upper_triangle(self):
        x = points(5, 7, 2)
        assert gram(x, QUANTUM).eval_count == 7 * 6 // 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            gram(np.zeros((2, 2, 2)), KernelKind.linear())

    def test_row_permutation_permutes_exact_gram(self):
        x = points(6, 6, 2)
        perm = np.random.default_rng(6).permutation(6)
        base = gram(x, QUANTUM).values
        permuted = gram(x[perm], QUANTUM).values
        assert np.max(np.abs(permuted - base[np.ix_(perm, perm)])) < 1e-12

    @pytest.mark.parametrize("shots", [1, 7, 200])
    def test_shot_mode_entries_equal_per_pair_estimates(self, shots):
        for variant in ("angle", "zz", "angle_zz"):
            fm = FeatureMapKind(variant)
            kind = KernelKind.quantum(fm, ShotConfig(shots, seed=11))
            x = points(7, 5, 2)
            got = gram(x, kind).values
            for i in range(5):
                for j in range(i + 1, 5):
                    want = kernel_overlap(x[i], x[j], fm, ShotConfig(shots, pair_seed(11, i, j)))
                    assert got[i, j] == got[j, i] == want
            assert np.array_equal(np.diag(got), np.ones(5))

    def test_states_simulated_once_per_row(self):
        x = points(21, 7, 2)
        out = gram(x, QUANTUM)
        assert out.states_simulated == 7
        assert out.eval_count == 7 * 6 // 2
        assert gram(x, KernelKind.rbf()).states_simulated == 0

    def test_shot_mode_reproducible_for_seed(self):
        kind = KernelKind.quantum(FeatureMapKind("zz"), ShotConfig(300, seed=2))
        x = points(8, 4, 2)
        assert np.array_equal(gram(x, kind).values, gram(x, kind).values)
        other = KernelKind.quantum(FeatureMapKind("zz"), ShotConfig(300, seed=3))
        assert not np.array_equal(gram(x, kind).values, gram(x, other).values)

    def test_pair_seed_depends_on_pair(self):
        assert pair_seed(0, 1, 2) != pair_seed(0, 2, 1)
        assert pair_seed(0, 1, 2) == pair_seed(0, 1, 2)


class TestAgainstOracles:
    @pytest.mark.parametrize("variant", ["angle", "zz", "angle_zz"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_exact_matrices_match_per_pair_and_dense(self, variant, layers):
        fm = FeatureMapKind(variant, layers)
        kind = KernelKind.quantum(fm)
        x = points(30 + layers, 4, 3)
        xt = points(40 + layers, 2, 3)
        g = gram(x, kind).values
        c = cross(xt, x, kind).values
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(g[i, j] - kernel_overlap(x[i], x[j], fm)) <= 1e-12
                assert abs(g[i, j] - oracles.kernel_via_unitary(x[i], x[j], fm)) <= 1e-12
            for t in range(2):
                assert abs(c[t, i] - kernel_overlap(xt[t], x[i], fm)) <= 1e-12
                assert abs(c[t, i] - oracles.kernel_via_unitary(xt[t], x[i], fm)) <= 1e-12


class TestCross:
    def test_test_equals_train_matches_gram_exact(self):
        x = points(9, 5, 2)
        g = gram(x, QUANTUM).values
        c = cross(x, x, QUANTUM).values
        assert np.max(np.abs(g - c)) < 1e-12

    def test_shape_and_eval_count(self):
        xt = points(10, 3, 2)
        xr = points(11, 5, 2)
        out = cross(xt, xr, QUANTUM)
        assert out.values.shape == (3, 5)
        assert out.eval_count == 15

    def test_single_row(self):
        xt = points(12, 1, 2)
        xr = points(13, 4, 2)
        out = cross(xt, xr, QUANTUM)
        assert out.values.shape == (1, 4)
        for j in range(4):
            want = kernel_overlap(xt[0], xr[j], QUANTUM.feature_map)
            assert out.values[0, j] == pytest.approx(want, abs=1e-12)

    def test_states_simulated_is_test_plus_train(self):
        out = cross(points(22, 3, 2), points(23, 5, 2), QUANTUM)
        assert out.states_simulated == 3 + 5
        assert out.eval_count == 3 * 5

    def test_shot_mode_entries_equal_per_pair_estimates(self):
        fm = FeatureMapKind("zz", 2)
        kind = KernelKind.quantum(fm, ShotConfig(50, seed=4))
        xt = points(24, 3, 3)
        xr = points(25, 4, 3)
        got = cross(xt, xr, kind).values
        for i in range(3):
            for j in range(4):
                want = kernel_overlap(xt[i], xr[j], fm, ShotConfig(50, pair_seed(4, i, j)))
                assert got[i, j] == want

    def test_row_permutation_permutes_exact_cross(self):
        xt = points(26, 4, 2)
        xr = points(27, 5, 2)
        pt = np.random.default_rng(1).permutation(4)
        pr = np.random.default_rng(2).permutation(5)
        base = cross(xt, xr, QUANTUM).values
        permuted = cross(xt[pt], xr[pr], QUANTUM).values
        assert np.max(np.abs(permuted - base[np.ix_(pt, pr)])) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cross(points(0, 2, 2), points(0, 2, 3), KernelKind.linear())

    def test_linear_cross(self):
        xt = points(14, 2, 3)
        xr = points(15, 4, 3)
        assert np.allclose(cross(xt, xr, KernelKind.linear()).values, xt @ xr.T)

    def test_rbf_cross_matches_formula(self):
        xt = points(16, 2, 2)
        xr = points(17, 3, 2)
        got = cross(xt, xr, KernelKind.rbf(gamma=0.7)).values
        for i in range(2):
            for j in range(3):
                d2 = float(np.sum((xt[i] - xr[j]) ** 2))
                assert got[i, j] == pytest.approx(math.exp(-0.7 * d2))


class TestPsdRepair:
    def test_indefinite_matrix_shifted(self):
        km = KernelMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), eval_count=1)
        fixed = psd_repair(km, floor=0.0)
        assert fixed.values[0, 0] == pytest.approx(1.2)
        assert fixed.values[0, 1] == pytest.approx(1.2)
        assert np.linalg.eigvalsh(fixed.values)[0] >= -1e-12

    def test_psd_input_untouched_up_to_symmetrization(self):
        x = points(18, 6, 2)
        km = gram(x, KernelKind.rbf())
        fixed = psd_repair(km, floor=0.0)
        assert np.allclose(fixed.values, km.values)

    def test_identity_unchanged(self):
        km = KernelMatrix(np.eye(3))
        assert np.array_equal(psd_repair(km, floor=1.0).values, np.eye(3))

    def test_asymmetric_input_symmetrized(self):
        km = KernelMatrix(np.array([[1.0, 0.4], [0.2, 1.0]]))
        fixed = psd_repair(km)
        assert fixed.values[0, 1] == fixed.values[1, 0] == pytest.approx(0.3)

    def test_eval_count_preserved(self):
        km = KernelMatrix(np.eye(2), eval_count=17)
        assert psd_repair(km).eval_count == 17

    def test_floor_respected(self):
        rng = np.random.default_rng(19)
        noisy = rng.normal(size=(6, 6))
        km = KernelMatrix(0.5 * (noisy + noisy.T))
        fixed = psd_repair(km, floor=1e-6)
        assert np.linalg.eigvalsh(fixed.values)[0] >= 1e-6 - 1e-12


class TestCache:
    def test_round_trip(self, tmp_path):
        x = points(20, 5, 2)
        km = gram(x, QUANTUM)
        key = cache_key("abc", {"encoder": "index_bsd"}, {"variant": "quantum"}, 0)
        save_kernel(km, tmp_path, key)
        loaded = load_kernel(tmp_path, key)
        assert loaded is not None
        assert np.array_equal(loaded.values, km.values)
        assert loaded.eval_count == km.eval_count

    def test_miss_returns_none(self, tmp_path):
        assert load_kernel(tmp_path, "nope") is None

    def test_key_is_stable_and_sensitive(self):
        base = cache_key("h", {"a": 1, "b": 2}, {"k": "linear"}, 5)
        assert cache_key("h", {"b": 2, "a": 1}, {"k": "linear"}, 5) == base
        assert cache_key("h", {"a": 1, "b": 2}, {"k": "linear"}, 6) != base
        assert cache_key("g", {"a": 1, "b": 2}, {"k": "linear"}, 5) != base
        assert len(base) == 64

    def test_truncated_entry_is_a_miss(self, tmp_path, caplog):
        km = gram(points(28, 4, 2), QUANTUM)
        path = save_kernel(km, tmp_path, "k")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with caplog.at_level("WARNING", logger="icppm.qkernel"):
            assert load_kernel(tmp_path, "k") is None
        assert "unreadable" in caplog.text

    def test_wrong_shape_or_non_finite_entry_is_a_miss(self, tmp_path):
        save_kernel(KernelMatrix(np.eye(3), 3), tmp_path, "k")
        assert load_kernel(tmp_path, "k", size=3) is not None
        assert load_kernel(tmp_path, "k", size=4) is None
        save_kernel(KernelMatrix(np.ones((2, 3)), 6), tmp_path, "k")
        assert load_kernel(tmp_path, "k") is None
        bad = np.eye(2)
        bad[0, 1] = np.nan
        save_kernel(KernelMatrix(bad, 1), tmp_path, "k")
        assert load_kernel(tmp_path, "k") is None

    def test_key_changes_with_format_version(self, monkeypatch):
        args = ("h", {"a": 1}, {"k": "quantum"}, 5)
        base = cache_key(*args)
        monkeypatch.setattr(qkernel, "CACHE_FORMAT_VERSION", qkernel.CACHE_FORMAT_VERSION + 1)
        assert cache_key(*args) != base

    def test_complex_or_integer_entry_is_a_miss(self, tmp_path, caplog):
        save_kernel(KernelMatrix(np.eye(3).astype(np.complex128), 3), tmp_path, "c")
        save_kernel(KernelMatrix(np.eye(3, dtype=np.int64), 3), tmp_path, "i")
        with caplog.at_level("WARNING", logger="icppm.qkernel"):
            assert load_kernel(tmp_path, "c") is None
            assert load_kernel(tmp_path, "i") is None
        assert caplog.text.count("not real floating point") == 2

    def test_asymmetric_entry_is_a_miss(self, tmp_path, caplog):
        values = np.eye(3)
        values[0, 2] = 0.5
        values[2, 0] = 0.5 + 2e-12
        save_kernel(KernelMatrix(values, 3), tmp_path, "k")
        with caplog.at_level("WARNING", logger="icppm.qkernel"):
            assert load_kernel(tmp_path, "k") is None
        assert "K - K^T" in caplog.text
        values[2, 0] = 0.5 + 5e-13
        save_kernel(KernelMatrix(values, 3), tmp_path, "k")
        assert load_kernel(tmp_path, "k") is not None

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_kernel(KernelMatrix(np.eye(2), 1), tmp_path, "k")
        save_kernel(KernelMatrix(np.eye(2), 1), tmp_path, "k")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.npz"]

    def test_save_creates_directory(self, tmp_path):
        km = KernelMatrix(np.eye(2), 1)
        path = save_kernel(km, tmp_path / "deep" / "nest", "k")
        assert path.exists()
