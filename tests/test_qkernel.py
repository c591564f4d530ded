from __future__ import annotations

import math

import numpy as np
import pytest

from icppm import oracles, qkernel
from icppm.errors import ConfigError
from icppm.qkernel import KernelKind, cross, gram
from icppm.qsim import FeatureMapKind, ShotConfig, feature_map_states, kernel_overlap

QUANTUM = KernelKind.quantum(FeatureMapKind("zz"))


def points(seed: int, m: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, math.pi, (m, dim))


def row_draws(exact: np.ndarray, shots: int, seed: int, first_row: int = 0) -> np.ndarray:
    """The shot rule written out: row i of an exact overlap matrix, clamped
    to 1, as binomial(shots, p) / shots drawn by default_rng((seed, r)) with
    r = first_row + i, its row in the sampled [train; test] x train matrix."""
    return np.array([
        np.random.default_rng((seed, r)).binomial(shots, np.minimum(row, 1.0)) / shots
        for r, row in enumerate(exact, first_row)
    ])


class TestKernelKind:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            KernelKind("poly")

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError):
            KernelKind.rbf(gamma=0.0)
        with pytest.raises(ConfigError):
            KernelKind.rbf(gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            KernelKind.rbf(gamma=gamma)

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

    @pytest.mark.parametrize("gamma", [None, 0.3])
    def test_rbf_equals_textbook_formula(self, gamma):
        # 300 x 250 spans three row blocks of the 32768-element budget; a
        # Gram's products must be numpy's own x @ x.T (its syrk path).
        g = gamma if gamma is not None else 1.0 / 4
        for p, m in ((5, 6), (300, 250)):
            xt, xr = points(7, p, 4), points(8, m, 4)
            for got, a, b in ((cross(xt, xr, KernelKind.rbf(gamma)), xt, xr),
                              (gram(xr, KernelKind.rbf(gamma)), xr, xr)):
                d2 = np.maximum(
                    np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
                    - 2.0 * (a @ b.T),
                    0.0,
                )
                assert np.array_equal(got.values, np.exp(-g * d2))

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
        # Above the diagonal, the exact overlaps bit for bit.
        assert np.array_equal(np.triu(got, 1), np.triu(cross(x, x, QUANTUM).values, 1))

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
    def test_shot_mode_rows_equal_row_generator_draws(self, shots):
        upper = np.triu_indices(5, 1)
        for variant in ("angle", "zz", "angle_zz"):
            fm = FeatureMapKind(variant)
            kind = KernelKind.quantum(fm, ShotConfig(shots, seed=11))
            x = points(7, 5, 2)
            exact = cross(x, x, KernelKind.quantum(fm)).values
            want = row_draws(exact, shots, 11)
            got = gram(x, kind).values
            assert np.array_equal(got[upper], want[upper])
            assert np.array_equal(got.T[upper], want[upper])
            assert np.array_equal(np.diag(got), np.ones(5))
            # The shot cross matrix of the rows with themselves is the test
            # block below them: its row i draws as row 5 + i.
            assert np.array_equal(cross(x, x, kind).values, row_draws(exact, shots, 11, 5))

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

    def test_rows_draw_from_their_own_generators(self):
        # Rows 0 and 1 are the same point: equal exact rows, different draws,
        # since cross row i's generator is seeded by (seed, len(train) + i)
        # alone. Row 0 of any other cross matrix over the same exact row and
        # the same number of train rows draws the same values.
        x = np.vstack([points(32, 1, 2), points(32, 1, 2), points(33, 4, 2)])
        kind = KernelKind.quantum(FeatureMapKind("zz"), ShotConfig(100, seed=0))
        exact = cross(x, x, KernelKind.quantum(kind.feature_map)).values
        assert np.array_equal(exact[0], exact[1])
        got = cross(x, x, kind).values
        assert not np.array_equal(got[0], got[1])
        assert np.array_equal(cross(x[1:], x, kind).values[0], got[0])
        assert np.array_equal(got, row_draws(exact, 100, 0, len(x)))

    @pytest.mark.parametrize("variant", ["angle", "zz", "angle_zz"])
    def test_test_rows_do_not_replay_train_row_draws(self, variant):
        # Test rows equal to the train rows have the Gram's exact rows, yet
        # test row i draws as row m + i of the [train; test] x train matrix,
        # not as Gram row i, so its shot errors are not the Gram row's.
        kind = KernelKind.quantum(FeatureMapKind(variant), ShotConfig(100, seed=3))
        x = points(34, 8, 3)
        g, c = gram(x, kind).values, cross(x, x, kind).values
        for i in range(len(x) - 1):
            assert not np.array_equal(g[i, i + 1:], c[i, i + 1:])


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

    @pytest.mark.parametrize("train_rows", [0, 2])
    def test_no_train_or_no_test_rows(self, train_rows):
        # With no train rows every test row is new; with none of either the
        # matrix is empty.
        for test_rows in (0, 3):
            out = cross(points(14, test_rows, 2), points(15, train_rows, 2), QUANTUM)
            assert out.values.shape == (test_rows, train_rows)
            assert out.states_simulated == test_rows + train_rows

    def test_states_simulated_is_test_plus_train(self):
        xt, xr = points(22, 3, 2), points(23, 5, 2)
        out = cross(xt, xr, QUANTUM)
        assert out.states_simulated == 3 + 5
        assert out.eval_count == 3 * 5
        # Given the Gram's train batch, only the test rows are simulated.
        reused = cross(xt, xr, QUANTUM, train_states=gram(xr, QUANTUM).conj_states)
        assert reused.states_simulated == 3
        assert reused.eval_count == 3 * 5
        # A test row equal to a train row is not simulated, with or without
        # the Gram's batch.
        xt[[0, 2]] = xr[[4, 1]]
        assert cross(xt, xr, QUANTUM).states_simulated == 1 + 5
        reused = cross(xt, xr, QUANTUM, train_states=gram(xr, QUANTUM).conj_states)
        assert reused.states_simulated == 1

    @staticmethod
    def simulated_cross(xt, xr, kind) -> np.ndarray:
        """The cross matrix with every test row simulated, in one batch:
        its overlaps with the conjugated train batch, sampled as cross rows."""
        values = qkernel._overlaps(feature_map_states(kind.feature_map, xt),
                                   np.conj(feature_map_states(kind.feature_map, xr)))
        if not kind.shots.exact:
            values = qkernel._sample(values, kind.shots, first_row=len(xr))
        return values

    @pytest.mark.parametrize("variant", ["angle", "zz", "angle_zz"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("shots", [None, 50])
    @pytest.mark.parametrize("dim", [3, 9])
    def test_reused_train_states_give_the_simulated_cross(self, variant, layers, shots, dim):
        kind = KernelKind.quantum(FeatureMapKind(variant, layers), ShotConfig(shots, seed=5))
        xr, new = points(40, 6, dim), points(41, 3, dim)
        # Train rows holding 0.0 and -0.0, each repeated by a test row
        # holding the other zero: equal by value, so the state is reused.
        xr[1, :2], xr[3, 1] = 0.0, -0.0
        flipped = xr.copy()
        flipped[1, :2], flipped[3, 1] = -0.0, 0.0
        folds = {
            "all": flipped[[1, 0, 3, 1, 5]],
            "some": np.vstack([flipped[[3]], new[:2], xr[[4, 1]]]),
            "one new": np.vstack([xr[[2, 0]], new[:1], flipped[[1]]]),
            "none": new,
            "one row, new": new[:1],
            "one row, repeated": flipped[[3]],
        }
        k_train = gram(xr, kind)
        for name, xt in folds.items():
            want = self.simulated_cross(xt, xr, kind)
            n_new = sum(not (xr == row).all(axis=1).any() for row in xt)
            for train_states in (k_train.conj_states, None):
                got = cross(xt, xr, kind, train_states=train_states)
                assert got.values.tobytes() == want.tobytes(), (name, train_states is None)
                assert got.states_simulated == n_new + (6 if train_states is None else 0)

    @pytest.mark.parametrize("variant", ["angle", "zz", "angle_zz"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("shots", [None, 50])
    def test_gram_states_give_the_same_cross(self, variant, layers, shots):
        kind = KernelKind.quantum(FeatureMapKind(variant, layers), ShotConfig(shots, seed=9))
        xt, xr = points(26, 4, 3), points(27, 6, 3)
        k_train = gram(xr, kind)
        assert np.array_equal(k_train.conj_states,
                              np.conj(feature_map_states(kind.feature_map, xr)))
        reused = cross(xt, xr, kind, train_states=k_train.conj_states)
        assert np.array_equal(reused.values, cross(xt, xr, kind).values)

    def test_wrong_shape_train_states_raise(self):
        xt, xr = points(28, 2, 3), points(29, 5, 3)
        states = gram(xr, QUANTUM).conj_states
        narrow = gram(points(30, 5, 2), QUANTUM).conj_states
        for bad in (states[:4], narrow, states.reshape(5, 2, 4)):
            with pytest.raises(ValueError, match="train states"):
                cross(xt, xr, QUANTUM, train_states=bad)

    def test_only_quantum_gram_matrices_carry_states(self):
        x = points(31, 4, 2)
        k = gram(x, QUANTUM)
        assert k.conj_states.shape == (4, 4)
        assert cross(x, x, QUANTUM).conj_states is None
        assert gram(x, KernelKind.rbf()).conj_states is None

    def test_shot_mode_rows_equal_row_generator_draws(self):
        fm = FeatureMapKind("zz", 2)
        kind = KernelKind.quantum(fm, ShotConfig(50, seed=4))
        xt = points(24, 3, 3)
        xr = points(25, 4, 3)
        exact = cross(xt, xr, KernelKind.quantum(fm)).values
        assert np.array_equal(cross(xt, xr, kind).values, row_draws(exact, 50, 4, len(xr)))

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


class TestShotDistribution:
    """Shot entries over many seeds against the binomial law of ``shots``
    draws at the exact overlap p: each entry's mean and sample variance lie
    within 5 standard errors of p and p(1-p)/shots. No particular random
    stream is read."""

    SHOTS = 50
    SEEDS = 400

    def _z_scores(self, samples: np.ndarray, p: np.ndarray):
        s, n = len(samples), self.SHOTS
        pq = p * (1.0 - p)
        var = pq / n
        mean_z = (samples.mean(axis=0) - p) / np.sqrt(var / s)
        # Fourth central moment of a binomial frequency, then the variance of
        # the unbiased sample variance of s draws.
        mu4 = pq * (1.0 + 3.0 * (n - 2) * pq) / n ** 3
        var_of_var = mu4 / s - var ** 2 * (s - 3) / (s * (s - 1))
        var_z = (samples.var(axis=0, ddof=1) - var) / np.sqrt(var_of_var)
        return mean_z, var_z

    def test_entries_have_binomial_mean_and_variance(self):
        fm = FeatureMapKind("zz")
        x, xt = points(41, 6, 2), points(42, 4, 2)
        upper = np.triu_indices(6, 1)
        exact_g = gram(x, KernelKind.quantum(fm)).values[upper]
        exact_c = cross(xt, x, KernelKind.quantum(fm)).values.ravel()
        assert np.all((exact_g > 0.02) & (exact_g < 0.98))
        assert np.all((exact_c > 0.02) & (exact_c < 0.98))
        g_samples, c_samples = [], []
        for seed in range(self.SEEDS):
            kind = KernelKind.quantum(fm, ShotConfig(self.SHOTS, seed))
            g_samples.append(gram(x, kind).values[upper])
            c_samples.append(cross(xt, x, kind).values.ravel())
        for samples, p in ((g_samples, exact_g), (c_samples, exact_c)):
            mean_z, var_z = self._z_scores(np.array(samples), p)
            assert np.max(np.abs(mean_z)) < 5.0
            assert np.max(np.abs(var_z)) < 5.0

    def test_self_overlaps_above_one_sample_to_one(self):
        # Exact self-overlaps of the angle map round above 1 in the last bit.
        fm = FeatureMapKind("angle", 2)
        x = points(33, 60, 6)
        assert np.any(np.diag(cross(x, x, KernelKind.quantum(fm)).values) > 1.0)
        sampled = cross(x, x, KernelKind.quantum(fm, ShotConfig(20, seed=1))).values
        assert np.array_equal(np.diag(sampled), np.ones(60))


class TestAsymmetry:
    """``asymmetry`` equals the full-size ``np.abs(k - k.T).max()`` on
    sizes around the tile side, NaN and inf included."""

    SIDE = math.isqrt(qkernel._BLOCK_ELEMENTS)

    @pytest.mark.parametrize("m", [0, 1, 2, SIDE - 1, SIDE, SIDE + 1, 2 * SIDE + 7])
    def test_random_and_symmetric_matrices(self, m):
        rng = np.random.default_rng(m)
        k = rng.normal(size=(m, m))
        for values in (k, (k + k.T) / 2):
            want = np.abs(values - values.T).max(initial=0.0)
            assert qkernel.asymmetry(values) == want

    @pytest.mark.parametrize("m", [SIDE + 1, 2 * SIDE + 7])
    @pytest.mark.parametrize("entry", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "inf pair", 1e-3])
    def test_one_odd_entry_in_any_tile(self, m, entry, value):
        k = np.random.default_rng(1).normal(size=(m, m))
        k = (k + k.T) / 2
        i, j = {"first": (0, 1), "middle": (m // 2, m // 3), "last": (m - 2, m - 1)}[entry]
        if value == "inf pair":  # inf - inf is NaN
            k[i, j] = k[j, i] = math.inf
        else:
            k[i, j] += value
        with np.errstate(invalid="ignore"):
            want = np.abs(k - k.T).max()
        assert np.array_equal(qkernel.asymmetry(k), want, equal_nan=True)
