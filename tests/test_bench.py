from __future__ import annotations

import dataclasses
import json
import logging

import numpy as np
import pytest

import icppm.bench as bench
from conftest import make_log, make_trace
from icppm.bench import (
    ExperimentConfig,
    RunResult,
    derive_seed,
    emit_results,
    feature_label,
    prepare_samples,
    resolve_dataset_path,
    run_experiment,
    sweep,
)
from icppm.encoding import FeatureVector, Vocabulary
from icppm.errors import ConfigError
from icppm.eventlog import build_prefix_log, make_cv_folds, write_csv


def two_label_log(n_cases: int = 12):
    """Every case runs a -> b -> c, so every fold sees labels b and c."""
    traces = [
        make_trace(f"c{i:02d}", [("a", i * 100.0), ("b", i * 100.0 + 30), ("c", i * 100.0 + 60)])
        for i in range(n_cases)
    ]
    return make_log(*traces)


def two_label_setup(cfg: ExperimentConfig, n_cases: int = 12):
    log = two_label_log(n_cases)
    return log, build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)


def write_log(log, path):
    with path.open("w") as sink:
        write_csv(log, sink)
    return str(path)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "folds") == derive_seed(7, "folds")

    def test_sensitive_to_tag_and_master(self):
        assert derive_seed(7, "folds") != derive_seed(7, "subsample")
        assert derive_seed(7, "folds") != derive_seed(8, "folds")

    def test_range(self):
        for tag in ("a", "b", "vqc/0"):
            assert 0 <= derive_seed(3, tag) < 2 ** 63


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.classifier == "svc_rbf"
        assert cfg.mode == "experiment"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"classifer": "svc_rbf"})

    def test_from_dict_coerces_lists(self):
        cfg = ExperimentConfig.from_dict(
            {"inter_features": ["peer_cases"], "window_fractions": [0.1, 0.2]}
        )
        assert cfg.inter_features == ("peer_cases",)
        assert cfg.window_fractions == (0.1, 0.2)

    def test_too_many_inter_features(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(inter_features=("peer_cases", "peer_act", "res_count"))

    def test_folds_minimum(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(folds=1)

    def test_window_base_values(self):
        assert ExperimentConfig(window_base=3600.0).window_base == 3600.0
        assert ExperimentConfig(window_base="train_median").window_base == "train_median"
        with pytest.raises(ConfigError):
            ExperimentConfig(window_base="median")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="grid")

    def test_bad_classifier_caught_at_construction(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(classifier="xgboost")

    @pytest.mark.parametrize("fraction", [1.5, 0.0, -0.25])
    def test_sampling_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ConfigError, match="sampling_fraction"):
            ExperimentConfig(sampling_fraction=fraction)

    def test_sampling_fraction_bounds_accepted(self):
        assert ExperimentConfig(sampling_fraction=1.0).sampling_fraction == 1.0
        assert ExperimentConfig(sampling_fraction=0.01).sampling_fraction == 0.01

    # Empty grids and the other bounds are checked in the sweep test classes.
    @pytest.mark.parametrize("mode, grid, values", [
        ("window_sweep", "window_fractions", (0.3, 0.0)),
        ("sampling_sweep", "sampling_fractions", (1.0, 1.5)),
        ("sampling_sweep", "sampling_fractions", (0.0,)),
    ])
    def test_selected_grid_checked(self, mode, grid, values):
        with pytest.raises(ConfigError, match=grid):
            ExperimentConfig(mode=mode, inter_features=("peer_cases",), **{grid: values})

    def test_unselected_grid_not_checked(self):
        cfg = ExperimentConfig(mode="prefix_grid", prefix_lengths=(2,),
                               sampling_fractions=(), window_fractions=(-1.0,))
        assert cfg.prefix_lengths == (2,)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"classifier": "majority", "folds": 2}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.classifier == "majority"
        assert cfg.folds == 2

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_json(tmp_path / "nope.json")

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(path)

    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig(classifier="qke_zz_2", inter_features=("peer_cases",))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_fingerprint_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        assert a.fingerprint() == ExperimentConfig(seed=1).fingerprint()
        assert a.fingerprint() != ExperimentConfig(seed=2).fingerprint()
        assert a.fingerprint() != ExperimentConfig(seed=1, classifier="qke_zz_2").fingerprint()
        assert len(a.fingerprint()) == 16
        # Neither key can change a result.
        assert a.fingerprint() == ExperimentConfig(seed=1, threads=2).fingerprint()
        assert a.fingerprint() == ExperimentConfig(seed=1, cache_dir="/tmp/k").fingerprint()


class TestParseClassifier:
    def test_plain_names(self):
        for name in ("majority", "svc_linear", "svc_rbf"):
            assert bench._parse_classifier(name) == (name, None, None)

    def test_kernel_and_vqc_names(self):
        assert bench._parse_classifier("qke_zz_1") == ("qke", "zz", 1)
        assert bench._parse_classifier("qke_angle_2") == ("qke", "angle", 2)
        assert bench._parse_classifier("vqc_angle_zz_1") == ("vqc", "angle_zz", 1)

    def test_zz_a_alias(self):
        assert bench._parse_classifier("qke_zz_a_1") == ("qke", "angle_zz", 1)

    def test_rejects_malformed(self):
        for name in ("qke", "qke_zz", "qke_zz_x", "qke_poly_1", "forest"):
            with pytest.raises(ConfigError):
                bench._parse_classifier(name)


class TestFeatureLabel:
    def test_index_encoder_carries_k(self):
        assert feature_label(ExperimentConfig(k=6)) == "index_bsd_6"

    def test_other_encoders_plain(self):
        assert feature_label(ExperimentConfig(encoder="agg_count")) == "agg_count"

    def test_inter_features_appended(self):
        cfg = ExperimentConfig(inter_features=("peer_cases", "batch"))
        assert feature_label(cfg) == "index_bsd_4+peer_cases+batch"


class TestResolveDatasetPath:
    def test_existing_path(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("x")
        assert resolve_dataset_path(str(target)) == target

    def test_env_fallback(self, tmp_path, monkeypatch):
        (tmp_path / "data.csv").write_text("x")
        monkeypatch.setenv(bench.DATA_DIR_ENV, str(tmp_path))
        assert resolve_dataset_path("data.csv") == tmp_path / "data.csv"

    def test_missing_raises(self, monkeypatch):
        monkeypatch.delenv(bench.DATA_DIR_ENV, raising=False)
        with pytest.raises(ConfigError, match="dataset not found"):
            resolve_dataset_path("definitely_absent.csv")


class TestMajorityBaseline:
    def test_exact_mean_accuracy(self):
        traces = [
            make_trace(f"c{i:03d}", [("a", i * 10.0), ("b", i * 10.0 + 5)])
            for i in range(81)
        ]
        traces += [
            make_trace(f"d{i:03d}", [("a", i * 10.0), ("c", i * 10.0 + 5)])
            for i in range(9)
        ]
        log = make_log(*traces)
        cfg = ExperimentConfig(classifier="majority", folds=3, max_prefix=1)
        samples = build_prefix_log(log, 1, 1)
        result = run_experiment(cfg, log, samples)
        assert result.n_samples == 90
        assert result.mean_accuracy == pytest.approx(0.9, abs=1e-12)
        assert result.kernel_evaluations == 0
        assert result.cross_evaluations == 0

    def test_majority_tie_prefers_smaller_label(self):
        traces = [
            make_trace(f"c{i}", [("a", i * 10.0), ("b" if i % 2 else "c", i * 10.0 + 5)])
            for i in range(6)
        ]
        log = make_log(*traces)
        cfg = ExperimentConfig(classifier="majority", folds=2, max_prefix=1)
        samples = build_prefix_log(log, 1, 1)
        result = run_experiment(cfg, log, samples)
        assert 0.0 <= result.mean_accuracy <= 1.0


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(classifier="qke_angle_1", k=2, folds=3, seed=5)
        log, samples = two_label_setup(cfg)
        a = run_experiment(cfg, log, samples)
        b = run_experiment(cfg, log, samples)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.kernel_evaluations == b.kernel_evaluations
        assert a.config_fingerprint == b.config_fingerprint

    def test_kernel_evaluation_counts(self):
        cfg = ExperimentConfig(classifier="qke_angle_1", k=2, folds=3, seed=0)
        log, samples = two_label_setup(cfg)
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        want_gram = 0
        want_cross = 0
        want_states = 0
        for fold in range(cfg.folds):
            train_idx, test_idx = folds.split(fold)
            m, p = len(train_idx), len(test_idx)
            want_gram += m * (m - 1) // 2
            want_cross += p * m
            want_states += m + p
        result = run_experiment(cfg, log, samples)
        assert result.kernel_evaluations == want_gram
        assert result.cross_evaluations == want_cross
        assert result.states_simulated == want_states

    def test_classical_runs_report_zero_kernel_evals(self):
        cfg = ExperimentConfig(classifier="svc_rbf", k=2, folds=3)
        log, samples = two_label_setup(cfg)
        result = run_experiment(cfg, log, samples)
        assert result.kernel_evaluations == 0
        assert result.states_simulated == 0
        assert result.vqc_final_loss is None
        assert len(result.fold_accuracies) == 3

    def test_vqc_branch(self, monkeypatch):
        cfg = ExperimentConfig(
            classifier="vqc_angle_1", k=2, folds=2, epochs=1, seed=1
        )
        log, samples = two_label_setup(cfg, n_cases=6)
        models = []
        real = bench.vqc_train
        monkeypatch.setattr(bench, "vqc_train",
                            lambda *a, **k: models.append(real(*a, **k)) or models[-1])
        result = run_experiment(cfg, log, samples)
        assert len(result.fold_accuracies) == 2
        assert result.window_fraction is None
        assert len(models) == cfg.folds
        assert result.vqc_final_loss == pytest.approx(
            np.mean([m.loss_history[-1] for m in models]), abs=1e-15)
        # Every fold simulates its training rows once and its test rows once.
        assert result.states_simulated == cfg.folds * result.n_samples
        out = result.to_dict()
        assert out["vqc_final_loss"] == result.vqc_final_loss
        assert out["states_simulated"] == result.states_simulated

    def test_inter_features_recorded(self):
        cfg = ExperimentConfig(
            classifier="majority", folds=2, inter_features=("peer_cases",)
        )
        log, samples = two_label_setup(cfg, n_cases=8)
        result = run_experiment(cfg, log, samples)
        assert result.features == "index_bsd_4+peer_cases"
        assert result.window_fraction == cfg.window_fraction

    def test_no_dataset_configured(self):
        with pytest.raises(ConfigError, match="no dataset"):
            prepare_samples(ExperimentConfig())


class TestTrainOnlyFitting:
    def test_fitted_artifacts_see_only_training_cases(self, monkeypatch):
        cfg = ExperimentConfig(
            classifier="majority",
            folds=3,
            seed=2,
            inter_features=("avg_delay", "batch"),
            window_base=300.0,
        )
        log, samples = two_label_setup(cfg)
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        train_case_sets = []
        for fold in range(cfg.folds):
            train_idx, _ = folds.split(fold)
            train_case_sets.append({samples[i].case_id for i in train_idx})
        all_cases = {t.case_id for t in log.traces}

        seen_transition_logs = []
        seen_batch_logs = []
        seen_scaler_sizes = []
        real_t, real_b, real_s = (
            bench.fit_transition_stats,
            bench.fit_batch_stats,
            bench.fit_scaler,
        )
        monkeypatch.setattr(
            bench, "fit_transition_stats",
            lambda lg: seen_transition_logs.append(lg) or real_t(lg),
        )
        monkeypatch.setattr(
            bench, "fit_batch_stats",
            lambda lg, eps, mb: seen_batch_logs.append(lg) or real_b(lg, eps, mb),
        )
        monkeypatch.setattr(
            bench, "fit_scaler",
            lambda vecs, target: seen_scaler_sizes.append(len(vecs)) or real_s(vecs, target),
        )

        run_experiment(cfg, log, samples)

        assert len(seen_transition_logs) == cfg.folds
        assert len(seen_batch_logs) == cfg.folds
        for fold, lg in enumerate(seen_transition_logs):
            cases = {t.case_id for t in lg.traces}
            assert cases == train_case_sets[fold]
            assert cases < all_cases
        for fold, lg in enumerate(seen_batch_logs):
            assert {t.case_id for t in lg.traces} == train_case_sets[fold]
        for fold, size in enumerate(seen_scaler_sizes):
            assert size == len(folds.split(fold)[0])

    def test_vocabulary_fitted_per_fold(self, monkeypatch):
        cfg = ExperimentConfig(classifier="majority", folds=2)
        log, samples = two_label_setup(cfg, n_cases=6)
        calls = []
        real = Vocabulary.from_values
        monkeypatch.setattr(
            Vocabulary, "from_values",
            classmethod(lambda cls, values: calls.append(1) or real(values)),
        )
        run_experiment(cfg, log, samples)
        assert len(calls) == 2 * cfg.folds


class TestGramCache:
    def test_second_run_loads_from_cache(self, tmp_path):
        cfg = ExperimentConfig(
            classifier="qke_angle_1", k=2, folds=2, seed=3, cache_dir=str(tmp_path)
        )
        log, samples = two_label_setup(cfg, n_cases=8)
        first = run_experiment(cfg, log, samples)
        stored = list(tmp_path.glob("*.npz"))
        assert len(stored) == cfg.folds
        second = run_experiment(cfg, log, samples)
        assert second.gram_time_s == 0.0
        assert second.kernel_evaluations == first.kernel_evaluations
        assert second.fold_accuracies == first.fold_accuracies
        # A cached Gram matrix has no states, so cross simulates the train rows.
        assert second.states_simulated == first.states_simulated

    def test_truncated_entry_is_recomputed(self, tmp_path):
        cfg = ExperimentConfig(
            classifier="qke_angle_1", k=2, folds=2, seed=3, cache_dir=str(tmp_path)
        )
        log, samples = two_label_setup(cfg, n_cases=8)
        first = run_experiment(cfg, log, samples)
        for path in tmp_path.glob("*.npz"):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])
        second = run_experiment(cfg, log, samples)
        assert second.fold_accuracies == first.fold_accuracies
        assert second.states_simulated == first.states_simulated
        third = run_experiment(cfg, log, samples)
        assert third.gram_time_s == 0.0
        assert third.fold_accuracies == first.fold_accuracies

    @pytest.mark.parametrize("corrupt", ["asymmetric", "complex"])
    def test_invalid_entry_is_recomputed(self, tmp_path, caplog, corrupt):
        cfg = ExperimentConfig(
            classifier="qke_angle_1", k=2, folds=2, seed=3, cache_dir=str(tmp_path)
        )
        log, samples = two_label_setup(cfg, n_cases=8)
        first = run_experiment(cfg, log, samples)
        for path in tmp_path.glob("*.npz"):
            with np.load(path) as data:
                values = data["values"]
            if corrupt == "asymmetric":
                values = values.copy()
                values[0, 1] += 1e-6
            else:
                values = values.astype(np.complex128)
            np.savez(path, values=values, eval_count=np.int64(1))
        with caplog.at_level("WARNING", logger="icppm.qkernel"):
            second = run_experiment(cfg, log, samples)
        assert caplog.text.count("ignoring kernel cache entry") == cfg.folds
        assert second.fold_accuracies == first.fold_accuracies
        assert second.states_simulated == first.states_simulated
        assert second.kernel_evaluations == first.kernel_evaluations
        third = run_experiment(cfg, log, samples)
        assert third.gram_time_s == 0.0

    def test_cache_ignored_without_dir(self, tmp_path):
        cfg = ExperimentConfig(classifier="qke_angle_1", k=2, folds=2, seed=3)
        log, samples = two_label_setup(cfg, n_cases=8)
        run_experiment(cfg, log, samples)
        assert list(tmp_path.glob("*.npz")) == []


class TestWindowSweep:
    def _cfg(self):
        return ExperimentConfig(
            classifier="majority",
            folds=2,
            inter_features=("peer_cases",),
            mode="window_sweep",
            window_fractions=(0.15, 0.3, 0.5),
        )

    def test_rows_per_fraction_plus_average(self):
        cfg = self._cfg()
        log, samples = two_label_setup(cfg, n_cases=8)
        results = sweep(cfg, log=log, samples=samples)
        assert len(results) == 4
        assert [r.window_fraction for r in results[:3]] == [0.15, 0.3, 0.5]
        assert results[3].features.endswith("@avg")
        assert results[3].window_fraction is None

    def test_rows_labelled_per_fraction(self):
        cfg = self._cfg()
        log, samples = two_label_setup(cfg, n_cases=8)
        results = sweep(cfg, log=log, samples=samples)
        assert [r.features for r in results] == [
            "index_bsd_4+peer_cases@w0.15",
            "index_bsd_4+peer_cases@w0.3",
            "index_bsd_4+peer_cases@w0.5",
            "index_bsd_4+peer_cases@avg",
        ]

    def test_average_row_math(self):
        cfg = self._cfg()
        log, samples = two_label_setup(cfg, n_cases=8)
        results = sweep(cfg, log=log, samples=samples)
        per_window = results[:3]
        avg = results[3]
        want_folds = np.mean([r.fold_accuracies for r in per_window], axis=0)
        assert avg.fold_accuracies == pytest.approx(tuple(want_folds))
        assert avg.mean_accuracy == pytest.approx(
            np.mean([r.mean_accuracy for r in per_window])
        )

    @pytest.mark.parametrize("classifier", ["qke_angle_1", "vqc_angle_1"])
    def test_average_row_counters(self, classifier):
        cfg = dataclasses.replace(self._cfg(), classifier=classifier, k=2, epochs=2)
        log, samples = two_label_setup(cfg, n_cases=8)
        *runs, avg = sweep(cfg, log=log, samples=samples)
        summed = ("fit_time_s", "gram_time_s", "kernel_evaluations", "cross_evaluations",
                  "states_simulated", "smo_iterations", "encode_time_s")
        for name in summed:
            assert getattr(avg, name) == sum(getattr(r, name) for r in runs), name
        assert avg.states_simulated > 0
        if classifier == "vqc_angle_1":
            assert avg.vqc_final_loss == np.mean([r.vqc_final_loss for r in runs])
            assert avg.smo_kkt_gap is None
        else:
            assert avg.smo_iterations > 0
            assert avg.smo_kkt_gap == max(r.smo_kkt_gap for r in runs)
            assert avg.vqc_final_loss is None
        assert (avg.classifier, avg.seed, avg.n_samples) == (
            runs[0].classifier, runs[0].seed, runs[0].n_samples
        )
        assert avg.config_fingerprint == cfg.fingerprint()

    def test_single_fraction(self):
        cfg = dataclasses.replace(self._cfg(), window_fractions=(0.3,))
        log, samples = two_label_setup(cfg, n_cases=8)
        results = sweep(cfg, log=log, samples=samples)
        assert len(results) == 2

    def test_validation(self):
        cfg = self._cfg()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, window_fractions=())
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, window_fractions=(-0.1,))
        with pytest.raises(ConfigError, match="inter-case"):
            dataclasses.replace(cfg, inter_features=())


class TestSamplingSweep:
    def test_full_fraction_matches_plain_run(self):
        cfg = ExperimentConfig(classifier="majority", folds=2, mode="sampling_sweep",
                               sampling_fractions=(1.0,))
        log, samples = two_label_setup(cfg)
        rows = sweep(cfg, log=log, samples=samples)
        plain = run_experiment(cfg, log, samples)
        assert len(rows) == 1
        assert rows[0].fold_accuracies == plain.fold_accuracies
        assert rows[0].n_samples == plain.n_samples

    def test_half_fraction_halves_samples(self):
        cfg = ExperimentConfig(
            classifier="majority", folds=2, mode="sampling_sweep",
            sampling_fractions=(1.0, 0.5),
        )
        log, samples = two_label_setup(cfg)
        rows = sweep(cfg, log=log, samples=samples)
        assert rows[0].n_samples == len(samples)
        assert rows[1].n_samples == pytest.approx(len(samples) / 2, abs=1)
        assert rows[1].sampling_fraction == 0.5
        assert [r.features for r in rows] == ["index_bsd_4@s1", "index_bsd_4@s0.5"]

    def test_rows_are_fractions_of_the_full_prefix_set(self, tmp_path):
        log = two_label_log(20)
        cfg = ExperimentConfig(
            dataset=write_log(log, tmp_path / "log.csv"), classifier="majority",
            folds=2, mode="sampling_sweep", sampling_fraction=0.5,
            sampling_fractions=(1.0, 0.5),
        )
        full = len(build_prefix_log(log))
        rows = sweep(cfg)
        assert rows[0].n_samples == full
        assert rows[1].n_samples == pytest.approx(full / 2, abs=1)

    def test_empty_fractions(self):
        cfg = ExperimentConfig(classifier="majority", folds=2)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, mode="sampling_sweep", sampling_fractions=())


class TestPrefixGrid:
    def test_one_run_per_length(self):
        cfg = ExperimentConfig(classifier="majority", folds=2, mode="prefix_grid",
                               prefix_lengths=(1, 2, 3))
        log, samples = two_label_setup(cfg, n_cases=8)
        results = sweep(cfg, log=log, samples=samples)
        assert [r.features for r in results] == [
            "index_bsd_1", "index_bsd_2", "index_bsd_3"
        ]

    def test_validation(self):
        cfg = ExperimentConfig(classifier="majority", folds=2)
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, mode="prefix_grid", prefix_lengths=())
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, mode="prefix_grid", prefix_lengths=(0,))

    def test_needs_the_encoder_that_reads_k(self):
        # Only index_bsd reads k: any other encoder would repeat one run
        # under one label, so results.csv would keep one cell of three runs.
        with pytest.raises(ConfigError, match="index_bsd"):
            ExperimentConfig(classifier="majority", folds=2, mode="prefix_grid",
                             encoder="agg_count", prefix_lengths=(1, 2, 3))


class TestSweep:
    @pytest.mark.parametrize("mode,grid", [
        ("window_sweep", {"window_fractions": (0.3, 0.5, 0.3)}),
        ("window_sweep", {"window_fractions": (0.3, 0.3000001)}),
        ("sampling_sweep", {"sampling_fractions": (0.5, 0.5)}),
        ("prefix_grid", {"prefix_lengths": (2, 3, 2)}),
    ], ids=["window_repeat", "window_prints_alike", "sampling_repeat", "prefix_repeat"])
    def test_grid_values_with_one_run_label_rejected(self, mode, grid):
        # 0.3 and 0.3000001 both print as "@w0.3": their runs would share a
        # results.csv cell and both enter the "@avg" row.
        with pytest.raises(ConfigError, match="repeated run labels"):
            ExperimentConfig(classifier="majority", folds=2, mode=mode,
                             inter_features=("peer_cases",), **grid)

    def test_experiment_mode_is_one_run(self):
        cfg = ExperimentConfig(classifier="majority", folds=2)
        log, samples = two_label_setup(cfg)
        rows = sweep(cfg, log=log, samples=samples)
        assert len(rows) == 1
        assert rows[0].features == "index_bsd_4"
        assert rows[0].fold_accuracies == run_experiment(cfg, log, samples).fold_accuracies

    def test_preprocesses_once(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            dataset=write_log(two_label_log(8), tmp_path / "log.csv"),
            classifier="majority", folds=2, mode="prefix_grid", prefix_lengths=(1, 2),
        )
        calls = []
        real = bench.load_log
        monkeypatch.setattr(bench, "load_log", lambda *a: calls.append(1) or real(*a))
        assert len(sweep(cfg)) == 2
        assert len(calls) == 1

    def test_sweep_rows_keep_their_own_csv_cells(self, tmp_path):
        cfg = ExperimentConfig(classifier="majority", folds=2, mode="sampling_sweep",
                               sampling_fractions=(1.0, 0.5))
        log, samples = two_label_setup(cfg, n_cases=20)
        rows = sweep(cfg, log=log, samples=samples)
        csv_path, _ = emit_results(rows, tmp_path)
        header, line = csv_path.read_text().splitlines()
        assert header == "classifier,index_bsd_4@s1,index_bsd_4@s0.5"
        assert line == "majority," + ",".join(f"{r.mean_accuracy:.4f}" for r in rows)


class TestEmitResults:
    def _result(self, classifier: str, features: str, acc: float) -> RunResult:
        return RunResult(
            classifier=classifier,
            features=features,
            fold_accuracies=(acc,),
            mean_accuracy=acc,
            fit_time_s=0.1,
            gram_time_s=0.0,
            kernel_evaluations=0,
            cross_evaluations=0,
            config_fingerprint="f" * 16,
            window_fraction=None,
            sampling_fraction=1.0,
            seed=0,
            n_samples=10,
        )

    def test_matrix_layout(self, tmp_path):
        results = [
            self._result("majority", "index_bsd_4", 0.5),
            self._result("svc_rbf", "index_bsd_4", 0.75),
            self._result("svc_rbf", "index_bsd_4+peer_cases", 0.8125),
        ]
        csv_path, json_path = emit_results(results, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "classifier,index_bsd_4,index_bsd_4+peer_cases"
        assert lines[1] == "majority,0.5000,"
        assert lines[2] == "svc_rbf,0.7500,0.8125"
        payload = json.loads(json_path.read_text())
        assert len(payload["runs"]) == 3
        assert payload["runs"][0]["classifier"] == "majority"
        assert payload["runs"][0]["states_simulated"] == 0
        assert "states_simulated" not in csv_path.read_text()

    def test_reemission_byte_identical(self, tmp_path):
        results = [self._result("majority", "index_bsd_4", 1 / 3)]
        csv_path, json_path = emit_results(results, tmp_path)
        first = (csv_path.read_bytes(), json_path.read_bytes())
        emit_results(results, tmp_path)
        assert (csv_path.read_bytes(), json_path.read_bytes()) == first

    def test_empty_results(self, tmp_path):
        csv_path, json_path = emit_results([], tmp_path)
        assert csv_path.read_text() == "classifier\n"
        assert json.loads(json_path.read_text()) == {"runs": []}

    def test_four_decimal_rounding(self, tmp_path):
        results = [self._result("majority", "f", 0.123456)]
        csv_path, _ = emit_results(results, tmp_path)
        assert "0.1235" in csv_path.read_text()


class TestPrepareSamples:
    def test_loads_filters_and_expands(self, tmp_path):
        log = two_label_log(6)
        path = tmp_path / "log.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        cfg = ExperimentConfig(dataset=str(path), classifier="majority", folds=2)
        loaded, samples = prepare_samples(cfg)
        assert len(loaded) == 6
        assert len(samples) == 18

    def test_subsampling_applied(self, tmp_path):
        cfg = ExperimentConfig(
            dataset=write_log(two_label_log(10), tmp_path / "log.csv"),
            classifier="majority", folds=2, sampling_fraction=0.5,
        )
        _, samples = prepare_samples(cfg)
        assert len(samples) == 30
        assert run_experiment(cfg).n_samples == 15

    def test_date_slice_needs_both_bounds(self, tmp_path):
        log = two_label_log(4)
        path = tmp_path / "log.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        cfg = ExperimentConfig(
            dataset=str(path), classifier="majority", folds=2, date_start="2023-03-01"
        )
        with pytest.raises(ConfigError, match="both"):
            prepare_samples(cfg)


class TestWindowWidth:
    def test_explicit_base(self):
        cfg = ExperimentConfig(window_base=1000.0, window_fraction=0.3)
        log = two_label_log(4)
        assert bench._train_window_width(cfg, log) == pytest.approx(300.0)

    def test_median_base_even_count(self):
        cfg = ExperimentConfig(window_fraction=0.5)
        log = make_log(
            make_trace("c1", [("a", 0), ("b", 100)]),
            make_trace("c2", [("a", 0), ("b", 200)]),
            make_trace("c3", [("a", 0), ("b", 300)]),
            make_trace("c4", [("a", 0), ("b", 400)]),
        )
        assert bench._train_window_width(cfg, log) == pytest.approx(125.0)

    def test_zero_width_rejected(self):
        cfg = ExperimentConfig(window_fraction=0.3)
        log = make_log(make_trace("c1", [("a", 0)]))
        with pytest.raises(ConfigError, match="window width"):
            bench._train_window_width(cfg, log)


class TestFoldEncoding:
    def _run(self, monkeypatch, n_cases: int, folds: int) -> int:
        """FeatureVector constructions during one run on a two-label log."""
        cfg = ExperimentConfig(classifier="svc_rbf", folds=folds, window_base=300.0,
                               inter_features=("peer_cases", "avg_delay"))
        log, samples = two_label_setup(cfg, n_cases)
        built = []
        real = FeatureVector.__post_init__
        monkeypatch.setattr(FeatureVector, "__post_init__",
                            lambda fv: built.append(1) or real(fv))
        run_experiment(cfg, log, samples)
        monkeypatch.setattr(FeatureVector, "__post_init__", real)
        return len(built)

    def test_feature_vectors_built_per_fold_not_per_sample(self, monkeypatch):
        small = self._run(monkeypatch, n_cases=9, folds=3)
        large = self._run(monkeypatch, n_cases=60, folds=3)
        assert small == large
        assert 3 <= large <= 10 * 3
        assert self._run(monkeypatch, n_cases=60, folds=2) == large * 2 // 3

    def test_encode_time_in_results_json_only(self, tmp_path, caplog):
        cfg = ExperimentConfig(classifier="majority", folds=2, window_base=300.0,
                               inter_features=("peer_cases",))
        log, samples = two_label_setup(cfg)
        with caplog.at_level(logging.INFO, logger="icppm.bench"):
            result = run_experiment(cfg, log, samples)
        fold_lines = [r.getMessage() for r in caplog.records if "accuracy" in r.getMessage()]
        assert len(fold_lines) == cfg.folds
        assert all(" encode_s=" in line for line in fold_lines)
        assert result.encode_time_s > 0
        csv_path, json_path = emit_results([result], tmp_path / "out")
        run = json.loads(json_path.read_text())["runs"][0]
        assert run["encode_time_s"] == result.encode_time_s
        assert "encode" not in csv_path.read_text()

    def test_encoder_returns_one_block_per_call(self):
        cfg = ExperimentConfig(classifier="majority", window_base=300.0,
                               inter_features=("peer_cases", "avg_delay"))
        log, samples = two_label_setup(cfg)
        encode = bench.fit_encoder(cfg, log, bench.EventIndex(log))
        block = encode(samples)
        assert block.values.shape == (len(samples), 4 + 2)
        assert block.schema[-2:] == ("peer_cases", "avg_delay")
        assert encode(samples[:1]).values.tolist() == block.values[:1].tolist()
