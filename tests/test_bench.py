from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import logging
import math

import numpy as np
import pytest

import icppm.bench as bench
import icppm.vqc as vqc
from conftest import make_log, make_trace, random_log
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
from icppm.eventlog import END_LABEL, build_prefix_log, make_cv_folds, write_csv
from icppm.qsim import FeatureMapKind


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

    @pytest.mark.parametrize("key, value", [
        ("static_attrs", "channel"), ("inter_features", "peer_cases"),
        ("window_fractions", "0.3"), ("sampling_fractions", "1.0"), ("prefix_lengths", "2"),
    ])
    def test_from_dict_rejects_a_string_for_a_list(self, key, value):
        # tuple("channel") would be seven one-letter names.
        with pytest.raises(ConfigError, match=f"{key} must be a list"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("C", "1"), ("C", True), ("tol", "0.1"), ("learning_rate", "0.1"),
        ("window_fraction", "0.3"), ("gamma", "1"), ("scale_hi", "3"), ("epsilon", None),
        ("classifier", 5), ("date_start", 20230101), ("filter_singletons", "yes"),
        ("filter_singletons", "false"), ("filter_singletons", 1), ("mode", None),
        ("column_map", {"case_id": 3}), ("column_map", ["case_id"]),
        ("window_fractions", ["a"]), ("sampling_fractions", ["0.5"]),
        ("prefix_lengths", [True]), ("window_fractions", 5),
    ])
    def test_from_dict_rejects_a_value_of_the_wrong_type(self, key, value):
        # Each once crashed with a raw TypeError or AttributeError, or, like
        # C = true and filter_singletons = "false", was taken as given.
        with pytest.raises(ConfigError, match=f"{key} must "):
            ExperimentConfig.from_dict({key: value})

    def test_unknown_column_map_key_rejected_at_construction(self):
        # It was ignored: "resourse" loaded a log with no resources at all.
        with pytest.raises(ConfigError, match=r"unknown column_map keys: \['resourse'\]"):
            ExperimentConfig.from_dict({"column_map": {"resourse": "org"}})

    def test_from_dict_takes_every_json_type_a_field_allows(self):
        cfg = ExperimentConfig.from_dict({
            "C": 1, "gamma": None, "shots": None, "filter_singletons": True,
            "column_map": {"case_id": "Case"}, "window_fractions": [1, 0.5],
            "window_base": 60, "dataset": None,
        })
        assert (cfg.C, cfg.window_fractions, cfg.filter_singletons) == (1, (1, 0.5), True)

    def test_inter_features_checked_before_the_dataset_is_read(self, tmp_path):
        cfg = {"dataset": str(tmp_path / "missing.csv"), "inter_features": ["peer_cases", "queue"]}
        with pytest.raises(ConfigError, match="unknown inter-case features"):
            bench.sweep(ExperimentConfig.from_dict(cfg))

    def test_inverted_date_range_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="empty date range"):
            ExperimentConfig(date_start="20230401", date_end="20230301")

    def test_static_encoder_without_attributes_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="static encoder"):
            ExperimentConfig(encoder="static")
        assert ExperimentConfig(encoder="static", static_attrs=("kind",)).encoder == "static"

    def test_repeated_inter_feature_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            ExperimentConfig(inter_features=("peer_cases", "peer_cases"))

    def test_too_many_inter_features(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(inter_features=("peer_cases", "peer_act", "res_count"))

    def test_folds_minimum(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(folds=1)

    def test_window_base_values(self):
        assert ExperimentConfig(window_base=3600.0).window_base == 3600.0
        assert ExperimentConfig(window_base=60).window_base == 60
        assert ExperimentConfig(window_base="train_median").window_base == "train_median"
        with pytest.raises(ConfigError):
            ExperimentConfig(window_base="median")

    @pytest.mark.parametrize("base", [-5.0, 0.0, math.inf, math.nan, None, True])
    def test_window_base_must_be_a_positive_finite_number(self, base):
        with pytest.raises(ConfigError, match="window_base"):
            ExperimentConfig(window_base=base)

    @pytest.mark.parametrize("values", [
        {"gamma": math.nan}, {"gamma": math.inf}, {"learning_rate": math.nan},
        {"learning_rate": math.inf}, {"scale_hi": math.inf}, {"scale_hi": math.nan},
        {"scale_lo": -1e308, "scale_hi": 1e308},
    ], ids=lambda values: ",".join(f"{k}={v}" for k, v in values.items()))
    def test_non_finite_values_rejected_at_construction(self, values):
        with pytest.raises(ConfigError):
            ExperimentConfig(**values)

    @pytest.mark.parametrize("name", [
        "qke_zz_0", "vqc_angle_-2", "qke_zz_01", "qke_zz_ 1", "qke_zz_+1", "qke_zz_\u0661",
    ])
    def test_bad_layer_count_rejected_at_construction(self, name):
        with pytest.raises(ConfigError, match="classifier"):
            ExperimentConfig(classifier=name)

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

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("min_prefix", 1.5), ("max_prefix", 2.5), ("k", True),
        ("folds", 2.5), ("epochs", 2.5), ("vqc_layers", 1.5), ("seed", 1.5), ("min_burst", 2.5),
        ("threads", 2.0), ("shots", 10.0),
    ])
    def test_integer_fields_reject_other_values(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("lengths", [(2.5,), (2, 2.0)])
    def test_prefix_lengths_must_be_integers(self, lengths):
        with pytest.raises(ConfigError, match="prefix_lengths must be integers"):
            ExperimentConfig(classifier="majority", folds=2, mode="prefix_grid",
                             prefix_lengths=lengths)

    @pytest.mark.parametrize("field, value", [
        ("C", 0.0), ("C", -1.0), ("C", float("nan")),
        ("tol", 0.0), ("tol", -1e-3), ("shots", 0), ("shots", -5),
    ])
    def test_out_of_range_values_rejected_before_any_work(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_range_bounds_accepted(self):
        assert ExperimentConfig(shots=None).shots is None
        assert ExperimentConfig(shots=1, C=1e-6, tol=1e-12).shots == 1

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
        # threads cannot change a result.
        assert a.fingerprint() == ExperimentConfig(seed=1, threads=2).fingerprint()

    def test_fingerprint_hashes_the_json_of_to_dict(self):
        cfg = ExperimentConfig(
            column_map={"case_id": "Case", "activity": "Task"}, mode="window_sweep",
            inter_features=("peer_cases", "avg_delay"), window_fractions=(0.2, 0.4),
            sampling_fractions=(1.0, 0.25), prefix_lengths=(2, 3), shots=64)
        kept = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "threads"}
        payload = json.dumps(kept, sort_keys=True, separators=(",", ":"))
        assert cfg.fingerprint() == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TestParseClassifier:
    def test_plain_names(self):
        for name in ("majority", "svc_linear", "svc_rbf"):
            assert bench._parse_classifier(name) == (name, None)

    def test_kernel_and_vqc_names(self):
        assert bench._parse_classifier("qke_zz_1") == ("qke", FeatureMapKind("zz", 1))
        assert bench._parse_classifier("qke_angle_2") == ("qke", FeatureMapKind("angle", 2))
        assert bench._parse_classifier("vqc_angle_zz_1") == ("vqc", FeatureMapKind("angle_zz", 1))
        assert bench._parse_classifier("vqc_zz_10") == ("vqc", FeatureMapKind("zz", 10))

    def test_zz_a_alias(self):
        assert bench._parse_classifier("qke_zz_a_1") == ("qke", FeatureMapKind("angle_zz", 1))

    def test_rejects_malformed(self):
        for name in ("qke", "qke_zz", "qke_zz_x", "qke_poly_1", "forest", "svc_zz_1", "qke__1"):
            with pytest.raises(ConfigError):
                bench._parse_classifier(name)

    @pytest.mark.parametrize("name, owner_message", [
        ("qke_zz_0", "layers must be >= 1"), ("vqc_angle_-2", "unknown classifier"),
        ("qke_zz_01", "unknown classifier"), ("qke_zz_ 1", "unknown classifier"),
        ("vqc_poly_1", "unknown feature map"),
    ])
    def test_map_and_layer_count_checked_once(self, name, owner_message):
        with pytest.raises(ConfigError, match=owner_message):
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
        # Fold 1 holds two b- and two c-cases, fold 0 one b- and three
        # c-cases. So fold 0 trains on a b/c tie, which goes to b and scores
        # 1/4 (c would score 3/4), and fold 1 trains on c and scores 2/4.
        ids = [f"c{i}" for i in range(8)]
        cfg = ExperimentConfig(classifier="majority", folds=2, max_prefix=1)
        only_a = make_log(*(make_trace(c, [("a", 10.0 * i)]) for i, c in enumerate(ids)))
        fold_of = make_cv_folds(build_prefix_log(only_a, 1, 1), cfg.folds,
                                derive_seed(cfg.seed, "folds")).fold_assignments
        nexts = {0: iter("bccc"), 1: iter("bbcc")}
        log = make_log(*(make_trace(c, [("a", 10.0 * i), (next(nexts[int(fold_of[i])]),
                                                             10.0 * i + 5)])
                         for i, c in enumerate(ids)))
        result = run_experiment(cfg, log, build_prefix_log(log, 1, 1))
        assert result.fold_accuracies == (0.25, 0.5)


def nul_label_log(tmp_path) -> str:
    """A 60-case CSV log: S, then A (20 cases), A\x00 (15) or B (25)."""
    rows = ["case_id,activity,timestamp,resource"]
    nexts = ["A"] * 20 + ["A\x00"] * 15 + ["B"] * 25
    for c, act in enumerate(nexts):
        rows += [f"c{c:02d},S,2023-01-01T00:{c:02d}:00,r",
                 f"c{c:02d},{act},2023-01-01T01:{c:02d}:00,r"]
    path = tmp_path / "nul.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestLabelCodes:
    def test_labels_differing_by_a_trailing_nul_stay_apart(self, tmp_path):
        # A fixed-width numpy string array drops trailing NULs, which would
        # merge A with A\x00 into one class of 35 cases against B's 25.
        cfg = ExperimentConfig(dataset=nul_label_log(tmp_path), classifier="majority",
                               folds=3, max_prefix=1)
        log, samples = prepare_samples(cfg)
        assert log.activity_vocab == ("A", "A\x00", "B", "S")
        result = run_experiment(cfg, log, samples)
        # The per-sample rule on the label strings: the most frequent train
        # label, the first by name on a tie.
        labels = samples.labels
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        want = []
        for fold in range(cfg.folds):
            train_idx, test_idx = folds.split(fold)
            train = [labels[i] for i in train_idx]
            top = min(set(train), key=lambda lab: (-train.count(lab), lab))
            want.append(sum(labels[i] == top for i in test_idx) / len(test_idx))
        assert result.fold_accuracies == tuple(want)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_svm_on_one_distinct_row_scores_the_majority_class(self, tmp_path, seed):
        # Every prefix is the one event S, so every one-vs-rest score ties on
        # every test row; the tie goes to the heaviest train class. Sending
        # it to class index 0 (A) instead scored a mean 0.333 on both seeds,
        # against the majority's 0.417.
        cfg = ExperimentConfig(dataset=nul_label_log(tmp_path), classifier="majority",
                               folds=3, max_prefix=1, seed=seed)
        log, samples = prepare_samples(cfg)
        majority = run_experiment(cfg, log, samples).fold_accuracies
        svc = run_experiment(dataclasses.replace(cfg, classifier="svc_rbf"), log,
                             samples).fold_accuracies
        assert svc == majority

    @pytest.mark.parametrize("classifier, accuracies", [
        ("majority", (1.0, 0.5, 0.5)),
        ("svc_rbf", (1.0, 0.5, 0.5)),
    ])
    def test_class_order_is_name_order_with_end_label(self, classifier, accuracies):
        # Z < __END__ < a by name, while END's label code is the last. Every
        # prefix is the one event Z, so the classifiers see one feature row.
        # The cases of fold 0 end after Z; folds 1 and 2 hold two Z -> a and
        # two Z-only cases each, so fold 0 trains on a tie between a and
        # __END__, which goes to __END__, the first by name, and scores 1.
        ids = [f"c{i:02d}" for i in range(12)]
        cfg = ExperimentConfig(classifier=classifier, folds=3, max_prefix=1)
        only_z = make_log(*(make_trace(c, [("Z", 10.0 * i)]) for i, c in enumerate(ids)))
        fold_of = make_cv_folds(build_prefix_log(only_z, 1, 1), cfg.folds,
                                derive_seed(cfg.seed, "folds")).fold_assignments
        seen = [0, 0, 0]
        traces = []
        for i, c in enumerate(ids):
            f = int(fold_of[i])
            spec = [("Z", 10.0 * i)] + ([("a", 10.0 * i + 5)] if f and seen[f] % 2 else [])
            seen[f] += 1
            traces.append(make_trace(c, spec))
        log = make_log(*traces)
        samples = build_prefix_log(log, 1, 1)
        assert log.activity_vocab == ("Z", "a")
        assert sorted(samples.labels).count("a") == 4
        assert run_experiment(cfg, log, samples).fold_accuracies == accuracies


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(classifier="qke_angle_1", k=2, folds=3, seed=5)
        log, samples = two_label_setup(cfg)
        a = run_experiment(cfg, log, samples)
        b = run_experiment(cfg, log, samples)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.kernel_evaluations == b.kernel_evaluations
        assert a.config_fingerprint == b.config_fingerprint

    def fold_rows(self, cfg, samples, distinct: bool):
        """Per fold, the train and test rows a kernel is built on (the
        distinct scaled rows, or every row), and how many of those test
        rows equal no train row."""
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        for fold in range(cfg.folds):
            train_idx, test_idx = folds.split(fold)
            x_train, x_test = bench._encode_fold(cfg, None, samples, train_idx, test_idx)
            if distinct:
                # Every case runs a -> b -> c, so rows repeat in every fold.
                assert len(np.unique(x_train, axis=0)) < len(x_train)
                x_train, x_test = np.unique(x_train, axis=0), np.unique(x_test, axis=0)
            new = sum(not (x_train == row).all(axis=1).any() for row in x_test)
            yield len(x_train), len(x_test), new

    def assert_counts_over(self, cfg, distinct: bool):
        log, samples = two_label_setup(cfg)
        rows = list(self.fold_rows(cfg, samples, distinct))
        result = run_experiment(cfg, log, samples)
        assert result.kernel_evaluations == sum(m * (m - 1) // 2 for m, _, _ in rows)
        assert result.cross_evaluations == sum(p * m for m, p, _ in rows)
        # A fold simulates its train rows once and only the test rows that
        # are not train rows; here every test row is one.
        assert sum(new for _, _, new in rows) == 0
        assert result.states_simulated == sum(m + new for m, _, new in rows)
        assert result.distinct_train_rows == sum(m for m, _, _ in rows)
        assert result.distinct_test_rows == sum(p for _, p, _ in rows)

    def test_kernel_evaluation_counts(self):
        self.assert_counts_over(
            ExperimentConfig(classifier="qke_angle_1", k=2, folds=3, seed=0), distinct=True)

    def test_shot_kernel_counts_every_row(self):
        # Each row of a shot kernel draws on its own, so no row is merged.
        self.assert_counts_over(
            ExperimentConfig(classifier="qke_angle_1", k=2, folds=3, seed=0, shots=50),
            distinct=False)

    def test_kernel_fold_lines_carry_their_states(self, caplog):
        cfg = ExperimentConfig(classifier="qke_zz_1", k=2, folds=3, seed=0)
        log = random_log(0, n_cases=12)
        samples = build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)
        with caplog.at_level(logging.INFO, logger="icppm.bench"):
            result = run_experiment(cfg, log, samples)
        lines = [r.getMessage() for r in caplog.records if "accuracy" in r.getMessage()]
        states = [int(line.split(" states=")[1].split()[0]) for line in lines]
        assert len(states) == cfg.folds and sum(states) == result.states_simulated > 0

    def test_classical_runs_report_zero_kernel_evals(self):
        cfg = ExperimentConfig(classifier="svc_rbf", k=2, folds=3)
        log, samples = two_label_setup(cfg)
        result = run_experiment(cfg, log, samples)
        assert result.kernel_evaluations == 0
        assert result.states_simulated == 0
        assert result.vqc_final_loss is None
        assert result.vqc_prior_loss is None
        assert len(result.fold_accuracies) == 3

    def test_vqc_branch(self, monkeypatch):
        # Two weight layers: a one-layer angle model simulates no state.
        cfg = ExperimentConfig(
            classifier="vqc_angle_1", k=2, folds=2, epochs=1, seed=1, vqc_layers=2
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
        # Every fold simulates its distinct (row, label) train groups once
        # and its distinct test rows once.
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        codes = samples.label_codes()
        want = 0
        for fold in range(cfg.folds):
            train_idx, test_idx = folds.split(fold)
            x_train, x_test = bench._encode_fold(cfg, None, samples, train_idx, test_idx)
            want += len(np.unique(np.column_stack([x_train, codes[train_idx]]), axis=0))
            want += len(np.unique(x_test, axis=0))
        assert result.states_simulated == want < cfg.folds * result.n_samples
        out = result.to_dict()
        assert out["vqc_final_loss"] == result.vqc_final_loss
        assert out["states_simulated"] == result.states_simulated

    def test_vqc_prior_loss_and_gradient_norms_are_fold_means(self, monkeypatch):
        cfg = ExperimentConfig(classifier="vqc_angle_1", k=2, folds=3, epochs=2, seed=0)
        # Labels a, b and the end label, in other proportions in each fold.
        log = random_log(0, n_cases=8, activities=("a", "b"))
        samples = build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)
        fits = []
        real = bench.vqc_train
        monkeypatch.setattr(bench, "vqc_train", lambda *a, **k: (
            fits.append(real(*a, **k)) or fits[-1]))
        result = run_experiment(cfg, log, samples)
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        priors = []
        for fold, model in enumerate(fits):
            # Each train row scored with its label's frequency in the fold.
            names = [samples[i].label for i in folds.split(fold)[0]]
            want = sum(-math.log(names.count(n) / len(names)) for n in names) / len(names)
            assert vqc.prior_loss(names) == pytest.approx(want, abs=1e-15)
            assert len(model.grad_norms) == cfg.epochs
            priors.append(want)
        assert len(set(priors)) > 1
        assert result.vqc_prior_loss == pytest.approx(np.mean(priors), abs=1e-15)
        assert result.vqc_initial_grad_norm == np.mean([m.grad_norms[0] for m in fits])
        assert result.vqc_final_grad_norm == np.mean([m.grad_norms[-1] for m in fits])
        out = result.to_dict()
        for name in ("vqc_prior_loss", "vqc_initial_grad_norm", "vqc_final_grad_norm"):
            assert out[name] == getattr(result, name)
        # Zero epochs take no gradient; the prior loss is still recorded.
        untrained = run_experiment(dataclasses.replace(cfg, epochs=0), log, samples)
        assert untrained.vqc_prior_loss == result.vqc_prior_loss
        assert untrained.vqc_initial_grad_norm is None
        assert untrained.vqc_final_grad_norm is None

    def test_verbose_names_vqc_folds_near_the_prior_loss(self, monkeypatch, caplog):
        cfg = ExperimentConfig(classifier="vqc_angle_1", k=2, folds=3, epochs=2, seed=0)
        log = random_log(0, n_cases=8, activities=("a", "b"))
        samples = build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)
        fits = []
        real = bench.vqc_train
        monkeypatch.setattr(bench, "vqc_train", lambda *a, **k: (
            fits.append(real(*a, **k)) or fits[-1]))
        with caplog.at_level(logging.INFO, logger="icppm.bench"):
            run_experiment(cfg, log, samples)
        lines = [r.getMessage() for r in caplog.records if "prior loss" in r.getMessage()]
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        want = []
        for fold, model in enumerate(fits):
            names = [samples[i].label for i in folds.split(fold)[0]]
            final, prior = model.loss_history[-1], vqc.prior_loss(names)
            if final > prior - bench.VQC_PRIOR_MARGIN:
                want.append(f"fold {fold + 1}/3: VQC final loss {final:.4f} is not "
                            f"{bench.VQC_PRIOR_MARGIN:g} below the prior loss {prior:.4f}")
        # Two epochs at the default learning rate learn little.
        assert want and lines == want

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


class TestVqcFoldGroups:
    """An exact VQC fold trains on its (row, label) groups, weighted by their
    counts; a shot fold keeps one row per sample."""

    CFG = ExperimentConfig(classifier="vqc_angle_1", k=2, folds=3, epochs=2, seed=0)

    def capture(self, monkeypatch, cfg, log_seed: int = 0):
        """Run ``cfg`` on a seeded random log; returns the fold data
        (x_train, train label names, x_test) and the arguments of every
        ``vqc_train`` and ``vqc_predict`` call."""
        log = random_log(log_seed, n_cases=8, activities=("a", "b"))
        samples = build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)
        trained, predicted = [], []
        real_train, real_predict = bench.vqc_train, bench.vqc_predict
        monkeypatch.setattr(bench, "vqc_train", lambda xs, ys, *a, **k: (
            trained.append((xs, ys, k["sample_weight"])) or real_train(xs, ys, *a, **k)))
        monkeypatch.setattr(bench, "vqc_predict", lambda model, xs, *a: (
            predicted.append(xs) or real_predict(model, xs, *a)))
        result = run_experiment(cfg, log, samples)
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        fold_data = []
        for fold in range(cfg.folds):
            train_idx, test_idx = folds.split(fold)
            x_train, x_test = bench._encode_fold(cfg, None, samples, train_idx, test_idx)
            fold_data.append((x_train, [samples[i].label for i in train_idx], x_test))
        # Label codes are ranks by name, so sorted names map them back.
        names = sorted(samples.log.activity_vocab + (END_LABEL,))
        return result, fold_data, trained, predicted, names

    def test_exact_fold_trains_on_its_groups(self, monkeypatch):
        result, fold_data, trained, predicted, names = self.capture(monkeypatch, self.CFG)
        regrouped = 0
        for (x_train, labels, x_test), (xs, ys, counts), test_rows in zip(
                fold_data, trained, predicted):
            groups = [(tuple(x), names[y]) for x, y in zip(xs.tolist(), ys)]
            assert len(set(groups)) == len(groups)
            assert counts.sum() == len(x_train)
            want = collections.Counter(zip(map(tuple, x_train.tolist()), labels))
            assert dict(zip(groups, counts.tolist())) == want
            regrouped += len(groups) > len(np.unique(x_train, axis=0))
            assert np.array_equal(test_rows, np.unique(x_test, axis=0))
        # The log holds rows with two labels as well as repeated rows.
        assert regrouped
        # An exact one-layer angle model scores parity patterns, no states.
        assert result.states_simulated == 0

    def test_shot_fold_passes_one_row_per_sample(self, monkeypatch):
        cfg = dataclasses.replace(self.CFG, shots=50)
        result, fold_data, trained, predicted, names = self.capture(monkeypatch, cfg)
        for (x_train, labels, x_test), (xs, ys, counts), test_rows in zip(
                fold_data, trained, predicted):
            assert np.array_equal(xs, x_train)
            assert [names[y] for y in ys] == labels
            assert np.all(counts == 1)
            assert np.array_equal(test_rows, x_test)
        assert result.states_simulated == result.n_samples * cfg.folds

    @pytest.mark.parametrize("log_seed", [0, 1, 2, 3])
    def test_grouped_accuracies_equal_ungrouped(self, monkeypatch, log_seed):
        cfg = dataclasses.replace(self.CFG, epochs=5)
        grouped = self.capture(monkeypatch, cfg, log_seed)[0]
        monkeypatch.undo()
        real = bench._distinct_rows
        monkeypatch.setattr(bench, "_distinct_rows", lambda x, merge: real(x, False))
        ungrouped = self.capture(monkeypatch, cfg, log_seed)[0]
        rows = lambda result: result.distinct_train_rows + result.distinct_test_rows
        assert rows(ungrouped) == ungrouped.n_samples * cfg.folds
        # Log 1 repeats rows only with two labels: its distinct rows are its
        # rows, sorted.
        assert rows(grouped) <= rows(ungrouped)
        assert grouped.fold_accuracies == ungrouped.fold_accuracies
        assert grouped.vqc_final_loss == pytest.approx(ungrouped.vqc_final_loss, abs=1e-12)


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
        all_cases = set(log.case_ids)

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
            cases = set(lg.case_ids)
            assert cases == train_case_sets[fold]
            assert cases < all_cases
        for fold, lg in enumerate(seen_batch_logs):
            assert set(lg.case_ids) == train_case_sets[fold]
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
        # Two weight layers, so that the VQC simulates states to count.
        cfg = dataclasses.replace(self._cfg(), classifier=classifier, k=2, epochs=2,
                                  vqc_layers=2)
        log, samples = two_label_setup(cfg, n_cases=8)
        *runs, avg = sweep(cfg, log=log, samples=samples)
        summed = ("fit_time_s", "gram_time_s", "kernel_evaluations", "cross_evaluations",
                  "states_simulated", "smo_iterations", "encode_time_s",
                  "distinct_train_rows", "distinct_test_rows")
        for name in summed:
            assert getattr(avg, name) == sum(getattr(r, name) for r in runs), name
        assert avg.states_simulated > 0
        if classifier == "vqc_angle_1":
            for name in bench.MEANS:
                assert getattr(avg, name) == np.mean([getattr(r, name) for r in runs]), name
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
        with pytest.raises(ConfigError, match="both"):
            prepare_samples(ExperimentConfig(
                dataset=str(path), classifier="majority", folds=2, date_start="2023-03-01"
            ))


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


def _duplicate_heavy(seed: int) -> np.ndarray:
    """400 rows drawn from 30 distinct ones over 5 columns of 3 values each,
    so rows often tie on their leading columns."""
    rng = np.random.default_rng(seed)
    distinct = rng.choice([0.0, 0.5, math.pi], size=(30, 5))
    return distinct[rng.integers(0, 30, size=400)]


class TestDistinctRows:
    @pytest.mark.parametrize("x", [
        _duplicate_heavy(0),
        _duplicate_heavy(1),
        np.array([[0.25, 1.0, 3.0]]),
        np.full((6, 4), 1.5),
        np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0]]),
    ], ids=["duplicates0", "duplicates1", "one_row", "all_equal", "signed_zeros"])
    def test_matches_np_unique(self, x):
        rows, row_of = bench._distinct_rows(x, merge=True)
        want_rows, want_of = np.unique(x, axis=0, return_inverse=True)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(row_of, want_of.reshape(-1))
        assert np.array_equal(rows[row_of], x)


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

    def test_distinct_rows_in_results_json_only(self, tmp_path, caplog):
        for classifier in ("svc_rbf", "vqc_angle_1"):
            cfg = ExperimentConfig(classifier=classifier, k=2, folds=2, epochs=1)
            log, samples = two_label_setup(cfg)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="icppm.bench"):
                result = run_experiment(cfg, log, samples)
            # Every case runs a -> b -> c: three distinct rows per train fold.
            fold_lines = [r.getMessage() for r in caplog.records if "accuracy" in r.getMessage()]
            assert [line.split(" rows=")[1].split()[0] for line in fold_lines] == ["3/18", "3/18"]
            assert (result.distinct_train_rows, result.distinct_test_rows) == (6, 6)
            csv_path, json_path = emit_results([result], tmp_path / classifier)
            run = json.loads(json_path.read_text())["runs"][0]
            assert (run["distinct_train_rows"], run["distinct_test_rows"]) == (6, 6)
            assert "rows" not in csv_path.read_text()

    def test_encoder_returns_one_block_per_call(self):
        cfg = ExperimentConfig(classifier="majority", window_base=300.0,
                               inter_features=("peer_cases", "avg_delay"))
        log, samples = two_label_setup(cfg)
        encode = bench.fit_encoder(cfg, log, bench.EventIndex(log))
        block = encode(samples)
        assert block.values.shape == (len(samples), 4 + 2)
        assert block.schema[-2:] == ("peer_cases", "avg_delay")
        assert encode(samples[:1]).values.tolist() == block.values[:1].tolist()
