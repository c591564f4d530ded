from __future__ import annotations

import json
import math

import pytest

from conftest import make_log, make_trace, xes_doc
from icppm import bench, oracles
from icppm.bench import ExperimentConfig
from icppm.cli import main
from icppm.errors import ConfigError
from icppm.eventlog import parse_csv, write_csv
from icppm.oracles import MAX_ORACLE_QUBITS, run_kernel_check


@pytest.fixture
def log_path(tmp_path):
    log = make_log(
        make_trace("c1", [("a", 0, "r1"), ("b", 60, "r2"), ("c", 120, "r1")]),
        make_trace("c2", [("a", 10, "r1"), ("b", 80, "r2"), ("c", 140, "r2")]),
        make_trace("c3", [("a", 20, "r2"), ("c", 90, "r1"), ("c", 150, "r1")]),
        make_trace("c4", [("a", 30, "r1"), ("b", 95, "r1"), ("c", 160, "r2")]),
    )
    path = tmp_path / "events.csv"
    with path.open("w") as sink:
        write_csv(log, sink)
    return path


class TestStats:
    def test_text_output(self, log_path, capsys):
        assert main(["stats", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "cases: 4" in out
        assert "events: 12" in out
        assert "activities: 3" in out

    def test_json_output(self, log_path, capsys):
        assert main(["stats", str(log_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cases"] == 4
        assert stats["events"] == 12
        assert stats["variants"] == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "ghost.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_inverted_date_range_exits_2(self, log_path, capsys):
        code = main([
            "stats", str(log_path),
            "--date-start", "20230401", "--date-end", "20230301",
        ])
        assert code == 2

    def test_date_range(self, tmp_path, capsys):
        log = make_log(make_trace("c1", [("a", 0)]), make_trace("c2", [("a", 4 * 86400)]))
        path = tmp_path / "two-days.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        assert main(["stats", str(path), "--date-start", "20230304",
                     "--date-end", "20230306"]) == 0
        assert "cases: 1" in capsys.readouterr().out

    def test_half_open_date_range_exits_2(self, log_path):
        assert main(["stats", str(log_path), "--date-start", "20230301"]) == 2

    def test_filter_singletons(self, log_path, capsys):
        assert main(["stats", str(log_path), "--filter-singletons"]) == 0
        assert "cases: 3" in capsys.readouterr().out

    def test_duplicate_xes_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.xes"
        path.write_bytes(xes_doc([("t1", [("a", "2023-01-01T10:00:00Z", None)], {}),
                                  ("t1", [("b", "2023-01-01T11:00:00Z", None)], {})]))
        assert main(["stats", str(path)]) == 2
        assert "duplicate case id" in capsys.readouterr().err

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"case_id,activity,timestamp\nc1,caf\xe9,2023-01-01T10:00:00Z\n")
        assert main(["stats", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err


class TestPrepare:
    def test_writes_round_trippable_csv(self, log_path, tmp_path, capsys):
        out = tmp_path / "prepared.csv"
        assert main(["prepare", str(log_path), "--out", str(out)]) == 0
        assert "wrote 4 cases" in capsys.readouterr().out
        with out.open() as fh:
            log = parse_csv(fh)
        assert len(log) == 4
        assert log.n_events == 12

    def test_xes_and_its_csv_give_the_same_stats(self, tmp_path, capsys):
        # A trace without events, an empty attribute value and an empty case id.
        xes = tmp_path / "odd.xes"
        xes.write_bytes(xes_doc([
            ("t0", [], {}),
            ("t1", [("a", "2023-01-01T10:00:00Z", "r1")], {"k": ""}),
            ("", [("b", "2023-01-01T11:00:00Z", None)], {}),
        ]))
        out = tmp_path / "odd.csv"
        assert main(["prepare", str(xes), "--out", str(out)]) == 0
        assert "wrote 2 cases" in capsys.readouterr().out
        lines = []
        for path in (xes, out):
            assert main(["stats", str(path), "--json"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert json.loads(lines[0])["cases"] == 2

    def test_creates_parent_directories(self, log_path, tmp_path):
        out = tmp_path / "deep" / "dir" / "prepared.csv"
        assert main(["prepare", str(log_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_parent_that_is_a_file_exits_2(self, log_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["prepare", str(log_path), "--out", str(blocker / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestEncode:
    def test_feature_csv_shape(self, log_path, tmp_path, capsys):
        out = tmp_path / "features.csv"
        code = main(["encode", str(log_path), "--out", str(out), "--k", "2"])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["act_1", "act_2", "res_1", "res_2", "label"]
        assert len(lines) - 1 == 12
        assert "wrote 12 samples x 4 features" in capsys.readouterr().out

    def test_inter_feature_adds_column(self, log_path, tmp_path):
        out = tmp_path / "features.csv"
        code = main([
            "encode", str(log_path), "--out", str(out), "--k", "2",
            "--inter", "peer_cases",
        ])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[-2:] == ["peer_cases", "label"]

    def test_no_scale_keeps_raw_codes(self, log_path, tmp_path):
        out = tmp_path / "features.csv"
        assert main([
            "encode", str(log_path), "--out", str(out), "--k", "1", "--no-scale",
        ]) == 0
        first = out.read_text().splitlines()[1].split(",")
        values = [float(v) for v in first[:-1]]
        assert all(v == int(v) for v in values)

    def test_defaults_come_from_the_config(self, log_path, tmp_path):
        d = ExperimentConfig()
        spelled_out = [
            "--encoder", d.encoder, "--k", str(d.k), "--static-attrs", ",".join(d.static_attrs),
            "--window-fraction", repr(d.window_fraction), "--epsilon", repr(d.epsilon),
            "--min-burst", str(d.min_burst), "--min-prefix", str(d.min_prefix),
            "--slice-rule", d.slice_rule,
        ]
        outs = []
        for flags in ([], spelled_out):
            out = tmp_path / f"features{len(outs)}.csv"
            assert main(["encode", str(log_path), "--out", str(out),
                         "--inter", "avg_delay,batch", *flags]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_is_gone(self, log_path, tmp_path):
        # Encoding draws nothing, so there is no seed to set.
        with pytest.raises(SystemExit) as exc:
            main(["encode", str(log_path), "--out", str(tmp_path / "x.csv"), "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_encoder_exits_2(self, log_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", str(log_path), "--out", str(tmp_path / "x.csv"),
                  "--encoder", "one_hot"])
        assert exc.value.code == 2

    def test_too_many_inter_features_exits_2(self, log_path, tmp_path):
        code = main([
            "encode", str(log_path), "--out", str(tmp_path / "x.csv"),
            "--inter", "peer_cases,peer_act,res_count",
        ])
        assert code == 2


class TestBench:
    def _config(self, tmp_path, log_path, **extra):
        cfg = {
            "dataset": str(log_path),
            "classifier": "majority",
            "folds": 2,
            "seed": 3,
        }
        cfg.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_experiment_writes_results(self, log_path, tmp_path, capsys):
        cfg = self._config(tmp_path, log_path)
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "results.json").exists()

    # A majority classifier ignores most of these keys; each bad value still
    # fails as a config error before the log is parsed.
    @pytest.mark.parametrize("values", [
        {"encoder": "onehot"}, {"k": 0}, {"slice_rule": "some"},
        {"min_prefix": 0}, {"min_prefix": 3, "max_prefix": 2},
        {"date_start": "2023-02-30", "date_end": "20230301"},
        {"date_start": "20230301"}, {"date_end": "20230301"},
        {"date_start": "20230401", "date_end": "20230301"}, {"encoder": "static"},
        {"scale_lo": 1.0, "scale_hi": 1.0}, {"gamma": 0.0},
        {"window_fraction": 0.0}, {"epsilon": 0.0}, {"min_burst": 1},
        {"learning_rate": 0.0}, {"epochs": -1}, {"vqc_layers": 0}, {"opt_method": "adam"},
        {"gamma": math.nan}, {"gamma": math.inf}, {"scale_hi": math.inf},
        {"scale_lo": -1e308, "scale_hi": 1e308}, {"learning_rate": math.inf},
        {"learning_rate": math.nan}, {"window_base": -5.0}, {"classifier": "qke_zz_0"},
        {"classifier": "vqc_angle_-2"}, {"classifier": "qke_zz_01"},
        {"C": "1"}, {"filter_singletons": "false"}, {"fmt": "parquet"},
    ], ids=lambda values: ",".join(f"{k}={v}" for k, v in values.items()))
    def test_bad_value_rejected_before_the_log_is_read(self, log_path, tmp_path, monkeypatch,
                                                      capsys, values):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(values)
        monkeypatch.setattr(bench, "load_log", lambda *_: pytest.fail("the log was read"))
        cfg = self._config(tmp_path, log_path, **values)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_same_seed_reproduces_csv(self, log_path, tmp_path):
        cfg = self._config(tmp_path, log_path, classifier="qke_angle_1", k=2)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d2)]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_exact_flag_drops_configured_shots(self, log_path, tmp_path):
        shots = self._config(tmp_path, log_path, classifier="qke_angle_1", k=2, shots=50)
        exact = tmp_path / "exact.json"
        exact.write_text(json.dumps({**json.loads(shots.read_text()), "shots": None}))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(shots), "--exact", "--out-dir", str(d1)]) == 0
        assert main(["bench", "--config", str(exact), "--out-dir", str(d2)]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        # On this log the accuracies also agree in shot mode; the counters do not.
        runs = [json.loads((d / "results.json").read_text())["runs"] for d in (d1, d2)]
        untimed = [[{k: v for k, v in r.items() if not k.endswith("_time_s")} for r in rs]
                   for rs in runs]
        assert untimed[0] == untimed[1]

    def test_log_without_prefix_samples_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.xes"
        path.write_bytes(b"<log/>")
        cfg = self._config(tmp_path, path)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        assert "no prefix samples" in capsys.readouterr().err

    def test_seed_override_changes_fingerprint(self, log_path, tmp_path):
        cfg = self._config(tmp_path, log_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d2),
                     "--seed", "99"]) == 0
        j1 = json.loads((d1 / "results.json").read_text())
        j2 = json.loads((d2 / "results.json").read_text())
        assert j1["runs"][0]["seed"] == 3
        assert j2["runs"][0]["seed"] == 99

    def test_window_sweep_mode(self, log_path, tmp_path):
        cfg = self._config(
            tmp_path, log_path,
            mode="window_sweep",
            inter_features=["peer_cases"],
            window_fractions=[0.15, 0.3],
        )
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        runs = json.loads((out_dir / "results.json").read_text())["runs"]
        assert len(runs) == 3
        assert runs[-1]["features"].endswith("@avg")

    def test_threads_flag_is_gone(self, log_path, tmp_path):
        cfg = self._config(tmp_path, log_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2

    def test_threads_config_key_still_accepted(self, log_path, tmp_path):
        cfg = self._config(tmp_path, log_path, threads=2)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 0

    def test_sampling_fraction_above_one_exits_2(self, log_path, tmp_path, capsys):
        cfg = self._config(tmp_path, log_path, sampling_fraction=1.5)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "sampling_fraction" in capsys.readouterr().err

    def test_nonpositive_c_exits_2_before_the_run(self, log_path, tmp_path, capsys):
        cfg = self._config(tmp_path, log_path, classifier="svc_rbf", C=0)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        assert "C must be positive" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_shots_flag_exits_2(self, log_path, tmp_path, capsys):
        cfg = self._config(tmp_path, log_path, classifier="qke_angle_1", k=2)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r"),
                     "--shots", "0"]) == 2
        assert "shots must be >= 1" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_exits_2_before_any_fold(self, log_path, tmp_path,
                                                            monkeypatch, capsys):
        cfg = self._config(tmp_path, log_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(bench, "sweep", lambda *_: pytest.fail("a fold ran"))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_cache_dir_key_exits_2_before_any_fold(self, log_path, tmp_path, monkeypatch,
                                                   capsys):
        # Gram matrices are rebuilt per fold; there is no cache to point at.
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"classifier": "qke_zz_1", "cache_dir": "x"})
        cfg = self._config(tmp_path, log_path, classifier="qke_zz_1", k=2, cache_dir="x")
        monkeypatch.setattr(bench, "sweep", lambda *_: pytest.fail("a fold ran"))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cache_dir" in err

    @pytest.mark.parametrize("classifier", ["svc_rbf", "vqc_angle_1"])
    def test_one_class_labels_exit_1(self, tmp_path, classifier, capsys):
        # One-event cases: every prefix is labelled END, so no fold has two classes.
        log = make_log(*(make_trace(f"c{i}", [("a", 60 * i)]) for i in range(4)))
        path = tmp_path / "one-class.csv"
        with path.open("w") as sink:
            write_csv(log, sink)
        cfg = self._config(tmp_path, path, classifier=classifier, k=2, epochs=1)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 1
        assert "2 classes" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "none.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": "ghost.csv", "classifier": "majority"}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", ["42", "null", "[]", '[["x"]]', '"abc"'])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        # Each once died with a TypeError or AttributeError traceback, or,
        # like "abc", reported its characters as unknown keys.
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "a config must map keys to values" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"classifiers": ["majority"]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestEndLabelActivity:
    """A log with an activity named __END__, the end-of-case label."""

    @pytest.fixture
    def end_path(self, tmp_path):
        path = tmp_path / "end.csv"
        with path.open("w") as sink:
            write_csv(make_log(make_trace("c1", [("a", 0), ("__END__", 60)]),
                               make_trace("c2", [("a", 10), ("b", 70)])), sink)
        return path

    def test_stats_and_prepare_accept_it(self, end_path, tmp_path, capsys):
        assert main(["stats", str(end_path)]) == 0
        assert "activities: 3" in capsys.readouterr().out
        assert main(["prepare", str(end_path), "--out", str(tmp_path / "out.csv")]) == 0

    def test_encode_exits_2(self, end_path, tmp_path, capsys):
        assert main(["encode", str(end_path), "--out", str(tmp_path / "f.csv")]) == 2
        assert "'__END__' is reserved" in capsys.readouterr().err

    def test_bench_exits_2(self, end_path, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": str(end_path), "classifier": "majority",
                                   "folds": 2}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        assert "'__END__' is reserved" in capsys.readouterr().err


class TestKernelCheck:
    def test_passes_on_healthy_simulator(self, capsys):
        code = main(["kernel-check", "--qubits", "3", "--samples", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_detects_injected_error(self, capsys):
        code = main(["kernel-check", "--qubits", "3", "--samples", "4",
                     "--self-test-perturb"])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "batched VQC scores differ from dense oracle" in out
        assert "VQC parameter-shift gradient differs" in out
        assert "VQC adjoint gradient differs" in out
        # The one-weight-layer angle model, scored from parity patterns.
        assert "VQC adjoint gradient differs from dense oracle (1-layer model)" in out

    def test_qubit_cap(self, capsys):
        assert main(["kernel-check", "--qubits", "21"]) == 2
        assert "capped" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sample_count_checked(self, capsys, samples):
        assert main(["kernel-check", "--samples", samples]) == 2
        assert "at least one sample" in capsys.readouterr().err

    def test_all_feature_maps(self):
        for fm in ("angle", "zz", "angle_zz"):
            assert main(["kernel-check", "--qubits", "2", "--samples", "3",
                         "--feature-map", fm]) == 0

    def test_beyond_dense_cap(self):
        # Above MAX_ORACLE_QUBITS the per-pair overlap is the only reference:
        # zz x 1 runs no gate on the batched path, zz x 2 runs H gates and
        # angle_zz per-row RY gates.
        n = MAX_ORACLE_QUBITS + 1
        for variant, layers in (("zz", 1), ("zz", 2), ("angle_zz", 1), ("angle_zz", 2)):
            report = run_kernel_check(n, variant, layers=layers, n_samples=3)
            assert report["passed"], (variant, layers, report["failures"])
            assert report["dense_oracle"] is False
            perturbed = run_kernel_check(n, variant, layers=layers, n_samples=3, perturb=1.0)
            assert not perturbed["passed"], (variant, layers)

    def test_angle_closed_form_checks_batched_entries_beyond_dense_cap(self, monkeypatch):
        n = MAX_ORACLE_QUBITS + 1
        assert run_kernel_check(n, "angle", layers=2, n_samples=3)["passed"]
        real = oracles.angle_kernel_closed_form
        monkeypatch.setattr(oracles, "angle_kernel_closed_form",
                            lambda *args: real(*args) + 1e-9)
        failures = "\n".join(run_kernel_check(n, "angle", layers=2, n_samples=3)["failures"])
        assert "batched cross differs from closed form" in failures
        assert "batched Gram differs from closed form" in failures
