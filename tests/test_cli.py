from __future__ import annotations

import json

import pytest

from conftest import make_log, make_trace, xes_doc
from icppm.cli import main
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

    def test_creates_parent_directories(self, log_path, tmp_path):
        out = tmp_path / "deep" / "dir" / "prepared.csv"
        assert main(["prepare", str(log_path), "--out", str(out)]) == 0
        assert out.exists()


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

    def test_same_seed_reproduces_csv(self, log_path, tmp_path):
        cfg = self._config(tmp_path, log_path, classifier="qke_angle_1", k=2)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d2)]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

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

    def test_sampling_fraction_above_one_exits_2(self, log_path, tmp_path, capsys):
        cfg = self._config(tmp_path, log_path, sampling_fraction=1.5)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "sampling_fraction" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "none.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": "ghost.csv", "classifier": "majority"}))
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"classifiers": ["majority"]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


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

    def test_qubit_cap(self, capsys):
        assert main(["kernel-check", "--qubits", "21"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_all_feature_maps(self):
        for fm in ("angle", "zz", "angle_zz"):
            assert main(["kernel-check", "--qubits", "2", "--samples", "3",
                         "--feature-map", fm]) == 0

    def test_beyond_dense_cap(self):
        # Above MAX_ORACLE_QUBITS the per-pair overlap is the only reference.
        n = MAX_ORACLE_QUBITS + 1
        report = run_kernel_check(n, "zz", n_samples=3)
        assert report["passed"], report["failures"]
        assert report["dense_oracle"] is False
        assert not run_kernel_check(n, "zz", n_samples=3, perturb=1.0)["passed"]
