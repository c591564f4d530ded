"""The traced benchmark run keeps working against the pipeline.

``perfbench/spans.py`` swaps layer names inside ``icppm.bench`` for timing
wrappers; these tests load it (and the workload table in ``perfbench/run.py``)
by path and run it on small logs, so a renamed or reshaped layer shows up
here rather than only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

import icppm.bench as bench
from icppm.encoding import apply_scaler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
run = _load("run")

# Workload -> events in the small log the traced run reads.
SMALL = {"encode_window": 400, "svc_smo": 400, "qke_gram": 30, "vqc_train": 45}


@pytest.fixture(params=sorted(SMALL))
def traced(request, tmp_path):
    workload = request.param
    spec = run.WORKLOADS[workload]
    path = tmp_path / f"{workload}.csv"
    run.synth.write_csv(
        run.synth.generate(1, SMALL[workload], spec.get("dominant_p", run.synth.DOMINANT_P)),
        path,
    )
    cfg = bench.ExperimentConfig.from_dict(
        {**run.BASE_CONFIG, **spec["config"], "dataset": str(path)}
    )
    rec, result = spans.traced_run(bench, cfg)
    return workload, cfg, rec, result


def test_span_self_times_add_up(traced):
    _, cfg, rec, result = traced
    assert abs(spans.unaccounted_s(rec)) <= 1e-6
    assert result.fold_accuracies == bench.run_experiment(cfg).fold_accuracies


def test_probe_rows_are_one_dimensional(traced):
    workload, _, rec, _ = traced
    train, params = rec.captured["scaler"][0]
    d = len(params.schema)
    rows = [apply_scaler(v, params).values for v in train]
    assert rows and all(r.shape == (d,) for r in rows)
    probe = run.qsim_probe(workload, rec)
    assert math.isfinite(probe["qsim.state_s"]) and probe["qsim.gates_per_state"] > 0


def test_layer_calls_per_fold(traced):
    _, cfg, rec, _ = traced
    metrics = spans.layer_metrics(rec)
    # One block of train and test rows per fold; one fit and one apply of
    # the scaler.
    assert metrics["encoding.intra_calls"] == cfg.folds
    assert metrics["intercase.encode_calls"] == cfg.folds
    assert metrics["encoding.scale_calls"] == 2 * cfg.folds


def test_traced_outputs_pass_the_benchmark_checks(traced):
    # Oracle kernel entries, a symmetric unit-diagonal Gram and a falling VQC loss.
    workload, _, rec, _ = traced
    assert run.check_outputs(workload, rec, 1) == []
