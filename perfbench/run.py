"""Pipeline benchmark: one cross-validated icppm run per classifier family.

Run from the repository root:

    python3 perfbench/run.py --workload qke_gram --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one client in this one process runs one
cross-validated ``icppm.bench.run_experiment`` at a time, reading a seeded
synthetic log from disk, so parsing is on the timed path. A workload may draw
several logs from one seed; its runs then cycle through them, and ``run_s``
is the mean over the logs of each log's median run time.

For ``--seconds`` seconds the runs are timed: with ``--trace 0`` they run
untraced and the end-to-end metrics are printed; with ``--trace 1`` untraced
and traced runs alternate and the per-layer metrics are printed, and the
spans of the last traced run are written to ``.bench_out/``. A last traced
run then has its outputs checked against the oracles in ``icppm.oracles``.

``run_s`` and ``setup_s`` are wall times rescaled to the speed of a reference
machine, measured by speed samples: a fixed ~1 ms loop that uses nothing
from icppm. During each run a timer signal takes one every 0.1 s (see
``timed``); each set-up is bracketed by five before and five after. On a
shared machine whose speed drifts, this keeps the figures comparable between
invocations; the raw wall times are kept in the report line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine the numbers were taken on.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import synth  # noqa: E402

SETUP_REPEATS = 5
SETUP_SAMPLES = 5
MIN_TIMED_RUNS = 3
PROBE_ROWS = 16
ORACLE_TOL = 1e-12
# Seconds between speed samples during a measurement, and the mean time of
# one speed_sample() during runs on the reference machine: a 2-core Intel
# Xeon, Python 3.11, numpy 2.4.6 with OpenBLAS on one thread.
SAMPLE_PERIOD_S = 0.1
REFERENCE_SAMPLE_S = 0.0013
# A fixed glibc mmap threshold: every block of 128 KiB or more is mapped on
# allocation and unmapped on free. By default glibc raises the threshold
# after each large free, so whether a ~30 MB kernel matrix later lands on the
# heap, where freed pages stay resident, depends on the order of earlier
# frees; peak_rss_mb then jumped by 15 MB between seeds of the same size.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
BASE_CONFIG = {"encoder": "index_bsd", "k": 4, "folds": 3, "threads": 1, "seed": 0}

# events and dominant_p shape the generated log (see synth.py); logs is how
# many logs one seed draws (default 1); config is
# passed to icppm.bench.ExperimentConfig; feature_map is the quantum
# classifier's map. The comment on each entry says why the workload is in the
# benchmark; BENCHMARK.json repeats it with the share of run_s held by the
# layer named there. The quantum workloads use a noiseless chain so that
# their small logs have the same structure, work and accuracy under every seed.
WORKLOADS = {
    # Parsing, prefix expansion and the window features; the classifier
    # costs nothing, so kernel, SVM and VQC changes must leave it unchanged.
    "encode_window": {
        "events": 6000,
        "config": {"classifier": "majority", "inter_features": ["peer_cases", "avg_delay"]},
    },
    # SMO on one-vs-rest problems over the classical RBF kernel path. The
    # noisier chain makes the classes overlap, so SMO outweighs encoding;
    # C=0.3 keeps its iteration count steadier across seeds than C=1. The
    # SMO iteration count of one log still varies by 9% (coefficient of
    # variation) from seed to seed, so each seed draws four logs.
    "svc_smo": {
        "events": 2000,
        "logs": 4,
        "dominant_p": 0.7,
        "config": {"classifier": "svc_rbf", "inter_features": ["freq_act", "batch"],
                   "C": 0.3},
    },
    # The paper's headline classifier: every kernel entry is simulated.
    "qke_gram": {
        "events": 30,
        "dominant_p": 1.0,
        "config": {"classifier": "qke_zz_2", "inter_features": ["peer_cases"]},
        "feature_map": ("zz", 2),
    },
    # Parameter-shift training: weight layers, shifted re-simulation and a
    # marginal readout. The learning rate makes 5 epochs lower the loss.
    "vqc_train": {
        "events": 45,
        "dominant_p": 1.0,
        "config": {"classifier": "vqc_angle_1", "inter_features": ["peer_cases"],
                   "epochs": 5, "learning_rate": 0.5},
        "feature_map": ("angle", 1),
    },
}
# Workloads whose accuracy must beat the majority class on the same folds.
BEAT_MAJORITY = ("svc_smo", "qke_gram")
# The qsim probe uses the workload's feature map, or this one for classical workloads.
DEFAULT_FEATURE_MAP = ("zz", 2)
UNITS = {"run_s": "s", "accuracy": "fraction", "setup_s": "s",
         "peak_rss_mb": "MB", "success_rate": "fraction"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import icppm.bench; print(time.perf_counter() - t)"
)


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        # What `nproc` would print if OMP_NUM_THREADS, set above, did not cap it.
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_mmap_threshold": os.environ["MALLOC_MMAP_THRESHOLD_"],
    }


def speed_sample() -> tuple[float, float]:
    """Seconds for a fixed ~1 ms mix of Python and small-array numpy work,
    and the seconds the whole call took.

    It uses nothing from icppm, so it measures only how fast the machine is
    running at the moment. The work runs twice and only the second pass is
    timed, and the garbage collector is held off, so that the sample does not
    depend on what the measured code left in the caches or on its heap.
    """
    import numpy as np

    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(2):
        a = np.ones(512, dtype=np.complex128)
        b = np.full(256, 0.5 + 0.5j)
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(3_300):
            total += i * i % 7
            table[i & 1023] = total
        for _ in range(100):
            v = a.reshape(2, 256)
            v[1] *= b
            a = v.reshape(512)
            float(np.sum(np.abs(a)))
    end = time.perf_counter()
    if collecting:
        gc.enable()
    return end - t0, end - start


def timed(fn):
    """``(fn(), seconds, speed)``: the wall time of ``fn()`` and the factor
    that rescales it to the reference machine's speed.

    A shared machine's speed can drift by 2x within minutes and changes
    within one run. A timer signal interrupts ``fn`` every SAMPLE_PERIOD_S
    to take a speed sample; ``seconds`` leaves the samples' own time out, and
    ``speed`` is REFERENCE_SAMPLE_S over their mean. Samples taken only
    before and after each run tracked it less well: over 25 to 40 runs, the
    correlation of log run time with log sample time was 0.55 against 0.95
    on qke_gram and 0.45 against 0.68 on svc_smo.
    """
    samples = [speed_sample()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(speed_sample()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - sum(spent for _, spent in samples[1:])
    return result, seconds, speed_of(samples)


def speed_of(samples: list[tuple[float, float]]) -> float:
    """Factor that rescales seconds measured alongside ``samples`` to the
    reference machine's speed."""
    return REFERENCE_SAMPLE_S / statistics.fmean(t for t, _ in samples)


def log_seeds(seed: int, n: int) -> list[int | str]:
    """Seeds of the n logs a workload draws from its seed."""
    return [seed, *(f"{seed}/{j}" for j in range(1, n))]


def set_up(workload: str, seed: int, paths: list[Path]) -> float:
    """Import icppm in a fresh interpreter, then generate and write the logs.

    Returns the seconds spent importing (timed in the child) and generating.
    """
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        sys.exit(f"cannot import icppm from {SRC}:\n{probe.stderr}")
    t0 = time.perf_counter()
    spec = WORKLOADS[workload]
    for log_seed, path in zip(log_seeds(seed, len(paths)), paths):
        rows = synth.generate(log_seed, spec["events"], spec.get("dominant_p", synth.DOMINANT_P))
        synth.write_csv(rows, path)
    return float(probe.stdout) + time.perf_counter() - t0


def majority_accuracy(cfg, bench) -> float:
    """Mean fold accuracy of predicting the training folds' majority label."""
    from icppm.eventlog import build_prefix_log, load_log, make_cv_folds

    samples = build_prefix_log(load_log(cfg.dataset))
    folds = make_cv_folds(samples, cfg.folds, bench.derive_seed(cfg.seed, "folds"))
    accs = []
    for fold in range(cfg.folds):
        train_idx, test_idx = folds.split(fold)
        counts = Counter(samples[i].label for i in train_idx)
        top = max(counts.values())
        majority = min(label for label, c in counts.items() if c == top)
        accs.append(sum(samples[i].label == majority for i in test_idx) / len(test_idx))
    return sum(accs) / len(accs)


def check_outputs(workload: str, rec: spans.Recorder, seed: int) -> list[str]:
    """Problems found in the kernel matrices and VQC models a traced run captured."""
    import numpy as np
    from icppm.oracles import kernel_via_unitary
    from icppm.qsim import FeatureMapKind

    problems = []
    if workload == "qke_gram":
        fm = FeatureMapKind(*WORKLOADS[workload]["feature_map"])
        for x, kernel in rec.captured["gram"]:
            g = kernel.values
            if np.max(np.abs(g - g.T)) > ORACLE_TOL or np.max(np.abs(np.diag(g) - 1)) > ORACLE_TOL:
                problems.append("Gram matrix is not symmetric with a unit diagonal")
        # One Gram and one cross entry against the dense-unitary oracle,
        # which costs seconds per entry at 9 qubits.
        rng = random.Random(seed)
        x, kernel = rec.captured["gram"][0]
        i, j = sorted(rng.sample(range(len(x)), 2))
        xt, xr, cross = rec.captured["cross"][0]
        p, q = rng.randrange(len(xt)), rng.randrange(len(xr))
        for value, a, b in ((kernel.values[i, j], x[i], x[j]), (cross.values[p, q], xt[p], xr[q])):
            if abs(value - kernel_via_unitary(a, b, fm)) > ORACLE_TOL:
                problems.append("kernel entry differs from the dense-unitary oracle")
    if workload == "vqc_train":
        for model in rec.captured["vqc_model"]:
            first, last = model.loss_history[0], model.loss_history[-1]
            if not (math.isfinite(last) and last < first):
                problems.append(f"VQC loss went from {first} to {last}")
    return problems


def qsim_probe(workload: str, rec: spans.Recorder) -> dict[str, float]:
    """Median time of one feature-map state over the first fold's training
    rows (at most PROBE_ROWS of them), and the gate count of that circuit."""
    from icppm import qsim
    from icppm.encoding import apply_scaler

    fm = qsim.FeatureMapKind(*WORKLOADS[workload].get("feature_map", DEFAULT_FEATURE_MAP))
    train, params = rec.captured["scaler"][0]
    rows = [apply_scaler(v, params).values for v in train[:PROBE_ROWS]]
    times = []
    for x in rows:
        t0 = time.perf_counter()
        qsim.run(qsim.build_feature_map(fm, x))
        times.append(time.perf_counter() - t0)
    return {
        "qsim.state_s": statistics.median(times),
        "qsim.gates_per_state": len(qsim.build_feature_map(fm, rows[0]).ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="icppm pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    n_logs = WORKLOADS[args.workload].get("logs", 1)
    log_paths = [OUT / f"{args.workload}-{args.seed}-{j}.csv" for j in range(n_logs)]
    setup_raw, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        # The import runs in a child process, which slows speed samples taken
        # alongside it on two cores; so the samples come before and after.
        samples = [speed_sample() for _ in range(SETUP_SAMPLES)]
        seconds = set_up(args.workload, args.seed, log_paths)
        samples += [speed_sample() for _ in range(SETUP_SAMPLES)]
        setup_raw.append(seconds)
        setup_s.append(seconds * speed_of(samples))
    sys.path.insert(0, str(SRC))
    import icppm.bench as bench

    cfgs = [
        bench.ExperimentConfig.from_dict(
            {**BASE_CONFIG, **WORKLOADS[args.workload]["config"], "dataset": str(path)}
        )
        for path in log_paths
    ]
    floors = [majority_accuracy(cfg, bench) if args.workload in BEAT_MAJORITY else None
              for cfg in cfgs]

    attempted = failed = 0
    references = [None] * n_logs
    # Timed samples per log; untraced_raw holds the wall times.
    untraced_raw: list[list[float]] = [[] for _ in cfgs]
    untraced_s: list[list[float]] = [[] for _ in cfgs]
    speeds: list[list[float]] = [[] for _ in cfgs]
    traced: list[dict[str, float]] = []
    last_rec = None

    def attempt(kind: str, log: int) -> None:
        """One run on log number ``log``: "plain" (untraced), "traced", or
        "checked" (traced, and its outputs checked against the oracles)."""
        nonlocal attempted, failed, last_rec
        cfg = cfgs[log]
        attempted += 1
        try:
            if kind == "plain":
                result, elapsed, speed = timed(lambda: bench.run_experiment(cfg))
                problems = []
            else:
                rec, result = spans.traced_run(bench, cfg)
                problems = check_outputs(args.workload, rec, args.seed) if kind == "checked" else []
                if abs(spans.unaccounted_s(rec)) > 1e-6:
                    problems.append("span self times do not add up to the traced run time")
        except Exception:
            traceback.print_exc()
            failed += 1
            return
        if references[log] is None:
            references[log] = result
        if result.fold_accuracies != references[log].fold_accuracies:
            problems.append("fold accuracies differ between runs")
        floor = floors[log]
        if floor is not None and not result.mean_accuracy > floor:
            problems.append(f"accuracy {result.mean_accuracy} does not beat majority {floor}")
        if problems:
            print(f"{kind} run on log {log}: " + "; ".join(problems), file=sys.stderr)
            failed += 1
        elif kind == "plain":
            untraced_raw[log].append(elapsed)
            untraced_s[log].append(elapsed * speed)
            speeds[log].append(speed)
        elif kind == "traced":
            traced.append(spans.layer_metrics(rec))
            last_rec = rec

    start = time.perf_counter()
    kinds = ("plain", "traced") if args.trace else ("plain",)
    n = 0
    while True:
        # Each kind of run takes the logs in turn.
        attempt(kinds[n % len(kinds)], n // len(kinds) % n_logs)
        n += 1
        if n == len(kinds) * n_logs:
            # The first pass over the logs from a fresh process; later runs in
            # this process would add allocator fragmentation, not icppm's use.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        n_timed = sum(map(len, untraced_s))
        enough = (n_timed >= MIN_TIMED_RUNS and all(untraced_s)
                  and (traced or not args.trace))
        # Stop before a run that would end past the deadline, given the mean so
        # far; past it, keep going only until enough runs succeed or many failed.
        if elapsed * (n + 1) / n > args.seconds and (
            enough or n >= 4 * max(MIN_TIMED_RUNS, len(kinds) * n_logs)
        ):
            break
    attempt("checked", 0)
    if not all(untraced_s) or (args.trace and not traced):
        print(f"no successful timed run on some log ({failed} of {attempted} failed)",
              file=sys.stderr)
        return 1

    if args.trace:
        # Per-layer times are raw wall times, like the traced run they come from.
        metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(
            t for samples in untraced_raw for t in samples
        )
        metrics.update(qsim_probe(args.workload, last_rec))
        entries = metrics["qkernel.gram_entries"]
        metrics["qkernel.states_per_entry"] = (
            metrics["qkernel.gram_s"] / entries / metrics["qsim.state_s"] if entries else 0.0
        )
        spans.write_spans(last_rec, OUT / f"{args.workload}-{args.seed}-spans.csv.gz")
    else:
        metrics = {
            "run_s": statistics.fmean(map(statistics.median, untraced_s)),
            "accuracy": statistics.fmean(r.mean_accuracy for r in references),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
        }
    report = {
        "workload": args.workload, "seed": args.seed, "machine": machine_facts(),
        "timed_runs": n_timed, "run_s_samples": untraced_s,
        "wall_run_s_samples": untraced_raw, "wall_setup_s_samples": setup_raw,
        "speed_factors": speeds,
    }
    print(json.dumps(report))
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": UNITS.get(key) or unit_of(key)}
            for key, value in metrics.items()
        },
    }
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, **out}, indent=2) + "\n"
    )
    print(json.dumps(out))
    return 0


def unit_of(key: str) -> str:
    """Unit of a per-layer metric."""
    if key.endswith("_s"):
        return "s"
    if key == "vqc.final_loss":
        return "nats"
    if key == "qkernel.states_per_entry":
        return "ratio"
    return "count"


if __name__ == "__main__":
    # glibc reads the setting only at process start, so the benchmark
    # re-executes itself once with it (same pid, no child process).
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
