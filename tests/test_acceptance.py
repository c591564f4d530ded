"""End-to-end acceptance checks.

Each test prints one verdict line (PASS / FAIL / SKIP / SOFT) through the
capture so the criterion outcomes are visible in plain pytest output. The
two dataset-bound checks skip unless ICPPM_DATA_DIR points at a directory
containing the road-traffic fine management log.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles as ref
from conftest import make_log, make_trace, random_log
from icppm import oracles as dense
from icppm.bench import DATA_DIR_ENV, ExperimentConfig, derive_seed, run_experiment, sweep
from icppm.encoding import Vocabulary
from icppm.eventlog import (
    build_prefix_log,
    filter_singleton_variants,
    load_log,
    log_statistics,
    make_cv_folds,
    slice_date_range,
    stratified_subsample,
)
from icppm.intercase import (
    EventIndex,
    PeerWindow,
    avg_delay,
    batch_indicator,
    fit_batch_stats,
    fit_transition_stats,
    freq_act,
    peer_act,
    peer_cases,
    res_count,
    top_res,
)
from icppm.qkernel import KernelKind, cross, gram
from icppm.qsim import FeatureMapKind, ShotConfig, kernel_overlap
from icppm.svm import alphas_from_model, decision, dual_objective, fit
from icppm.vqc import OptimizerConfig, VqcModel, parameter_shift_gradient, loss, predict_many, train

from dataclasses import replace
from datetime import date


def report(capsys, number: int, name: str, status: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {status}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def _find_traffic_log() -> Path | None:
    root = os.environ.get(DATA_DIR_ENV)
    if not root:
        return None
    root = Path(root)
    if not root.is_dir():
        return None
    suffixes = (".xes.gz", ".xes", ".csv.gz", ".csv")
    for path in sorted(root.rglob("*")):
        name = path.name.lower()
        if not any(name.endswith(s) for s in suffixes):
            continue
        if "road" in name or "rtfm" in name or "traffic" in name:
            return path
    return None


EXPECTED_FULL = {"cases": 150_370, "events": 561_470, "activities": 11}
EXPECTED_FILTERED = {"cases": 150_270, "events": 560_551, "variants": 131}
EXPECTED_SLICE = {"cases": 3_321, "events": 12_406, "activities": 11, "variants": 27}
SLICE_START = date(2003, 5, 1)
SLICE_END = date(2004, 4, 30)


def _matching_slice(full_log, filtered_log):
    """Return (base_name, rule) whose slice matches the expected counts."""
    for base_name, base in (("full", full_log), ("filtered", filtered_log)):
        for rule in ("first", "all", "any"):
            sliced = slice_date_range(base, SLICE_START, SLICE_END, rule)
            stats = log_statistics(sliced)
            if all(stats[k] == v for k, v in EXPECTED_SLICE.items()):
                return base_name, rule
    return None


class TestCriterion1DatasetStatistics:
    def test_dataset_statistics(self, capsys):
        path = _find_traffic_log()
        if path is None:
            report(capsys, 1, "dataset-statistics", "SKIP",
                   f"set {DATA_DIR_ENV} to a directory holding the road traffic log")
            pytest.skip(f"{DATA_DIR_ENV} not set or log not found")
        t0 = time.perf_counter()
        log = load_log(path)
        full_stats = log_statistics(log)
        filtered = filter_singleton_variants(log)
        filtered_stats = log_statistics(filtered)
        match = _matching_slice(log, filtered)
        elapsed = time.perf_counter() - t0

        ok_full = all(full_stats[k] == v for k, v in EXPECTED_FULL.items())
        ok_filtered = all(filtered_stats[k] == v for k, v in EXPECTED_FILTERED.items())
        ok = ok_full and ok_filtered and match is not None and elapsed < 120.0
        detail = (
            f"full={full_stats['cases']}/{full_stats['events']}, "
            f"filtered={filtered_stats['cases']}/{filtered_stats['events']}/"
            f"{filtered_stats['variants']}v, slice rule={match}, {elapsed:.1f}s"
        )
        report(capsys, 1, "dataset-statistics", "PASS" if ok else "FAIL", detail)
        assert ok_full, f"unfiltered statistics {full_stats} != {EXPECTED_FULL}"
        assert ok_filtered, f"filtered statistics {filtered_stats} != {EXPECTED_FILTERED}"
        assert match is not None, "no slice rule reproduces the expected counts"
        assert elapsed < 120.0


class TestCriterion2KernelOracle:
    def test_kernel_matches_dense_oracle(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20)
        worst_dense = 0.0
        worst_closed = 0.0
        for variant in ("angle", "zz", "angle_zz"):
            for layers in (1, 2):
                kind = FeatureMapKind(variant, layers)
                for _ in range(200):
                    n = int(rng.integers(1, 5))
                    x, x2 = rng.uniform(0.0, math.pi, (2, n))
                    fast = kernel_overlap(x, x2, kind)
                    exact = dense.kernel_via_unitary(x, x2, kind)
                    worst_dense = max(worst_dense, abs(fast - exact))
                    if variant == "angle":
                        closed = dense.angle_kernel_closed_form(x, x2, layers)
                        worst_closed = max(worst_closed, abs(fast - closed))
        elapsed = time.perf_counter() - t0
        ok = worst_dense < 1e-10 and worst_closed < 1e-10 and elapsed < 30.0
        report(capsys, 2, "kernel-oracle-equivalence", "PASS" if ok else "FAIL",
               f"max dev dense {worst_dense:.2e}, closed form {worst_closed:.2e}, "
               f"1200 pairs, {elapsed:.1f}s")
        assert worst_dense < 1e-10
        assert worst_closed < 1e-10
        assert elapsed < 30.0


class TestCriterion3GramProperties:
    def test_exact_gram_structure_and_shot_noise(self, capsys):
        rng = np.random.default_rng(30)
        x = rng.uniform(0.0, math.pi, (50, 2))
        kind = KernelKind.quantum(FeatureMapKind("zz"))
        k = gram(x, kind).values
        asym = float(np.max(np.abs(k - k.T)))
        diag_dev = float(np.max(np.abs(np.diag(k) - 1.0)))
        min_eig = float(np.linalg.eigvalsh(k)[0])

        pairs = []
        while len(pairs) < 25:
            a, b = rng.uniform(0.0, math.pi, (2, 2))
            p = kernel_overlap(a, b, kind.feature_map)
            if 0.02 < p < 0.98:
                pairs.append((a, b, p))
        # Pair i is entry (i, i) of a cross matrix, drawn by row i's generator.
        a_rows, b_rows, p = (np.array(col) for col in zip(*pairs))
        shots = 1000
        bound = 5.0 * np.sqrt(p * (1.0 - p) / shots)
        trials = 0
        hits = 0
        for rep in range(20):
            noisy = KernelKind.quantum(kind.feature_map, ShotConfig(shots, seed=rep))
            est = np.diag(cross(a_rows, b_rows, noisy).values)
            trials += len(est)
            hits += int(np.count_nonzero(np.abs(est - p) < bound))
        frac = hits / trials

        ok = asym < 1e-12 and diag_dev == 0.0 and min_eig >= -1e-8 and frac >= 0.99
        report(capsys, 3, "gram-properties", "PASS" if ok else "FAIL",
               f"asym {asym:.1e}, min eig {min_eig:.1e}, "
               f"shot bound held {hits}/{trials}")
        assert asym < 1e-12
        assert diag_dev == 0.0
        assert min_eig >= -1e-8
        assert trials == 500
        assert frac >= 0.99


class TestCriterion4SvmCorrectness:
    def test_smo_against_qp_enumeration(self, capsys):
        worst = 0.0
        kkt_ok = True
        C = 1.0
        tol = 1e-3
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            pts = rng.normal(size=(6, 2))
            y = np.ones(6)
            y[rng.permutation(6)[:3]] = -1.0
            k = gram(pts, KernelKind.rbf(gamma=1.0)).values
            model = fit(k, y, C=C, tol=1e-8)
            got = dual_objective(k, y, alphas_from_model(model, 6))
            want, _ = ref.qp_dual_optimum(k, y, C)
            worst = max(worst, abs(got - want))

            checked = fit(k, y, C=C, tol=tol)
            alpha = alphas_from_model(checked, 6)
            margins = y * np.array([decision(checked, row) for row in k])
            for i in range(6):
                if alpha[i] < 1e-9:
                    kkt_ok &= margins[i] >= 1.0 - tol - 1e-9
                elif alpha[i] > C - 1e-9:
                    kkt_ok &= margins[i] <= 1.0 + tol + 1e-9
                else:
                    kkt_ok &= abs(margins[i] - 1.0) <= tol + 1e-9

        ok = worst < 1e-5 and kkt_ok
        report(capsys, 4, "svm-correctness", "PASS" if ok else "FAIL",
               f"max dual gap {worst:.2e} over 10 problems, KKT at tol {tol}")
        assert worst < 1e-5
        assert kkt_ok


class TestCriterion5VqcGradients:
    def test_parameter_shift_and_training(self, capsys):
        rng = np.random.default_rng(50)
        worst = 0.0
        step = 1e-4
        for _ in range(50):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 3))
            variant = ("angle", "zz", "angle_zz")[int(rng.integers(3))]
            model = VqcModel(
                FeatureMapKind(variant),
                rng.uniform(-1.0, 1.0, (layers, n)),
                ("a", "b"),
            )
            xs = rng.uniform(0.0, math.pi, (2, n))
            labels = ["a", "b"]
            analytic = parameter_shift_gradient(model, xs, labels)
            numeric = np.zeros_like(model.theta)
            for l in range(layers):
                for q in range(n):
                    saved = model.theta[l, q]
                    model.theta[l, q] = saved + step
                    up = loss(model, xs, labels)
                    model.theta[l, q] = saved - step
                    down = loss(model, xs, labels)
                    model.theta[l, q] = saved
                    numeric[l, q] = (up - down) / (2.0 * step)
            worst = max(worst, float(np.max(np.abs(analytic - numeric))))

        xs = np.array([[0.1], [0.2], [0.3], [2.9], [3.0], [2.7]])
        labels = ["a", "a", "a", "b", "b", "b"]
        trained = train(xs, labels, FeatureMapKind("angle"), 1,
                        OptimizerConfig(learning_rate=0.2, epochs=12, seed=0))
        diffs = np.diff(trained.loss_history)
        monotone = bool(np.all(diffs <= 1e-12))
        fitted = predict_many(trained, xs) == labels

        ok = worst < 1e-5 and monotone and fitted
        report(capsys, 5, "vqc-gradients", "PASS" if ok else "FAIL",
               f"max grad dev {worst:.2e} over 50 draws, "
               f"loss {trained.loss_history[0]:.3f}->{trained.loss_history[-1]:.3f}")
        assert worst < 1e-5
        assert monotone
        assert fitted


class TestCriterion6IntercaseOracle:
    def _check_log(self, log, width: float) -> int:
        idx = EventIndex(log)
        act_vocab = Vocabulary.from_values(log.activity_vocab)
        res_vocab = Vocabulary.from_values(log.resource_vocab)
        stats = fit_transition_stats(log)
        means = ref.transition_means(log)
        successors = ref.successor_map(log)
        epsilon, min_burst = 40.0, 3
        bstats = fit_batch_stats(log, epsilon, min_burst)
        scores = ref.burst_scores(log, epsilon, min_burst)
        assert bstats == scores
        events = [(when.timestamp(), cid, act)
                  for cid, _, evs in ref.cases(log) for act, when, _ in evs]
        times = np.array([t for t, _, _ in events])
        case_ids = [cid for _, cid, _ in events]
        acts = [act for _, _, act in events]
        bounds = idx.window_bounds(times, PeerWindow(width))
        got = zip(
            peer_cases(idx, bounds, ref.index_codes(case_ids, idx.cases)).tolist(),
            peer_act(idx, bounds).tolist(),
            res_count(idx, bounds).tolist(),
            avg_delay(idx, bounds, stats).tolist(),
            freq_act(idx, bounds, act_vocab).tolist(),
            top_res(idx, bounds, res_vocab).tolist(),
            batch_indicator(acts, bstats, stats.successors).tolist(),
        )
        checked = 0
        for (t, cid, act), row in zip(events, got):
            assert row == (
                ref.peer_cases(log, t, cid, width),
                ref.peer_act(log, t, cid, width),
                ref.res_count(log, t, cid, width),
                ref.avg_delay(log, t, cid, width, means),
                ref.freq_act(log, t, cid, width, act_vocab),
                ref.top_res(log, t, cid, width, res_vocab),
                ref.batch_indicator(act, scores, successors),
            )
            checked += 1
        return checked

    def test_all_features_match_oracle_on_randomized_logs(self, capsys):
        total_events = 0
        biggest = 0
        for seed in range(98):
            n_cases = 8 + (seed % 4) * 8
            log = random_log(
                seed,
                n_cases=n_cases,
                integer_times=(seed % 2 == 0),
                span_s=300.0 if seed % 3 == 0 else 5000.0,
            )
            width = 60.0 if seed % 2 == 0 else 733.5
            n = self._check_log(log, width)
            total_events += n
            biggest = max(biggest, n)
        for seed in (1001, 1002):
            log = random_log(seed, n_cases=80, max_len=8, integer_times=True,
                             span_s=2000.0)
            assert log.n_events <= 1000
            n = self._check_log(log, 50.0)
            total_events += n
            biggest = max(biggest, n)
        report(capsys, 6, "intercase-oracle-equivalence", "PASS",
               f"100 logs, {total_events} anchors, largest log {biggest} events, "
               f"all 7 features exact")
        assert total_events > 5000


def _planted_signal_setup():
    """Busy periods continue a->b, quiet periods a->c; only window features
    can tell the regimes apart because every prefix is the single event a."""
    traces = []
    for i in range(30):
        start = i * 3.0
        traces.append(make_trace(f"busy{i:02d}", [("a", start), ("b", start + 50.0)]))
    for i in range(30):
        start = 10_000.0 + i * 5_000.0
        traces.append(make_trace(f"quiet{i:02d}", [("a", start), ("c", start + 50.0)]))
    log = make_log(*traces)
    samples = build_prefix_log(log, 1, 1)
    return log, samples


class TestCriterion7TrendCheck:
    def test_trend_on_planted_synthetic_signal(self, capsys):
        log, samples = _planted_signal_setup()
        base = ExperimentConfig(classifier="qke_zz_2", k=2, folds=3, seed=0)
        with_inter = ExperimentConfig(
            classifier="qke_zz_2", k=2, folds=3, seed=0,
            inter_features=("peer_cases",),
        )
        rbf = ExperimentConfig(
            classifier="svc_rbf", k=2, folds=3, seed=0,
            inter_features=("peer_cases",),
        )
        acc_base = run_experiment(base, log, samples).mean_accuracy
        acc_inter = run_experiment(with_inter, log, samples).mean_accuracy
        acc_rbf = run_experiment(rbf, log, samples).mean_accuracy
        boost = acc_inter > acc_base
        competitive = acc_inter >= acc_rbf - 0.02
        status = "PASS" if (boost and competitive) else "SOFT"
        report(capsys, 7, "trend-check", status,
               f"synthetic planted signal, seed 0: qke_zz_2 {acc_base:.3f} -> "
               f"{acc_inter:.3f} with peer_cases, svc_rbf {acc_rbf:.3f}; "
               f"trend indicator, not a hard gate")
        assert 0.0 <= acc_base <= 1.0
        assert 0.0 <= acc_inter <= 1.0
        assert boost, "window feature did not lift accuracy on the planted signal"

    def test_trend_on_traffic_subsample(self, capsys):
        path = _find_traffic_log()
        if path is None:
            report(capsys, 7, "trend-check[dataset]", "SKIP",
                   f"set {DATA_DIR_ENV} to run the real-data trend check")
            pytest.skip(f"{DATA_DIR_ENV} not set or log not found")
        log = load_log(path)
        match = _matching_slice(log, filter_singleton_variants(log))
        rule = match[1] if match else "first"
        sliced = slice_date_range(log, SLICE_START, SLICE_END, rule)
        samples = build_prefix_log(sliced, 1, None)
        fraction = min(1.0, 400 / len(samples))
        if fraction < 1.0:
            samples = stratified_subsample(samples, fraction, derive_seed(0, "subsample"))
        base = ExperimentConfig(classifier="qke_zz_2", k=4, folds=3, seed=0)
        with_inter = ExperimentConfig(
            classifier="qke_zz_2", k=4, folds=3, seed=0,
            inter_features=("peer_cases",),
        )
        rbf = ExperimentConfig(classifier="svc_rbf", k=4, folds=3, seed=0,
                               inter_features=("peer_cases",))
        acc_base = run_experiment(base, sliced, samples).mean_accuracy
        acc_inter = run_experiment(with_inter, sliced, samples).mean_accuracy
        acc_rbf = run_experiment(rbf, sliced, samples).mean_accuracy
        boost = acc_inter > acc_base
        competitive = acc_inter >= acc_rbf - 0.02
        status = "PASS" if (boost and competitive) else "SOFT"
        report(capsys, 7, "trend-check[dataset]", status,
               f"{len(samples)} samples, seed 0: qke_zz_2 {acc_base:.3f} -> "
               f"{acc_inter:.3f}, svc_rbf {acc_rbf:.3f}; trend indicator only")
        assert 0.0 <= acc_base <= 1.0
        assert 0.0 <= acc_inter <= 1.0


class TestCriterion8SamplingScaling:
    # 600 cases a -> b, each with its own resource: with k = 2 the index
    # encoding's resource slots make every one of the 1,200 prefixes a
    # distinct row, so no train row is merged and a fold's Gram grows with
    # the square of its rows (m = 800 at fraction 1, 400 at 0.5, 4 qubits).
    N_CASES = 600

    def sampled_log(self):
        traces = [
            make_trace(f"c{i:03d}", [("a", i * 40.0, f"r{i}"), ("b", i * 40.0 + 10.0, f"r{i}")])
            for i in range(self.N_CASES)
        ]
        log = make_log(*traces)
        samples = build_prefix_log(log, 1, None)
        assert len(samples) == 2 * self.N_CASES
        cfg = ExperimentConfig(
            classifier="qke_zz_1", k=2, folds=3, seed=0,
            mode="sampling_sweep", sampling_fractions=(1.0, 0.5),
        )
        return cfg, log, samples

    def test_half_fraction_quarter_cost(self, capsys):
        cfg, log, samples = self.sampled_log()
        # Best of three sweeps per fraction: one scheduler stall during a
        # Gram must not decide the time ratio.
        sweeps = [sweep(cfg, log=log, samples=samples) for _ in range(3)]
        full, half = sweeps[0]
        assert full.distinct_train_rows == (cfg.folds - 1) * len(samples)
        full_s = min(f.gram_time_s for f, _ in sweeps)
        half_s = min(h.gram_time_s for _, h in sweeps)
        ratio = half.kernel_evaluations / full.kernel_evaluations
        time_ratio = half_s / full_s
        count_ok = abs(ratio - 0.25) <= 0.01 * 0.25
        superlinear = time_ratio < 0.5
        ok = count_ok and superlinear
        report(capsys, 8, "sampling-scaling", "PASS" if ok else "FAIL",
               f"eval ratio {ratio:.4f} (target 0.25), "
               f"best-of-3 gram time {full_s:.4f}s -> {half_s:.4f}s "
               f"(x{time_ratio:.2f})")
        assert count_ok, f"kernel eval ratio {ratio} outside 1% of 0.25"
        assert superlinear, (
            f"gram time ratio {time_ratio} is not superlinear "
            f"({full_s:.4f}s -> {half_s:.4f}s)"
        )

    def test_repeated_rows_add_no_kernel_entries(self, capsys):
        cfg, log, samples = self.sampled_log()
        cfg = replace(cfg, mode="experiment")
        # Every prefix twice: each copy shares its case, so its fold and row.
        doubled = samples[np.repeat(np.arange(len(samples)), 2)]
        once = run_experiment(cfg, log, samples)
        twice = run_experiment(cfg, log, doubled)
        folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
        train_rows = [len(folds.split(fold)[0]) for fold in range(cfg.folds)]
        counters = ("kernel_evaluations", "cross_evaluations", "states_simulated",
                    "distinct_train_rows", "distinct_test_rows")
        same = all(getattr(once, name) == getattr(twice, name) for name in counters)
        report(capsys, 8, "repeated-rows", "PASS" if same else "FAIL",
               f"{once.kernel_evaluations} Gram entries from {once.n_samples} samples, "
               f"{twice.kernel_evaluations} from {twice.n_samples}")
        assert twice.n_samples == 2 * once.n_samples
        assert once.kernel_evaluations == sum(m * (m - 1) // 2 for m in train_rows)
        for name in counters:
            assert getattr(twice, name) == getattr(once, name), name
