"""Benchmark harness: cross-validated next-activity prediction runs.

The protocol per run: parse and preprocess a log, expand prefixes, split
into case-level CV folds, and per fold fit everything that is fitted
(vocabularies, scalers, transition/batch statistics, the classifier) on
the training folds only. The peer-event index used by window features is
built once over the preprocessed log: concurrency context is observable
environment at prediction time, while all *learned* statistics stay
train-fold-only. Accuracy is micro (correct / total) per fold.

All randomness derives from the single config seed via named sub-seeds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoding import (
    FeatureVector,
    Vocabulary,
    apply_scaler,
    fit_scaler,
    make_intra_encoder,
)
from .errors import ConfigError
from .eventlog import (
    EventLog,
    PrefixSet,
    build_prefix_log,
    filter_singleton_variants,
    load_log,
    make_cv_folds,
    seconds,
    slice_date_range,
    stratified_subsample,
)
from .intercase import (
    EventIndex,
    InterCaseEncoder,
    PeerWindow,
    compose,
    fit_batch_stats,
    fit_transition_stats,
)
from .qkernel import KernelKind, cache_key, cross, gram, load_kernel, psd_repair, save_kernel
from .qsim import EXACT, FEATURE_MAPS, FeatureMapKind, ShotConfig
from .svm import fit_multiclass, predict as svm_predict
from .vqc import OptimizerConfig, predict_many as vqc_predict, train as vqc_train

log_ = logging.getLogger("icppm.bench")

DATA_DIR_ENV = "ICPPM_DATA_DIR"

# Sweep mode -> (config field set per run, config field holding the grid,
# test each grid value must pass, that test in words, label tag). A tagged
# run's features label gains "@<tag><value:g>"; a prefix-grid run's label
# names its k as "index_bsd_<k>".
SWEEPS = {
    "window_sweep": ("window_fraction", "window_fractions", lambda v: v > 0,
                     "positive", "w"),
    "sampling_sweep": ("sampling_fraction", "sampling_fractions", lambda v: 0 < v <= 1,
                       "in (0, 1]", "s"),
    "prefix_grid": ("k", "prefix_lengths", lambda v: v >= 1, ">= 1", None),
}


def derive_seed(master: int, tag: str) -> int:
    """Stable named sub-seed so one --seed drives every random choice."""
    digest = hashlib.sha256(f"{master}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def _parse_date(text: str) -> date:
    for fmt in ("%Y%m%d", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ConfigError(f"cannot parse date {text!r} (expected YYYYMMDD or YYYY-MM-DD)")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    fmt: str | None = None
    column_map: Mapping[str, str] | None = None
    filter_singletons: bool = False
    date_start: str | None = None
    date_end: str | None = None
    slice_rule: str = "first"
    min_prefix: int = 1
    max_prefix: int | None = None
    encoder: str = "index_bsd"
    k: int = 4
    static_attrs: tuple[str, ...] = ()
    inter_features: tuple[str, ...] = ()
    window_fraction: float = 0.3
    window_base: float | str = "train_median"
    epsilon: float = 86400.0
    min_burst: int = 3
    classifier: str = "svc_rbf"
    C: float = 1.0
    tol: float = 1e-3
    gamma: float | None = None
    shots: int | None = None
    vqc_layers: int = 1
    learning_rate: float = 0.05
    epochs: int = 30
    opt_method: str = "parameter_shift"
    folds: int = 3
    sampling_fraction: float = 1.0
    seed: int = 0
    scale_lo: float = 0.0
    scale_hi: float = math.pi
    # Has no effect (kernels run as one batch); perfbench/run.py still passes it.
    threads: int = 1
    cache_dir: str | None = None
    mode: str = "experiment"
    window_fractions: tuple[float, ...] = (0.15, 0.3, 0.5)
    sampling_fractions: tuple[float, ...] = (1.0, 0.5)
    prefix_lengths: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.inter_features) > 2:
            raise ConfigError(
                f"at most 2 inter-case features are allowed, got {self.inter_features}"
            )
        if self.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {self.folds}")
        if isinstance(self.window_base, str) and self.window_base != "train_median":
            raise ConfigError(
                f"window_base must be a number of seconds or 'train_median', got {self.window_base!r}"
            )
        if not 0 < self.sampling_fraction <= 1:
            raise ConfigError(
                f"sampling_fraction must be in (0, 1], got {self.sampling_fraction}"
            )
        if self.mode in SWEEPS:
            _, grid_name, valid, rule, tag = SWEEPS[self.mode]
            grid = getattr(self, grid_name)
            if not grid:
                raise ConfigError(f"{self.mode} needs at least one value in {grid_name}")
            if not all(valid(v) for v in grid):
                raise ConfigError(f"{grid_name} must be {rule}, got {grid}")
            if self.mode == "prefix_grid" and self.encoder != "index_bsd":
                raise ConfigError(
                    f"prefix_grid varies k, which only the index_bsd encoder reads, "
                    f"not {self.encoder!r}"
                )
            # Every run needs its own label: results.csv keeps one cell per label.
            names = [f"{v:g}" if tag else f"{v}" for v in grid]
            if len(set(names)) < len(names):
                raise ConfigError(f"{grid_name} values {grid} give repeated run labels {names}")
            if self.mode == "window_sweep" and not self.inter_features:
                raise ConfigError("window sweep requires at least one inter-case feature")
        elif self.mode != "experiment":
            raise ConfigError(f"unknown mode {self.mode!r}")
        _parse_classifier(self.classifier)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("static_attrs", "inter_features", "window_fractions",
                    "sampling_fractions", "prefix_lengths"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        """Hash of the keys that decide the results: ``threads`` has no effect
        and ``cache_dir`` only says where Gram matrices are kept."""
        kept = {k: v for k, v in self.to_dict().items() if k not in ("threads", "cache_dir")}
        payload = json.dumps(kept, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _parse_classifier(name: str) -> tuple[str, str | None, int | None]:
    """Split a classifier label into (kind, feature map variant, map layers)."""
    if name in ("majority", "svc_linear", "svc_rbf"):
        return name, None, None
    parts = name.split("_")
    if len(parts) >= 3 and parts[0] in ("qke", "vqc"):
        variant = "_".join(parts[1:-1])
        if variant == "zz_a":
            variant = "angle_zz"
        try:
            layers = int(parts[-1])
        except ValueError:
            raise ConfigError(f"classifier {name!r}: trailing layer count missing") from None
        if variant not in FEATURE_MAPS:
            raise ConfigError(f"classifier {name!r}: unknown feature map {variant!r}")
        return parts[0], variant, layers
    raise ConfigError(
        f"unknown classifier {name!r} (expected majority, svc_linear, svc_rbf, "
        f"qke_<map>_<layers> or vqc_<map>_<layers>)"
    )


def resolve_dataset_path(dataset: str) -> Path:
    """Resolve a dataset path, falling back to $ICPPM_DATA_DIR for relatives."""
    path = Path(dataset)
    if path.exists():
        return path
    root = os.environ.get(DATA_DIR_ENV)
    if root and not path.is_absolute():
        candidate = Path(root) / dataset
        if candidate.exists():
            return candidate
    raise ConfigError(
        f"dataset not found: {dataset!r} (also tried ${DATA_DIR_ENV} root)"
    )


@dataclass
class RunResult:
    classifier: str
    features: str
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    fit_time_s: float
    gram_time_s: float
    kernel_evaluations: int
    cross_evaluations: int
    config_fingerprint: str
    window_fraction: float | None
    sampling_fraction: float
    seed: int
    n_samples: int
    # Quantum feature-map states simulated for the kernels and the VQC:
    # each fold's train and test rows once, also when the Gram matrix is
    # cached; reported in results.json only.
    states_simulated: int = 0
    # Mean over folds of the VQC's last training loss; None for other
    # classifiers. Reported in results.json only.
    vqc_final_loss: float | None = None
    # SMO pair updates summed over folds and one-vs-rest problems, and the
    # largest exact final KKT gap among them; 0 and None for classifiers
    # without an SVM. Reported in results.json only.
    smo_iterations: int = 0
    smo_kkt_gap: float | None = None
    # Seconds spent fitting the fold encoders, encoding and scaling, summed
    # over folds. Reported in results.json only.
    encode_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self) | {"fold_accuracies": list(self.fold_accuracies)}


# The RunResult counters that add up, with their zero: a run sums them over
# its folds and a window sweep's average row over its runs.
SUMMED = {
    "fit_time_s": 0.0,
    "gram_time_s": 0.0,
    "kernel_evaluations": 0,
    "cross_evaluations": 0,
    "states_simulated": 0,
    "smo_iterations": 0,
    "encode_time_s": 0.0,
}


def _aggregate(parts: Sequence[Mapping]) -> dict:
    """One RunResult's counters from those of its folds or runs: the sum of
    each SUMMED counter, the mean ``vqc_final_loss`` and the largest
    ``smo_kkt_gap`` (None where no part has one)."""
    losses = [p["vqc_final_loss"] for p in parts if p["vqc_final_loss"] is not None]
    gaps = [p["smo_kkt_gap"] for p in parts if p["smo_kkt_gap"] is not None]
    return {name: sum(p[name] for p in parts) for name in SUMMED} | {
        "vqc_final_loss": float(np.mean(losses)) if losses else None,
        "smo_kkt_gap": max(gaps) if gaps else None,
    }


def feature_label(cfg: ExperimentConfig) -> str:
    name = cfg.encoder if cfg.encoder != "index_bsd" else f"index_bsd_{cfg.k}"
    if cfg.inter_features:
        name += "+" + "+".join(cfg.inter_features)
    return name


def load_and_slice(cfg: ExperimentConfig) -> EventLog:
    """Load the configured dataset, then filter singleton variants and slice
    by date as configured."""
    if cfg.dataset is None:
        raise ConfigError("config has no dataset path")
    path = resolve_dataset_path(cfg.dataset)
    t0 = time.perf_counter()
    log = load_log(path, cfg.fmt, cfg.column_map)
    log_.info("parsed %s: %d cases, %d events in %.1fs",
              path.name, len(log), log.n_events, time.perf_counter() - t0)
    if cfg.filter_singletons:
        log = filter_singleton_variants(log)
    if cfg.date_start or cfg.date_end:
        if not (cfg.date_start and cfg.date_end):
            raise ConfigError("date slicing needs both date_start and date_end")
        log = slice_date_range(
            log, _parse_date(cfg.date_start), _parse_date(cfg.date_end), cfg.slice_rule
        )
    return log


def prepare_samples(cfg: ExperimentConfig) -> tuple[EventLog, PrefixSet]:
    """Load and preprocess the configured dataset and expand it into every
    prefix sample; ``run_experiment`` applies ``sampling_fraction``."""
    log = load_and_slice(cfg)
    samples = build_prefix_log(log, cfg.min_prefix, cfg.max_prefix)
    if not samples:
        raise ConfigError("preprocessing left no prefix samples")
    return log, samples


def _train_window_width(cfg: ExperimentConfig, train_log: EventLog) -> float:
    if isinstance(cfg.window_base, (int, float)):
        base = float(cfg.window_base)
    else:
        base = statistics.median(train_log.case_durations().tolist())
    width = cfg.window_fraction * base
    if width <= 0:
        raise ConfigError(
            f"window width {width} is not positive (fraction {cfg.window_fraction}, "
            f"base {base}); configure an explicit window_base"
        )
    return width


def fit_encoder(
    cfg: ExperimentConfig, fit_log: EventLog, index: EventIndex | None
) -> Callable[[PrefixSet], FeatureVector]:
    """Fit everything a feature row needs on ``fit_log``: vocabularies, the
    intra-case encoder and, for inter-case features, the transition and
    batch statistics and the window width. Returns prefixes -> feature block
    with one row per prefix; the window features count peer events in
    ``index``."""
    act_vocab = Vocabulary.from_values(fit_log.activity_vocab)
    res_vocab = Vocabulary.from_values(fit_log.resource_vocab)
    attr_vocabs = {
        name: Vocabulary.from_values(attrs.get(name, "") for attrs in fit_log.attributes)
        for name in cfg.static_attrs
    }
    intra = make_intra_encoder(
        cfg.encoder, act_vocab, res_vocab, cfg.k, cfg.static_attrs, attr_vocabs
    )
    if not cfg.inter_features:
        return intra
    needs_t = bool({"avg_delay", "batch"} & set(cfg.inter_features))
    inter = InterCaseEncoder(
        index,
        tuple(cfg.inter_features),
        PeerWindow(_train_window_width(cfg, fit_log)),
        act_vocab=act_vocab,
        res_vocab=res_vocab,
        transition_stats=fit_transition_stats(fit_log) if needs_t else None,
        batch_stats=(
            fit_batch_stats(fit_log, cfg.epsilon, cfg.min_burst)
            if "batch" in cfg.inter_features
            else None
        ),
    )

    def encode(prefixes: PrefixSet) -> FeatureVector:
        log, last = prefixes.log, prefixes.ends - 1
        # Anchors go in as case and activity codes, which are the index's own
        # only for prefixes of the log the index was built from.
        if log.case_ids is not index.cases:
            raise ValueError("prefixes are not of the event index's log")
        return compose(intra(prefixes), inter.encode(
            seconds(log.time_us[last]), prefixes.case, log.activity[last]
        ))

    return encode


def _encode_fold(
    cfg: ExperimentConfig,
    index: EventIndex | None,
    train: PrefixSet,
    test: PrefixSet,
):
    """Scaled train and test matrices and labels, with every encoder fitted
    on the log of the cases that train prefixes come from."""
    train_cases = np.zeros(len(train.log), dtype=bool)
    train_cases[train.case] = True
    encode = fit_encoder(cfg, train.log.select_cases(train_cases), index)
    train_block, test_block = encode(train), encode(test)
    scaler = fit_scaler(train_block, (cfg.scale_lo, cfg.scale_hi))
    x_train = apply_scaler(train_block, scaler).values
    x_test = apply_scaler(test_block, scaler).values
    return x_train, train.labels, x_test, test.labels


def _kernel_kind(cfg: ExperimentConfig, kind: str, variant: str | None, layers: int | None,
                 shots: ShotConfig) -> KernelKind:
    if kind == "svc_linear":
        return KernelKind.linear()
    if kind == "svc_rbf":
        return KernelKind.rbf(cfg.gamma)
    return KernelKind.quantum(FeatureMapKind(variant, layers), shots)


def run_experiment(
    cfg: ExperimentConfig,
    log: EventLog | None = None,
    samples: PrefixSet | None = None,
) -> RunResult:
    """One cross-validated run; pass (log, samples) to skip re-preprocessing.

    ``samples`` is the full prefix set of ``log``: a ``sampling_fraction``
    below 1 draws the run's stratified subsample from it.
    """
    if log is None or samples is None:
        log, samples = prepare_samples(cfg)
    if cfg.sampling_fraction < 1.0:
        samples = stratified_subsample(
            samples, cfg.sampling_fraction, derive_seed(cfg.seed, "subsample")
        )
    kind, variant, fm_layers = _parse_classifier(cfg.classifier)
    folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
    index = EventIndex(log) if cfg.inter_features else None

    fold_accs: list[float] = []
    parts: list[dict] = []
    for fold in range(cfg.folds):
        train_idx, test_idx = folds.split(fold)
        part = dict(SUMMED, vqc_final_loss=None, smo_kkt_gap=None)
        t_enc0 = time.perf_counter()
        x_train, y_train, x_test, y_test = _encode_fold(
            cfg, index, samples[train_idx], samples[test_idx]
        )
        part["encode_time_s"] = time.perf_counter() - t_enc0
        shot_seed = derive_seed(cfg.seed, f"shots/{fold}")
        shots = ShotConfig(cfg.shots, shot_seed) if cfg.shots else EXACT
        t_fit0 = time.perf_counter()
        fold_note = ""
        if kind == "majority":
            counts = Counter(y_train)
            top = max(counts.values())
            majority = min(lab for lab, c in counts.items() if c == top)
            predictions = [majority] * len(y_test)
            part["fit_time_s"] = time.perf_counter() - t_fit0
        elif kind == "vqc":
            opt = OptimizerConfig(
                learning_rate=cfg.learning_rate,
                epochs=cfg.epochs,
                method=cfg.opt_method,
                seed=derive_seed(cfg.seed, f"vqc/{fold}"),
            )
            model = vqc_train(
                x_train, y_train, FeatureMapKind(variant, fm_layers),
                cfg.vqc_layers, opt, shots=shots,
            )
            part["fit_time_s"] = time.perf_counter() - t_fit0
            predictions = vqc_predict(model, x_test, shots)
            part["states_simulated"] = len(x_train) + len(x_test)
            part["vqc_final_loss"] = model.loss_history[-1]
        else:
            kernel_kind = _kernel_kind(cfg, kind, variant, fm_layers, shots)
            key = None
            k_train = None
            if cfg.cache_dir:
                data_hash = hashlib.sha256(
                    x_train.tobytes() + "\x1f".join(map(str, y_train)).encode("utf-8")
                ).hexdigest()
                key = cache_key(
                    data_hash,
                    {"features": feature_label(cfg), "scale": [cfg.scale_lo, cfg.scale_hi]},
                    {"classifier": cfg.classifier, "shots": cfg.shots, "gamma": cfg.gamma},
                    shot_seed,
                )
                k_train = load_kernel(cfg.cache_dir, key, size=len(x_train))
            if k_train is None:
                t_gram0 = time.perf_counter()
                k_train = gram(x_train, kernel_kind)
                part["gram_time_s"] = time.perf_counter() - t_gram0
                if key is not None:
                    save_kernel(k_train, cfg.cache_dir, key)
            if kernel_kind.variant == "quantum" and not kernel_kind.shots.exact:
                k_train = psd_repair(k_train)
            model = fit_multiclass(k_train, y_train, C=cfg.C, tol=cfg.tol)
            part["fit_time_s"] = time.perf_counter() - t_fit0
            part["smo_iterations"] = sum(m.iterations for m in model.models)
            part["smo_kkt_gap"] = max(m.kkt_gap for m in model.models)
            fold_note = (f" smo_iterations={part['smo_iterations']}"
                         f" smo_kkt_gap={part['smo_kkt_gap']:.3e}")
            k_test = cross(x_test, x_train, kernel_kind, train_states=k_train.conj_states)
            part["kernel_evaluations"] = k_train.eval_count
            part["cross_evaluations"] = k_test.eval_count
            part["states_simulated"] = k_train.states_simulated + k_test.states_simulated
            predictions = svm_predict(model, k_test)
        parts.append(part)
        correct = sum(1 for p, t in zip(predictions, y_test) if p == t)
        acc = correct / len(y_test)
        fold_accs.append(acc)
        log_.info("fold %d/%d: accuracy %.4f (%d test samples) encode_s=%.4f%s",
                  fold + 1, cfg.folds, acc, len(y_test), part["encode_time_s"], fold_note)

    return RunResult(
        classifier=cfg.classifier,
        features=feature_label(cfg),
        fold_accuracies=tuple(fold_accs),
        mean_accuracy=float(np.mean(fold_accs)),
        config_fingerprint=cfg.fingerprint(),
        window_fraction=cfg.window_fraction if cfg.inter_features else None,
        sampling_fraction=cfg.sampling_fraction,
        seed=cfg.seed,
        n_samples=len(samples),
        **_aggregate(parts),
    )


def sweep(
    cfg: ExperimentConfig,
    log: EventLog | None = None,
    samples: PrefixSet | None = None,
) -> list[RunResult]:
    """The runs of ``cfg.mode``: one run in experiment mode, else one run per
    value of the mode's grid, all on the same preprocessed log.

    Window- and sampling-sweep rows are labelled ``<features>@w<fraction>``
    and ``<features>@s<fraction>``. A window sweep ends with an averaged
    ``<features>@avg`` row: it takes the fold means per window first, then
    averages across windows (its per-fold entries are cross-window means
    per fold).
    """
    if log is None or samples is None:
        log, samples = prepare_samples(cfg)
    if cfg.mode == "experiment":
        return [run_experiment(cfg, log, samples)]
    field_name, grid_name, _, _, tag = SWEEPS[cfg.mode]
    results = []
    for value in getattr(cfg, grid_name):
        result = run_experiment(replace(cfg, **{field_name: value}), log, samples)
        if tag is not None:
            result.features += f"@{tag}{value:g}"
        results.append(result)
    if cfg.mode != "window_sweep":
        return results
    per_fold = np.mean([r.fold_accuracies for r in results], axis=0)
    averaged = replace(
        results[0],
        features=feature_label(cfg) + "@avg",
        fold_accuracies=tuple(float(a) for a in per_fold),
        mean_accuracy=float(np.mean([r.mean_accuracy for r in results])),
        config_fingerprint=cfg.fingerprint(),
        window_fraction=None,
        **_aggregate([asdict(r) for r in results]),
    )
    return results + [averaged]


def emit_results(results: Sequence[RunResult], out_dir: str | Path) -> tuple[Path, Path]:
    """Write results.csv (classifier x feature-config accuracy matrix) and
    results.json (full per-run provenance). Re-emitting identical results
    produces byte-identical files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classifiers: list[str] = []
    feature_sets: list[str] = []
    cells: dict[tuple[str, str], float] = {}
    for r in results:
        if r.classifier not in classifiers:
            classifiers.append(r.classifier)
        if r.features not in feature_sets:
            feature_sets.append(r.features)
        cells[(r.classifier, r.features)] = r.mean_accuracy

    csv_path = out_dir / "results.csv"
    lines = [",".join(["classifier"] + feature_sets)]
    for clf in classifiers:
        row = [clf]
        for feat in feature_sets:
            value = cells.get((clf, feat))
            row.append("" if value is None else f"{value:.4f}")
        lines.append(",".join(row))
    csv_path.write_text("\n".join(lines) + "\n")

    json_path = out_dir / "results.json"
    payload = {"runs": [r.to_dict() for r in results]}
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
