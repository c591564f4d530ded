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
import re
import time
from dataclasses import asdict, dataclass, fields, replace
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoding import (
    FeatureVector,
    Vocabulary,
    _check_intra_encoder,
    _checked_target,
    apply_scaler,
    fit_scaler,
    make_intra_encoder,
)
from .errors import ConfigError
from .eventlog import (
    EventLog,
    PrefixSet,
    _check_column_map,
    _check_date_slice,
    _check_fold_count,
    _check_log_format,
    _check_prefix_range,
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
    _check_burst_rule,
    _check_features,
    compose,
    fit_batch_stats,
    fit_transition_stats,
    fitted_inputs,
)
from .qkernel import KernelKind, cross, gram
from .qsim import EXACT, FeatureMapKind, ShotConfig
from .svm import fit_multiclass, predict as svm_predict
from .vqc import OptimizerConfig, _check_weight_layers, prior_loss, simulates_states
from .vqc import predict_many as vqc_predict, train as vqc_train

log_ = logging.getLogger("icppm.bench")

DATA_DIR_ENV = "ICPPM_DATA_DIR"

# A VQC fold whose final training loss is not this many nats below its
# class-prior loss learned little beyond the prior; the run logs it at INFO.
VQC_PRIOR_MARGIN = 0.1

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

# Item type of a config field's annotation -> (test, the type in words, its
# plural). A JSON true is no number and "1" no integer, so the tests go by
# type, not by what a value converts to.
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and type(v) is not bool,
              "a number", "numbers"),
    "bool": (lambda v: type(v) is bool, "true or false", None),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "None": (lambda v: v is None, "null", None),
}


def _check_field_type(name: str, annotation: str, value) -> None:
    """ConfigError unless ``value`` has the type the field's annotation names:
    ``X | None`` also takes None, ``tuple[X, ...]`` takes a tuple of X and
    ``Mapping[str, str]`` a mapping of strings to strings."""
    kinds = annotation.split(" | ")
    if value is None and "None" in kinds:
        return
    if kinds[0].startswith("tuple["):
        test, _, plural = _FIELD_TYPES[kinds[0].removeprefix("tuple[").removesuffix(", ...]")]
        if not isinstance(value, tuple):
            raise ConfigError(f"{name} must be a list of {plural}, got {value!r}")
        if not all(map(test, value)):
            raise ConfigError(f"{name} must be {plural}, got {value!r}")
    elif kinds[0] == "Mapping[str, str]":
        if not (isinstance(value, Mapping)
                and all(isinstance(s, str) for s in (*value, *value.values()))):
            raise ConfigError(f"{name} must map strings to strings, got {value!r}")
    elif not any(_FIELD_TYPES[kind][0](value) for kind in kinds):
        words = " or ".join(_FIELD_TYPES[kind][1] for kind in kinds)
        raise ConfigError(f"{name} must be {words}, got {value!r}")


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
    mode: str = "experiment"
    window_fractions: tuple[float, ...] = (0.15, 0.3, 0.5)
    sampling_fractions: tuple[float, ...] = (1.0, 0.5)
    prefix_lengths: tuple[int, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            _check_field_type(f.name, f.type, getattr(self, f.name))
        _check_column_map(self.column_map)
        _check_log_format(self.fmt)
        ShotConfig(self.shots)  # shots >= 1, or None for exact
        for name in ("C", "tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        _check_features(self.inter_features)
        _check_fold_count(self.folds)
        base = self.window_base
        if base != "train_median" and not (type(base) in (int, float) and 0 < base < math.inf):
            raise ConfigError(f"window_base must be a positive number of seconds "
                              f"or 'train_median', got {base!r}")
        # A run's own value obeys the rule of the grid a sweep puts there.
        for name, grid_name, valid, rule, _ in SWEEPS.values():
            if not valid(getattr(self, name)):
                raise ConfigError(f"{name} must pass the {grid_name} rule ({rule}), "
                                  f"got {getattr(self, name)!r}")
        _check_intra_encoder(self.encoder, self.static_attrs)
        dates = [_parse_date(d) for d in (self.date_start, self.date_end) if d]
        if len(dates) == 1:
            raise ConfigError("date slicing needs both date_start and date_end")
        _check_date_slice(self.slice_rule, *dates)
        _check_prefix_range(self.min_prefix, self.max_prefix)
        _checked_target((self.scale_lo, self.scale_hi))
        KernelKind.rbf(self.gamma)
        _check_burst_rule(self.epsilon, self.min_burst)
        OptimizerConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                        method=self.opt_method)
        _check_weight_layers(self.vqc_layers)
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
        if not isinstance(data, Mapping):
            raise ConfigError(f"a config must map keys to values, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # JSON has lists, the grids are tuples; anything else is left for the
        # type check.
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in data.items()})

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
        """Hash of ``to_dict`` less ``threads`` (no effect), without its deep copy."""
        kept = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threads"}
        payload = json.dumps(kept, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _parse_classifier(name: str) -> tuple[str, FeatureMapKind | None]:
    """A classifier label's family and, for ``qke``/``vqc``, the feature map it
    names: ``<map>_<layers>``, ``zz_a`` for ``angle_zz``, no leading zero."""
    if name in ("majority", "svc_linear", "svc_rbf"):
        return name, None
    family, _, rest = name.partition("_")
    variant, _, layers = rest.rpartition("_")
    if family in ("qke", "vqc") and variant and re.fullmatch("0|[1-9][0-9]*", layers):
        variant = "angle_zz" if variant == "zz_a" else variant
        try:
            return family, FeatureMapKind(variant, int(layers))
        except ConfigError as exc:
            raise ConfigError(f"classifier {name!r}: {exc}") from None
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
    # Quantum feature-map states simulated for the kernels and the VQC: a
    # kernel fold's train rows and test rows equal to no train row (an exact
    # fold's distinct rows), an exact VQC fold's (row, label) train groups
    # and distinct test rows, none for an exact one-layer angle VQC, which
    # scores parity patterns (``vqc.simulates_states``); results.json only.
    # kernel_evaluations and cross_evaluations count over the same rows.
    states_simulated: int = 0
    # Means over folds of the VQC's last training loss, of the loss of
    # scoring every row with the train fold's class frequencies (the loss
    # of learning the class prior only), and of the norm of the gradient
    # at the first and at the last epoch; None for other classifiers, the
    # norms also for zero epochs. Reported in results.json only.
    vqc_final_loss: float | None = None
    vqc_prior_loss: float | None = None
    vqc_initial_grad_norm: float | None = None
    vqc_final_grad_norm: float | None = None
    # SMO pair updates summed over folds and one-vs-rest problems, and the
    # largest exact final KKT gap among them; 0 and None for classifiers
    # without an SVM. Reported in results.json only.
    smo_iterations: int = 0
    smo_kkt_gap: float | None = None
    # Seconds spent fitting the fold encoders, encoding and scaling, summed
    # over folds. Reported in results.json only.
    encode_time_s: float = 0.0
    # Distinct feature rows the kernel and VQC folds were built on, summed
    # over folds (every row of a shot fold counts); 0 for the majority
    # baseline. Reported in results.json only.
    distinct_train_rows: int = 0
    distinct_test_rows: int = 0

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
    "distinct_train_rows": 0,
    "distinct_test_rows": 0,
}


# The RunResult values a run averages over its folds, and a window sweep's
# average row over its runs.
MEANS = ("vqc_final_loss", "vqc_prior_loss", "vqc_initial_grad_norm", "vqc_final_grad_norm")


def _aggregate(parts: Sequence[Mapping]) -> dict:
    """One RunResult's counters from those of its folds or runs: the sum of
    each SUMMED counter, the mean of each MEANS value and the largest
    ``smo_kkt_gap`` (each over the parts that have one, None where none
    has)."""
    def present(name: str) -> list:
        return [p[name] for p in parts if p[name] is not None]

    means = {name: present(name) for name in MEANS}
    gaps = present("smo_kkt_gap")
    return ({name: sum(p[name] for p in parts) for name in SUMMED}
            | {name: float(np.mean(v)) if v else None for name, v in means.items()}
            | {"smo_kkt_gap": max(gaps) if gaps else None})


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
    if cfg.date_start:  # the config holds both dates or neither
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
        base = float(np.median(train_log.case_durations()))
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
    needs = fitted_inputs(cfg.inter_features)
    inter = InterCaseEncoder(
        index,
        tuple(cfg.inter_features),
        PeerWindow(_train_window_width(cfg, fit_log)),
        act_vocab=act_vocab,
        res_vocab=res_vocab,
        transition_stats=fit_transition_stats(fit_log) if "transition_stats" in needs else None,
        batch_stats=(
            fit_batch_stats(fit_log, cfg.epsilon, cfg.min_burst)
            if "batch_stats" in needs
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


def _encode_fold(cfg: ExperimentConfig, index: EventIndex | None, samples: PrefixSet,
                 train_idx: np.ndarray, test_idx: np.ndarray):
    """Scaled train and test matrices of ``samples[train_idx]`` and
    ``samples[test_idx]``, encoders and scaler fitted on the log of the train
    prefixes' cases. They are row views of one encoded and scaled block:
    every encoder and the scaler work row by row, as on two blocks."""
    train_cases = np.zeros(len(samples.log), dtype=bool)
    train_cases[samples.case[train_idx]] = True
    encode = fit_encoder(cfg, samples.log.select_cases(train_cases), index)
    block = encode(samples[np.concatenate([train_idx, test_idx])])
    m = len(train_idx)
    scaler = fit_scaler(FeatureVector(block.values[:m], block.schema),
                        (cfg.scale_lo, cfg.scale_hi))
    x = apply_scaler(block, scaler).values
    return x[:m], x[m:]


def _distinct_rows(x: np.ndarray, merge: bool) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``x``, sorted with the first column most
    significant, and each row's index among them (``np.unique(x, axis=0,
    return_inverse=True)``); without ``merge``, ``x`` itself and 0..len(x)-1."""
    if not merge:
        return x, np.arange(len(x))
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    starts = np.ones(len(x), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    row_of = np.empty(len(x), dtype=np.intp)
    row_of[order] = np.cumsum(starts) - 1
    return ordered[starts], row_of


def _fold_groups(x_train: np.ndarray, y_train: np.ndarray, merge: bool):
    """The train rows, labelled with the int codes >= 0 ``y_train``, as
    (row, label) groups: (rows, group_row, group_labels, counts), with
    ``rows`` the distinct rows (``_distinct_rows``), group g the rows equal
    to ``rows[group_row[g]]`` that carry label ``group_labels[g]``, and
    ``counts[g]`` their number. Groups are sorted by row, then label: with
    one label per row, group g is row g. Without ``merge``, group t is train
    row t with count 1."""
    rows, row_of = _distinct_rows(x_train, merge)
    n_labels = int(y_train.max()) + 1
    pairs, counts = np.unique(row_of * n_labels + y_train, return_counts=True)
    return rows, pairs // n_labels, pairs % n_labels, counts


def _kernel_fold(cfg: ExperimentConfig, kernel_kind: KernelKind, groups: tuple,
                 test_rows: np.ndarray, part: dict) -> list:
    """A kernel classifier's predictions for one fold's train groups
    (``_fold_groups``) and distinct test rows, counters written to ``part``.

    Equal rows have equal kernel rows under every exact kernel, and train
    rows that share both their row and their label are one SVM variable
    whose box is C times their count (``sample_weight``), which leaves the
    dual optimum as it is. The fold's kernel matrices live in this call,
    one at a time: the train Gram matrix is dropped before the cross matrix
    is built, and in a regrouped fold (a distinct row with two labels) as
    soon as its (row, label) gather is taken, so the fit holds the gather
    and its η table, not three m x m arrays.
    """
    rows, group_row, group_labels, counts = groups
    t_fit0 = time.perf_counter()
    k_train = gram(rows, kernel_kind)
    part["gram_time_s"] = time.perf_counter() - t_fit0
    part["kernel_evaluations"] = k_train.eval_count
    part["states_simulated"] = k_train.states_simulated
    train_states = k_train.conj_states
    regrouped = len(group_row) != len(rows)
    k_groups = k_train.values[np.ix_(group_row, group_row)] if regrouped else k_train.values
    del k_train
    model = fit_multiclass(k_groups, group_labels, C=cfg.C, tol=cfg.tol, sample_weight=counts)
    del k_groups
    part["fit_time_s"] += time.perf_counter() - t_fit0
    part["smo_iterations"] = sum(m.iterations for m in model.models)
    part["smo_kkt_gap"] = max(m.kkt_gap for m in model.models)
    k_test = cross(test_rows, rows, kernel_kind, train_states=train_states)
    part["cross_evaluations"] = k_test.eval_count
    part["states_simulated"] += k_test.states_simulated
    return svm_predict(model, k_test.values[:, group_row] if regrouped else k_test.values)


def _vqc_fold(cfg: ExperimentConfig, feature_map: FeatureMapKind, shots: ShotConfig, fold: int,
              groups: tuple, test_rows: np.ndarray, part: dict) -> list:
    """A VQC's predictions for fold ``fold``'s train groups
    (``_fold_groups``) and distinct test rows, counters written to ``part``.

    Each group trains as one row weighted by its count, which leaves the
    loss and its gradient as they are up to rounding.
    """
    t_fit0 = time.perf_counter()
    opt = OptimizerConfig(
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        method=cfg.opt_method,
        seed=derive_seed(cfg.seed, f"vqc/{fold}"),
    )
    rows, group_row, group_labels, counts = groups
    model = vqc_train(rows[group_row], group_labels, feature_map, cfg.vqc_layers, opt,
                      shots=shots, sample_weight=counts)
    part["fit_time_s"] += time.perf_counter() - t_fit0
    predictions = vqc_predict(model, test_rows, shots)
    if simulates_states(model, shots):
        part["states_simulated"] = len(group_row) + len(test_rows)
    part["vqc_final_loss"] = model.loss_history[-1]
    part["vqc_prior_loss"] = prior_loss(np.repeat(group_labels, counts))
    if part["vqc_final_loss"] > part["vqc_prior_loss"] - VQC_PRIOR_MARGIN:
        log_.info("fold %d/%d: VQC final loss %.4f is not %g below the prior loss %.4f",
                  fold + 1, cfg.folds, part["vqc_final_loss"], VQC_PRIOR_MARGIN,
                  part["vqc_prior_loss"])
    if model.grad_norms:
        part["vqc_initial_grad_norm"] = model.grad_norms[0]
        part["vqc_final_grad_norm"] = model.grad_norms[-1]
    return predictions


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
    family, feature_map = _parse_classifier(cfg.classifier)
    folds = make_cv_folds(samples, cfg.folds, derive_seed(cfg.seed, "folds"))
    index = EventIndex(log) if cfg.inter_features else None
    labels = samples.label_codes()

    fold_accs: list[float] = []
    parts: list[dict] = []
    for fold in range(cfg.folds):
        train_idx, test_idx = folds.split(fold)
        part = dict(SUMMED, smo_kkt_gap=None, **dict.fromkeys(MEANS))
        t_enc0 = time.perf_counter()
        x_train, x_test = _encode_fold(cfg, index, samples, train_idx, test_idx)
        y_train, y_test = labels[train_idx], labels[test_idx]
        part["encode_time_s"] = time.perf_counter() - t_enc0
        # An exact run draws nothing, so it carries no per-fold shot seed.
        shots = (ShotConfig(cfg.shots, derive_seed(cfg.seed, f"shots/{fold}"))
                 if cfg.shots else EXACT)
        fold_note = ""
        if family == "majority":
            t_fit0 = time.perf_counter()
            # argmax takes the smallest code on a tie: the first label by name.
            predictions = np.bincount(y_train).argmax()
            part["fit_time_s"] = time.perf_counter() - t_fit0
        else:
            # Equal rows have equal exact kernel rows and VQC scores, so an
            # exact fold works on its (row, label) groups and distinct test
            # rows. A shot kernel or readout draws every row on its own, so a
            # shot fold keeps one row per sample; classical kernels draw none.
            merge = shots.exact or family.startswith("svc")
            t_fit0 = time.perf_counter()
            groups = _fold_groups(x_train, y_train, merge)
            part["fit_time_s"] = time.perf_counter() - t_fit0
            test_rows, test_of = _distinct_rows(x_test, merge)
            part["distinct_train_rows"], part["distinct_test_rows"] = len(groups[0]), len(test_rows)
            if family == "vqc":
                predictions = _vqc_fold(cfg, feature_map, shots, fold, groups, test_rows, part)
            else:
                kernel_kind = (KernelKind.quantum(feature_map, shots) if family == "qke"
                               else KernelKind.linear() if family == "svc_linear"
                               else KernelKind.rbf(cfg.gamma))
                predictions = _kernel_fold(cfg, kernel_kind, groups, test_rows, part)
                fold_note = (f" states={part['states_simulated']}"
                             f" smo_iterations={part['smo_iterations']}"
                             f" smo_kkt_gap={part['smo_kkt_gap']:.3e}")
            predictions = np.asarray(predictions)[test_of]
            fold_note = f" rows={part['distinct_train_rows']}/{len(x_train)}" + fold_note
        parts.append(part)
        acc = int(np.count_nonzero(y_test == predictions)) / len(y_test)
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
