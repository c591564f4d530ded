"""Span recorder for the traced benchmark run.

``icppm.bench`` calls each layer through names it imported into its own
namespace. For the length of one traced run, :func:`traced` replaces those
names with wrappers that record a span per call, then puts the originals
back, also when the run raises. Nothing under ``src/`` is changed.

A span is ``(span_id, parent_id, name, start, end)`` with times from
``time.perf_counter``; the root span covers the whole ``run_experiment``
call and has parent ``-1``. Spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.run"


class Recorder:
    """Spans and captured outputs of one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(result, *args)`` runs
        after the span has closed, inside its parent."""
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if on_result is not None:
                on_result(result, *args)
            return result
        return wrapper

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name.

        A span's self time is its duration minus the durations of its
        children; spans of one thread never overlap their siblings.
        """
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[span_id]
            calls[name] += 1
        return self_s, calls

    @property
    def run_s(self) -> float:
        _, _, _, start, end = self.spans[0]
        return end - start


def _layer_wrappers(rec: Recorder, bench) -> dict:
    """Replacement for every layer name ``icppm.bench`` calls in a run."""
    fns = {name: getattr(bench, name) for name in (
        "load_log", "build_prefix_log", "make_cv_folds", "make_intra_encoder",
        "fit_scaler", "apply_scaler", "EventIndex", "fit_transition_stats",
        "fit_batch_stats", "InterCaseEncoder", "compose", "gram", "cross",
        "fit_multiclass", "svm_predict", "vqc_train", "vqc_predict",
    )}

    def count(key, value):
        rec.counts[key] += value

    def on_fit_scaler(params, train, *_):
        if "scaler" not in rec.captured:
            rec.captured["scaler"].append((list(train), params))

    def on_gram(kernel, train, kind, *_):
        count("qkernel.gram_entries", kernel.eval_count)
        if kind.variant == "quantum":
            rec.captured["gram"].append((train, kernel))

    def on_cross(kernel, test, train, kind, *_):
        count("qkernel.cross_entries", kernel.eval_count)
        if kind.variant == "quantum":
            rec.captured["cross"].append((test, train, kernel))

    def on_fit_multiclass(model, *_):
        count("svm.support_vectors", sum(len(m.support_indices) for m in model.models))

    def make_intra_encoder(*args, **kwargs):
        return rec.wrap("encoding.intra", fns["make_intra_encoder"](*args, **kwargs))

    def inter_case_encoder(*args, **kwargs):
        encoder = fns["InterCaseEncoder"](*args, **kwargs)
        encoder.encode = rec.wrap("intercase.encode", encoder.encode)
        return encoder

    w = rec.wrap
    return {
        "load_log": w("eventlog.load", fns["load_log"],
                      lambda log, *_: count("eventlog.events", log.n_events)),
        "build_prefix_log": w("eventlog.prefix", fns["build_prefix_log"],
                              lambda samples, *_: count("eventlog.prefixes", len(samples))),
        "make_cv_folds": w("eventlog.folds", fns["make_cv_folds"]),
        "make_intra_encoder": make_intra_encoder,
        "fit_scaler": w("encoding.scale", fns["fit_scaler"], on_fit_scaler),
        "apply_scaler": w("encoding.scale", fns["apply_scaler"]),
        "EventIndex": w("intercase.index", fns["EventIndex"]),
        "fit_transition_stats": w("intercase.fit", fns["fit_transition_stats"]),
        "fit_batch_stats": w("intercase.fit", fns["fit_batch_stats"]),
        "InterCaseEncoder": inter_case_encoder,
        "compose": w("intercase.compose", fns["compose"]),
        "gram": w("qkernel.gram", fns["gram"], on_gram),
        "cross": w("qkernel.cross", fns["cross"], on_cross),
        "fit_multiclass": w("svm.fit", fns["fit_multiclass"], on_fit_multiclass),
        "svm_predict": w("svm.predict", fns["svm_predict"]),
        "vqc_train": w("vqc.train", fns["vqc_train"],
                       lambda model, *_: rec.captured["vqc_model"].append(model)),
        "vqc_predict": w("vqc.predict", fns["vqc_predict"]),
    }


@contextmanager
def traced(rec: Recorder, bench):
    """Route ``bench``'s layer calls through ``rec`` until the block exits."""
    replacements = _layer_wrappers(rec, bench)
    saved = {name: getattr(bench, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(bench, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(bench, name, fn)


def traced_run(bench, cfg) -> tuple[Recorder, object]:
    """One traced ``bench.run_experiment(cfg)``: the recorder and the result."""
    rec = Recorder()
    with traced(rec, bench):
        result = rec.wrap(ROOT_SPAN, bench.run_experiment)(cfg)
    return rec, result


# Per-layer metrics taken from span self times ("_s") and call counts
# ("_calls"), keyed by the metric name the benchmark reports.
SPAN_TIMES = {
    "eventlog.load_s": "eventlog.load",
    "eventlog.prefix_s": "eventlog.prefix",
    "eventlog.folds_s": "eventlog.folds",
    "encoding.intra_s": "encoding.intra",
    "encoding.scale_s": "encoding.scale",
    "intercase.index_s": "intercase.index",
    "intercase.fit_s": "intercase.fit",
    "intercase.encode_s": "intercase.encode",
    "intercase.compose_s": "intercase.compose",
    "qkernel.gram_s": "qkernel.gram",
    "qkernel.cross_s": "qkernel.cross",
    "svm.fit_s": "svm.fit",
    "svm.predict_s": "svm.predict",
    "vqc.train_s": "vqc.train",
    "vqc.predict_s": "vqc.predict",
    "bench.self_s": ROOT_SPAN,
}
SPAN_CALLS = {
    "encoding.intra_calls": "encoding.intra",
    "encoding.scale_calls": "encoding.scale",
    "intercase.encode_calls": "intercase.encode",
    "vqc.predict_calls": "vqc.predict",
}
COUNTS = ("eventlog.events", "eventlog.prefixes", "qkernel.gram_entries",
          "qkernel.cross_entries", "svm.support_vectors")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run, plus its wall time ``trace.run_s``."""
    self_s, calls = rec.self_times()
    out = {key: self_s.get(name, 0.0) for key, name in SPAN_TIMES.items()}
    out.update({key: calls.get(name, 0) for key, name in SPAN_CALLS.items()})
    out.update({key: rec.counts.get(key, 0) for key in COUNTS})
    losses = [m.loss_history[-1] for m in rec.captured.get("vqc_model", [])]
    out["vqc.final_loss"] = sum(losses) / len(losses) if losses else 0.0
    out["trace.run_s"] = rec.run_s
    return out


def unaccounted_s(rec: Recorder) -> float:
    """Traced run time not covered by the summed self times of all spans."""
    self_s, _ = rec.self_times()
    return rec.run_s - sum(self_s.values())


def write_spans(rec: Recorder, path) -> None:
    """Write the spans as gzipped CSV, times in seconds from the root start."""
    origin = rec.spans[0][3]
    with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("span_id", "parent_id", "name", "start_s", "end_s"))
        for span_id, parent, name, start, end in rec.spans:
            writer.writerow((span_id, parent, name, f"{start - origin:.9f}",
                             f"{end - origin:.9f}"))
