"""The columnar log against a per-event reference.

The reference here walks ``log.traces`` event by event, the way the
pipeline worked before the log became columns: epoch floats from
``datetime.timestamp()``, gaps from ``timedelta.total_seconds()``, one
prefix object per (trace, length), fold train logs rebuilt from traces.
Every array and feature block the columns give must equal it bit for bit.
"""

from __future__ import annotations

import math
import random
import statistics
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import BASE, random_log
from icppm import bench
from icppm.bench import ExperimentConfig
from icppm.encoding import INTRA_ENCODERS, Vocabulary
from icppm.eventlog import (
    END_LABEL,
    Event,
    EventLog,
    Trace,
    build_prefix_log,
    make_cv_folds,
    seconds,
    stratified_subsample,
)
from icppm.intercase import (
    FEATURES,
    BatchStats,
    EventIndex,
    InterCaseEncoder,
    PeerWindow,
    TransitionStats,
    fit_batch_stats,
    fit_transition_stats,
)

# Puts the conftest base instant 30 minutes before the epoch, plus an odd
# fraction of a second, so the log straddles 1970-01-01.
BEFORE_EPOCH = (datetime(1969, 12, 31, 23, 30, tzinfo=timezone.utc) - BASE
                + timedelta(microseconds=123_457))
AFTER_2255 = datetime(2400, 1, 1, tzinfo=timezone.utc) - BASE + timedelta(microseconds=1)


def _rebuilt(log: EventLog, shift: timedelta = timedelta(0)) -> EventLog:
    """``log`` with every event moved by ``shift`` and case attributes set."""
    return EventLog.from_traces(
        Trace(t.case_id, tuple(Event(e.case_id, e.activity, e.timestamp + shift, e.resource)
                               for e in t.events),
              {"kind": ("gold", "tin", "")[i % 3]})
        for i, t in enumerate(log.traces)
    )


LOGS = {
    "float": lambda: _rebuilt(random_log(1, n_cases=25)),
    "int": lambda: _rebuilt(random_log(2, n_cases=25, integer_times=True)),
    "no_resources": lambda: _rebuilt(random_log(3, n_cases=25, with_resources=False)),
    "before_1970": lambda: _rebuilt(random_log(4, n_cases=25), BEFORE_EPOCH),
    # Past 2**53 microseconds (year 2255) not every time is a float64.
    "after_2255": lambda: _rebuilt(random_log(5, n_cases=25), AFTER_2255),
}


@pytest.fixture(params=sorted(LOGS))
def log(request) -> EventLog:
    return LOGS[request.param]()


def reference_prefixes(log):
    """(trace, length, label) of every prefix, case by case."""
    return [
        (trace, k, trace.events[k].activity if k < len(trace) else END_LABEL)
        for trace in log.traces
        for k in range(1, len(trace) + 1)
    ]


def reference_folds(prefixes, n_folds, seed):
    cases = sorted({trace.case_id for trace, _, _ in prefixes})
    random.Random(seed).shuffle(cases)
    fold_of = {cid: pos % n_folds for pos, cid in enumerate(cases)}
    return np.array([fold_of[trace.case_id] for trace, _, _ in prefixes])


def reference_subsample(prefixes, fraction, seed):
    by_label = {}
    for i, (_, _, label) in enumerate(prefixes):
        by_label.setdefault(label, []).append(i)
    rng = random.Random(seed)
    chosen = []
    for label in sorted(by_label):
        idx = by_label[label]
        chosen.extend(rng.sample(idx, max(1, math.floor(fraction * len(idx) + 0.5))))
    return sorted(chosen)


def test_times_are_epoch_floats_and_gaps_are_total_seconds(log):
    events = [ev for trace in log.traces for ev in trace.events]
    assert seconds(log.time_us).tolist() == [ev.timestamp.timestamp() for ev in events]
    assert log.case_durations().tolist() == [t.duration.total_seconds() for t in log.traces]


def test_index_arrays(log):
    events = [ev for trace in log.traces for ev in trace.events]
    previous = [None] + events[:-1]
    prev = [p if p is not None and p.case_id == ev.case_id else None
            for p, ev in zip(previous, events)]
    order = np.argsort([ev.timestamp.timestamp() for ev in events], kind="stable")
    idx = EventIndex(log)
    act_code = {a: i for i, a in enumerate(idx.activities)}
    want = {
        "times": [ev.timestamp.timestamp() for ev in events],
        "cases": [ev.case_id for ev in events],
        "activities": [ev.activity for ev in events],
        "resources": [ev.resource for ev in events],
        "prev_gaps": [(ev.timestamp - p.timestamp).total_seconds() if p else np.nan
                      for p, ev in zip(prev, events)],
        "pair_codes": [act_code[p.activity] * len(act_code) + act_code[ev.activity] if p else -1
                       for p, ev in zip(prev, events)],
    }
    got = {
        "times": idx.times,
        "cases": np.array(idx.cases)[idx.case_codes],
        "activities": np.array(idx.activities)[idx.act_codes],
        "resources": np.array(idx.resources + (None,), dtype=object)[idx.res_codes],
        "prev_gaps": idx.prev_gaps,
        "pair_codes": idx.pair_codes,
    }
    for name, values in want.items():
        assert np.array_equal(got[name], np.array(values, dtype=got[name].dtype)[order],
                              equal_nan=name == "prev_gaps"), name


def test_prefix_labels_and_folds(log):
    want = reference_prefixes(log)
    got = build_prefix_log(log)
    assert [(s.case_id, s.length, s.label) for s in got] == [
        (trace.case_id, k, label) for trace, k, label in want
    ]
    assert got.labels == [label for _, _, label in want]
    for seed in (0, 7):
        assert np.array_equal(make_cv_folds(got, 3, seed).fold_assignments,
                              reference_folds(want, 3, seed))
        assert [(s.case_id, s.length) for s in stratified_subsample(got, 0.4, seed)] == [
            (want[i][0].case_id, want[i][1]) for i in reference_subsample(want, 0.4, seed)
        ]


def test_fitted_statistics(log):
    stats = fit_transition_stats(log)
    assert stats.mean_duration == oracles.transition_means(log)
    assert stats.successors == oracles.successor_map(log)
    assert fit_batch_stats(log, 100.0, 2).scores == oracles.burst_scores(log, 100.0, 2)


def reference_fold_block(cfg, log, index, prefixes, train_idx, test_idx):
    """The test block of one fold, encoders fitted on the training traces."""
    train_ids = {prefixes[i][0].case_id for i in train_idx}
    train = SimpleNamespace(traces=[t for t in log.traces if t.case_id in train_ids])
    events = [ev for trace in train.traces for ev in trace.events]
    act_vocab = Vocabulary.from_values(ev.activity for ev in events)
    res_vocab = Vocabulary.from_values(ev.resource for ev in events if ev.resource)
    attr_vocabs = {"kind": Vocabulary.from_values(t.attributes.get("kind", "")
                                                  for t in train.traces)}
    rows = []
    for i in test_idx:
        trace, k, _ = prefixes[i]
        sample = SimpleNamespace(prefix=Trace(trace.case_id, trace.events[:k], trace.attributes))
        rows.append(oracles.intra_row(cfg.encoder, sample, act_vocab, res_vocab, cfg.k,
                                      cfg.static_attrs, attr_vocabs))
    intra = np.array(rows, dtype=np.float64).reshape(len(test_idx), -1)
    width = cfg.window_fraction * statistics.median(
        t.duration.total_seconds() for t in train.traces)
    inter = InterCaseEncoder(
        index, cfg.inter_features, PeerWindow(width), act_vocab, res_vocab,
        TransitionStats(oracles.transition_means(train), oracles.successor_map(train)),
        BatchStats(oracles.burst_scores(train, cfg.epsilon, cfg.min_burst),
                   cfg.epsilon, cfg.min_burst),
    )
    anchors = [prefixes[i][0].events[prefixes[i][1] - 1] for i in test_idx]
    block = inter.encode(np.array([ev.timestamp.timestamp() for ev in anchors]),
                         [ev.case_id for ev in anchors], [ev.activity for ev in anchors])
    return np.concatenate([intra, block.values], axis=1)


@pytest.mark.parametrize("encoder", INTRA_ENCODERS)
def test_fold_blocks(log, encoder):
    prefixes = reference_prefixes(log)
    samples = build_prefix_log(log)
    index = EventIndex(log)
    folds = make_cv_folds(samples, 3, 1)
    for feature in FEATURES:
        cfg = ExperimentConfig(encoder=encoder, k=3, static_attrs=("kind",),
                               inter_features=(feature,), epsilon=100.0, min_burst=2)
        for fold in range(3):
            train_idx, test_idx = folds.split(fold)
            train_cases = np.zeros(len(log), dtype=bool)
            train_cases[samples.case[train_idx]] = True
            encode = bench.fit_encoder(cfg, log.select_cases(train_cases), index)
            got = encode(samples[test_idx]).values
            want = reference_fold_block(cfg, log, index, prefixes, train_idx, test_idx)
            assert np.array_equal(got, want), (feature, fold)
