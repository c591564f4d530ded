"""The columnar log against a per-event reference.

The reference here walks ``oracles.cases`` event by event, the way the
pipeline worked before the log became columns: epoch floats from
``datetime.timestamp()``, gaps from ``timedelta.total_seconds()``, one
prefix tuple per (case, length), fold train logs rebuilt from cases.
Every array and feature block the columns give must equal it bit for bit.
"""

from __future__ import annotations

import math
import random
import statistics
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import oracles
from conftest import BASE, make_log, random_log
from icppm import bench
from icppm.bench import ExperimentConfig
from icppm.encoding import INTRA_ENCODERS, Vocabulary, apply_scaler, fit_scaler
from icppm.eventlog import (
    END_LABEL,
    EventLog,
    build_prefix_log,
    make_cv_folds,
    seconds,
    stratified_subsample,
)
from icppm.intercase import (
    FEATURES,
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
    return make_log(*(
        (case_id, {"kind": ("gold", "tin", "")[i % 3]},
         [(act, when + shift, res) for act, when, res in events])
        for i, (case_id, _, events) in enumerate(oracles.cases(log))
    ))


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
    """(case id, attributes, events, label) of every prefix, case by case."""
    return [
        (case_id, attributes, events[:k], events[k][0] if k < len(events) else END_LABEL)
        for case_id, attributes, events in oracles.cases(log)
        for k in range(1, len(events) + 1)
    ]


def reference_folds(prefixes, n_folds, seed):
    cases = sorted({case_id for case_id, _, _, _ in prefixes})
    random.Random(seed).shuffle(cases)
    fold_of = {cid: pos % n_folds for pos, cid in enumerate(cases)}
    return np.array([fold_of[case_id] for case_id, _, _, _ in prefixes])


def reference_subsample(prefixes, fraction, seed):
    by_label = {}
    for i, (_, _, _, label) in enumerate(prefixes):
        by_label.setdefault(label, []).append(i)
    rng = random.Random(seed)
    chosen = []
    for label in sorted(by_label):
        idx = by_label[label]
        chosen.extend(rng.sample(idx, max(1, math.floor(fraction * len(idx) + 0.5))))
    return sorted(chosen)


def test_times_are_epoch_floats_and_gaps_are_total_seconds(log):
    cases = oracles.cases(log)
    assert seconds(log.time_us).tolist() == [
        when.timestamp() for _, _, events in cases for _, when, _ in events]
    assert log.case_durations().tolist() == [
        (events[-1][1] - events[0][1]).total_seconds() for _, _, events in cases]


def test_index_arrays(log):
    # (case id, activity, time, resource) of every event, and of the event
    # before it in its case, or None.
    events = [(case_id, *ev) for case_id, _, evs in oracles.cases(log) for ev in evs]
    prev = [p if p is not None and p[0] == ev[0] else None
            for p, ev in zip([None] + events[:-1], events)]
    order = np.argsort([when.timestamp() for _, _, when, _ in events], kind="stable")
    idx = EventIndex(log)
    act_code = {a: i for i, a in enumerate(idx.activities)}
    want = {
        "times": [when.timestamp() for _, _, when, _ in events],
        "cases": [case_id for case_id, _, _, _ in events],
        "activities": [act for _, act, _, _ in events],
        "resources": [res for _, _, _, res in events],
        "prev_gaps": [(ev[2] - p[2]).total_seconds() if p else np.nan
                      for p, ev in zip(prev, events)],
        "pair_codes": [act_code[p[1]] * len(act_code) + act_code[ev[1]] if p else -1
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
        (case_id, len(events), label) for case_id, _, events, label in want
    ]
    assert got.labels == [label for _, _, _, label in want]
    for seed in (0, 7):
        assert np.array_equal(make_cv_folds(got, 3, seed).fold_assignments,
                              reference_folds(want, 3, seed))
        assert [(s.case_id, s.length) for s in stratified_subsample(got, 0.4, seed)] == [
            (want[i][0], len(want[i][2])) for i in reference_subsample(want, 0.4, seed)
        ]


def test_fitted_statistics(log):
    stats = fit_transition_stats(log)
    assert stats.mean_duration == oracles.transition_means(log)
    assert stats.successors == oracles.successor_map(log)
    assert fit_batch_stats(log, 100.0, 2) == oracles.burst_scores(log, 100.0, 2)


def reference_fold_block(cfg, log, index, prefixes, train_idx, test_idx):
    """The test block of one fold, encoders fitted on the training cases."""
    train_ids = {prefixes[i][0] for i in train_idx}
    train_cases = [case for case in oracles.cases(log) if case[0] in train_ids]
    train = make_log(*train_cases)
    events = [ev for _, _, evs in train_cases for ev in evs]
    act_vocab = Vocabulary.from_values(act for act, _, _ in events)
    res_vocab = Vocabulary.from_values(res for _, _, res in events if res)
    attr_vocabs = {"kind": Vocabulary.from_values(attributes.get("kind", "")
                                                  for _, attributes, _ in train_cases)}
    rows = []
    for i in test_idx:
        _, attributes, events, _ = prefixes[i]
        rows.append(oracles.intra_row(cfg.encoder, attributes, events, act_vocab, res_vocab,
                                      cfg.k, cfg.static_attrs, attr_vocabs))
    intra = np.array(rows, dtype=np.float64).reshape(len(test_idx), -1)
    width = cfg.window_fraction * statistics.median(
        (evs[-1][1] - evs[0][1]).total_seconds() for _, _, evs in train_cases)
    inter = InterCaseEncoder(
        index, cfg.inter_features, PeerWindow(width), act_vocab, res_vocab,
        TransitionStats(oracles.transition_means(train), oracles.successor_map(train)),
        oracles.burst_scores(train, cfg.epsilon, cfg.min_burst),
    )
    # The last event of each test prefix, with its case id.
    anchors = [(prefixes[i][0], *prefixes[i][2][-1]) for i in test_idx]
    block = inter.encode(np.array([when.timestamp() for _, _, when, _ in anchors]),
                         oracles.index_codes([cid for cid, _, _, _ in anchors], index.cases),
                         oracles.index_codes([act for _, act, _, _ in anchors], index.activities))
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


@pytest.mark.parametrize("encoder", INTRA_ENCODERS)
def test_fold_encoded_as_one_block_equals_two_blocks(log, encoder):
    # _encode_fold encodes and scales a fold's train and test prefixes as
    # one block; every row has the bits it has in two blocks, each scaled
    # by the scaler of the train block.
    samples = build_prefix_log(log)
    index = EventIndex(log)
    folds = make_cv_folds(samples, 3, 1)
    for feature in (None, *FEATURES):
        cfg = ExperimentConfig(encoder=encoder, k=3, static_attrs=("kind",),
                               inter_features=(feature,) if feature else (),
                               epsilon=100.0, min_burst=2)
        for fold in range(3):
            train_idx, test_idx = folds.split(fold)
            train_cases = np.zeros(len(log), dtype=bool)
            train_cases[samples.case[train_idx]] = True
            encode = bench.fit_encoder(cfg, log.select_cases(train_cases),
                                       index if feature else None)
            blocks = encode(samples[train_idx]), encode(samples[test_idx])
            scaler = fit_scaler(blocks[0], (cfg.scale_lo, cfg.scale_hi))
            got = bench._encode_fold(cfg, index if feature else None, samples,
                                     train_idx, test_idx)
            for one, block in zip(got, blocks):
                two = apply_scaler(block, scaler).values
                assert one.shape == two.shape and one.tobytes() == two.tobytes(), (feature, fold)
