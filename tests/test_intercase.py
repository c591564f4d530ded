from __future__ import annotations

import numpy as np
import pytest

import oracles
from icppm import intercase
from conftest import BASE, make_event, make_log, make_trace, random_log, xes_doc
from icppm.encoding import FeatureVector, Vocabulary
from icppm.errors import ConfigError
from icppm.eventlog import EventLog, Trace, parse_xes
from icppm.intercase import (
    FEATURES,
    BatchStats,
    EventIndex,
    InterCaseEncoder,
    PeerWindow,
    TransitionStats,
    avg_delay,
    batch_indicator,
    compose,
    fit_batch_stats,
    fit_transition_stats,
    freq_act,
    peer_act,
    peer_cases,
    res_count,
    top_res,
)


def epoch(offset_s: float) -> float:
    return BASE.timestamp() + offset_s


def log_at(*case_offsets):
    """Build a log where each (case_id, [(act, off[, res])]) is one trace."""
    return make_log(*(make_trace(cid, spec) for cid, spec in case_offsets))


def at(idx, *offsets, width=10.0):
    """Window bounds of anchors at the given offsets from BASE."""
    return idx.window_bounds(np.array([epoch(o) for o in offsets]), PeerWindow(width))


class TestPeerWindow:
    def test_positive_width_required(self):
        with pytest.raises(ConfigError):
            PeerWindow(0.0)
        with pytest.raises(ConfigError):
            PeerWindow(-5.0)


class TestPeerCases:
    def test_hand_enumerated_window(self):
        log = log_at(
            ("c1", [("a", 100)]),
            ("c2", [("a", 95)]),
            ("c3", [("a", 85)]),
        )
        idx = EventIndex(log)
        cases = oracles.index_codes(["c1", "c2", "c3"], idx.cases)
        assert peer_cases(idx, at(idx, 100, 95, 85), cases).tolist() == [2, 2, 1]

    def test_anchor_alone(self):
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        cases = oracles.index_codes(["c1"], idx.cases)
        assert peer_cases(idx, at(idx, 100), cases).tolist() == [1]

    def test_anchor_before_other_activity(self):
        log = log_at(("c1", [("a", 0)]), ("c2", [("a", 500)]))
        idx = EventIndex(log)
        cases = oracles.index_codes(["c1"], idx.cases)
        assert peer_cases(idx, at(idx, 0), cases).tolist() == [1]

    def test_counts_anchor_even_without_its_event(self):
        log = log_at(("c1", [("a", 0)]), ("c2", [("a", 95)]))
        idx = EventIndex(log)
        cases = oracles.index_codes(["c1", "ghost"], idx.cases)
        assert peer_cases(idx, at(idx, 100, 100), cases).tolist() == [2, 2]

    def test_same_case_multiple_events_counted_once(self):
        log = log_at(("c1", [("a", 92), ("b", 96), ("c", 100)]))
        idx = EventIndex(log)
        cases = oracles.index_codes(["c1", "c1"], idx.cases)
        assert peer_cases(idx, at(idx, 100, 96), cases).tolist() == [1, 1]


class TestPeerAct:
    def test_five_events(self):
        log = log_at(
            ("c1", [("a", 91), ("b", 100)]),
            ("c2", [("a", 93), ("b", 97)]),
            ("c3", [("a", 95)]),
        )
        idx = EventIndex(log)
        assert peer_act(idx, at(idx, 100, 95)).tolist() == [5, 3]

    def test_anchor_only(self):
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert peer_act(idx, at(idx, 100)).tolist() == [1]

    def test_both_boundaries_inclusive(self):
        log = log_at(
            ("c1", [("a", 90), ("b", 100)]),
            ("c2", [("a", 90)]),
            ("c3", [("a", 89.999)]),
        )
        idx = EventIndex(log)
        assert peer_act(idx, at(idx, 100, 90)).tolist() == [3, 3]


class TestResCount:
    def test_two_distinct(self):
        log = log_at(
            ("c1", [("a", 95, "r1"), ("b", 100, "r1")]),
            ("c2", [("a", 97, "r2")]),
        )
        idx = EventIndex(log)
        assert res_count(idx, at(idx, 100, 95)).tolist() == [2, 1]

    def test_no_resources(self):
        log = log_at(("c1", [("a", 95), ("b", 100)]))
        idx = EventIndex(log)
        assert res_count(idx, at(idx, 100)).tolist() == [0]

    def test_single_resource(self):
        log = log_at(("c1", [("a", 100, "r1")]))
        idx = EventIndex(log)
        assert res_count(idx, at(idx, 100)).tolist() == [1]


class TestAvgDelay:
    def test_ratio_two(self):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("a", 80), ("b", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, at(idx, 100, 80), stats).tolist() == [2.0, 1.0]

    def test_default_when_no_transition(self):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, at(idx, 100), stats).tolist() == [1.0]

    def test_mean_of_ratios(self):
        train = log_at(("t1", [("a", 0), ("b", 10)]), ("t2", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(
            ("c1", [("a", 95), ("b", 100)]),
            ("c2", [("a", 85), ("b", 100)]),
        )
        idx = EventIndex(log)
        assert avg_delay(idx, at(idx, 100), stats).tolist() == [pytest.approx(1.0)]

    def test_unknown_transition_skipped(self):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("x", 95), ("y", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, at(idx, 100), stats).tolist() == [1.0]

    def test_zero_mean_transition_skipped(self):
        train = log_at(("t1", [("a", 0), ("b", 0)]))
        stats = fit_transition_stats(train)
        assert stats.mean_duration[("a", "b")] == 0.0
        log = log_at(("c1", [("a", 95), ("b", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, at(idx, 100), stats).tolist() == [1.0]


class TestFreqActTopRes:
    def test_most_frequent_activity(self):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("a", 96), ("a", 98), ("b", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, at(idx, 100), vocab).tolist() == [vocab.index("a")]

    def test_tie_takes_smaller_vocab_index(self):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("b", 98), ("a", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, at(idx, 100, 98), vocab).tolist() == [
            vocab.index("a"), vocab.index("b")
        ]

    def test_single_event_window(self):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("b", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, at(idx, 100, 50), vocab).tolist() == [vocab.index("b"), 0]

    def test_top_resource(self):
        vocab = Vocabulary.from_values(["r1", "r2"])
        log = log_at(("c1", [("a", 96, "r1"), ("b", 98, "r1"), ("c", 100, "r2")]))
        idx = EventIndex(log)
        assert top_res(idx, at(idx, 100), vocab).tolist() == [vocab.index("r1")]

    def test_top_resource_empty(self):
        vocab = Vocabulary.from_values(["r1"])
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert top_res(idx, at(idx, 100), vocab).tolist() == [0]

    def test_top_resource_tie(self):
        vocab = Vocabulary.from_values(["r1", "r2"])
        log = log_at(("c1", [("a", 98, "r2"), ("b", 100, "r1")]))
        idx = EventIndex(log)
        assert top_res(idx, at(idx, 100), vocab).tolist() == [vocab.index("r1")]

    def test_tie_between_codes_unknown_to_the_vocabulary(self):
        vocab = Vocabulary.from_values(["b"])
        log = log_at(("c1", [("x", 96), ("y", 98), ("b", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, at(idx, 100, 98), vocab).tolist() == [0, 0]


class TestFitBatchStats:
    def test_all_in_one_burst(self):
        traces = [make_trace(f"c{i}", [("a", i)]) for i in range(10)]
        stats = fit_batch_stats(make_log(*traces), epsilon=100.0, min_burst=3)
        assert stats.scores["a"] == 1.0

    def test_isolated_occurrences(self):
        traces = [make_trace(f"c{i}", [("a", i * 10_000)]) for i in range(5)]
        stats = fit_batch_stats(make_log(*traces), epsilon=10.0, min_burst=2)
        assert stats.scores["a"] == 0.0

    def test_half_bursty(self):
        close = [make_trace(f"c{i}", [("a", i)]) for i in range(4)]
        spread = [make_trace(f"d{i}", [("a", 10_000 + i * 10_000)]) for i in range(4)]
        stats = fit_batch_stats(make_log(*close, *spread), epsilon=100.0, min_burst=3)
        assert stats.scores["a"] == 0.5

    def test_same_case_repeats_do_not_form_burst(self):
        log = log_at(("c1", [("a", 0), ("a", 1), ("a", 2)]))
        stats = fit_batch_stats(log, epsilon=100.0, min_burst=3)
        assert stats.scores["a"] == 0.0

    def test_parameter_validation(self):
        log = log_at(("c1", [("a", 0)]))
        for epsilon in (0.0, float("nan")):
            with pytest.raises(ConfigError):
                fit_batch_stats(log, epsilon=epsilon, min_burst=3)
        with pytest.raises(ConfigError):
            fit_batch_stats(log, epsilon=10.0, min_burst=1)

    def test_matches_brute_force_oracle(self):
        for seed in (0, 1, 2, 3):
            log = random_log(seed, n_cases=15, span_s=400.0)
            got = fit_batch_stats(log, epsilon=50.0, min_burst=3).scores
            want = oracles.burst_scores(log, 50.0, 3)
            assert got == want

    def test_scores_within_unit_interval(self):
        log = random_log(7, n_cases=25, span_s=300.0)
        stats = fit_batch_stats(log, epsilon=40.0, min_burst=2)
        assert all(0.0 <= v <= 1.0 for v in stats.scores.values())


class TestBatchIndicator:
    def test_max_over_successors(self):
        stats = BatchStats({"b": 0.8, "c": 0.2}, 10.0, 3)
        assert batch_indicator(["a"], stats, {"a": ("b", "c")}).tolist() == [0.8]

    def test_unseen_activity(self):
        stats = BatchStats({"b": 0.8}, 10.0, 3)
        assert batch_indicator(["zzz"], stats, {"a": ("b",)}).tolist() == [0.0]

    def test_single_successor(self):
        stats = BatchStats({"b": 0.5}, 10.0, 3)
        assert batch_indicator(["a"], stats, {"a": ("b",)}).tolist() == [0.5]

    def test_successor_without_score_counts_zero(self):
        stats = BatchStats({}, 10.0, 3)
        assert batch_indicator(["a"], stats, {"a": ("b",)}).tolist() == [0.0]

    def test_one_lookup_per_anchor(self):
        stats = BatchStats({"b": 0.8, "c": 0.2}, 10.0, 3)
        successors = {"a": ("b", "c"), "b": ("c",)}
        got = batch_indicator(["b", "a", "zzz", "a", "b"], stats, successors)
        assert got.tolist() == [0.2, 0.8, 0.0, 0.8, 0.2]
        assert batch_indicator([], stats, successors).shape == (0,)


class TestFitTransitionStats:
    def test_means_and_successors(self):
        log = log_at(
            ("c1", [("a", 0), ("b", 10)]),
            ("c2", [("a", 0), ("b", 30), ("c", 31)]),
        )
        stats = fit_transition_stats(log)
        assert stats.mean_duration[("a", "b")] == 20.0
        assert stats.mean_duration[("b", "c")] == 1.0
        assert stats.successors == {"a": ("b",), "b": ("c",)}

    def test_only_observed_transitions_present(self):
        log = log_at(("c1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(log)
        assert ("b", "a") not in stats.mean_duration

    def test_matches_oracle(self):
        log = random_log(11, n_cases=12)
        stats = fit_transition_stats(log)
        assert stats.mean_duration == oracles.transition_means(log)
        assert stats.successors == oracles.successor_map(log)


def every_event(log):
    """Anchor times, case ids and activities of every event of the log."""
    events = [ev for trace in log.traces for ev in trace.events]
    times = np.array([ev.timestamp.timestamp() for ev in events])
    return times, [ev.case_id for ev in events], [ev.activity for ev in events]


def assert_window_features_match_oracle(log, idx, times, case_ids, width):
    """Each window feature, called once over all anchors, against the
    full-scan oracle anchor by anchor."""
    act_vocab = Vocabulary.from_values(log.activity_vocab)
    res_vocab = Vocabulary.from_values(log.resource_vocab)
    stats = fit_transition_stats(log)
    means = oracles.transition_means(log)
    bounds = idx.window_bounds(times, PeerWindow(width))
    got = {
        "peer_cases": peer_cases(idx, bounds, oracles.index_codes(case_ids, idx.cases)).tolist(),
        "peer_act": peer_act(idx, bounds).tolist(),
        "res_count": res_count(idx, bounds).tolist(),
        "avg_delay": avg_delay(idx, bounds, stats).tolist(),
        "freq_act": freq_act(idx, bounds, act_vocab).tolist(),
        "top_res": top_res(idx, bounds, res_vocab).tolist(),
    }
    for i, (t, cid) in enumerate(zip(times.tolist(), case_ids)):
        want = {
            "peer_cases": oracles.peer_cases(log, t, cid, width),
            "peer_act": oracles.peer_act(log, t, cid, width),
            "res_count": oracles.res_count(log, t, cid, width),
            "avg_delay": oracles.avg_delay(log, t, cid, width, means),
            "freq_act": oracles.freq_act(log, t, cid, width, act_vocab),
            "top_res": oracles.top_res(log, t, cid, width, res_vocab),
        }
        for name, value in want.items():
            assert got[name][i] == value, (name, i)


class TestOracleAgreement:
    """Production index vs full-scan oracle, every feature, every anchor."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("integer_times", [False, True])
    def test_all_features_match(self, seed, integer_times):
        log = random_log(seed, n_cases=18, integer_times=integer_times)
        times, case_ids, _ = every_event(log)
        assert_window_features_match_oracle(log, EventIndex(log), times, case_ids, 600.0)

    def test_ties_and_inclusive_boundaries(self):
        # Whole-second times: several cases share a second, and events sit
        # exactly width seconds before other events.
        log = log_at(
            ("c1", [("a", 0, "r1"), ("b", 30, "r2"), ("c", 60, "r1")]),
            ("c2", [("a", 0, "r2"), ("b", 30, "r1"), ("c", 90)]),
            ("c3", [("b", 30, "r1"), ("a", 60, "r2"), ("a", 90, "r2")]),
            ("c4", [("c", 60), ("c", 60, "r3"), ("b", 120, "r3")]),
        )
        times, case_ids, _ = every_event(log)
        for width in (30.0, 60.0, 29.0):
            assert_window_features_match_oracle(log, EventIndex(log), times, case_ids, width)

    def test_anchor_case_absent_from_window_or_index(self):
        log = random_log(4, n_cases=10, span_s=3000.0)
        times, case_ids, _ = every_event(log)
        # Halfway between events, for the anchor case and for unknown cases.
        mids = (times[:-1] + times[1:]) / 2
        anchors = np.concatenate([mids, mids, times])
        cases = case_ids[1:] + ["ghost"] * len(mids) + case_ids[::-1]
        assert_window_features_match_oracle(log, EventIndex(log), anchors, cases, 120.0)

    def test_empty_resource_is_no_resource(self):
        # One resource, an empty one and none: only "r1" is a resource, both
        # as parsed from XES and as an Event built with resource "".
        doc = xes_doc([
            ("c1", [("a", "2023-01-01T10:00:00Z", ""), ("b", "2023-01-01T10:00:20Z", "r1")], {}),
            ("c2", [("a", "2023-01-01T10:00:10Z", "")], {}),
        ])
        built = log_at(
            ("c1", [("a", 0, ""), ("b", 20, "r1")]),
            ("c2", [("a", 10, "")]),
        )
        for log in (parse_xes(doc), built):
            idx = EventIndex(log)
            times, case_ids, _ = every_event(log)
            assert_window_features_match_oracle(log, idx, times, case_ids, 60.0)
            assert idx.resources == ("r1",)
            bounds = idx.window_bounds(times.max(keepdims=True), PeerWindow(60.0))
            assert res_count(idx, bounds).tolist() == [1]
            assert top_res(idx, bounds, Vocabulary.from_values(["r1"])).tolist() == [1]

    def test_empty_index(self):
        log = EventLog.from_traces([])
        times = np.array([epoch(0), epoch(50)])
        assert_window_features_match_oracle(log, EventIndex(log), times, ["c1", "c2"], 10.0)

    @pytest.mark.parametrize("budget_entries", [1, 3, 7])
    def test_windows_crossing_chunk_boundaries(self, monkeypatch, budget_entries):
        monkeypatch.setattr(
            intercase, "GATHER_BUDGET_BYTES", 8 * intercase._GATHER_ARRAYS * budget_entries
        )
        log = random_log(3, n_cases=20, integer_times=True)
        times, case_ids, _ = every_event(log)
        assert_window_features_match_oracle(log, EventIndex(log), times, case_ids, 900.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_window_monotone_counts(self, seed):
        log = random_log(seed, n_cases=14)
        idx = EventIndex(log)
        times = np.array([tr.events[-1].timestamp.timestamp() for tr in log.traces])
        case_ids = [tr.case_id for tr in log.traces]
        prev = np.zeros((3, len(times)), dtype=np.int64)
        for width in (10.0, 100.0, 1000.0, 10_000.0):
            bounds = idx.window_bounds(times, PeerWindow(width))
            cur = np.stack([
                peer_cases(idx, bounds, oracles.index_codes(case_ids, idx.cases)),
                peer_act(idx, bounds),
                res_count(idx, bounds),
            ])
            assert (cur >= prev).all()
            prev = cur

    def test_count_dominance(self):
        log = random_log(5, n_cases=16)
        idx = EventIndex(log)
        times = np.array([tr.events[-1].timestamp.timestamp() for tr in log.traces])
        bounds = idx.window_bounds(times, PeerWindow(700.0))
        acts = peer_act(idx, bounds)
        cases = oracles.index_codes([tr.case_id for tr in log.traces], idx.cases)
        assert (peer_cases(idx, bounds, cases) <= acts).all()
        assert (res_count(idx, bounds) <= acts).all()


class TestEventIndex:
    def test_empty_log(self):
        idx = EventIndex(EventLog.from_traces([]))
        assert len(idx) == 0
        assert peer_act(idx, at(idx, 0)).tolist() == [0]

    def test_window_slice_bounds(self):
        log = log_at(("c1", [("a", 0), ("b", 50), ("c", 100)]))
        idx = EventIndex(log)
        lo, hi = at(idx, 100, 49, -1, width=50.0)
        assert lo.tolist() == [1, 0, 0]
        assert hi.tolist() == [3, 1, 0]

    def test_arrays_read_only(self):
        log = log_at(("c1", [("a", 0), ("b", 10)]))
        idx = EventIndex(log)
        with pytest.raises(ValueError):
            idx.times[0] = 0.0


class TestInterCaseEncoder:
    def _index(self):
        log = log_at(
            ("c1", [("a", 95, "r1"), ("b", 100, "r2")]),
            ("c2", [("a", 97, "r1")]),
        )
        return log, EventIndex(log)

    def test_encode_selected_features(self):
        log, idx = self._index()
        enc = InterCaseEncoder(idx, ("peer_cases", "peer_act"), PeerWindow(10.0))
        fv = enc.encode(np.array([epoch(100), epoch(95)]),
                        oracles.index_codes(["c1", "c2"], idx.cases),
                        oracles.index_codes(["b", "a"], idx.activities))
        assert fv.schema == ("peer_cases", "peer_act")
        assert fv.values.tolist() == [[2.0, 3.0], [2.0, 1.0]]

    def test_encode_empty_block(self):
        _, idx = self._index()
        enc = InterCaseEncoder(idx, ("peer_cases", "peer_act"), PeerWindow(10.0))
        assert enc.encode(np.array([]), [], []).values.shape == (0, 2)

    def test_unknown_feature_rejected(self):
        _, idx = self._index()
        with pytest.raises(ConfigError):
            InterCaseEncoder(idx, ("peer_cases", "queue_len"), PeerWindow(10.0))

    def test_missing_stats_rejected(self):
        _, idx = self._index()
        with pytest.raises(ConfigError):
            InterCaseEncoder(idx, ("avg_delay",), PeerWindow(10.0))
        with pytest.raises(ConfigError):
            InterCaseEncoder(idx, ("batch",), PeerWindow(10.0))
        with pytest.raises(ConfigError):
            InterCaseEncoder(idx, ("freq_act",), PeerWindow(10.0))
        with pytest.raises(ConfigError):
            InterCaseEncoder(idx, ("top_res",), PeerWindow(10.0))

    def test_batch_feature_uses_training_successors(self):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        tstats = fit_transition_stats(train)
        bstats = BatchStats({"b": 0.7}, 10.0, 3)
        log, idx = self._index()
        enc = InterCaseEncoder(
            idx,
            ("batch",),
            PeerWindow(10.0),
            transition_stats=tstats,
            batch_stats=bstats,
        )
        fv = enc.encode(np.array([epoch(100), epoch(100)]),
                        oracles.index_codes(["c1", "c1"], idx.cases),
                        oracles.index_codes(["a", "b"], idx.activities))
        assert fv.values.tolist() == [[0.7], [0.0]]


class TestCompose:
    def test_length_arithmetic(self):
        intra = FeatureVector(np.zeros(8), tuple(f"i{k}" for k in range(8)))
        inter = FeatureVector(np.ones(1), ("peer_cases",))
        out = compose(intra, inter)
        assert len(out) == 9
        assert out.schema[-1] == "peer_cases"

    def test_blocks_join_column_wise(self):
        intra = FeatureVector(np.zeros((5, 4)), tuple(f"i{k}" for k in range(4)))
        inter = FeatureVector(np.ones((5, 2)), ("peer_cases", "avg_delay"))
        out = compose(intra, inter)
        assert out.values.shape == (5, 6)
        assert out.values[:, 4:].tolist() == [[1.0, 1.0]] * 5

    def test_two_inter_features(self):
        intra = FeatureVector(np.zeros(4), tuple(f"i{k}" for k in range(4)))
        inter = FeatureVector(np.ones(2), ("peer_cases", "freq_act"))
        assert len(compose(intra, inter)) == 6

    def test_empty_inter_is_identity(self):
        intra = FeatureVector(np.arange(3.0), ("x", "y", "z"))
        out = compose(intra, FeatureVector(np.zeros(0), ()))
        assert np.array_equal(out.values, intra.values)
        assert out.schema == intra.schema

    def test_more_than_two_rejected(self):
        intra = FeatureVector(np.zeros(2), ("x", "y"))
        inter = FeatureVector(np.zeros(3), ("peer_cases", "peer_act", "res_count"))
        with pytest.raises(ConfigError):
            compose(intra, inter)

    def test_feature_names_catalogued(self):
        assert FEATURES == (
            "peer_cases",
            "peer_act",
            "res_count",
            "avg_delay",
            "freq_act",
            "top_res",
            "batch",
        )
