from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import BASE, make_event, make_log, make_trace, random_log
from icppm.encoding import FeatureVector, Vocabulary
from icppm.errors import ConfigError
from icppm.eventlog import EventLog, Trace
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


@pytest.fixture
def window10():
    return PeerWindow(10.0)


class TestPeerWindow:
    def test_positive_width_required(self):
        with pytest.raises(ConfigError):
            PeerWindow(0.0)
        with pytest.raises(ConfigError):
            PeerWindow(-5.0)


class TestPeerCases:
    def test_hand_enumerated_window(self, window10):
        log = log_at(
            ("c1", [("a", 100)]),
            ("c2", [("a", 95)]),
            ("c3", [("a", 85)]),
        )
        idx = EventIndex(log)
        assert peer_cases(idx, epoch(100), "c1", window10) == 2

    def test_anchor_alone(self, window10):
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert peer_cases(idx, epoch(100), "c1", window10) == 1

    def test_anchor_before_other_activity(self, window10):
        log = log_at(("c1", [("a", 0)]), ("c2", [("a", 500)]))
        idx = EventIndex(log)
        assert peer_cases(idx, epoch(0), "c1", window10) == 1

    def test_counts_anchor_even_without_its_event(self, window10):
        log = log_at(("c1", [("a", 0)]), ("c2", [("a", 95)]))
        idx = EventIndex(log)
        assert peer_cases(idx, epoch(100), "c1", window10) == 2

    def test_same_case_multiple_events_counted_once(self, window10):
        log = log_at(("c1", [("a", 92), ("b", 96), ("c", 100)]))
        idx = EventIndex(log)
        assert peer_cases(idx, epoch(100), "c1", window10) == 1


class TestPeerAct:
    def test_five_events(self, window10):
        log = log_at(
            ("c1", [("a", 91), ("b", 100)]),
            ("c2", [("a", 93), ("b", 97)]),
            ("c3", [("a", 95)]),
        )
        idx = EventIndex(log)
        assert peer_act(idx, epoch(100), "c1", window10) == 5

    def test_anchor_only(self, window10):
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert peer_act(idx, epoch(100), "c1", window10) == 1

    def test_both_boundaries_inclusive(self, window10):
        log = log_at(
            ("c1", [("a", 90), ("b", 100)]),
            ("c2", [("a", 90)]),
            ("c3", [("a", 89.999)]),
        )
        idx = EventIndex(log)
        assert peer_act(idx, epoch(100), "c1", window10) == 3


class TestResCount:
    def test_two_distinct(self, window10):
        log = log_at(
            ("c1", [("a", 95, "r1"), ("b", 100, "r1")]),
            ("c2", [("a", 97, "r2")]),
        )
        idx = EventIndex(log)
        assert res_count(idx, epoch(100), "c1", window10) == 2

    def test_no_resources(self, window10):
        log = log_at(("c1", [("a", 95), ("b", 100)]))
        idx = EventIndex(log)
        assert res_count(idx, epoch(100), "c1", window10) == 0

    def test_single_resource(self, window10):
        log = log_at(("c1", [("a", 100, "r1")]))
        idx = EventIndex(log)
        assert res_count(idx, epoch(100), "c1", window10) == 1


class TestAvgDelay:
    def test_ratio_two(self, window10):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("a", 80), ("b", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, epoch(100), "c1", window10, stats) == 2.0

    def test_default_when_no_transition(self, window10):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, epoch(100), "c1", window10, stats) == 1.0

    def test_mean_of_ratios(self, window10):
        train = log_at(("t1", [("a", 0), ("b", 10)]), ("t2", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(
            ("c1", [("a", 95), ("b", 100)]),
            ("c2", [("a", 85), ("b", 100)]),
        )
        idx = EventIndex(log)
        assert avg_delay(idx, epoch(100), "c1", window10, stats) == pytest.approx(1.0)

    def test_unknown_transition_skipped(self, window10):
        train = log_at(("t1", [("a", 0), ("b", 10)]))
        stats = fit_transition_stats(train)
        log = log_at(("c1", [("x", 95), ("y", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, epoch(100), "c1", window10, stats) == 1.0

    def test_zero_mean_transition_skipped(self, window10):
        train = log_at(("t1", [("a", 0), ("b", 0)]))
        stats = fit_transition_stats(train)
        assert stats.mean_duration[("a", "b")] == 0.0
        log = log_at(("c1", [("a", 95), ("b", 100)]))
        idx = EventIndex(log)
        assert avg_delay(idx, epoch(100), "c1", window10, stats) == 1.0


class TestFreqActTopRes:
    def test_most_frequent_activity(self, window10):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("a", 96), ("a", 98), ("b", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, epoch(100), "c1", window10, vocab) == vocab.index("a")

    def test_tie_takes_smaller_vocab_index(self, window10):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("b", 98), ("a", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, epoch(100), "c1", window10, vocab) == vocab.index("a")

    def test_single_event_window(self, window10):
        vocab = Vocabulary.from_values(["a", "b"])
        log = log_at(("c1", [("b", 100)]))
        idx = EventIndex(log)
        assert freq_act(idx, epoch(100), "c1", window10, vocab) == vocab.index("b")

    def test_top_resource(self, window10):
        vocab = Vocabulary.from_values(["r1", "r2"])
        log = log_at(("c1", [("a", 96, "r1"), ("b", 98, "r1"), ("c", 100, "r2")]))
        idx = EventIndex(log)
        assert top_res(idx, epoch(100), "c1", window10, vocab) == vocab.index("r1")

    def test_top_resource_empty(self, window10):
        vocab = Vocabulary.from_values(["r1"])
        log = log_at(("c1", [("a", 100)]))
        idx = EventIndex(log)
        assert top_res(idx, epoch(100), "c1", window10, vocab) == 0

    def test_top_resource_tie(self, window10):
        vocab = Vocabulary.from_values(["r1", "r2"])
        log = log_at(("c1", [("a", 98, "r2"), ("b", 100, "r1")]))
        idx = EventIndex(log)
        assert top_res(idx, epoch(100), "c1", window10, vocab) == vocab.index("r1")


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
        with pytest.raises(ConfigError):
            fit_batch_stats(log, epsilon=0.0, min_burst=3)
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
        assert batch_indicator("a", stats, {"a": ("b", "c")}) == 0.8

    def test_unseen_activity(self):
        stats = BatchStats({"b": 0.8}, 10.0, 3)
        assert batch_indicator("zzz", stats, {"a": ("b",)}) == 0.0

    def test_single_successor(self):
        stats = BatchStats({"b": 0.5}, 10.0, 3)
        assert batch_indicator("a", stats, {"a": ("b",)}) == 0.5

    def test_successor_without_score_counts_zero(self):
        stats = BatchStats({}, 10.0, 3)
        assert batch_indicator("a", stats, {"a": ("b",)}) == 0.0


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


class TestOracleAgreement:
    """Production index vs full-scan oracle, every feature, every anchor."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("integer_times", [False, True])
    def test_all_features_match(self, seed, integer_times):
        log = random_log(seed, n_cases=18, integer_times=integer_times)
        idx = EventIndex(log)
        act_vocab = Vocabulary.from_values(log.activity_vocab)
        res_vocab = Vocabulary.from_values(log.resource_vocab)
        stats = fit_transition_stats(log)
        means = oracles.transition_means(log)
        width = 600.0
        window = PeerWindow(width)
        for trace in log.traces:
            for ev in trace.events:
                t = ev.timestamp.timestamp()
                cid = trace.case_id
                assert peer_cases(idx, t, cid, window) == oracles.peer_cases(log, t, cid, width)
                assert peer_act(idx, t, cid, window) == oracles.peer_act(log, t, cid, width)
                assert res_count(idx, t, cid, window) == oracles.res_count(log, t, cid, width)
                assert avg_delay(idx, t, cid, window, stats) == oracles.avg_delay(
                    log, t, cid, width, means
                )
                assert freq_act(idx, t, cid, window, act_vocab) == oracles.freq_act(
                    log, t, cid, width, act_vocab
                )
                assert top_res(idx, t, cid, window, res_vocab) == oracles.top_res(
                    log, t, cid, width, res_vocab
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_window_monotone_counts(self, seed):
        log = random_log(seed, n_cases=14)
        idx = EventIndex(log)
        anchors = [
            (tr.events[-1].timestamp.timestamp(), tr.case_id) for tr in log.traces
        ]
        for t, cid in anchors:
            prev = (0, 0, 0)
            for width in (10.0, 100.0, 1000.0, 10_000.0):
                w = PeerWindow(width)
                cur = (
                    peer_cases(idx, t, cid, w),
                    peer_act(idx, t, cid, w),
                    res_count(idx, t, cid, w),
                )
                assert cur[0] >= prev[0]
                assert cur[1] >= prev[1]
                assert cur[2] >= prev[2]
                prev = cur

    def test_count_dominance(self):
        log = random_log(5, n_cases=16)
        idx = EventIndex(log)
        w = PeerWindow(700.0)
        for trace in log.traces:
            t = trace.events[-1].timestamp.timestamp()
            acts = peer_act(idx, t, trace.case_id, w)
            assert peer_cases(idx, t, trace.case_id, w) <= acts
            assert res_count(idx, t, trace.case_id, w) <= acts


class TestEventIndex:
    def test_empty_log(self):
        idx = EventIndex(EventLog.from_traces([]))
        assert len(idx) == 0
        assert peer_act(idx, 0.0, "c1", PeerWindow(10.0)) == 0

    def test_window_slice_bounds(self):
        log = log_at(("c1", [("a", 0), ("b", 50), ("c", 100)]))
        idx = EventIndex(log)
        lo, hi = idx.window_slice(epoch(100), PeerWindow(50.0))
        assert hi - lo == 2

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
        fv = enc.encode(epoch(100), "c1", "b")
        assert fv.schema == ("peer_cases", "peer_act")
        assert fv.values.tolist() == [2.0, 3.0]

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
        assert enc.encode(epoch(100), "c1", "a").values.tolist() == [0.7]
        assert enc.encode(epoch(100), "c1", "b").values.tolist() == [0.0]


class TestCompose:
    def test_length_arithmetic(self):
        intra = FeatureVector(np.zeros(8), tuple(f"i{k}" for k in range(8)))
        inter = FeatureVector(np.ones(1), ("peer_cases",))
        out = compose(intra, inter)
        assert len(out) == 9
        assert out.schema[-1] == "peer_cases"

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
