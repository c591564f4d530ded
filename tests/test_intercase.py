from __future__ import annotations

import math
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from icppm import intercase
from conftest import BASE, make_log, make_trace, random_log, xes_doc
from icppm.encoding import FeatureVector, Vocabulary
from icppm.errors import ConfigError
from icppm.eventlog import parse_xes
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


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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

    # Epsilon in microseconds, and the gap in units of it before each
    # occurrence: 0 repeats a time, 1 and 1/2 + 1/2 span exactly epsilon,
    # and one microsecond either side of it crosses the bound. Times near
    # BASE are floats on a 2**-22 s grid, so times[r] - times[l] is exact
    # and a grid point, while times[l] + epsilon rounds to the nearest one:
    # where epsilon / 2**-22 has a fraction above 1/2 (3, 100_001 and
    # 100_003 us), that rounds past the bound, and occurrences the
    # predicate leaves out fall below times[l] + epsilon. Times that start
    # within 3 s of the Unix epoch are near zero, where times[r] - times[l]
    # itself rounds, and occurrences the predicate takes in can lie above
    # times[l] + epsilon.
    @settings(max_examples=300, deadline=None)
    # times[l] + epsilon rounds above times[r] though times[r] - times[l] > epsilon.
    @example(start=BASE, start_us=0, epsilon_us=3, min_burst=2,
             occurrences=[(0, "a", "0"), (1, "a", "1")])
    # times[r] - times[l] <= epsilon though times[r] > times[l] + epsilon.
    @example(start=EPOCH, start_us=-1_756_673, epsilon_us=2_500_000, min_burst=3,
             occurrences=[(3, "a", "0"), (3, "a", "1/2"), (2, "a", "1/2"),
                          (2, "a", "1/2"), (0, "a", "0"), (2, "a", "1")])
    @given(
        start=st.sampled_from([BASE, EPOCH]),
        start_us=st.integers(-3_000_000, 3_000_000),
        epsilon_us=st.sampled_from([3, 100_001, 100_003, 1_000_000, 2_500_000, 86_400_000_000]),
        min_burst=st.integers(2, 5),
        occurrences=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from("ab"),
                      st.sampled_from(["0", "1", "1/2", "1-", "1+", "3"])),
            min_size=1, max_size=40),
    )
    def test_matches_brute_force_oracle_at_the_epsilon_bound(self, start, start_us, epsilon_us,
                                                            min_burst, occurrences):
        step = {"0": 0, "1": epsilon_us, "1/2": epsilon_us // 2, "1-": epsilon_us - 1,
                "1+": epsilon_us + 1, "3": 3 * epsilon_us}
        us, specs = start_us, {}
        for case, activity, gap in occurrences:
            us += step[gap]
            specs.setdefault(f"c{case}", []).append(
                (activity, start + timedelta(microseconds=us)))
        log = make_log(*(make_trace(cid, spec) for cid, spec in specs.items()))
        epsilon = epsilon_us / 1e6
        got = fit_batch_stats(log, epsilon, min_burst).scores
        assert got == oracles.burst_scores(log, epsilon, min_burst)


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
    events = [(when.timestamp(), case_id, act)
              for case_id, _, evs in oracles.cases(log) for act, when, _ in evs]
    return (np.array([t for t, _, _ in events]), [cid for _, cid, _ in events],
            [act for _, _, act in events])


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
        # as parsed from XES and as read from a CSV with an empty resource cell.
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
        log = make_log()
        times = np.array([epoch(0), epoch(50)])
        assert_window_features_match_oracle(log, EventIndex(log), times, ["c1", "c2"], 10.0)

    @pytest.mark.parametrize("budget_entries", [1, 3, 7, 10])
    def test_windows_crossing_chunk_boundaries(self, monkeypatch, budget_entries):
        # The same budgets sum avg_delay's windows in blocks of 1, 1, 2 and 3 anchors.
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
        times = np.array([evs[-1][1].timestamp() for _, _, evs in oracles.cases(log)])
        case_ids = list(log.case_ids)
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
        times = np.array([evs[-1][1].timestamp() for _, _, evs in oracles.cases(log)])
        bounds = idx.window_bounds(times, PeerWindow(700.0))
        acts = peer_act(idx, bounds)
        cases = oracles.index_codes(log.case_ids, idx.cases)
        assert (peer_cases(idx, bounds, cases) <= acts).all()
        assert (res_count(idx, bounds) <= acts).all()


# Dyadic values whose sums tie at binade crossings, zeros and subnormals,
# magnitudes from 1e-300 to 1e300, and values near overflow.
sum_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -53, 2.0 ** -52, 1.0 + 2.0 ** -52,
                     2.0 ** 53, 2.0 ** 53 - 1, -(2.0 ** 53), 5e-324, -5e-324, 2.0 ** -1022,
                     2.0 ** -1022 - 5e-324, 1.7e308, -1.7e308]),
    st.builds(lambda m, e: m * 2.0 ** e, st.integers(-2 ** 12, 2 ** 12), st.integers(-60, 60)),
    st.builds(math.ldexp, st.floats(-1, 1), st.integers(-1074, -1000)),
    st.floats(-1e300, 1e300).filter(lambda v: v == 0 or abs(v) >= 1e-300),
)


@st.composite
def windowed_values(draw):
    values = draw(st.lists(sum_values, max_size=24))
    ends = st.integers(0, len(values))
    return values, draw(st.lists(st.tuples(ends, ends).map(sorted), max_size=8))


class TestWindowSums:
    @settings(max_examples=400, deadline=None)
    @given(windowed_values())
    # 1 + 2**-53 + 2**-100 after cancelling 2**60: the float sum of the
    # TwoSum errors drops 2**-100 at a tie and rounds down.
    @example(([2.0 ** 60, 1.0, 2.0 ** -53, 2.0 ** -100, -(2.0 ** 60)], [(0, 5), (1, 4)]))
    # 3 + 2**-52 + 2**-120: s + e is a tie that the dropped 2**-120 decides.
    @example(([3.0, 2.0 ** -52, 2.0 ** -120], [(0, 3)]))
    # Exact ties, which round to even, one at the binade crossing 2**53.
    @example(([1.0, 2.0 ** -53], [(0, 2)]))
    @example(([2.0 ** 53 - 1, 0.5, 2.0 ** -60, 0.5], [(0, 2), (0, 3), (0, 4)]))
    @example(([1.0 + 2.0 ** -52, 2.0 ** -53, 3.0], [(0, 2), (0, 3), (2, 2)]))
    @example(([1.7e308, 1.7e308, -1.7e308], [(2, 3), (0, 3)]))
    # The fsum fallback of a near-tie and the overflow guard, in the last
    # window, which lands in a later block when blocks hold 1 to 3 anchors.
    @example(([1.0, 2.0, 2.0 ** 60, 1.0, 2.0 ** -53, 2.0 ** -100, -(2.0 ** 60)],
              [(0, 1), (0, 2), (1, 2), (2, 7)]))
    @example(([1.0, 2.0, 1e302, -1e302, 1.5], [(0, 1), (1, 2), (0, 2), (2, 5)]))
    @example(([1.0, 2.0, 1.7e308, 1.7e308, -1.7e308], [(0, 1), (0, 2), (4, 5), (2, 5)]))
    def test_equals_fsum_per_window(self, case):
        values, windows = case
        first = np.array([a for a, _ in windows], dtype=np.int64)
        last = np.array([b for _, b in windows], dtype=np.int64)
        args = (np.array(values, dtype=np.float64), first, last)
        try:
            want = np.array([math.fsum(values[a:b]) for a, b in windows]).tobytes()
        except OverflowError as exc:
            want = exc
        # One block of every window, and blocks of 1, 2 and 3 anchors.
        budgets = [8 * intercase._SUM_ARRAYS * block for block in (1, 2, 3)]
        for budget in [intercase.GATHER_BUDGET_BYTES, *budgets]:
            with mock.patch.object(intercase, "GATHER_BUDGET_BYTES", budget):
                if isinstance(want, OverflowError):
                    with pytest.raises(OverflowError, match=re.escape(str(want))):
                        intercase._window_sums(*args)
                else:
                    assert intercase._window_sums(*args).tobytes() == want, budget

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_fallback_in_a_later_block_sums_its_own_window(self, block):
        # Only the near-tie window (2, 7), the fourth, fails both exactness
        # tests; fsum must sum that window and no other.
        values = np.array([1.0, 2.0, 2.0 ** 60, 1.0, 2.0 ** -53, 2.0 ** -100, -(2.0 ** 60)])
        first, last = np.array([0, 0, 1, 2, 3]), np.array([1, 2, 2, 7, 5])
        want = [math.fsum(values[a:b].tolist()) for a, b in zip(first, last)]
        with mock.patch.object(intercase, "GATHER_BUDGET_BYTES", 8 * intercase._SUM_ARRAYS * block), \
                mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            got = intercase._window_sums(values, first, last)
        assert got.tolist() == want
        assert fsum.call_args_list == [mock.call(values[2:7].tolist())]


class TestPeerCountsOnTiesAndEmptyWindows:
    """peer_cases and res_count against the full-scan oracle on logs whose
    events share a few whole seconds, with anchors whose windows hold no
    event, and chunks of a few gathered entries."""

    @settings(max_examples=150, deadline=None)
    @given(
        events=st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3", "c4"]), st.integers(0, 6),
                                  st.sampled_from(["r1", "r2", "", None])), max_size=14),
        anchors=st.lists(st.tuples(st.integers(-20, 30), st.sampled_from(["c1", "c4", "ghost"])),
                         min_size=1, max_size=8),
        width=st.sampled_from([0.5, 1.0, 3.0, 40.0]),
        budget_entries=st.sampled_from([1, 2, 1 << 20]),
    )
    def test_match_oracle(self, events, anchors, width, budget_entries):
        spec = {}
        for case, second, resource in events:
            spec.setdefault(case, []).append(("a", second, resource))
        log = log_at(*spec.items())
        idx = EventIndex(log)
        times = np.array([epoch(second) for second, _ in anchors])
        case_ids = [case for _, case in anchors]
        bounds = idx.window_bounds(times, PeerWindow(width))
        budget = 8 * intercase._GATHER_ARRAYS * budget_entries
        with mock.patch.object(intercase, "GATHER_BUDGET_BYTES", budget):
            got_cases = peer_cases(idx, bounds, oracles.index_codes(case_ids, idx.cases)).tolist()
            got_res = res_count(idx, bounds).tolist()
        assert got_cases == [oracles.peer_cases(log, t, c, width)
                             for t, c in zip(times.tolist(), case_ids)]
        assert got_res == [oracles.res_count(log, t, c, width)
                           for t, c in zip(times.tolist(), case_ids)]


class TestEventIndex:
    def test_empty_log(self):
        idx = EventIndex(make_log())
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

    def test_previous_resource_built_once_for_res_count_only(self, monkeypatch):
        log = random_log(2, n_cases=12)
        idx = EventIndex(log)
        calls = []
        previous = intercase._previous
        monkeypatch.setattr(intercase, "_previous",
                            lambda codes: calls.append(len(codes)) or previous(codes))
        times, case_ids, _ = every_event(log)
        bounds = idx.window_bounds(times, PeerWindow(600.0))
        peer_cases(idx, bounds, oracles.index_codes(case_ids, idx.cases))
        top_res(idx, bounds, Vocabulary.from_values(log.resource_vocab))
        assert calls == []
        first = res_count(idx, bounds)
        assert res_count(idx, bounds).tolist() == first.tolist()
        assert calls == [len(idx)]
        assert idx.prev_res.tolist() == previous(idx.res_codes).tolist()
        with pytest.raises(ValueError):
            idx.prev_res[0] = 0


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
