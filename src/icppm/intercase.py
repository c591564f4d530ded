"""Inter-case features over a sliding backward time window.

Each feature looks at the events of *other* live cases inside the window
[t - width, t] (both ends inclusive) anchored at a prefix's last event.
The log is indexed once into time-sorted arrays. Anchors come as three
arrays: epoch-second times, and the case and last-activity codes of the
indexed log. A block of anchors gets its window bounds from one binary
search over all anchor times, and each feature is computed for every anchor
of the block at once.

Conventions that keep results bit-identical to a naive full scan:
window membership compares epoch-second floats and durations are float
seconds, both ``eventlog.seconds`` of the log's integer microseconds, which
equals ``datetime.timestamp()`` and ``timedelta.total_seconds()``; means
use ``math.fsum`` so summation order cannot change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .encoding import FeatureVector, Vocabulary
from .errors import ConfigError
from .eventlog import EventLog, seconds

FEATURES = (
    "peer_cases",
    "peer_act",
    "res_count",
    "avg_delay",
    "freq_act",
    "top_res",
    "batch",
)


def _check_features(features: Sequence[str]) -> None:
    """An inter-case feature list has at most two distinct names of FEATURES."""
    if len(features) > 2:
        raise ConfigError(f"at most 2 inter-case features are allowed, got {features}")
    unknown = [f for f in features if f not in FEATURES]
    if unknown:
        raise ConfigError(f"unknown inter-case features {unknown}, expected {FEATURES}")
    if len(set(features)) < len(features):
        raise ConfigError(f"inter-case features repeat: {features}")


# Largest gather, in bytes, that counting window codes may build at once:
# anchors are taken in chunks whose window positions, expanded one int64
# array per step (anchor, position, code, key, sorted key), fit in it. One
# anchor whose window alone exceeds it still forms a chunk of its own.
GATHER_BUDGET_BYTES = 16 << 20
_GATHER_ARRAYS = 5

# (lo, hi) index arrays: anchor i's window is events lo[i]:hi[i] of the index.
Bounds = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PeerWindow:
    """Backward-looking window width in seconds."""

    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ConfigError(f"window width must be positive, got {self.width}")


@dataclass(eq=False)
class TransitionStats:
    """Mean duration per observed (activity, next activity) training transition."""

    mean_duration: dict[tuple[str, str], float]
    successors: dict[str, tuple[str, ...]]


@dataclass(eq=False)
class BatchStats:
    """Per-activity fraction of occurrences that happened inside a burst.

    A burst is any epsilon-wide interval holding occurrences of the activity
    from at least ``min_burst`` distinct cases; every occurrence inside such
    an interval counts as burst-bound.
    """

    scores: dict[str, float]
    epsilon: float
    min_burst: int


def fit_transition_stats(log: EventLog) -> TransitionStats:
    names = log.activity_vocab
    n_acts = max(len(names), 1)
    # Consecutive events of one case: rows r and r + 1 of the same case.
    same = np.flatnonzero(log.case[1:] == log.case[:-1])
    pairs = log.activity[same] * n_acts + log.activity[same + 1]
    gaps = seconds(log.time_us[same + 1] - log.time_us[same])
    order = np.argsort(pairs, kind="stable")
    keys, starts = np.unique(pairs[order], return_index=True)
    groups = np.split(gaps[order], starts[1:])
    means: dict[tuple[str, str], float] = {}
    succ: dict[str, list[str]] = {}
    # Keys ascend, so each activity's successors come in name order.
    for key, group in zip(keys.tolist(), groups):
        a, b = names[key // n_acts], names[key % n_acts]
        means[(a, b)] = math.fsum(group.tolist()) / len(group)
        succ.setdefault(a, []).append(b)
    return TransitionStats(means, {a: tuple(bs) for a, bs in succ.items()})


def _check_burst_rule(epsilon: float, min_burst: int) -> None:
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if min_burst < 2:
        raise ConfigError(f"min_burst must be >= 2, got {min_burst}")


def fit_batch_stats(
    log: EventLog,
    epsilon: float = 86400.0,
    min_burst: int = 3,
) -> BatchStats:
    _check_burst_rule(epsilon, min_burst)
    # Occurrences grouped by activity, each group sorted stably by time.
    all_times = seconds(log.time_us)
    order = np.lexsort((all_times, log.activity))
    acts = log.activity[order]
    bounds = np.r_[np.flatnonzero(np.diff(acts, prepend=-1)), len(acts)].tolist()
    times, cases = all_times[order], log.case[order]
    scores = {
        log.activity_vocab[acts[first]]:
            _burst_marked(times[first:end], cases[first:end], epsilon, min_burst) / (end - first)
        for first, end in zip(bounds, bounds[1:])
    }
    return BatchStats(scores, epsilon, min_burst)


def _burst_marked(times: np.ndarray, cases: np.ndarray, epsilon: float, min_burst: int) -> int:
    """How many of one activity's occurrences (sorted by time) lie in a burst.

    The interval starting at occurrence l is [l, right[l]): every r >= l with
    times[r] - times[l] <= epsilon. That test holds on a prefix of r and
    fails on a prefix of l, so right ascends. Occurrence p brings a new case
    into the interval of l exactly when its case's previous occurrence lies
    before l, l <= p and right[l] > p: l runs over [start[p], p], so the
    intervals holding l count the starts up to l less the l occurrences
    before it. Occurrence q is marked when a qualifying interval (at least
    ``min_burst`` cases) starting at or before q still reaches past it.
    """
    n = len(times)
    idx = np.arange(n)
    right = np.searchsorted(times, times + epsilon, side="right")
    # times + epsilon rounds, so move right, a block of equal times at a time,
    # until the test itself holds just before it and fails at it.
    while True:
        at = np.minimum(right, n - 1)
        ahead = (right < n) & (times[at] - times <= epsilon)
        behind = times[right - 1] - times > epsilon
        if not (ahead.any() or behind.any()):
            break
        right = np.where(ahead, np.searchsorted(times, times[at], side="right"), right)
        right = np.where(behind, np.searchsorted(times, times[right - 1], side="left"), right)
    by_case = np.argsort(cases, kind="stable")
    prev = np.full(n, -1)
    same = cases[by_case[1:]] == cases[by_case[:-1]]
    prev[by_case[1:][same]] = by_case[:-1][same]
    start = np.maximum(prev + 1, np.searchsorted(right, idx, side="right"))
    distinct = np.cumsum(np.bincount(start, minlength=n)) - idx
    reach = np.maximum.accumulate(np.where(distinct >= min_burst, right, 0))
    return int(np.count_nonzero(reach > idx))


class EventIndex:
    """Time-sorted columns of a log, shared by all window feature queries.

    Case, activity and resource codes are the log's own.
    """

    def __init__(self, log: EventLog):
        times = seconds(log.time_us)
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.case_codes = log.case[order]
        self.act_codes = log.activity[order]
        self.res_codes = log.resource[order]
        # Previous event of the same case: its activity and the gap to it.
        has_prev = np.ones(log.n_events, dtype=bool)
        has_prev[log.offsets[:-1][np.diff(log.offsets) > 0]] = False
        prev_acts = np.where(has_prev, np.roll(log.activity, 1), -1)[order]
        gaps = seconds(log.time_us - np.roll(log.time_us, 1))
        self.prev_gaps = np.where(has_prev, gaps, math.nan)[order]
        n_acts = max(len(log.activity_vocab), 1)
        self.pair_codes = np.where(
            prev_acts >= 0, prev_acts * n_acts + self.act_codes, -1
        )
        self.cases = log.case_ids
        self.activities = log.activity_vocab
        self.resources = log.resource_vocab
        for arr in (self.times, self.case_codes, self.act_codes,
                    self.res_codes, self.prev_gaps, self.pair_codes):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    def window_bounds(self, times: np.ndarray, window: PeerWindow) -> Bounds:
        """Event range [lo, hi) of the window ending at each anchor time."""
        times = np.asarray(times, dtype=np.float64)
        lo = np.searchsorted(self.times, times - window.width, side="left")
        hi = np.searchsorted(self.times, times, side="right")
        return lo, hi

    def mean_by_pair(self, stats: TransitionStats) -> np.ndarray:
        """Training mean duration per internal transition code; NaN when the
        transition is unknown or its mean is zero (no usable ratio)."""
        n_acts = max(len(self.activities), 1)
        code = {a: i for i, a in enumerate(self.activities)}
        table = np.full(n_acts * n_acts, math.nan)
        for (a, b), mean in stats.mean_duration.items():
            ia = code.get(a)
            ib = code.get(b)
            if ia is not None and ib is not None and mean > 0:
                table[ia * n_acts + ib] = mean
        return table


def _window_counts(
    bounds: Bounds, codes: np.ndarray, n_codes: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """How often each code occurs in each anchor's window, chunk by chunk.

    Yields ``(start, stop, anchor, code, count)`` for the anchors
    ``start:stop``: one entry per distinct (anchor, code) pair among the
    window events whose code is >= 0, with ``anchor`` relative to ``start``
    and the entries sorted by anchor, then code.
    """
    lo, hi = bounds
    sizes = hi - lo
    ends = np.cumsum(sizes)
    per_chunk = max(1, GATHER_BUDGET_BYTES // (8 * _GATHER_ARRAYS))
    start = 0
    while start < len(lo):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + per_chunk, side="right")))
        chunk = sizes[start:stop]
        anchor = np.repeat(np.arange(stop - start), chunk)
        # Window positions: lo of the anchor plus the offset inside its window.
        pos = np.arange(len(anchor)) + np.repeat(
            lo[start:stop] - (np.cumsum(chunk) - chunk), chunk
        )
        code = codes[pos]
        keep = code >= 0
        keys, count = np.unique(anchor[keep] * n_codes + code[keep], return_counts=True)
        yield start, stop, keys // n_codes, keys % n_codes, count
        start = stop


def _most_frequent(
    bounds: Bounds, codes: np.ndarray, n_codes: int, translation: np.ndarray
) -> np.ndarray:
    """Per anchor, the smallest translated code among the window's most
    frequent codes; 0 for a window without codes."""
    out = np.zeros(len(bounds[0]), dtype=np.int64)
    for start, _, anchor, code, count in _window_counts(bounds, codes, n_codes):
        if not len(anchor):
            continue
        # Entries are grouped by anchor: reduce each group to its top count,
        # then to the smallest translation among the codes reaching it.
        first = np.flatnonzero(np.r_[True, anchor[1:] != anchor[:-1]])
        best = np.repeat(np.maximum.reduceat(count, first), np.diff(np.r_[first, len(anchor)]))
        tops = np.where(count == best, translation[code], np.iinfo(np.int64).max)
        out[start + anchor[first]] = np.minimum.reduceat(tops, first)
    return out


def peer_cases(index: EventIndex, bounds: Bounds, cases: np.ndarray) -> np.ndarray:
    """Distinct cases with an event in each window, the anchor's case (its
    code in ``cases``) included."""
    distinct = np.zeros(len(cases), dtype=np.int64)
    present = np.zeros(len(cases), dtype=bool)
    n_cases = max(len(index.cases), 1)
    for start, stop, anchor, code, _ in _window_counts(bounds, index.case_codes, n_cases):
        distinct[start:stop] = np.bincount(anchor, minlength=stop - start)
        mine = anchor[code == cases[start:stop][anchor]]
        present[start + mine] = True
    return distinct + ~present


def peer_act(index: EventIndex, bounds: Bounds) -> np.ndarray:
    """Total number of events (all cases) in each window."""
    lo, hi = bounds
    return hi - lo


def res_count(index: EventIndex, bounds: Bounds) -> np.ndarray:
    """Distinct non-empty resources active in each window."""
    out = np.zeros(len(bounds[0]), dtype=np.int64)
    n_res = max(len(index.resources), 1)
    for start, stop, anchor, _, _ in _window_counts(bounds, index.res_codes, n_res):
        out[start:stop] = np.bincount(anchor, minlength=stop - start)
    return out


def avg_delay(index: EventIndex, bounds: Bounds, stats: TransitionStats) -> np.ndarray:
    """Mean observed/expected duration ratio of transitions ending in each window.

    Only same-case consecutive pairs whose transition has a positive training
    mean are eligible; with no eligible pair the neutral ratio 1.0 is returned.
    """
    means = index.mean_by_pair(stats)
    eligible = index.pair_codes >= 0
    pair_means = means[np.where(eligible, index.pair_codes, 0)]
    ok = eligible & np.isfinite(pair_means)
    ratios = (index.prev_gaps[ok] / pair_means[ok]).tolist()
    # Eligible events of each window: a range of the eligible positions.
    positions = np.flatnonzero(ok)
    lo, hi = bounds
    first = np.searchsorted(positions, lo).tolist()
    last = np.searchsorted(positions, hi).tolist()
    return np.array([
        math.fsum(ratios[a:b]) / (b - a) if b > a else 1.0
        for a, b in zip(first, last)
    ], dtype=np.float64)


def freq_act(index: EventIndex, bounds: Bounds, act_vocab: Vocabulary) -> np.ndarray:
    """Vocabulary code of the most frequent activity in each window.

    Ties resolve to the smallest vocabulary index; an empty window gives 0.
    """
    return _most_frequent(
        bounds, index.act_codes, max(len(index.activities), 1),
        act_vocab.codes(index.activities).astype(np.int64),
    )


def top_res(index: EventIndex, bounds: Bounds, res_vocab: Vocabulary) -> np.ndarray:
    """Vocabulary code of the busiest resource in each window; 0 when none."""
    return _most_frequent(
        bounds, index.res_codes, max(len(index.resources), 1),
        res_vocab.codes(index.resources).astype(np.int64),
    )


def batch_indicator(
    last_activities: Sequence[str],
    stats: BatchStats,
    successors: Mapping[str, Sequence[str]],
) -> np.ndarray:
    """Largest burst score among training successors of each anchor activity."""
    table = {
        a: max((stats.scores.get(b, 0.0) for b in successors.get(a, ())), default=0.0)
        for a in set(last_activities)
    }
    return np.array([table[a] for a in last_activities], dtype=np.float64)


@dataclass(eq=False)
class InterCaseEncoder:
    """Binds a feature subset to an index, fitted stats, and a window."""

    index: EventIndex
    features: tuple[str, ...]
    window: PeerWindow
    act_vocab: Vocabulary | None = None
    res_vocab: Vocabulary | None = None
    transition_stats: TransitionStats | None = None
    batch_stats: BatchStats | None = None

    def __post_init__(self):
        self.features = tuple(self.features)
        _check_features(self.features)
        if "avg_delay" in self.features and self.transition_stats is None:
            raise ConfigError("avg_delay requires fitted transition stats")
        if "batch" in self.features and (
            self.batch_stats is None or self.transition_stats is None
        ):
            raise ConfigError("batch requires fitted batch and transition stats")
        if "freq_act" in self.features and self.act_vocab is None:
            raise ConfigError("freq_act requires an activity vocabulary")
        if "top_res" in self.features and self.res_vocab is None:
            raise ConfigError("top_res requires a resource vocabulary")

    def encode(
        self, times: np.ndarray, cases: np.ndarray, last_activities: np.ndarray
    ) -> FeatureVector:
        """Feature block, one row per anchor (time, case, last activity);
        cases and activities are integer arrays of the index's own codes."""
        index = self.index
        bounds = index.window_bounds(times, self.window)
        out = np.empty((len(cases), len(self.features)))
        for j, name in enumerate(self.features):
            if name == "peer_cases":
                out[:, j] = peer_cases(index, bounds, cases)
            elif name == "peer_act":
                out[:, j] = peer_act(index, bounds)
            elif name == "res_count":
                out[:, j] = res_count(index, bounds)
            elif name == "avg_delay":
                out[:, j] = avg_delay(index, bounds, self.transition_stats)
            elif name == "freq_act":
                out[:, j] = freq_act(index, bounds, self.act_vocab)
            elif name == "top_res":
                out[:, j] = top_res(index, bounds, self.res_vocab)
            elif name == "batch":
                scores = batch_indicator(
                    index.activities, self.batch_stats, self.transition_stats.successors
                )
                out[:, j] = scores[last_activities]
        return FeatureVector(out, self.features)


def compose(intra: FeatureVector, inter: FeatureVector) -> FeatureVector:
    """Concatenate intra- and inter-case features; the latter's names must
    pass ``_check_features``."""
    _check_features(inter.schema)
    return intra.concat(inter)
