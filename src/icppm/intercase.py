"""Inter-case features over a sliding backward time window.

Each feature looks at the events of *other* live cases inside the window
[t - width, t] (both ends inclusive) anchored at a prefix's last event.
The log is indexed once (time-sorted arrays, binary-searched bounds) so a
query costs O(log N + W) instead of a full scan.

Conventions that keep results bit-identical to a naive full scan:
window membership compares epoch-second floats (``datetime.timestamp()``),
durations are exact ``timedelta.total_seconds()``, and means use
``math.fsum`` so summation order cannot change the result.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .encoding import FeatureVector, Vocabulary
from .errors import ConfigError
from .eventlog import EventLog

FEATURES = (
    "peer_cases",
    "peer_act",
    "res_count",
    "avg_delay",
    "freq_act",
    "top_res",
    "batch",
)


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
    gaps: dict[tuple[str, str], list[float]] = {}
    succ: dict[str, set[str]] = {}
    for trace in log.traces:
        for a, b in zip(trace.events, trace.events[1:]):
            pair = (a.activity, b.activity)
            gaps.setdefault(pair, []).append(
                (b.timestamp - a.timestamp).total_seconds()
            )
            succ.setdefault(a.activity, set()).add(b.activity)
    means = {pair: math.fsum(v) / len(v) for pair, v in gaps.items()}
    successors = {a: tuple(sorted(bs)) for a, bs in succ.items()}
    return TransitionStats(means, successors)


def fit_batch_stats(
    log: EventLog,
    epsilon: float = 86400.0,
    min_burst: int = 3,
) -> BatchStats:
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if min_burst < 2:
        raise ConfigError(f"min_burst must be >= 2, got {min_burst}")
    occurrences: dict[str, list[tuple[float, str]]] = {}
    for trace in log.traces:
        for ev in trace.events:
            occurrences.setdefault(ev.activity, []).append(
                (ev.timestamp.timestamp(), ev.case_id)
            )
    scores: dict[str, float] = {}
    for activity, occ in occurrences.items():
        occ.sort(key=lambda pair: pair[0])
        times = [t for t, _ in occ]
        cases = [c for _, c in occ]
        n = len(occ)
        marked = [False] * n
        counts: Counter = Counter()
        right = 0
        for left in range(n):
            if right < left:
                right = left
                counts = Counter()
            while right < n and times[right] - times[left] <= epsilon:
                counts[cases[right]] += 1
                right += 1
            if len(counts) >= min_burst:
                for i in range(left, right):
                    marked[i] = True
            counts[cases[left]] -= 1
            if counts[cases[left]] == 0:
                del counts[cases[left]]
        scores[activity] = sum(marked) / n
    return BatchStats(scores, epsilon, min_burst)


class EventIndex:
    """Time-sorted arrays over a log, shared by all window feature queries."""

    def __init__(self, log: EventLog):
        case_ids: list[str] = []
        acts: list[str] = []
        ress: list[str] = []
        self._case_code: dict[str, int] = {}
        self._act_code: dict[str, int] = {}
        self._res_code: dict[str, int] = {}

        times, case_codes, act_codes, res_codes = [], [], [], []
        prev_pairs, prev_gaps = [], []
        for trace in log.traces:
            if trace.case_id not in self._case_code:
                self._case_code[trace.case_id] = len(case_ids)
                case_ids.append(trace.case_id)
            ccode = self._case_code[trace.case_id]
            prev_ev = None
            for ev in trace.events:
                if ev.activity not in self._act_code:
                    self._act_code[ev.activity] = len(acts)
                    acts.append(ev.activity)
                acode = self._act_code[ev.activity]
                if ev.resource is None:
                    rcode = -1
                else:
                    if ev.resource not in self._res_code:
                        self._res_code[ev.resource] = len(ress)
                        ress.append(ev.resource)
                    rcode = self._res_code[ev.resource]
                times.append(ev.timestamp.timestamp())
                case_codes.append(ccode)
                act_codes.append(acode)
                res_codes.append(rcode)
                if prev_ev is None:
                    prev_pairs.append(-1)
                    prev_gaps.append(math.nan)
                else:
                    prev_pairs.append(self._act_code[prev_ev.activity])
                    prev_gaps.append(
                        (ev.timestamp - prev_ev.timestamp).total_seconds()
                    )
                prev_ev = ev

        order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
        self.times = np.asarray(times, dtype=np.float64)[order]
        self.case_codes = np.asarray(case_codes, dtype=np.int64)[order]
        self.act_codes = np.asarray(act_codes, dtype=np.int64)[order]
        self.res_codes = np.asarray(res_codes, dtype=np.int64)[order]
        prev_acts = np.asarray(prev_pairs, dtype=np.int64)[order]
        self.prev_gaps = np.asarray(prev_gaps, dtype=np.float64)[order]
        n_acts = max(len(acts), 1)
        self.pair_codes = np.where(
            prev_acts >= 0, prev_acts * n_acts + self.act_codes, -1
        )
        self.activities = tuple(acts)
        self.resources = tuple(ress)
        for arr in (self.times, self.case_codes, self.act_codes,
                    self.res_codes, self.prev_gaps, self.pair_codes):
            arr.flags.writeable = False
        self._act_maps: dict[tuple[str, ...], np.ndarray] = {}
        self._res_maps: dict[tuple[str, ...], np.ndarray] = {}
        self._stats_means: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self.times)

    def window_slice(self, t: float, window: PeerWindow) -> tuple[int, int]:
        lo = int(np.searchsorted(self.times, t - window.width, side="left"))
        hi = int(np.searchsorted(self.times, t, side="right"))
        return lo, hi

    def case_code(self, case_id: str) -> int | None:
        return self._case_code.get(case_id)

    def _vocab_map(self, vocab: Vocabulary, internal: tuple[str, ...],
                   cache: dict) -> np.ndarray:
        key = vocab.entries
        mapped = cache.get(key)
        if mapped is None:
            mapped = np.array([vocab.index(v) for v in internal], dtype=np.int64)
            cache[key] = mapped
        return mapped

    def act_map(self, vocab: Vocabulary) -> np.ndarray:
        return self._vocab_map(vocab, self.activities, self._act_maps)

    def res_map(self, vocab: Vocabulary) -> np.ndarray:
        return self._vocab_map(vocab, self.resources, self._res_maps)

    def mean_by_pair(self, stats: TransitionStats) -> np.ndarray:
        """Training mean duration per internal transition code; NaN when the
        transition is unknown or its mean is zero (no usable ratio)."""
        table = self._stats_means.get(stats)
        if table is None:
            n_acts = max(len(self.activities), 1)
            table = np.full(n_acts * n_acts, math.nan)
            for (a, b), mean in stats.mean_duration.items():
                ia = self._act_code.get(a)
                ib = self._act_code.get(b)
                if ia is not None and ib is not None and mean > 0:
                    table[ia * n_acts + ib] = mean
            table.flags.writeable = False
            self._stats_means[stats] = table
        return table


def peer_cases(index: EventIndex, t: float, case_id: str, window: PeerWindow) -> int:
    """Distinct cases with an event in the window, the anchor case included."""
    lo, hi = index.window_slice(t, window)
    cases = set(np.unique(index.case_codes[lo:hi]).tolist())
    code = index.case_code(case_id)
    if code is None or code not in cases:
        return len(cases) + 1
    return len(cases)


def peer_act(index: EventIndex, t: float, case_id: str, window: PeerWindow) -> int:
    """Total number of events (all cases) in the window."""
    lo, hi = index.window_slice(t, window)
    return hi - lo


def res_count(index: EventIndex, t: float, case_id: str, window: PeerWindow) -> int:
    """Distinct non-empty resources active in the window."""
    lo, hi = index.window_slice(t, window)
    codes = index.res_codes[lo:hi]
    return int(np.unique(codes[codes >= 0]).size)


def avg_delay(
    index: EventIndex,
    t: float,
    case_id: str,
    window: PeerWindow,
    stats: TransitionStats,
) -> float:
    """Mean observed/expected duration ratio of transitions ending in the window.

    Only same-case consecutive pairs whose transition has a positive training
    mean are eligible; with no eligible pair the neutral ratio 1.0 is returned.
    """
    lo, hi = index.window_slice(t, window)
    pairs = index.pair_codes[lo:hi]
    means = index.mean_by_pair(stats)
    eligible = pairs >= 0
    looked = np.where(eligible, pairs, 0)
    pair_means = means[looked]
    ok = eligible & np.isfinite(pair_means)
    if not ok.any():
        return 1.0
    ratios = index.prev_gaps[lo:hi][ok] / pair_means[ok]
    return math.fsum(ratios) / int(ok.sum())


def _most_frequent(codes: np.ndarray, translation: np.ndarray) -> int:
    if codes.size == 0:
        return 0
    counts = np.bincount(codes)
    best = np.flatnonzero(counts == counts.max())
    return int(translation[best].min())


def freq_act(
    index: EventIndex,
    t: float,
    case_id: str,
    window: PeerWindow,
    act_vocab: Vocabulary,
) -> int:
    """Vocabulary code of the most frequent window activity.

    Ties resolve to the smallest vocabulary index; an empty window gives 0.
    """
    lo, hi = index.window_slice(t, window)
    return _most_frequent(index.act_codes[lo:hi], index.act_map(act_vocab))


def top_res(
    index: EventIndex,
    t: float,
    case_id: str,
    window: PeerWindow,
    res_vocab: Vocabulary,
) -> int:
    """Vocabulary code of the busiest resource in the window; 0 when none."""
    lo, hi = index.window_slice(t, window)
    codes = index.res_codes[lo:hi]
    return _most_frequent(codes[codes >= 0], index.res_map(res_vocab))


def batch_indicator(
    last_activity: str,
    stats: BatchStats,
    successors: Mapping[str, Sequence[str]],
) -> float:
    """Largest burst score among training successors of the anchor activity."""
    nexts = successors.get(last_activity, ())
    if not nexts:
        return 0.0
    return max(stats.scores.get(b, 0.0) for b in nexts)


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
        unknown = [f for f in self.features if f not in FEATURES]
        if unknown:
            raise ConfigError(f"unknown inter-case features {unknown}, expected {FEATURES}")
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

    def encode(self, t: float, case_id: str, last_activity: str) -> FeatureVector:
        values = []
        w = self.window
        for name in self.features:
            if name == "peer_cases":
                values.append(float(peer_cases(self.index, t, case_id, w)))
            elif name == "peer_act":
                values.append(float(peer_act(self.index, t, case_id, w)))
            elif name == "res_count":
                values.append(float(res_count(self.index, t, case_id, w)))
            elif name == "avg_delay":
                values.append(
                    avg_delay(self.index, t, case_id, w, self.transition_stats)
                )
            elif name == "freq_act":
                values.append(float(freq_act(self.index, t, case_id, w, self.act_vocab)))
            elif name == "top_res":
                values.append(float(top_res(self.index, t, case_id, w, self.res_vocab)))
            elif name == "batch":
                values.append(
                    batch_indicator(
                        last_activity, self.batch_stats, self.transition_stats.successors
                    )
                )
        return FeatureVector(np.array(values), self.features)


def compose(intra: FeatureVector, inter: FeatureVector) -> FeatureVector:
    """Concatenate intra- and inter-case features (at most two of the latter)."""
    if len(inter) > 2:
        raise ConfigError(
            f"at most 2 inter-case features may be composed, got {len(inter)}"
        )
    return intra.concat(inter)
