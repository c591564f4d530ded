"""Inter-case features over a sliding backward time window.

Each feature looks at the events of *other* live cases inside the window
[t - width, t] (both ends inclusive) anchored at a prefix's last event.
The log is indexed once into time-sorted arrays. A block of anchors gets
its window bounds from one binary search over all anchor times, and each
feature is computed for every anchor of the block at once.

Conventions that keep results bit-identical to a naive full scan:
window membership compares epoch-second floats (``datetime.timestamp()``),
durations are exact ``timedelta.total_seconds()``, and means use
``math.fsum`` so summation order cannot change the result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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
    if not epsilon > 0:
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
        # Burst intervals [left, right) only move forward, so the marked
        # occurrences are counted through the end of the range covered so far.
        marked = covered = right = 0
        counts: Counter = Counter()
        for left in range(n):
            while right < n and times[right] - times[left] <= epsilon:
                counts[cases[right]] += 1
                right += 1
            if len(counts) >= min_burst:
                marked += right - max(left, covered)
                covered = right
            counts[cases[left]] -= 1
            if counts[cases[left]] == 0:
                del counts[cases[left]]
        scores[activity] = marked / n
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
                if not ev.resource:
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
        self.cases = tuple(case_ids)
        self.activities = tuple(acts)
        self.resources = tuple(ress)
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

    def case_codes_of(self, case_ids: Sequence[str]) -> np.ndarray:
        """Internal code of each case id; -1 for a case the index lacks."""
        get = self._case_code.get
        return np.array([get(c, -1) for c in case_ids], dtype=np.int64)

    def mean_by_pair(self, stats: TransitionStats) -> np.ndarray:
        """Training mean duration per internal transition code; NaN when the
        transition is unknown or its mean is zero (no usable ratio)."""
        n_acts = max(len(self.activities), 1)
        table = np.full(n_acts * n_acts, math.nan)
        for (a, b), mean in stats.mean_duration.items():
            ia = self._act_code.get(a)
            ib = self._act_code.get(b)
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


def peer_cases(index: EventIndex, bounds: Bounds, case_ids: Sequence[str]) -> np.ndarray:
    """Distinct cases with an event in each window, the anchor case included."""
    own = index.case_codes_of(case_ids)
    distinct = np.zeros(len(own), dtype=np.int64)
    present = np.zeros(len(own), dtype=bool)
    n_cases = max(len(index.cases), 1)
    for start, stop, anchor, code, _ in _window_counts(bounds, index.case_codes, n_cases):
        distinct[start:stop] = np.bincount(anchor, minlength=stop - start)
        mine = anchor[code == own[start:stop][anchor]]
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

    def encode(
        self,
        times: np.ndarray,
        case_ids: Sequence[str],
        last_activities: Sequence[str],
    ) -> FeatureVector:
        """Feature block, one row per anchor (time, case, last activity)."""
        index = self.index
        bounds = index.window_bounds(times, self.window)
        out = np.empty((len(case_ids), len(self.features)))
        for j, name in enumerate(self.features):
            if name == "peer_cases":
                out[:, j] = peer_cases(index, bounds, case_ids)
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
                out[:, j] = batch_indicator(
                    last_activities, self.batch_stats, self.transition_stats.successors
                )
        return FeatureVector(out, self.features)


def compose(intra: FeatureVector, inter: FeatureVector) -> FeatureVector:
    """Concatenate intra- and inter-case features (at most two of the latter)."""
    if len(inter.schema) > 2:
        raise ConfigError(
            f"at most 2 inter-case features may be composed, got {len(inter.schema)}"
        )
    return intra.concat(inter)
