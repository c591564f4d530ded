"""Inter-case features over a sliding backward time window.

Each feature looks at the events of *other* live cases inside the window
[t - width, t] (both ends inclusive) anchored at a prefix's last event.
The log is indexed once into time-sorted arrays. Anchors come as three
arrays: epoch-second times, and the case and last-activity codes of the
indexed log. A block of anchors gets its window bounds from one binary
search over all anchor times, and each feature is computed for every anchor
of the block at once, in cache-sized pieces: counts gather window positions
a chunk of anchors at a time, and window sums run a block of anchors at a
time, both sized from ``GATHER_BUDGET_BYTES`` so that their temporaries stay
below glibc's 128 KiB mmap threshold and inside the L2 cache.

One table, ``_FEATURE_TABLE`` (keyed by ``FEATURES``), gives each feature's
column function and the fitted ``InterCaseEncoder`` fields it reads. One
rule, ``_previous``, finds each event's previous event of the same case or
resource: ``avg_delay`` reads its gaps and transitions through it, and a
distinct count takes the window events whose previous one is outside it.

Conventions that keep results bit-identical to a naive full scan:
window membership compares epoch-second floats and durations are float
seconds, both ``eventlog.seconds`` of the log's integer microseconds, which
equals ``datetime.timestamp()`` and ``timedelta.total_seconds()``; window
means divide the correctly rounded sum ``math.fsum`` gives (``_window_sums``),
so summation order cannot change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import FeatureVector, Vocabulary
from .errors import ConfigError
from .eventlog import EventLog, expand_ranges, seconds

# Largest gather, in bytes, that counting window codes may build at once:
# anchors are taken in chunks whose window positions, expanded one int64
# array per step (anchor, position, and code, key and sorted key, or
# previous position, window start and mask), fit in it. One anchor whose
# window alone exceeds it still forms a chunk of its own. At 256 KiB each
# array is about 51 KiB: below glibc's default 128 KiB mmap threshold (which
# perfbench pins), so no chunk maps and faults in fresh pages, and a chunk's
# working set stays inside a core's L2 cache.
GATHER_BUDGET_BYTES = 256 << 10
_GATHER_ARRAYS = 5
# Window sums take anchors in blocks of GATHER_BUDGET_BYTES over this many
# float64 arrays: the block's sums, errors, bounds and step temporaries.
_SUM_ARRAYS = 16

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
) -> dict[str, float]:
    """Per-activity fraction of occurrences that happened inside a burst.

    A burst is any epsilon-wide interval holding occurrences of the activity
    from at least ``min_burst`` distinct cases; every occurrence inside such
    an interval counts as burst-bound.
    """
    _check_burst_rule(epsilon, min_burst)
    # Occurrences grouped by activity, each group sorted stably by time.
    all_times = seconds(log.time_us)
    order = np.lexsort((all_times, log.activity))
    acts = log.activity[order]
    bounds = np.r_[np.flatnonzero(np.diff(acts, prepend=-1)), len(acts)].tolist()
    times, cases = all_times[order], log.case[order]
    return {
        log.activity_vocab[acts[first]]:
            _burst_marked(times[first:end], cases[first:end], epsilon, min_burst) / (end - first)
        for first, end in zip(bounds, bounds[1:])
    }


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
    start = np.maximum(_previous(cases) + 1, np.searchsorted(right, idx, side="right"))
    distinct = np.cumsum(np.bincount(start, minlength=n)) - idx
    reach = np.maximum.accumulate(np.where(distinct >= min_burst, right, 0))
    return int(np.count_nonzero(reach > idx))


def _previous(codes: np.ndarray) -> np.ndarray:
    """Position of the previous entry with the same code: -1 for none, and
    ``len(codes)``, after every position, for a negative code."""
    order = np.argsort(codes, kind="stable")
    prev = np.full(len(codes), -1)
    same = codes[order[1:]] == codes[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    prev[codes < 0] = len(codes)
    return prev


class EventIndex:
    """Time-sorted columns of a log, shared by all window feature queries.

    Case, activity and resource codes are the log's own. ``prev_case`` and
    ``prev_res`` (built when ``res_count`` first asks for it) are positions
    of previous events, -1 for none; ``prev_gaps`` and ``pair_codes`` are
    the gap and transition from the previous same-case event, NaN or -1.
    """

    def __init__(self, log: EventLog):
        times = seconds(log.time_us)
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.case_codes = log.case[order]
        self.act_codes = log.activity[order]
        self.res_codes = log.resource[order]
        prev = self.prev_case = _previous(self.case_codes)
        us = log.time_us[order]
        self.prev_gaps = np.where(prev >= 0, seconds(us - us[prev]), math.nan)
        n_acts = max(len(log.activity_vocab), 1)
        self.pair_codes = np.where(prev >= 0, self.act_codes[prev] * n_acts + self.act_codes, -1)
        self.cases = log.case_ids
        self.activities = log.activity_vocab
        self.resources = log.resource_vocab
        for arr in (self.times, self.case_codes, self.act_codes, self.res_codes,
                    self.prev_gaps, self.pair_codes, self.prev_case):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def prev_res(self) -> np.ndarray:
        prev = _previous(self.res_codes)
        prev.flags.writeable = False
        return prev

    def window_bounds(self, times: np.ndarray, window: PeerWindow) -> Bounds:
        """Event range [lo, hi) of the window ending at each anchor time."""
        times = np.asarray(times, dtype=np.float64)
        lo = np.searchsorted(self.times, times - window.width, side="left")
        hi = np.searchsorted(self.times, times, side="right")
        return lo, hi


def _window_positions(bounds: Bounds) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Every (anchor, index position) pair of the windows, chunk by chunk.

    Yields ``(start, stop, anchor, pos)`` for the anchors ``start:stop``,
    with ``anchor`` relative to ``start`` and the pairs sorted by anchor,
    then position.
    """
    lo, hi = bounds
    sizes = hi - lo
    ends = np.cumsum(sizes)
    per_chunk = max(1, GATHER_BUDGET_BYTES // (8 * _GATHER_ARRAYS))
    start = 0
    while start < len(lo):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + per_chunk, side="right")))
        anchor, pos = expand_ranges(lo[start:stop], sizes[start:stop])
        yield start, stop, anchor, pos
        start = stop


def _first_in_window(
    bounds: Bounds, prev: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The window events whose previous same-code event (``prev``) lies
    before their window, one per distinct code of each window, chunk by
    chunk, as ``_window_positions`` yields them."""
    lo = bounds[0]
    for start, stop, anchor, pos in _window_positions(bounds):
        first = prev[pos] < lo[start:stop][anchor]
        yield start, stop, anchor[first], pos[first]


def _most_frequent(
    bounds: Bounds, codes: np.ndarray, n_codes: int, translation: np.ndarray
) -> np.ndarray:
    """Per anchor, the smallest translated code among the window's most
    frequent codes; 0 for a window without codes."""
    out = np.zeros(len(bounds[0]), dtype=np.int64)
    for start, _, anchor, pos in _window_positions(bounds):
        code = codes[pos]
        keep = code >= 0
        if not keep.any():
            continue
        # One entry per distinct (anchor, code), sorted by anchor, then code.
        keys, count = np.unique(anchor[keep] * n_codes + code[keep], return_counts=True)
        anchor, code = keys // n_codes, keys % n_codes
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
    for start, stop, anchor, pos in _first_in_window(bounds, index.prev_case):
        distinct[start:stop] = np.bincount(anchor, minlength=stop - start)
        mine = anchor[index.case_codes[pos] == cases[start:stop][anchor]]
        present[start + mine] = True
    return distinct + ~present


def peer_act(index: EventIndex, bounds: Bounds) -> np.ndarray:
    """Total number of events (all cases) in each window."""
    lo, hi = bounds
    return hi - lo


def res_count(index: EventIndex, bounds: Bounds) -> np.ndarray:
    """Distinct non-empty resources active in each window."""
    out = np.zeros(len(bounds[0]), dtype=np.int64)
    for start, stop, anchor, _ in _first_in_window(bounds, index.prev_res):
        out[start:stop] = np.bincount(anchor, minlength=stop - start)
    return out


# Windows are summed exactly only while no partial sum can come near
# overflow: the largest |value| times the longest window stays below this.
_SAFE_SUM = 2.0 ** 1000


def _window_sums(values: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """``math.fsum(values[a:b])`` for each window ``a, b`` of ``first,
    last``, bit for bit, raising what ``fsum`` raises.

    Windows are summed a block of anchors at a time (``_SUM_ARRAYS``), and
    all windows of a block at once, one element position per step, by
    TwoSum (Knuth; Ogita, Rump & Oishi 2005): s + x = fl(s + x) + t exactly,
    so a window's sum is s plus the sum of its t, and e, the float sum of
    the t, is off by at most gamma(n - 1) sum|t| <= 2 n u sum|t| for n
    elements (u = 2**-53). Every s and t is a multiple of q, the spacing of
    the floats at the window's smallest nonzero |x|, so e is exact while
    sum|t| < 2**53 q. Then fl(s + e) is the correctly rounded sum, which
    fsum returns, when e is exact, or when the rounding error d of
    fl(s + e) (exact by TwoSum) plus the bound on e stays below half the
    gap to the next float toward zero. A window that passes neither test
    (a zero sum, a near-tie, a non-finite value, values near overflow) goes
    to fsum, whose sign of a zero sum is its own; these run in window order.
    """
    sizes = last - first
    n = len(sizes)
    sums = np.zeros(n)
    # The windows fsum sums; near overflow, every nonempty one.
    slow = sizes > 0
    nonzero = np.abs(values)
    safe = not values.size or nonzero.max() < _SAFE_SUM / max(int(sizes.max(initial=0)), 1)
    # A zero is a multiple of every q.
    nonzero[nonzero == 0] = np.inf
    per_block = max(1, GATHER_BUDGET_BYTES // (8 * _SUM_ARRAYS))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n if safe else 0, per_block):
            block = slice(start, start + per_block)
            # Longest windows first, so the windows still open at a step are a prefix.
            order = np.argsort(-sizes[block], kind="stable")
            pos, n_elems = first[block][order], sizes[block][order]
            m = len(order)
            s, err, mag, least = np.zeros(m), np.zeros(m), np.zeros(m), np.full(m, np.inf)
            for j, k in enumerate((m - np.cumsum(np.bincount(n_elems)))[:-1].tolist()):
                at = pos[:k] + j
                x, a = values[at], s[:k]
                np.minimum(least[:k], nonzero[at], out=least[:k])
                total = a + x
                back = total - a
                t = (a - (total - back)) + (x - back)
                s[:k] = total
                err[:k] += t
                mag[:k] += np.abs(t)
            rounded = s + err
            back = rounded - s
            d = (s - (rounded - back)) + (err - back)
            gap = np.abs(rounded) - np.nextafter(np.abs(rounded), 0)
            exact = ((mag < 2.0 ** 53 * np.spacing(least))
                     | (np.abs(d) + n_elems * 2.0 ** -52 * mag < gap / 2)) & (rounded != 0)
            sums[start + order] = rounded
            slow[start + order] &= ~exact
    for i in np.flatnonzero(slow).tolist():
        sums[i] = math.fsum(values[first[i]:last[i]].tolist())
    return sums


def _transition_means(index: EventIndex, stats: TransitionStats) -> np.ndarray:
    """Training mean duration per internal transition code; NaN when the
    transition is unknown or its mean is zero (no usable ratio)."""
    n_acts = max(len(index.activities), 1)
    code = {a: i for i, a in enumerate(index.activities)}
    table = np.full(n_acts * n_acts, math.nan)
    for (a, b), mean in stats.mean_duration.items():
        ia = code.get(a)
        ib = code.get(b)
        if ia is not None and ib is not None and mean > 0:
            table[ia * n_acts + ib] = mean
    return table


def avg_delay(index: EventIndex, bounds: Bounds, stats: TransitionStats) -> np.ndarray:
    """Mean observed/expected duration ratio of transitions ending in each window.

    Only same-case consecutive pairs whose transition has a positive training
    mean are eligible; with no eligible pair the neutral ratio 1.0 is returned.
    """
    # Pair code -1, an event without a previous one, reads the appended NaN.
    pair_means = np.append(_transition_means(index, stats), math.nan)[index.pair_codes]
    ok = np.isfinite(pair_means)
    ratios = index.prev_gaps[ok] / pair_means[ok]
    # Eligible events of each window: a range of the eligible positions,
    # read from the count of eligible events before each position.
    first, last = np.r_[0, np.cumsum(ok)][np.stack(bounds)]
    count = last - first
    return np.divide(_window_sums(ratios, first, last), count,
                     out=np.ones(len(count)), where=count > 0)


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
    scores: Mapping[str, float],
    successors: Mapping[str, Sequence[str]],
) -> np.ndarray:
    """Largest burst score among training successors of each anchor activity."""
    table = {
        a: max((scores.get(b, 0.0) for b in successors.get(a, ())), default=0.0)
        for a in set(last_activities)
    }
    return np.array([table[a] for a in last_activities], dtype=np.float64)


# Every inter-case feature, in the order FEATURES lists them: its column,
# from the encoder, the anchors' window bounds and their case and
# last-activity codes, and the fitted InterCaseEncoder fields it reads.
_FEATURE_TABLE: dict[str, tuple[Callable[..., np.ndarray], tuple[str, ...]]] = {
    "peer_cases": (lambda enc, bounds, cases, last: peer_cases(enc.index, bounds, cases), ()),
    "peer_act": (lambda enc, bounds, cases, last: peer_act(enc.index, bounds), ()),
    "res_count": (lambda enc, bounds, cases, last: res_count(enc.index, bounds), ()),
    "avg_delay": (lambda enc, bounds, cases, last:
                  avg_delay(enc.index, bounds, enc.transition_stats), ("transition_stats",)),
    "freq_act": (lambda enc, bounds, cases, last:
                 freq_act(enc.index, bounds, enc.act_vocab), ("act_vocab",)),
    "top_res": (lambda enc, bounds, cases, last:
                top_res(enc.index, bounds, enc.res_vocab), ("res_vocab",)),
    "batch": (lambda enc, bounds, cases, last: batch_indicator(
        enc.index.activities, enc.batch_stats, enc.transition_stats.successors)[last],
        ("batch_stats", "transition_stats")),
}
FEATURES = tuple(_FEATURE_TABLE)


def _check_features(features: Sequence[str]) -> None:
    """An inter-case feature list has at most two distinct names of FEATURES."""
    if len(features) > 2:
        raise ConfigError(f"at most 2 inter-case features are allowed, got {features}")
    unknown = [f for f in features if f not in FEATURES]
    if unknown:
        raise ConfigError(f"unknown inter-case features {unknown}, expected {FEATURES}")
    if len(set(features)) < len(features):
        raise ConfigError(f"inter-case features repeat: {features}")


def fitted_inputs(features: Sequence[str]) -> set[str]:
    """The fitted ``InterCaseEncoder`` fields that ``features`` read."""
    return {field for name in features for field in _FEATURE_TABLE[name][1]}


@dataclass(eq=False)
class InterCaseEncoder:
    """Binds a feature subset to an index, fitted stats, and a window."""

    index: EventIndex
    features: tuple[str, ...]
    window: PeerWindow
    act_vocab: Vocabulary | None = None
    res_vocab: Vocabulary | None = None
    transition_stats: TransitionStats | None = None
    batch_stats: dict[str, float] | None = None

    def __post_init__(self):
        self.features = tuple(self.features)
        _check_features(self.features)
        for name in self.features:
            missing = [f for f in _FEATURE_TABLE[name][1] if getattr(self, f) is None]
            if missing:
                raise ConfigError(f"{name} requires fitted {' and '.join(missing)}")

    def encode(
        self, times: np.ndarray, cases: np.ndarray, last_activities: np.ndarray
    ) -> FeatureVector:
        """Feature block, one row per anchor (time, case, last activity);
        cases and activities are integer arrays of the index's own codes."""
        bounds = self.index.window_bounds(times, self.window)
        out = np.empty((len(cases), len(self.features)))
        for j, name in enumerate(self.features):
            out[:, j] = _FEATURE_TABLE[name][0](self, bounds, cases, last_activities)
        return FeatureVector(out, self.features)


def compose(intra: FeatureVector, inter: FeatureVector) -> FeatureVector:
    """Concatenate intra- and inter-case features; the latter's names must
    pass ``_check_features``."""
    _check_features(inter.schema)
    return intra.concat(inter)
