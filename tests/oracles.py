"""Brute-force reference implementations used to validate the package.

Everything here favors obviousness over speed: a CSV parser that handles
one row at a time, full scans over every event per query, O(n^2) interval
checks, exponential active-set enumeration for the SVM dual, per-row VQC
circuits rebuilt gate by gate. Window membership,
durations, and means use the same exact arithmetic as the production code
(epoch floats, timedelta seconds, fsum) so comparisons can demand bit
equality.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import weakref
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np

from icppm import qsim, vqc
from icppm.encoding import Vocabulary
from icppm.errors import ConfigError, ParseError, RecordError
from icppm.eventlog import (
    _ATTR_PREFIX, DEFAULT_COLUMN_MAP, EventLog, _make_log, _micros, _parse_instant,
)


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_CASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cases(log: EventLog) -> tuple:
    """Per case, in order: its id, its attributes and its events as
    (activity, datetime, resource) tuples, resource None for none; read
    from the columns once per log, for references that walk a log event
    by event."""
    if log not in _CASES:
        acts, ress = log.activity_vocab, log.resource_vocab + (None,)
        events = tuple((acts[a], EPOCH + timedelta(microseconds=us), ress[r]) for a, us, r in
                       zip(log.activity.tolist(), log.time_us.tolist(), log.resource.tolist()))
        bounds = log.offsets.tolist()
        _CASES[log] = tuple((case_id, log.attributes[c], events[bounds[c]:bounds[c + 1]])
                            for c, case_id in enumerate(log.case_ids))
    return _CASES[log]


def parse_csv(source, column_map=None) -> EventLog:
    """``eventlog.parse_csv`` one row at a time: each row is checked, its
    timestamp parsed by ``fromisoformat`` and its event added on its own."""
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, io.BufferedIOBase):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    colmap = {**DEFAULT_COLUMN_MAP, **(column_map or {})}
    try:
        return _csv_rows(csv.reader(source), colmap)
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV is not valid UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


def _csv_rows(reader, colmap) -> EventLog:
    header = next(reader, None) or []
    for logical in ("case_id", "activity", "timestamp"):
        if colmap[logical] not in header:
            raise ConfigError(
                f"CSV is missing required column {colmap[logical]!r} (for {logical})"
            )
    column = {name: i for i, name in enumerate(header)}
    case_col, act_col, time_col = (column[colmap[k]] for k in ("case_id", "activity", "timestamp"))
    res_col = column.get(colmap["resource"])
    attr_cols = {
        name[len(_ATTR_PREFIX):]: i for name, i in column.items() if name.startswith(_ATTR_PREFIX)
    }
    width = len(header)
    # First-seen codes; a missing or empty resource is -1.
    cases, attributes, activities, resources = {}, [], {}, {}
    events = []
    for row_no, row in enumerate(filter(None, reader), start=2):
        if len(row) < width:
            row += [None] * (width - len(row))
        case_id, activity, raw_ts = row[case_col], row[act_col], row[time_col]
        if not case_id or not activity or not raw_ts:
            raise RecordError(f"row {row_no}: missing case_id, activity or timestamp")
        try:
            us = _micros(_parse_instant(raw_ts))
        except (ValueError, OverflowError) as exc:
            raise RecordError(f"row {row_no}: bad timestamp {raw_ts!r}: {exc}") from exc
        if case_id not in cases:
            cases[case_id] = len(cases)
            attributes.append({a: row[i] for a, i in attr_cols.items() if row[i]})
        resource = None if res_col is None else row[res_col]
        events.append((cases[case_id], activities.setdefault(activity, len(activities)),
                       resources.setdefault(resource, len(resources)) if resource else -1, us))
    # Grouped by case, in time order within a case; list.sort is stable.
    events.sort(key=lambda event: (event[0], event[3]))
    case, activity, resource, time_us = np.array(events, dtype=np.int64).reshape(-1, 4).T
    return _make_log(list(cases), attributes, case, activity, list(activities),
                     resource, list(resources), time_us)


def intra_row(name, attributes, events, act_vocab, res_vocab, k, attr_names, attr_vocabs):
    """One prefix's intra-case feature row, built value by value from its
    case attributes and its events, as ``cases`` gives them."""
    acts = [act for act, _, _ in events]
    ress = [res for _, _, res in events]
    with_res = res_vocab is not None and len(res_vocab) > 1
    if name == "static":
        return [float(attr_vocabs[a].index(attributes.get(a)))
                if a in attr_vocabs else 0.0 for a in attr_names]
    if name == "last_state":
        row = [float(act_vocab.index(acts[-1]))]
        return row + ([float(res_vocab.index(ress[-1]))] if with_res else [])
    if name in ("agg_count", "agg_bool"):
        counts = Counter(acts)
        row = [float(counts[a]) for a in act_vocab.entries[1:]]
        return [float(c > 0) for c in row] if name == "agg_bool" else row
    pad = [0.0] * (k - len(acts[-k:]))
    row = pad + [float(act_vocab.index(a)) for a in acts[-k:]]
    return row + (pad + [float(res_vocab.index(r)) for r in ress[-k:]] if with_res else [])


def index_codes(names, vocab) -> np.ndarray:
    """Each name's position in ``vocab``, -1 for a name it lacks: case ids
    and activity names as the codes of an ``EventIndex`` (its ``cases`` or
    ``activities``), the form ``intercase`` takes anchors in."""
    code = {v: i for i, v in enumerate(vocab)}
    return np.array([code.get(n, -1) for n in names], dtype=np.int64)


def window_events(log: EventLog, t: float, width: float):
    """(case id, activity, resource) of every event of every case with epoch
    time in [t - width, t]."""
    return [(case_id, act, res) for case_id, _, events in cases(log)
            for act, when, res in events if t - width <= when.timestamp() <= t]


def peer_cases(log: EventLog, t: float, case_id: str, width: float) -> int:
    return len({cid for cid, _, _ in window_events(log, t, width)} | {case_id})


def peer_act(log: EventLog, t: float, case_id: str, width: float) -> int:
    return len(window_events(log, t, width))


def res_count(log: EventLog, t: float, case_id: str, width: float) -> int:
    return len({res for _, _, res in window_events(log, t, width) if res})


def transition_means(log: EventLog) -> dict[tuple[str, str], float]:
    gaps: dict[tuple[str, str], list[float]] = {}
    for _, _, events in cases(log):
        for (a, ta, _), (b, tb, _) in zip(events, events[1:]):
            gaps.setdefault((a, b), []).append((tb - ta).total_seconds())
    return {pair: math.fsum(v) / len(v) for pair, v in gaps.items()}


def successor_map(log: EventLog) -> dict[str, tuple[str, ...]]:
    succ: dict[str, set[str]] = {}
    for _, _, events in cases(log):
        for (a, _, _), (b, _, _) in zip(events, events[1:]):
            succ.setdefault(a, set()).add(b)
    return {a: tuple(sorted(bs)) for a, bs in succ.items()}


def avg_delay(
    log: EventLog,
    t: float,
    case_id: str,
    width: float,
    means: dict[tuple[str, str], float],
) -> float:
    ratios = []
    for _, _, events in cases(log):
        for (a, ta, _), (b, tb, _) in zip(events, events[1:]):
            if not t - width <= tb.timestamp() <= t:
                continue
            mean = means.get((a, b))
            if mean is None or not mean > 0:
                continue
            ratios.append((tb - ta).total_seconds() / mean)
    if not ratios:
        return 1.0
    return math.fsum(ratios) / len(ratios)


def _top_code(values, vocab: Vocabulary) -> int:
    if not values:
        return 0
    counts = Counter(values)
    best = max(counts.values())
    return min(vocab.index(v) for v, c in counts.items() if c == best)


def freq_act(log: EventLog, t: float, case_id: str, width: float, vocab: Vocabulary) -> int:
    return _top_code([act for _, act, _ in window_events(log, t, width)], vocab)


def top_res(log: EventLog, t: float, case_id: str, width: float, vocab: Vocabulary) -> int:
    return _top_code([res for _, _, res in window_events(log, t, width) if res], vocab)


def burst_scores(log: EventLog, epsilon: float, min_burst: int) -> dict[str, float]:
    """Per activity: fraction of occurrences inside any epsilon interval that
    holds the activity for >= min_burst distinct cases. Quadratic scan."""
    occ: dict[str, list[tuple[float, str]]] = {}
    for case_id, _, events in cases(log):
        for act, when, _ in events:
            occ.setdefault(act, []).append((when.timestamp(), case_id))
    scores = {}
    for activity, items in occ.items():
        items.sort(key=lambda p: p[0])
        n = len(items)
        marked = set()
        for i in range(n):
            for j in range(i, n):
                if items[j][0] - items[i][0] > epsilon:
                    break
                if len({c for _, c in items[i:j + 1]}) >= min_burst:
                    marked.update(range(i, j + 1))
        scores[activity] = len(marked) / n
    return scores


def batch_indicator(
    last_activity: str,
    scores: dict[str, float],
    successors: dict[str, tuple[str, ...]],
) -> float:
    nexts = successors.get(last_activity, ())
    if not nexts:
        return 0.0
    return max(scores.get(b, 0.0) for b in nexts)


def qp_dual_optimum(kernel: np.ndarray, y: np.ndarray, C: float):
    """Globally optimal soft-margin dual objective by active-set enumeration.

    Each alpha_i is pinned to 0, pinned to C, or free; free components come
    from the stationarity + equality-constraint linear system. All feasible
    candidates are scored and the best kept; the true optimum's active set
    is always among the 3^m assignments. Only sane for m <= 8.
    """
    m = len(y)
    q = kernel * np.outer(y, y)
    best_obj = 0.0
    best_alpha = np.zeros(m)
    for assignment in itertools.product((0, 1, 2), repeat=m):
        upper = [i for i, a in enumerate(assignment) if a == 1]
        free = [i for i, a in enumerate(assignment) if a == 2]
        alpha = np.zeros(m)
        alpha[upper] = C
        if free:
            f = len(free)
            a_mat = np.zeros((f + 1, f + 1))
            a_mat[:f, :f] = q[np.ix_(free, free)]
            a_mat[:f, f] = y[free]
            a_mat[f, :f] = y[free]
            rhs = np.zeros(f + 1)
            rhs[:f] = 1.0
            if upper:
                rhs[:f] -= C * q[np.ix_(free, upper)].sum(axis=1)
                rhs[f] = -C * y[upper].sum()
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            if not np.allclose(a_mat @ sol, rhs, atol=1e-8):
                continue
            af = sol[:f]
            if np.any(af < -1e-9) or np.any(af > C + 1e-9):
                continue
            alpha[free] = np.clip(af, 0.0, C)
        if abs(float(alpha @ y)) > 1e-8:
            continue
        obj = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
        if obj > best_obj:
            best_obj = obj
            best_alpha = alpha
    return best_obj, best_alpha


# Per-row VQC reference: every circuit rebuilt gate by gate and simulated
# through ``qsim._apply_ops``, with the feature map re-run for every row,
# loss term and shifted parameter. Each row's exact marginal is computed on
# its own; shot mode stacks them and draws the batch with the engine's one
# rule, so the batched engine in ``icppm.vqc`` must match it to 1e-12 in
# exact mode and bit for bit in shot mode.


def vqc_marginal(feature_map, theta, x, r: int) -> np.ndarray:
    """Exact probabilities of the first r qubits' bitstrings for one row."""
    n = theta.shape[1]
    ops = list(qsim.build_feature_map(feature_map, x).ops)
    for layer in theta:
        ops.extend(qsim.weight_layer(layer, n).ops)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = 1.0
    amps = qsim._apply_ops(amps, n, ops)
    return (np.abs(amps) ** 2).reshape(2 ** r, -1).sum(axis=1)


def vqc_class_probs(feature_map, theta, xs, n_classes, shots) -> np.ndarray:
    """Class scores of every row of ``xs``, shape (rows, classes)."""
    r = max(1, math.ceil(math.log2(n_classes)))
    marginals = np.array([vqc_marginal(feature_map, theta, x, r) for x in xs])
    if not shots.exact:
        rng = np.random.default_rng(shots.seed)
        marginals = rng.multinomial(shots.shots, marginals) / shots.shots
    out = np.zeros((len(xs), n_classes))
    for row, marginal in zip(out, marginals):
        for b in range(2 ** r):
            row[b % n_classes] += marginal[b]
        row /= row.sum()
    return out


def vqc_loss(feature_map, theta, xs, class_idx, n_classes, shots) -> float:
    p = vqc_class_probs(feature_map, theta, xs, n_classes, shots)
    total = 0.0
    for row, c in zip(p, class_idx):
        total += -math.log(max(row[c], vqc._P_FLOOR))
    return total / len(xs)


def vqc_shift_gradient(feature_map, theta, xs, class_idx, n_classes, shots) -> np.ndarray:
    rows = np.arange(len(xs))

    def p_true(t):
        return vqc_class_probs(feature_map, t, xs, n_classes, shots)[rows, class_idx]

    p_plus = np.empty((len(xs),) + theta.shape)
    p_minus = np.empty_like(p_plus)
    for l in range(theta.shape[0]):
        for q in range(theta.shape[1]):
            shifted = theta.copy()
            shifted[l, q] += math.pi / 2.0
            p_plus[:, l, q] = p_true(shifted)
            shifted[l, q] -= math.pi
            p_minus[:, l, q] = p_true(shifted)
    grad = np.zeros_like(theta)
    for p_c, plus, minus in zip(p_true(theta), p_plus, p_minus):
        inv_p = -1.0 / max(p_c, vqc._P_FLOOR)
        grad += inv_p * 0.5 * (plus - minus)
    return grad / len(xs)


def vqc_train(xs, labels, feature_map, n_layers, opt, shots=qsim.EXACT):
    """The training loop of ``vqc.train`` on the per-row reference; returns
    (theta, loss_history)."""
    classes = tuple(sorted(set(labels)))
    n_classes = len(classes)
    class_idx = vqc._class_indices(classes, labels)
    rng = np.random.default_rng(opt.seed)
    theta = rng.uniform(-0.1, 0.1, size=(n_layers, xs.shape[1]))
    history = [vqc_loss(feature_map, theta, xs, class_idx, n_classes, shots)]
    for _ in range(opt.epochs):
        if opt.method == "parameter_shift":
            grad = vqc_shift_gradient(feature_map, theta, xs, class_idx, n_classes, shots)
        else:
            delta = rng.choice((-1.0, 1.0), size=theta.shape)
            c = vqc._SPSA_STEP
            up = vqc_loss(feature_map, theta + c * delta, xs, class_idx, n_classes, shots)
            down = vqc_loss(feature_map, theta - c * delta, xs, class_idx, n_classes, shots)
            grad = (up - down) / (2.0 * c) * delta
        theta = theta - opt.learning_rate * grad
        history.append(vqc_loss(feature_map, theta, xs, class_idx, n_classes, shots))
    return theta, tuple(history)
