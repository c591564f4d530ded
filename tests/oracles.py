"""Brute-force reference implementations used to validate the package.

Everything here favors obviousness over speed: full scans over every event
per query, O(n^2) interval checks, exponential active-set enumeration for
the SVM dual, per-row VQC circuits rebuilt gate by gate. Window membership,
durations, and means use the same exact arithmetic as the production code
(epoch floats, timedelta seconds, fsum) so comparisons can demand bit
equality.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from icppm import qsim, vqc
from icppm.encoding import Vocabulary
from icppm.eventlog import EventLog


def intra_row(name, sample, act_vocab, res_vocab, k, attr_names, attr_vocabs):
    """One sample's intra-case feature row, built value by value."""
    events = sample.prefix.events
    with_res = res_vocab is not None and len(res_vocab) > 1
    if name == "static":
        return [float(attr_vocabs[a].index(sample.prefix.attributes.get(a)))
                if a in attr_vocabs else 0.0 for a in attr_names]
    if name == "last_state":
        row = [float(act_vocab.index(events[-1].activity))]
        return row + ([float(res_vocab.index(events[-1].resource))] if with_res else [])
    if name in ("agg_count", "agg_bool"):
        counts = Counter(ev.activity for ev in events)
        row = [float(counts[a]) for a in act_vocab.entries[1:]]
        return [float(c > 0) for c in row] if name == "agg_bool" else row
    tail = list(events[-k:])
    pad = [0.0] * (k - len(tail))
    row = pad + [float(act_vocab.index(ev.activity)) for ev in tail]
    return row + (pad + [float(res_vocab.index(ev.resource)) for ev in tail] if with_res else [])


def index_codes(names, vocab) -> np.ndarray:
    """Each name's position in ``vocab``, -1 for a name it lacks: case ids
    and activity names as the codes of an ``EventIndex`` (its ``cases`` or
    ``activities``), the form ``intercase`` takes anchors in."""
    code = {v: i for i, v in enumerate(vocab)}
    return np.array([code.get(n, -1) for n in names], dtype=np.int64)


def window_events(log: EventLog, t: float, width: float):
    """All events of all cases with epoch time in [t - width, t]."""
    out = []
    for trace in log.traces:
        for ev in trace.events:
            et = ev.timestamp.timestamp()
            if t - width <= et <= t:
                out.append(ev)
    return out


def peer_cases(log: EventLog, t: float, case_id: str, width: float) -> int:
    cases = {ev.case_id for ev in window_events(log, t, width)}
    cases.add(case_id)
    return len(cases)


def peer_act(log: EventLog, t: float, case_id: str, width: float) -> int:
    return len(window_events(log, t, width))


def res_count(log: EventLog, t: float, case_id: str, width: float) -> int:
    return len({ev.resource for ev in window_events(log, t, width) if ev.resource})


def transition_means(log: EventLog) -> dict[tuple[str, str], float]:
    gaps: dict[tuple[str, str], list[float]] = {}
    for trace in log.traces:
        for a, b in zip(trace.events, trace.events[1:]):
            gaps.setdefault((a.activity, b.activity), []).append(
                (b.timestamp - a.timestamp).total_seconds()
            )
    return {pair: math.fsum(v) / len(v) for pair, v in gaps.items()}


def successor_map(log: EventLog) -> dict[str, tuple[str, ...]]:
    succ: dict[str, set[str]] = {}
    for trace in log.traces:
        for a, b in zip(trace.events, trace.events[1:]):
            succ.setdefault(a.activity, set()).add(b.activity)
    return {a: tuple(sorted(bs)) for a, bs in succ.items()}


def avg_delay(
    log: EventLog,
    t: float,
    case_id: str,
    width: float,
    means: dict[tuple[str, str], float],
) -> float:
    ratios = []
    for trace in log.traces:
        for a, b in zip(trace.events, trace.events[1:]):
            et = b.timestamp.timestamp()
            if not t - width <= et <= t:
                continue
            mean = means.get((a.activity, b.activity))
            if mean is None or not mean > 0:
                continue
            ratios.append((b.timestamp - a.timestamp).total_seconds() / mean)
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
    return _top_code([ev.activity for ev in window_events(log, t, width)], vocab)


def top_res(log: EventLog, t: float, case_id: str, width: float, vocab: Vocabulary) -> int:
    return _top_code(
        [ev.resource for ev in window_events(log, t, width) if ev.resource], vocab
    )


def burst_scores(log: EventLog, epsilon: float, min_burst: int) -> dict[str, float]:
    """Per activity: fraction of occurrences inside any epsilon interval that
    holds the activity for >= min_burst distinct cases. Quadratic scan."""
    occ: dict[str, list[tuple[float, str]]] = {}
    for trace in log.traces:
        for ev in trace.events:
            occ.setdefault(ev.activity, []).append(
                (ev.timestamp.timestamp(), ev.case_id)
            )
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
# through ``qsim._apply_ops``, with the feature map re-run for every sample,
# loss term and shifted parameter. The batched engine in ``icppm.vqc`` must
# match it to 1e-12 exactly and bit for bit in shot mode.


def vqc_class_probs(feature_map, theta, x, n_classes, entangle, shots) -> np.ndarray:
    n = theta.shape[1]
    ops = list(qsim.build_feature_map(feature_map, x).ops)
    for layer in theta:
        ops.extend(qsim.weight_layer(layer, n, entangle).ops)
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = 1.0
    amps = qsim._apply_ops(amps, n, ops)
    probs = np.abs(amps) ** 2
    r = max(1, math.ceil(math.log2(n_classes)))
    if shots.exact:
        marginal = probs.reshape(2 ** r, -1).sum(axis=1)
    else:
        samples = qsim.sample_indices(probs, shots.shots, shots.seed)
        groups = samples >> (n - r)
        marginal = np.bincount(groups, minlength=2 ** r) / shots.shots
    scores = np.zeros(n_classes)
    for b in range(2 ** r):
        scores[b % n_classes] += marginal[b]
    total = scores.sum()
    if total <= 0:
        return np.full(n_classes, 1.0 / n_classes)
    return scores / total


def vqc_loss(feature_map, theta, xs, class_idx, n_classes, entangle, shots) -> float:
    total = 0.0
    for x, c in zip(xs, class_idx):
        p = vqc_class_probs(feature_map, theta, x, n_classes, entangle, shots)
        total += -math.log(max(p[c], vqc._P_FLOOR))
    return total / len(xs)


def vqc_shift_gradient(feature_map, theta, xs, class_idx, n_classes, entangle,
                       shots) -> np.ndarray:
    grad = np.zeros_like(theta)
    for x, c in zip(xs, class_idx):
        p_base = vqc_class_probs(feature_map, theta, x, n_classes, entangle, shots)
        inv_p = -1.0 / max(p_base[c], vqc._P_FLOOR)
        for l in range(theta.shape[0]):
            for q in range(theta.shape[1]):
                shifted = theta.copy()
                shifted[l, q] += math.pi / 2.0
                p_plus = vqc_class_probs(feature_map, shifted, x, n_classes, entangle, shots)
                shifted[l, q] -= math.pi
                p_minus = vqc_class_probs(feature_map, shifted, x, n_classes, entangle, shots)
                grad[l, q] += inv_p * 0.5 * (p_plus[c] - p_minus[c])
    return grad / len(xs)


def vqc_train(xs, labels, feature_map, n_layers, opt, entangle=True, shots=qsim.EXACT):
    """The training loop of ``vqc.train`` on the per-row reference; returns
    (theta, loss_history)."""
    classes = tuple(sorted(set(labels)))
    n_classes = len(classes)
    class_idx = vqc._class_indices(classes, labels)
    rng = np.random.default_rng(opt.seed)
    theta = rng.uniform(-0.1, 0.1, size=(n_layers, xs.shape[1]))
    history = [vqc_loss(feature_map, theta, xs, class_idx, n_classes, entangle, shots)]
    for _ in range(opt.epochs):
        if opt.method == "parameter_shift":
            grad = vqc_shift_gradient(feature_map, theta, xs, class_idx, n_classes,
                                      entangle, shots)
        else:
            delta = rng.choice((-1.0, 1.0), size=theta.shape)
            c = opt.spsa_step
            up = vqc_loss(feature_map, theta + c * delta, xs, class_idx, n_classes,
                          entangle, shots)
            down = vqc_loss(feature_map, theta - c * delta, xs, class_idx, n_classes,
                            entangle, shots)
            grad = (up - down) / (2.0 * c) * delta
        theta = theta - opt.learning_rate * grad
        history.append(vqc_loss(feature_map, theta, xs, class_idx, n_classes, entangle, shots))
    return theta, tuple(history)
