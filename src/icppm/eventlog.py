"""Event log model and preprocessing.

Logs are parsed from XES (XML) or CSV into an immutable, columnar
``EventLog``: one row per event in four int64 columns, the case code, the
activity code, the resource code (-1 for none) and the time in epoch
microseconds. Rows are grouped by case, cases in first-seen order, and
sorted stably by time within a case; ``offsets[c]`` is the first row of
case ``c``. Activity and resource codes index the sorted vocabularies of
the values present. All timestamps are normalized to UTC on parse; naive
timestamps are treated as UTC.

Times stay exact integers. Where a float is needed, ``seconds`` divides by
10**6 with correct rounding, so an instant gives the float
``datetime.timestamp()`` gives and a difference of two instants the float
``timedelta.total_seconds()`` gives.

A ``PrefixSet`` is two int arrays, case and length: prefix i is the first
length[i] events of case case[i], labelled with the next activity or
END_LABEL. Every function here and downstream that takes prefixes takes a
``PrefixSet``. ``Event``, ``Trace``, ``PrefixSample`` and ``EventLog.traces``
are read-only views built from the columns on demand, for code that wants
one object per event or prefix; nothing takes them as input.

Preprocessing covers variant filtering, date slicing, prefix extraction,
stratified subsampling, and case-level CV folds.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import random
import statistics
import xml.etree.ElementTree as ET
import zlib
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError, RecordError

END_LABEL = "__END__"

ACTIVITY_KEY = "concept:name"
TIMESTAMP_KEY = "time:timestamp"
RESOURCE_KEY = "org:resource"

_CSV_FIELDS = ("case_id", "activity", "timestamp", "resource")
_ATTR_PREFIX = "attr:"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# Every integer below this magnitude is exact as a float64.
_EXACT_FLOAT = 2 ** 53


def _parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 instant and normalize it to UTC."""
    value = text.strip()
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    moment = datetime.fromisoformat(value)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _micros(moment: datetime) -> int:
    """Epoch microseconds of an aware instant."""
    return (moment - _EPOCH) // _MICROSECOND


def seconds(us: np.ndarray) -> np.ndarray:
    """Microseconds as float seconds, each us / 10**6 correctly rounded."""
    us = np.asarray(us, dtype=np.int64)
    if us.size and int(np.abs(us).max()) >= _EXACT_FLOAT:
        return np.array([u / 10 ** 6 for u in us.tolist()], dtype=np.float64)
    return us / 1e6


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp: datetime
    resource: str | None = None

    def __post_init__(self):
        if not self.activity:
            raise ValueError("event requires a non-empty activity")
        ts = self.timestamp
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        else:
            ts = ts.astimezone(timezone.utc)
        object.__setattr__(self, "timestamp", ts)


@dataclass(frozen=True)
class Trace:
    """Events of one case, sorted by timestamp (original order kept on ties)."""

    case_id: str
    events: tuple[Event, ...]
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for ev in self.events:
            if ev.case_id != self.case_id:
                raise ValueError(
                    f"event case_id {ev.case_id!r} != trace case_id {self.case_id!r}"
                )
        for a, b in zip(self.events, self.events[1:]):
            if a.timestamp > b.timestamp:
                raise ValueError(f"trace {self.case_id!r}: events not time-sorted")

    @classmethod
    def build(
        cls,
        case_id: str,
        events: Iterable[Event],
        attributes: Mapping[str, str] | None = None,
    ) -> "Trace":
        ordered = tuple(sorted(events, key=lambda e: e.timestamp))
        return cls(case_id, ordered, dict(attributes or {}))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)

    @property
    def duration(self) -> timedelta:
        if not self.events:
            return timedelta(0)
        return self.events[-1].timestamp - self.events[0].timestamp


@dataclass(frozen=True, eq=False)
class EventLog:
    """Per-event columns grouped by case; see the module docstring.

    ``attributes[c]`` holds the case attributes of case ``c``.
    """

    case_ids: tuple[str, ...]
    attributes: tuple[Mapping[str, str], ...]
    offsets: np.ndarray
    case: np.ndarray
    activity: np.ndarray
    resource: np.ndarray
    time_us: np.ndarray
    activity_vocab: tuple[str, ...]
    resource_vocab: tuple[str, ...]

    def __post_init__(self):
        for column in (self.offsets, self.case, self.activity, self.resource, self.time_us):
            column.flags.writeable = False

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "EventLog":
        rows = _Rows()
        for t in traces:
            if t.case_id in rows.cases:
                raise ValueError(f"duplicate case_id {t.case_id!r}")
            case = rows.add_case(t.case_id, t.attributes)
            for ev in t.events:
                rows.add(case, ev.activity, ev.resource, _micros(ev.timestamp))
        return rows.log()

    def __repr__(self) -> str:
        return f"EventLog({len(self)} cases, {self.n_events} events)"

    def __len__(self) -> int:
        return len(self.case_ids)

    @property
    def n_events(self) -> int:
        return len(self.activity)

    @cached_property
    def traces(self) -> tuple[Trace, ...]:
        """One ``Trace`` view per case, built on first use."""
        acts, ress = self.activity_vocab, self.resource_vocab + (None,)
        act, res, us = self.activity.tolist(), self.resource.tolist(), self.time_us.tolist()
        bounds = self.offsets.tolist()
        return tuple(
            Trace(case_id, tuple(
                Event(case_id, acts[act[r]], _EPOCH + timedelta(microseconds=us[r]),
                      ress[res[r]])
                for r in range(bounds[c], bounds[c + 1])
            ), self.attributes[c])
            for c, case_id in enumerate(self.case_ids)
        )

    def select_cases(self, keep: np.ndarray) -> "EventLog":
        """The cases where the boolean mask ``keep`` is set, as a log whose
        vocabularies hold only the values those cases use."""
        keep = np.asarray(keep, dtype=bool)
        rows = keep[self.case]
        kept = np.flatnonzero(keep).tolist()
        return _make_log(
            [self.case_ids[c] for c in kept], [self.attributes[c] for c in kept],
            (np.cumsum(keep) - 1)[self.case[rows]],
            self.activity[rows], self.activity_vocab,
            self.resource[rows], self.resource_vocab, self.time_us[rows],
        )

    def case_durations(self) -> np.ndarray:
        """Seconds from each case's first to its last event; 0 for a case
        without events."""
        first, end = self.offsets[:-1], self.offsets[1:]
        full = end > first
        out = np.zeros(len(self))
        out[full] = seconds(self.time_us[end[full] - 1] - self.time_us[first[full]])
        return out

    def variant_keys(self) -> list[bytes]:
        """Per case, a key equal between two cases exactly when their
        activity sequences are."""
        bounds = self.offsets.tolist()
        return [self.activity[a:b].tobytes() for a, b in zip(bounds, bounds[1:])]


class _Rows:
    """Event rows gathered in input order, with case, activity and resource
    codes in first-seen order."""

    def __init__(self):
        self.cases: dict[str, int] = {}
        self.attributes: list[Mapping[str, str]] = []
        self.activities: dict[str, int] = {}
        self.resources: dict[str, int] = {}
        self.case: list[int] = []
        self.activity: list[int] = []
        self.resource: list[int] = []
        self.time_us: list[int] = []

    def add_case(self, case_id: str, attributes: Mapping[str, str]) -> int:
        code = self.cases[case_id] = len(self.cases)
        self.attributes.append(dict(attributes))
        return code

    def add(self, case: int, activity: str, resource: str | None, us: int) -> None:
        self.case.append(case)
        self.activity.append(self.activities.setdefault(activity, len(self.activities)))
        self.resource.append(
            self.resources.setdefault(resource, len(self.resources)) if resource else -1
        )
        self.time_us.append(us)

    def log(self) -> EventLog:
        case = np.array(self.case, dtype=np.int64)
        time_us = np.array(self.time_us, dtype=np.int64)
        order = np.lexsort((time_us, case))
        return _make_log(
            list(self.cases), self.attributes, case[order],
            np.array(self.activity, dtype=np.int64)[order], list(self.activities),
            np.array(self.resource, dtype=np.int64)[order], list(self.resources),
            time_us[order],
        )


def _sorted_codes(codes: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Re-code ``codes`` (indices into ``names``, -1 for none) as indices
    into the sorted tuple of the names that occur."""
    present = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(names))).tolist()
    vocab = sorted(names[i] for i in present)
    rank = {name: r for r, name in enumerate(vocab)}
    table = np.full(len(names) + 1, -1, dtype=np.int64)
    table[present] = [rank[names[i]] for i in present]
    return table[codes], tuple(vocab)


def _make_log(case_ids, attributes, case, activity, activity_names, resource,
              resource_names, time_us) -> EventLog:
    """A log from event columns already in row order."""
    activity, activity_vocab = _sorted_codes(activity, activity_names)
    resource, resource_vocab = _sorted_codes(resource, resource_names)
    offsets = np.zeros(len(case_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(case, minlength=len(case_ids)), out=offsets[1:])
    return EventLog(tuple(case_ids), tuple(attributes), offsets, case, activity,
                    resource, time_us, activity_vocab, resource_vocab)


@dataclass(frozen=True)
class PrefixSample:
    """View of one prefix: the first ``length`` events of case ``case``."""

    log: EventLog = field(repr=False)
    case: int
    length: int

    @property
    def case_id(self) -> str:
        return self.log.case_ids[self.case]

    @property
    def prefix(self) -> Trace:
        trace = self.log.traces[self.case]
        return Trace(trace.case_id, trace.events[:self.length], trace.attributes)

    @property
    def label(self) -> str:
        """The next activity, or END_LABEL for the whole case."""
        row = int(self.log.offsets[self.case]) + self.length
        if row < self.log.offsets[self.case + 1]:
            return self.log.activity_vocab[self.log.activity[row]]
        return END_LABEL


@dataclass(frozen=True, eq=False)
class PrefixSet:
    """Prefixes of one log as (case, length) pairs; see the module docstring.

    Indexing with an int gives a ``PrefixSample`` view; a slice, an index
    array or a mask gives a ``PrefixSet``.
    """

    log: EventLog = field(repr=False)
    case: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.case)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return PrefixSample(self.log, int(self.case[key]), int(self.length[key]))
        return PrefixSet(self.log, self.case[key], self.length[key])

    def __iter__(self):
        for case, length in zip(self.case.tolist(), self.length.tolist()):
            yield PrefixSample(self.log, case, length)

    @property
    def ends(self) -> np.ndarray:
        """Row after each prefix's last event."""
        return self.log.offsets[self.case] + self.length

    def label_codes(self) -> np.ndarray:
        """Each prefix's label as an index into activity_vocab + (END_LABEL,)."""
        log, end = self.log, len(self.log.activity_vocab)
        # The activity after each row; END after a case's last row.
        following = np.append(log.activity[1:], end)
        following[log.offsets[1:][np.diff(log.offsets) > 0] - 1] = end
        return following[self.ends - 1]

    @property
    def labels(self) -> list[str]:
        names = np.array(self.log.activity_vocab + (END_LABEL,), dtype=object)
        return names[self.label_codes()].tolist()


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Per-sample fold assignment from a case-level round-robin deal."""

    fold_assignments: np.ndarray
    n_folds: int
    seed: int

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (train_indices, test_indices) for one held-out fold."""
        if not 0 <= fold < self.n_folds:
            raise ConfigError(f"fold {fold} out of range [0, {self.n_folds})")
        held_out = self.fold_assignments == fold
        return np.flatnonzero(~held_out), np.flatnonzero(held_out)


def _localname(tag) -> str:
    if isinstance(tag, str):
        return tag.rsplit("}", 1)[-1]
    return ""


def _xes_attrs(elem) -> dict[str, str]:
    """Collect key/value pairs of direct child attribute elements."""
    out: dict[str, str] = {}
    for child in elem:
        if _localname(child.tag) in ("string", "date", "int", "float", "boolean", "id"):
            key = child.get("key")
            val = child.get("value")
            if key is not None and val is not None:
                out[key] = val
    return out


def parse_xes(source: IO[bytes] | bytes) -> EventLog:
    """Parse an XES byte stream into an EventLog.

    Trace-level string attributes other than concept:name are kept as case
    attributes. Events missing concept:name or time:timestamp, and a second
    trace with the same case id, raise a RecordError naming the trace;
    unknown attributes are ignored.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    rows = _Rows()
    n_anonymous = 0
    try:
        context = ET.iterparse(source, events=("start", "end"))
        _, root = next(context, (None, None))
        if root is None:
            raise ParseError("empty XES document")
        for action, elem in context:
            if action != "end" or _localname(elem.tag) != "trace":
                continue
            trace_attrs = _xes_attrs(elem)
            case_id = trace_attrs.pop(ACTIVITY_KEY, None)
            if case_id is None:
                case_id = f"trace-{len(rows.cases) + n_anonymous}"
                n_anonymous += 1
            if case_id in rows.cases:
                raise RecordError(f"trace {case_id!r}: duplicate case id")
            case = rows.add_case(case_id, {
                k: v for k, v in trace_attrs.items() if not k.startswith("lifecycle:")
            })
            n_events = 0
            for child in elem:
                if _localname(child.tag) != "event":
                    continue
                attrs = _xes_attrs(child)
                activity = attrs.get(ACTIVITY_KEY)
                raw_ts = attrs.get(TIMESTAMP_KEY)
                if not activity:
                    raise RecordError(
                        f"trace {case_id!r}: event #{n_events} has no {ACTIVITY_KEY}"
                    )
                if not raw_ts:
                    raise RecordError(
                        f"trace {case_id!r}: event #{n_events} has no {TIMESTAMP_KEY}"
                    )
                try:
                    us = _micros(_parse_instant(raw_ts))
                except (ValueError, OverflowError) as exc:
                    raise RecordError(
                        f"trace {case_id!r}: bad timestamp {raw_ts!r}: {exc}"
                    ) from exc
                rows.add(case, activity, attrs.get(RESOURCE_KEY), us)
                n_events += 1
            root.clear()
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise ParseError(f"malformed XES: {exc.msg}", line=line) from exc
    except LookupError as exc:
        # An unknown encoding in the XML declaration. KeyError and IndexError
        # are LookupErrors too, but here they would be bugs, not bad input.
        if type(exc) is not LookupError:
            raise
        raise ParseError(f"malformed XES: {exc}") from exc
    return rows.log()


DEFAULT_COLUMN_MAP = {
    "case_id": "case_id",
    "activity": "activity",
    "timestamp": "timestamp",
    "resource": "resource",
}


def parse_csv(
    source: IO[str] | IO[bytes] | str,
    column_map: Mapping[str, str] | None = None,
) -> EventLog:
    """Parse a flat CSV (one event per row) into an EventLog.

    ``column_map`` maps the logical fields case_id/activity/timestamp/resource
    to actual column names. Columns prefixed ``attr:`` become case attributes.
    Cases appear in first-row order; rows of a case are sorted by timestamp.
    Blank lines are skipped, and a short row reads as if padded with empty
    fields. Bytes that are not UTF-8 and malformed CSV raise a ParseError.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, io.BufferedIOBase) or (
        hasattr(source, "read") and "b" in getattr(source, "mode", "")
    ):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    colmap = dict(DEFAULT_COLUMN_MAP)
    colmap.update(column_map or {})
    try:
        return _csv_log(csv.reader(source), colmap)
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV is not valid UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


def _csv_log(reader, colmap: Mapping[str, str]) -> EventLog:
    header = next(reader, None) or []
    for logical in ("case_id", "activity", "timestamp"):
        if colmap[logical] not in header:
            raise ConfigError(
                f"CSV is missing required column {colmap[logical]!r} (for {logical})"
            )
    # A repeated column name reads from its last column.
    column = {name: i for i, name in enumerate(header)}
    case_col, act_col, time_col = (column[colmap[k]] for k in ("case_id", "activity", "timestamp"))
    res_col = column.get(colmap["resource"])
    attr_cols = {
        name[len(_ATTR_PREFIX):]: i for name, i in column.items() if name.startswith(_ATTR_PREFIX)
    }
    width = len(header)
    rows = _Rows()
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
        case = rows.cases.get(case_id)
        if case is None:
            case = rows.add_case(case_id, {a: row[i] for a, i in attr_cols.items() if row[i]})
        rows.add(case, activity, None if res_col is None else row[res_col], us)
    return rows.log()


def _csv_field(value: str) -> str:
    """``value`` quoted as csv.writer quotes it, and also when it holds a
    carriage return, which a reader would take for the end of the line."""
    if any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_csv(log: EventLog, sink: IO[str]) -> None:
    """Serialize a log to CSV so that parse_csv() round-trips it exactly."""
    attr_keys = sorted({k for attrs in log.attributes for k in attrs})
    header = list(_CSV_FIELDS) + [_ATTR_PREFIX + k for k in attr_keys]
    sink.write(",".join(map(_csv_field, header)) + "\n")
    acts = [_csv_field(a) for a in log.activity_vocab]
    ress = [_csv_field(r) for r in log.resource_vocab] + [""]
    act, res, us = log.activity.tolist(), log.resource.tolist(), log.time_us.tolist()
    bounds = log.offsets.tolist()
    for c, case_id in enumerate(log.case_ids):
        case_cell = _csv_field(case_id)
        attr_cells = "".join("," + _csv_field(log.attributes[c].get(k, "")) for k in attr_keys)
        for r in range(bounds[c], bounds[c + 1]):
            stamp = (_EPOCH + timedelta(microseconds=us[r])).isoformat()
            sink.write(f"{case_cell},{acts[act[r]]},{stamp},{ress[res[r]]}{attr_cells}\n")


def load_log(
    path: str | Path,
    fmt: str | None = None,
    column_map: Mapping[str, str] | None = None,
) -> EventLog:
    """Load a log file; format inferred from the suffix unless given.

    ``.gz`` files are decompressed transparently; a corrupt or truncated
    one raises a ParseError.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"log file not found: {path}")
    name = path.name.lower()
    gz = name.endswith(".gz")
    stem = name[:-3] if gz else name
    if fmt is None:
        if stem.endswith(".xes") or stem.endswith(".xml"):
            fmt = "xes"
        elif stem.endswith(".csv"):
            fmt = "csv"
        else:
            raise ConfigError(f"cannot infer log format from file name: {path.name}")
    opener = gzip.open if gz else open
    try:
        if fmt == "xes":
            with opener(path, "rb") as fh:
                return parse_xes(fh)
        if fmt == "csv":
            with opener(path, "rt", encoding="utf-8", newline="") as fh:
                return parse_csv(fh, column_map)
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"corrupt gzip file {path.name}: {exc}") from exc
    raise ConfigError(f"unknown log format {fmt!r} (expected xes or csv)")


def filter_singleton_variants(log: EventLog) -> EventLog:
    """Drop cases whose activity sequence occurs only once in the log."""
    keys = log.variant_keys()
    counts = Counter(keys)
    return log.select_cases(np.array([counts[k] >= 2 for k in keys], dtype=bool))


_SLICE_RULES = ("first", "all", "any")


def slice_date_range(
    log: EventLog,
    start: date,
    end: date,
    rule: str = "first",
) -> EventLog:
    """Keep whole cases according to how their events fall in [start, end].

    Rules: "first" keeps cases whose first event lies in the range (default),
    "all" requires every event in range, "any" requires at least one.
    Both endpoints are inclusive, interpreted as full UTC days. Cases
    without events are dropped.
    """
    if rule not in _SLICE_RULES:
        raise ConfigError(f"unknown slice rule {rule!r}, expected one of {_SLICE_RULES}")
    if start > end:
        raise ConfigError(f"empty date range: {start} > {end}")
    lo = _micros(datetime(start.year, start.month, start.day, tzinfo=timezone.utc))
    hi = _micros(datetime(end.year, end.month, end.day, tzinfo=timezone.utc)
                 + timedelta(days=1))
    inside = (log.time_us >= lo) & (log.time_us < hi)
    sizes = np.diff(log.offsets)
    full = sizes > 0
    if rule == "first":
        keep = np.zeros(len(log), dtype=bool)
        keep[full] = inside[log.offsets[:-1][full]]
    else:
        hits = np.bincount(log.case[inside], minlength=len(log))
        keep = full & (hits == sizes if rule == "all" else hits > 0)
    return log.select_cases(keep)


def build_prefix_log(
    log: EventLog,
    min_prefix: int = 1,
    max_prefix: int | None = None,
) -> PrefixSet:
    """Expand each case into prefix/next-activity samples.

    A length-k prefix of an n-event case is labeled with activity k+1, or
    END_LABEL when k == n. Prefix lengths run from min_prefix to
    min(n, max_prefix); prefixes come case by case, shortest first.
    """
    if min_prefix < 1:
        raise ConfigError(f"min_prefix must be >= 1, got {min_prefix}")
    if max_prefix is not None and max_prefix < min_prefix:
        raise ConfigError(f"max_prefix {max_prefix} < min_prefix {min_prefix}")
    top = np.diff(log.offsets)
    if max_prefix is not None:
        top = np.minimum(top, max_prefix)
    counts = np.maximum(top - min_prefix + 1, 0)
    case = np.repeat(np.arange(len(log), dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    length = np.arange(len(case), dtype=np.int64) - np.repeat(first, counts) + min_prefix
    return PrefixSet(log, case, length)


def stratified_subsample(prefixes: PrefixSet, fraction: float, seed: int) -> PrefixSet:
    """Sample round(fraction * size) items per label class, at least one.

    Sampling is without replacement and deterministic for a given seed.
    The returned set keeps the original sample order. Rounding is half-up.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sampling fraction must be in (0, 1], got {fraction}")
    codes = prefixes.label_codes()
    names = prefixes.log.activity_vocab + (END_LABEL,)
    rng = random.Random(seed)
    chosen: list[int] = []
    for code in sorted(np.flatnonzero(np.bincount(codes)).tolist(), key=names.__getitem__):
        idx = np.flatnonzero(codes == code).tolist()
        count = max(1, math.floor(fraction * len(idx) + 0.5))
        chosen.extend(rng.sample(idx, count))
    return prefixes[np.sort(np.array(chosen, dtype=np.int64))]


def make_cv_folds(prefixes: PrefixSet, n_folds: int, seed: int) -> FoldSplit:
    """Assign folds at the case level: all prefixes of a case share a fold.

    Distinct cases, sorted by id, are shuffled by the seed and dealt
    round-robin.
    """
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    case_ids = prefixes.log.case_ids
    present = np.bincount(prefixes.case, minlength=len(case_ids))
    cases = sorted(np.flatnonzero(present).tolist(), key=case_ids.__getitem__)
    if len(cases) < n_folds:
        raise ConfigError(f"{len(cases)} cases cannot fill {n_folds} folds")
    random.Random(seed).shuffle(cases)
    fold_of = np.zeros(len(case_ids), dtype=np.int64)
    fold_of[cases] = np.arange(len(cases)) % n_folds
    assignments = fold_of[prefixes.case]
    assignments.flags.writeable = False
    return FoldSplit(assignments, n_folds, seed)


def _format_duration(seconds: float) -> str:
    days = seconds / 86400.0
    if days >= 56.0:
        return f"{days / 7.0:.1f}w"
    return f"{days:.1f}d"


def log_statistics(log: EventLog) -> dict:
    """Cases, events, activities, variants, and median case duration."""
    durations = log.case_durations().tolist()
    median_s = float(statistics.median(durations)) if durations else 0.0
    return {
        "cases": len(log),
        "events": log.n_events,
        "activities": len(log.activity_vocab),
        "variants": len(set(log.variant_keys())),
        "median_case_time": _format_duration(median_s),
        "median_case_time_seconds": median_s,
    }
