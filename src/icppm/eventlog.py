"""Event log model and preprocessing.

Logs are parsed from XES (XML) or CSV into an immutable ``EventLog`` of
``Trace`` objects whose events are sorted by timestamp (stable on ties).
All timestamps are normalized to UTC on parse; naive timestamps are
treated as UTC. Preprocessing covers variant filtering, date slicing,
prefix extraction, stratified subsampling, and case-level CV folds.
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
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import ConfigError, ParseError, RecordError

END_LABEL = "__END__"

ACTIVITY_KEY = "concept:name"
TIMESTAMP_KEY = "time:timestamp"
RESOURCE_KEY = "org:resource"

_CSV_FIELDS = ("case_id", "activity", "timestamp", "resource")
_ATTR_PREFIX = "attr:"


def _parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 instant and normalize it to UTC."""
    value = text.strip()
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    moment = datetime.fromisoformat(value)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


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

    def prefix(self, k: int) -> "Trace":
        """The first k events; a slice of a checked trace needs no re-check."""
        prefix = object.__new__(Trace)
        prefix.__dict__.update(vars(self), events=self.events[:k])
        return prefix

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


@dataclass(frozen=True)
class EventLog:
    """Traces plus the activity/resource vocabularies present in them."""

    traces: tuple[Trace, ...]
    activity_vocab: tuple[str, ...]
    resource_vocab: tuple[str, ...]

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "EventLog":
        traces = tuple(traces)
        seen: set[str] = set()
        for t in traces:
            if t.case_id in seen:
                raise ValueError(f"duplicate case_id {t.case_id!r}")
            seen.add(t.case_id)
        activities = sorted({e.activity for t in traces for e in t.events})
        resources = sorted(
            {e.resource for t in traces for e in t.events if e.resource}
        )
        return cls(traces, tuple(activities), tuple(resources))

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def n_events(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def has_resources(self) -> bool:
        return bool(self.resource_vocab)


@dataclass(frozen=True)
class PrefixSample:
    """A prefix of a case paired with the next activity (or END_LABEL)."""

    case_id: str
    prefix: Trace
    label: str

    def __post_init__(self):
        if len(self.prefix) < 1:
            raise ValueError("prefix must contain at least one event")


@dataclass(frozen=True)
class FoldSplit:
    """Per-sample fold assignment from a case-level round-robin deal."""

    fold_assignments: tuple[int, ...]
    n_folds: int
    seed: int

    def split(self, fold: int) -> tuple[list[int], list[int]]:
        """Return (train_indices, test_indices) for one held-out fold."""
        if not 0 <= fold < self.n_folds:
            raise ConfigError(f"fold {fold} out of range [0, {self.n_folds})")
        train = [i for i, f in enumerate(self.fold_assignments) if f != fold]
        test = [i for i, f in enumerate(self.fold_assignments) if f == fold]
        return train, test


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
    traces: list[Trace] = []
    case_ids: set[str] = set()
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
                case_id = f"trace-{len(traces) + n_anonymous}"
                n_anonymous += 1
            if case_id in case_ids:
                raise RecordError(f"trace {case_id!r}: duplicate case id")
            case_ids.add(case_id)
            case_attrs = {
                k: v for k, v in trace_attrs.items() if not k.startswith("lifecycle:")
            }
            events: list[Event] = []
            for child in elem:
                if _localname(child.tag) != "event":
                    continue
                attrs = _xes_attrs(child)
                activity = attrs.get(ACTIVITY_KEY)
                raw_ts = attrs.get(TIMESTAMP_KEY)
                if not activity:
                    raise RecordError(
                        f"trace {case_id!r}: event #{len(events)} has no {ACTIVITY_KEY}"
                    )
                if not raw_ts:
                    raise RecordError(
                        f"trace {case_id!r}: event #{len(events)} has no {TIMESTAMP_KEY}"
                    )
                try:
                    ts = _parse_instant(raw_ts)
                except (ValueError, OverflowError) as exc:
                    raise RecordError(
                        f"trace {case_id!r}: bad timestamp {raw_ts!r}: {exc}"
                    ) from exc
                events.append(Event(case_id, activity, ts, attrs.get(RESOURCE_KEY) or None))
            traces.append(Trace.build(case_id, events, case_attrs))
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
    return EventLog.from_traces(traces)


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
    Bytes that are not UTF-8 and malformed CSV raise a ParseError.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, io.BufferedIOBase) or (
        hasattr(source, "read") and "b" in getattr(source, "mode", "")
    ):
        source = io.TextIOWrapper(source, encoding="utf-8")
    colmap = dict(DEFAULT_COLUMN_MAP)
    colmap.update(column_map or {})
    reader = csv.DictReader(source)
    try:
        return _csv_log(reader, colmap)
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV is not valid UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


def _csv_log(reader: csv.DictReader, colmap: Mapping[str, str]) -> EventLog:
    header = reader.fieldnames or []
    for logical in ("case_id", "activity", "timestamp"):
        if colmap[logical] not in header:
            raise ConfigError(
                f"CSV is missing required column {colmap[logical]!r} (for {logical})"
            )
    has_resource = colmap["resource"] in header
    attr_cols = [c for c in header if c.startswith(_ATTR_PREFIX)]

    events_by_case: dict[str, list[Event]] = {}
    attrs_by_case: dict[str, dict[str, str]] = {}
    for row_no, row in enumerate(reader, start=2):
        case_id = row[colmap["case_id"]]
        activity = row[colmap["activity"]]
        raw_ts = row[colmap["timestamp"]]
        if not case_id or not activity or not raw_ts:
            raise RecordError(f"row {row_no}: missing case_id, activity or timestamp")
        try:
            ts = _parse_instant(raw_ts)
        except (ValueError, OverflowError) as exc:
            raise RecordError(f"row {row_no}: bad timestamp {raw_ts!r}: {exc}") from exc
        resource = row[colmap["resource"]] if has_resource else None
        events_by_case.setdefault(case_id, []).append(
            Event(case_id, activity, ts, resource or None)
        )
        if case_id not in attrs_by_case:
            attrs_by_case[case_id] = {
                c[len(_ATTR_PREFIX):]: row[c] for c in attr_cols if row.get(c)
            }
    traces = [
        Trace.build(cid, evs, attrs_by_case.get(cid, {}))
        for cid, evs in events_by_case.items()
    ]
    return EventLog.from_traces(traces)


def write_csv(log: EventLog, sink: IO[str]) -> None:
    """Serialize a log to CSV so that parse_csv() round-trips it exactly."""
    attr_keys = sorted({k for t in log.traces for k in t.attributes})
    header = list(_CSV_FIELDS) + [_ATTR_PREFIX + k for k in attr_keys]
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for trace in log.traces:
        attr_cells = [trace.attributes.get(k, "") for k in attr_keys]
        for ev in trace.events:
            writer.writerow(
                [ev.case_id, ev.activity, ev.timestamp.isoformat(), ev.resource or ""]
                + attr_cells
            )


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
            with opener(path, "rt", encoding="utf-8") as fh:
                return parse_csv(fh, column_map)
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"corrupt gzip file {path.name}: {exc}") from exc
    raise ConfigError(f"unknown log format {fmt!r} (expected xes or csv)")


def filter_singleton_variants(log: EventLog) -> EventLog:
    """Drop cases whose activity sequence occurs only once in the log."""
    counts = Counter(t.activities for t in log.traces)
    kept = [t for t in log.traces if counts[t.activities] >= 2]
    return EventLog.from_traces(kept)


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
    Both endpoints are inclusive, interpreted as full UTC days.
    """
    if rule not in _SLICE_RULES:
        raise ConfigError(f"unknown slice rule {rule!r}, expected one of {_SLICE_RULES}")
    if start > end:
        raise ConfigError(f"empty date range: {start} > {end}")
    lo = datetime(start.year, start.month, start.day, tzinfo=timezone.utc)
    hi = datetime(end.year, end.month, end.day, tzinfo=timezone.utc) + timedelta(days=1)

    def in_range(ev: Event) -> bool:
        return lo <= ev.timestamp < hi

    kept = []
    for t in log.traces:
        if not t.events:
            continue
        if rule == "first":
            keep = in_range(t.events[0])
        elif rule == "all":
            keep = all(in_range(e) for e in t.events)
        else:
            keep = any(in_range(e) for e in t.events)
        if keep:
            kept.append(t)
    return EventLog.from_traces(kept)


def build_prefix_log(
    log: EventLog,
    min_prefix: int = 1,
    max_prefix: int | None = None,
) -> list[PrefixSample]:
    """Expand each trace into prefix/next-activity samples.

    A length-k prefix of an n-event trace is labeled with activity k+1,
    or END_LABEL when k == n. Prefix lengths run from min_prefix to
    min(n, max_prefix).
    """
    if min_prefix < 1:
        raise ConfigError(f"min_prefix must be >= 1, got {min_prefix}")
    if max_prefix is not None and max_prefix < min_prefix:
        raise ConfigError(f"max_prefix {max_prefix} < min_prefix {min_prefix}")
    samples: list[PrefixSample] = []
    for trace in log.traces:
        n = len(trace)
        top = n if max_prefix is None else min(n, max_prefix)
        for k in range(min_prefix, top + 1):
            prefix = trace.prefix(k)
            label = trace.events[k].activity if k < n else END_LABEL
            samples.append(PrefixSample(trace.case_id, prefix, label))
    return samples


def stratified_subsample(
    samples: Sequence[PrefixSample],
    fraction: float,
    seed: int,
) -> list[PrefixSample]:
    """Sample round(fraction * size) items per label class, at least one.

    Sampling is without replacement and deterministic for a given seed.
    The returned list keeps the original sample order. Rounding is half-up.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sampling fraction must be in (0, 1], got {fraction}")
    by_label: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_label.setdefault(s.label, []).append(i)
    rng = random.Random(seed)
    chosen: list[int] = []
    for label in sorted(by_label):
        idx = by_label[label]
        count = max(1, math.floor(fraction * len(idx) + 0.5))
        chosen.extend(rng.sample(idx, count))
    return [samples[i] for i in sorted(chosen)]


def make_cv_folds(samples: Sequence[PrefixSample], n_folds: int, seed: int) -> FoldSplit:
    """Assign folds at the case level: all prefixes of a case share a fold.

    Distinct cases are shuffled by the seed and dealt round-robin.
    """
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    cases = sorted({s.case_id for s in samples})
    if len(cases) < n_folds:
        raise ConfigError(f"{len(cases)} cases cannot fill {n_folds} folds")
    random.Random(seed).shuffle(cases)
    fold_of = {cid: pos % n_folds for pos, cid in enumerate(cases)}
    return FoldSplit(tuple(fold_of[s.case_id] for s in samples), n_folds, seed)


def _format_duration(seconds: float) -> str:
    days = seconds / 86400.0
    if days >= 56.0:
        return f"{days / 7.0:.1f}w"
    return f"{days:.1f}d"


def log_statistics(log: EventLog) -> dict:
    """Cases, events, activities, variants, and median case duration."""
    durations = [t.duration.total_seconds() for t in log.traces]
    median_s = float(statistics.median(durations)) if durations else 0.0
    return {
        "cases": len(log.traces),
        "events": log.n_events,
        "activities": len(log.activity_vocab),
        "variants": len({t.activities for t in log.traces}),
        "median_case_time": _format_duration(median_s),
        "median_case_time_seconds": median_s,
    }
