"""Event log model and preprocessing.

Logs are parsed from XES (XML) or CSV into an immutable, columnar
``EventLog``: one row per event in four int64 columns, the case code, the
activity code, the resource code (-1 for none) and the time in epoch
microseconds. Rows are grouped by case, cases in first-seen order, and
sorted stably by time within a case; ``offsets[c]`` is the first row of
case ``c``. Activity and resource codes index the sorted vocabularies of
the values present. All timestamps are normalized to UTC on parse; naive
timestamps are treated as UTC.

A CSV is read by one ``csv.reader`` in blocks of rows, each turned into
code columns by first-seen dicts; XES events are checked trace by trace
and coded in blocks of the same size by the same coder. Stamps in the layouts ``isoformat()``
gives an aware instant (``YYYY-MM-DDTHH:MM:SS[.ffffff]±HH:MM``, as
``write_csv`` writes them) are checked character by character, their local
date and time read by numpy's ISO-8601 parser and only the offset by array
arithmetic; any other stamp, or one that fails a check, goes through
``datetime.fromisoformat`` alone, with the same instant or error.

Times stay exact integers. Where a float is needed, ``seconds`` divides by
10**6 with correct rounding, so an instant gives the float
``datetime.timestamp()`` gives and a difference of two instants the float
``timedelta.total_seconds()`` gives.

Every case holds at least one event: ``parse_xes`` drops a trace without
events, as a CSV cannot hold one, so an XES log and the CSV ``write_csv``
makes of it give the same log.

A ``PrefixSet`` is two int arrays, case and length: prefix i is the first
length[i] events of case case[i], labelled with the next activity or
END_LABEL. Every function here and downstream that takes prefixes takes a
``PrefixSet``; indexing one with an int gives a ``PrefixSample`` view.

Preprocessing covers variant filtering, date slicing, prefix extraction,
stratified subsampling, and case-level CV folds.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import random
import xml.etree.ElementTree as ET
import zlib
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import compress, count, islice
from pathlib import Path
from typing import IO, Mapping, Sequence

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

    def __repr__(self) -> str:
        return f"EventLog({len(self)} cases, {self.n_events} events)"

    def __len__(self) -> int:
        return len(self.case_ids)

    @property
    def n_events(self) -> int:
        return len(self.activity)

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
        """Seconds from each case's first to its last event."""
        return seconds(self.time_us[self.offsets[1:] - 1] - self.time_us[self.offsets[:-1]])

    def variant_keys(self) -> list[bytes]:
        """Per case, a key equal between two cases exactly when their
        activity sequences are."""
        bounds = self.offsets.tolist()
        return [self.activity[a:b].tobytes() for a, b in zip(bounds, bounds[1:])]


class _BlockCoder:
    """Event columns coded block by block, as both parsers code them: case,
    activity and resource codes in first-seen order over all blocks
    (``_first_seen_codes``), a missing or empty resource -1."""

    def __init__(self):
        self.cases: dict[str | int, int] = {}
        self.activities: dict[str, int] = {}
        # None and "" take codes 0 and 1, which become -1.
        self.resources: dict[str | None, int] = {None: 0, "": 1}
        self.blocks = [(np.empty(0, dtype=np.int64),) * 4]

    def add(self, cases: Sequence, acts: Sequence[str], ress: Sequence[str | None] | None,
            us: np.ndarray) -> list:
        """Code one block of events, ``ress`` None when no event has a
        resource; returns the cases this block is the first to name."""
        case, new = _first_seen_codes(self.cases, cases)
        res = np.full(len(acts), -1, dtype=np.int64)
        if ress is not None:
            np.maximum(_first_seen_codes(self.resources, ress)[0] - 2, -1, out=res)
        self.blocks.append((case, _first_seen_codes(self.activities, acts)[0], res, us))
        return new

    def log(self, case_ids: Sequence[str], attributes: Sequence[Mapping[str, str]]) -> EventLog:
        """The log of every block coded so far, case code c naming case
        ``case_ids[c]``: rows grouped by case code, stably sorted by time
        within a case."""
        case, activity, resource, time_us = map(np.concatenate, zip(*self.blocks))
        order = np.lexsort((time_us, case))
        return _make_log(case_ids, attributes, case[order], activity[order],
                         list(self.activities), resource[order], list(self.resources)[2:],
                         time_us[order])


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
        following[log.offsets[1:] - 1] = end
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


class _LocalNames(dict):
    """Tag -> local name, the part after any ``{namespace}`` ("" for a tag
    that is not a string), split once per distinct tag of a document: a
    lookup costs every other element one dict probe."""

    def __missing__(self, tag) -> str:
        name = self[tag] = tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""
        return name


def _xes_attrs(elem, local: _LocalNames) -> dict[str, str]:
    """Collect key/value pairs of direct child attribute elements."""
    out: dict[str, str] = {}
    for child in elem:
        if local[child.tag] in ("string", "date", "int", "float", "boolean", "id"):
            key = child.get("key")
            val = child.get("value")
            if key is not None and val is not None:
                out[key] = val
    return out


def parse_xes(source: IO[bytes] | bytes) -> EventLog:
    """Parse an XES byte stream into an EventLog.

    Trace-level attributes other than concept:name are kept as case
    attributes, unless empty. Traces whose concept:name is missing or empty
    get the case ids ``trace-0``, ``trace-1``, ... in document order, chosen
    after every name has been read and skipping those any trace has. Events
    missing concept:name or time:timestamp, and a second trace with the same
    case id, raise a RecordError naming the trace (an unnamed one by its
    position, ``#0`` first). A trace without events is dropped, though its
    case id still counts as taken; unknown attributes are ignored. So
    ``parse_csv`` reads the same log back from the CSV ``write_csv`` makes.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    coder = _BlockCoder()
    # The attributes of each trace with events, and the names traces carry.
    attributes: list[Mapping[str, str]] = []
    names: set[str] = set()
    # The events of traces with events not yet coded, as (activity,
    # resource, us), and their case ids, an unnamed trace's id its position
    # until every name is known.
    pending: list[tuple] = []
    pending_ids: list[str | int] = []
    n_traces = 0
    local = _LocalNames()

    def code_pending():
        acts, ress, us = zip(*pending)
        coder.add(pending_ids, acts, ress, np.array(us, dtype=np.int64))
        pending.clear()
        pending_ids.clear()

    try:
        context = ET.iterparse(source, events=("start", "end"))
        _, root = next(context, (None, None))
        if root is None:
            raise ParseError("empty XES document")
        for action, elem in context:
            if action != "end" or local[elem.tag] != "trace":
                continue
            trace_attrs = _xes_attrs(elem, local)
            case_id = trace_attrs.pop(ACTIVITY_KEY, None)
            if case_id:
                where = f"trace {case_id!r}"
                if case_id in names:
                    raise RecordError(f"{where}: duplicate case id")
                names.add(case_id)
            else:
                # Its position stands in for the id until every name is known.
                case_id, where = n_traces, f"unnamed trace #{n_traces}"
            n_traces += 1
            events = []
            for child in elem:
                if local[child.tag] != "event":
                    continue
                attrs = _xes_attrs(child, local)
                activity = attrs.get(ACTIVITY_KEY)
                raw_ts = attrs.get(TIMESTAMP_KEY)
                if not activity:
                    raise RecordError(
                        f"{where}: event #{len(events)} has no {ACTIVITY_KEY}"
                    )
                if not raw_ts:
                    raise RecordError(
                        f"{where}: event #{len(events)} has no {TIMESTAMP_KEY}"
                    )
                try:
                    us = _micros(_parse_instant(raw_ts))
                except (ValueError, OverflowError) as exc:
                    raise RecordError(
                        f"{where}: bad timestamp {raw_ts!r}: {exc}"
                    ) from exc
                events.append((activity, attrs.get(RESOURCE_KEY), us))
            if events:
                attributes.append({
                    k: v for k, v in trace_attrs.items() if v and not k.startswith("lifecycle:")
                })
                pending.extend(events)
                pending_ids.extend([case_id] * len(events))
                if len(pending) >= _CSV_BLOCK_ROWS:
                    code_pending()
            root.clear()
        if pending:
            code_pending()
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise ParseError(f"malformed XES: {exc.msg}", line=line) from exc
    except LookupError as exc:
        # An unknown encoding in the XML declaration. KeyError and IndexError
        # are LookupErrors too, but here they would be bugs, not bad input.
        if type(exc) is not LookupError:
            raise
        raise ParseError(f"malformed XES: {exc}") from exc
    generated = (f"trace-{n}" for n in count() if f"trace-{n}" not in names)
    return coder.log([key if isinstance(key, str) else next(generated) for key in coder.cases],
                     attributes)


DEFAULT_COLUMN_MAP = {
    "case_id": "case_id",
    "activity": "activity",
    "timestamp": "timestamp",
    "resource": "resource",
}


def _check_column_map(column_map: Mapping[str, str] | None) -> None:
    unknown = set(column_map or ()) - set(DEFAULT_COLUMN_MAP)
    if unknown:
        raise ConfigError(f"unknown column_map keys: {sorted(unknown)}")


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
    _check_column_map(column_map)
    colmap = dict(DEFAULT_COLUMN_MAP)
    colmap.update(column_map or {})
    try:
        return _csv_log(csv.reader(source), colmap)
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV is not valid UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


# Rows (CSV) or events (XES) per coded block: the block's row lists, its
# column tuples and its int64 temporaries stay a few tens of KiB.
_CSV_BLOCK_ROWS = 512


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
    attributes: list[Mapping[str, str]] = []
    coder = _BlockCoder()
    rows = filter(None, reader)
    first_row = 2
    while True:
        block, failure = [], None
        try:
            block.extend(islice(rows, _CSV_BLOCK_ROWS))
        except Exception as exc:
            # Malformed CSV, bytes that are not UTF-8, a truncated gzip
            # stream: raised unchanged once the rows read before it pass.
            failure = exc
        if block:
            if min(map(len, block)) < width:
                block = [row + [None] * (width - len(row)) for row in block]
            cols = list(zip(*block))
            case_ids, acts, stamps = cols[case_col], cols[act_col], cols[time_col]
            if not (all(case_ids) and all(acts) and all(stamps)):
                bad = next(i for i, fields in enumerate(zip(case_ids, acts, stamps))
                           if not all(fields))
                _stamps_us(stamps[:bad], first_row)  # an earlier bad stamp wins
                raise RecordError(f"row {first_row + bad}: missing case_id, activity or timestamp")
            us = _stamps_us(stamps, first_row)
            new = coder.add(case_ids, acts, None if res_col is None else cols[res_col], us)
            if attr_cols:
                first = dict(zip(reversed(case_ids), range(len(block) - 1, -1, -1)))
                new = [block[first[c]] for c in new]
            attributes += ({a: v for a, i in attr_cols.items() if (v := row[i])} for row in new)
        if failure is not None:
            raise failure
        if len(block) < _CSV_BLOCK_ROWS:
            break
        first_row += len(block)
    return coder.log(list(coder.cases), attributes)


def _first_seen_codes(seen: dict, values: Sequence) -> tuple[np.ndarray, list]:
    """The code of each value in ``seen``, which first gives the values it
    lacks the next codes in order of first occurrence; and those values."""
    new = [value for value in dict.fromkeys(values) if value not in seen]
    seen.update(zip(new, range(len(seen), len(seen) + len(new))))
    return np.fromiter(map(seen.__getitem__, values), dtype=np.int64, count=len(values)), new


def _layout(template: str) -> tuple:
    """Per character of a stamp layout ("0" marks a digit, "+" the offset's
    sign, anything else itself), the lowest byte allowed and the span above it."""
    low = np.frombuffer(template.encode(), dtype=np.uint8)
    span = np.select([low == ord("0"), low == ord("+")], [9, ord("-") - ord("+")])
    return len(template), low, span.astype(np.uint8)


# The stamps isoformat() gives an aware instant, with and without microseconds.
_FAST_LAYOUTS = (_layout("0000-00-00T00:00:00+00:00"), _layout("0000-00-00T00:00:00.000000+00:00"))
# The instants a datetime can hold, in epoch microseconds.
_MIN_US = _micros(datetime.min.replace(tzinfo=timezone.utc))
_MAX_US = _micros(datetime.max.replace(tzinfo=timezone.utc))


def _stamps_us(stamps: Sequence[str], first_row: int) -> np.ndarray:
    """Epoch microseconds of the timestamp cells of rows ``first_row``,
    ``first_row + 1``, ...: for the stamps in a ``_FAST_LAYOUTS`` layout that
    pass every check ``_parse_instant`` makes, the local date and time by
    numpy's ISO-8601 parser less the offset; else by ``_parse_instant``,
    whose error on the first bad cell becomes a RecordError."""
    n = len(stamps)
    us = np.zeros(n, dtype=np.int64)
    fast = np.zeros(n, dtype=bool)
    lengths = np.fromiter(map(len, stamps), dtype=np.int64, count=n)
    for size, low, span in _FAST_LAYOUTS:
        rows = lengths == size
        if not rows.any():
            continue
        # A character that is not ASCII becomes "?", which fails the checks.
        text = "".join(compress(stamps, rows.tolist())).encode("ascii", "replace")
        chars = np.frombuffer(text, dtype=np.uint8).reshape(-1, size)
        # "," lies between "+" and "-"; a byte below its range wraps above its span.
        ok = chars[:, -6] != ord(",")
        ok[np.flatnonzero((chars - low) > span) // size] = False
        chars = chars[ok]  # numpy would raise on a cell that fails these checks
        try:
            local = chars[:, :-6].view(f"S{size - 6}").astype("datetime64[us]").view(np.int64)[:, 0]
        except ValueError:
            # An impossible date or time: this layout's cells go row by row.
            continue
        digits = (chars[:, -5:] - np.uint8(ord("0"))).astype(np.int64)
        minutes = (digits[:, 0] * 10 + digits[:, 1]) * 60 + digits[:, 3] * 10 + digits[:, 4]
        value = local - (ord(",") - chars[:, -6].astype(np.int64)) * minutes * (60 * 10 ** 6)
        # numpy also reads year 0, which a datetime cannot hold.
        good = ((minutes < 1440) & (digits[:, 3] <= 5) & (local >= _MIN_US)
                & (value >= _MIN_US) & (value <= _MAX_US))
        at = np.flatnonzero(rows)[ok][good]
        us[at], fast[at] = value[good], True
    for i in np.flatnonzero(~fast).tolist():
        try:
            us[i] = _micros(_parse_instant(stamps[i]))
        except (ValueError, OverflowError) as exc:
            raise RecordError(f"row {first_row + i}: bad timestamp {stamps[i]!r}: {exc}") from exc
    return us


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


def _check_date_slice(rule: str, start: date | None = None, end: date | None = None) -> None:
    """``rule`` is one of _SLICE_RULES, and [start, end], if given, is not empty."""
    if rule not in _SLICE_RULES:
        raise ConfigError(f"unknown slice rule {rule!r}, expected one of {_SLICE_RULES}")
    if start is not None and start > end:
        raise ConfigError(f"empty date range: {start} > {end}")


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
    _check_date_slice(rule, start, end)
    lo = _micros(datetime(start.year, start.month, start.day, tzinfo=timezone.utc))
    hi = _micros(datetime(end.year, end.month, end.day, tzinfo=timezone.utc)
                 + timedelta(days=1))
    inside = (log.time_us >= lo) & (log.time_us < hi)
    if rule == "first":
        keep = inside[log.offsets[:-1]]
    else:
        hits = np.bincount(log.case[inside], minlength=len(log))
        keep = hits == np.diff(log.offsets) if rule == "all" else hits > 0
    return log.select_cases(keep)


def _check_prefix_range(min_prefix: int, max_prefix: int | None) -> None:
    if min_prefix < 1:
        raise ConfigError(f"min_prefix must be >= 1, got {min_prefix}")
    if max_prefix is not None and max_prefix < min_prefix:
        raise ConfigError(f"max_prefix {max_prefix} < min_prefix {min_prefix}")


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
    _check_prefix_range(min_prefix, max_prefix)
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


def _check_fold_count(n_folds: int) -> None:
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")


def make_cv_folds(prefixes: PrefixSet, n_folds: int, seed: int) -> FoldSplit:
    """Assign folds at the case level: all prefixes of a case share a fold.

    Distinct cases, sorted by id, are shuffled by the seed and dealt
    round-robin.
    """
    _check_fold_count(n_folds)
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
    durations = log.case_durations()
    median_s = float(np.median(durations)) if len(durations) else 0.0
    return {
        "cases": len(log),
        "events": log.n_events,
        "activities": len(log.activity_vocab),
        "variants": len(set(log.variant_keys())),
        "median_case_time": _format_duration(median_s),
        "median_case_time_seconds": median_s,
    }
