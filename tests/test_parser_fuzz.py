"""Property tests: the log parsers end in a log or a typed error.

Every input to ``parse_xes`` and ``parse_csv`` must give an ``EventLog`` or
raise ``ParseError``/``RecordError``; ``parse_csv`` may also raise the
``ConfigError`` for a mapped column missing from the header. Any other
exception (``ValueError``, ``UnicodeDecodeError``, ...) is a bug.

``parse_csv`` reads blocks of rows and converts the common timestamp layouts
by array arithmetic; on every drawn log it must give the columns, or the
exception type and message, of ``oracles.parse_csv``, which handles one row
at a time.

Every log ``parse_xes`` accepts must come back from its own CSV
(``write_csv``, then ``parse_csv``) with the same case ids, attributes and
columns.
"""

from __future__ import annotations

import csv
import io
from datetime import timedelta, timezone
from unittest import mock
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from conftest import xes_doc
from icppm import eventlog
from icppm.errors import ConfigError, ParseError, RecordError
from icppm.eventlog import EventLog, parse_csv, parse_xes, write_csv

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

offsets = st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m)))
valid_times = st.datetimes(timezones=st.one_of(st.none(), offsets)).map(lambda d: d.isoformat())
# Mostly well-formed values, so that drawn logs often get past the first
# record and reach whole-log checks such as duplicate case ids.
timestamps = st.one_of(
    valid_times, valid_times, valid_times,
    st.sampled_from(["2023-01-01T10:00:00Z", "2023-01-01", "0001-01-01T00:00:00+05:00",
                     "9999-12-31T23:59:59-05:00", "", "not-a-time"]),
    st.text(max_size=12),
)
short_names = st.sampled_from(["a", "b", "c1", "trace-0"])
names = st.one_of(short_names, short_names, short_names, st.just(""), st.text(max_size=6))


def optional(strategy):
    return st.one_of(strategy, strategy, strategy, st.none())


def _xes_attr(tag: str, key: str, value: str | None) -> str:
    return "" if value is None else f"<{tag} key={quoteattr(key)} value={quoteattr(value)}/>"


@st.composite
def xes_documents(draw) -> bytes:
    """XES text built from drawn traces, events and attribute values; the
    values may hold characters XML forbids, and the bytes may be cut short
    or spliced with random bytes. Most traces draw only well-formed values
    (every event with a name and a valid timestamp), and half the documents
    are left whole, so that many reach the end of the parse."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xmlns="http://www.xes-standard.org/">']
    for _ in range(draw(st.integers(0, 4))):
        clean = draw(st.integers(0, 3)) > 0
        text, event_names, stamps = ((short_names, short_names, valid_times) if clean
                                     else (names, optional(names), optional(timestamps)))
        parts.append("<trace>")
        parts.append(_xes_attr("string", "concept:name", draw(optional(text))))
        parts.append(_xes_attr("string", draw(text), draw(optional(text))))
        for _ in range(draw(st.integers(0, 4))):
            parts.append("<event>")
            parts.append(_xes_attr("string", "concept:name", draw(event_names)))
            parts.append(_xes_attr("date", "time:timestamp", draw(stamps)))
            parts.append(_xes_attr("string", "org:resource", draw(optional(text))))
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    doc = "\n".join(parts).encode("utf-8")
    cut = draw(st.integers(0, len(doc)))
    return draw(st.sampled_from([doc, doc, doc[:cut], doc[:cut] + draw(st.binary(max_size=8))
                                 + doc[cut:]]))


@st.composite
def csv_documents(draw) -> bytes:
    """CSV written by ``csv.writer``: a header of drawn column names (any of
    the required ones may be missing or repeated), rows of drawn cells with
    too few or too many fields, possibly spliced with random bytes."""
    columns = draw(st.lists(st.sampled_from(
        ["case_id", "activity", "timestamp", "resource", "attr:x", "other"]),
        min_size=0, max_size=6))
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    cell = st.one_of(names, timestamps, st.text(max_size=8))
    for _ in range(draw(st.integers(0, 6))):
        writer.writerow(draw(st.lists(cell, min_size=0, max_size=len(columns) + 1)))
    doc = sink.getvalue().encode("utf-8")
    cut = draw(st.integers(0, len(doc)))
    return draw(st.sampled_from([doc, doc[:cut] + draw(st.binary(max_size=8))
                                 + doc[cut:]]))


def _ends_typed(parse, data, missing_column_ok: bool = False) -> None:
    try:
        log = parse(data)
    except ParseError:  # RecordError is a ParseError
        return
    except ConfigError as exc:
        assert missing_column_ok and "missing required column" in str(exc), exc
        return
    assert isinstance(log, EventLog)


class TestParseXesFuzz:
    @FUZZ
    @given(xes_documents())
    def test_structured_documents(self, doc):
        _ends_typed(parse_xes, doc)

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        _ends_typed(parse_xes, data)


class TestParseCsvFuzz:
    @FUZZ
    @given(csv_documents())
    def test_structured_documents(self, doc):
        _ends_typed(lambda d: parse_csv(io.BytesIO(d)), doc, missing_column_ok=True)

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        _ends_typed(lambda d: parse_csv(io.BytesIO(d)), data, missing_column_ok=True)

    @FUZZ
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        _ends_typed(parse_csv, text, missing_column_ok=True)



instants = st.datetimes(timezones=offsets)
fast_stamps = st.one_of(instants.map(lambda d: d.isoformat()),
                        instants.map(lambda d: d.replace(microsecond=0).isoformat()))


@st.composite
def mutated(draw, stamps) -> str:
    """A drawn stamp with one character replaced."""
    stamp = draw(stamps)
    at = draw(st.integers(0, len(stamp) - 1))
    char = draw(st.sampled_from("0123456789+-,:.TZ ?\u0663\uff13"))
    return stamp[:at] + char + stamp[at + 1:]


# Both fast layouts at every offset, including years 0001 and 9999 whose UTC
# instant is out of range, the layouts that take the row-by-row path, and
# stamps that fail one field check.
any_stamps = st.one_of(
    fast_stamps,
    instants.map(lambda d: d.replace(tzinfo=None).isoformat() + "Z"),
    instants.map(lambda d: d.replace(tzinfo=None).isoformat()),
    fast_stamps.map(lambda s: f" {s} "),
    mutated(fast_stamps), mutated(fast_stamps),
    st.sampled_from([
        "2023-02-29T10:00:00+00:00", "2024-02-29T10:00:00+00:00", "2100-02-29T00:00:00+00:00",
        "2000-02-29T00:00:00.000000-05:00", "2023-01-01T24:00:00+00:00",
        "2023-01-01T10:00:60+00:00", "2023-01-01T10:00:00+24:00", "2023-01-01T10:00:00-23:59",
        "0001-01-01T00:00:00+00:01", "0001-01-01T00:00:00-00:01", "9999-12-31T23:59:59+00:01",
        "9999-12-31T23:59:59.999999-00:01", "0000-01-01T00:00:00+00:00",
        "2023-13-01T00:00:00+00:00", "2023-04-31T00:00:00+00:00", "2023-01-01 10:00:00+00:00",
        "2023-01-01T10:00:00+0000", "\uff12023-01-01T10:00:00+00:00", "",
        # numpy's ISO-8601 parser reads year 0 and a sign or space for a year
        # digit, which fromisoformat rejects; fromisoformat reads a "t".
        "0000-12-31T23:30:00-01:00", "0000-12-31T23:30:00.000000-01:00",
        "+023-01-01T10:00:00+00:00", " 023-01-01T10:00:00+00:00", "2023-01-01t10:00:00+00:00",
    ]),
)
CELLS = {
    "case_id": st.sampled_from(["c1", "c2", "c3", "c,4", "c\n5"]),
    "activity": st.sampled_from(["a", "b", "a,b", "x\r\ny"]),
    "resource": st.sampled_from(["r1", "r2", ""]),
    "attr:x": st.sampled_from(["v", "w,1", "line\nbreak", ""]),
    "attr:y": st.sampled_from(["u", ""]),
    "other": st.text(max_size=3),
}


@st.composite
def event_csvs(draw) -> str:
    """CSV text with the three required columns, any of the others (possibly
    repeated) in any order, and rows that may be blank or short. A log draws
    either fast-layout stamps only, which mostly parse, or stamps of every
    kind; and it may have holes: blank lines, short rows and empty cells."""
    extra = draw(st.lists(st.sampled_from(sorted(set(CELLS) - {"case_id", "activity"})
                                          + ["timestamp"]), max_size=4))
    columns = draw(st.permutations(["case_id", "activity", "timestamp"] + extra))
    cells = {**CELLS, "timestamp": draw(st.sampled_from([fast_stamps, any_stamps]))}
    holes = draw(st.booleans())
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(cells[name]) for name in columns]
        if holes and draw(st.booleans()):
            if draw(st.booleans()):
                row[draw(st.integers(0, len(row) - 1))] = ""
            else:
                del row[draw(st.integers(0, len(row))):]
        writer.writerow(row)
    return sink.getvalue()


def _columns(log: EventLog) -> tuple:
    """The log's case ids, attributes, vocabularies and columns."""
    columns = (log.offsets, log.case, log.activity, log.resource, log.time_us)
    assert all(c.dtype == np.int64 for c in columns)
    return (log.case_ids, log.attributes, log.activity_vocab, log.resource_vocab,
            *(c.tolist() for c in columns))


def _outcome(parse, text):
    """The log's columns, or the exception's type and message."""
    try:
        log = parse(text)
    except (ParseError, ConfigError) as exc:
        return type(exc), str(exc)
    return _columns(log)


class TestParseCsvMatchesReference:
    @FUZZ
    @given(event_csvs(), st.sampled_from([1, 2, 3, eventlog._CSV_BLOCK_ROWS]))
    @example("case_id,activity,timestamp\nc1,a,2023-01-01T10:00:00+00:00\n"
             "c1,b,2023-01-01T10:00:61+00:00\n,a,2023-01-01T10:00:00+00:00\n", 3)
    @example("case_id,activity,timestamp\nc1,a,2023-01-01T10:00:00+00:00\n"
             "c1,,2023-01-01T10:00:00+00:00\nc1,b,not-a-time\n", 3)
    @example("timestamp,case_id,activity,resource,attr:x\n\n" + "".join(
        f"2023-01-0{1 + i % 9}T10:0{i % 10}:00.{i:06d}-0{i % 7}:30,c{i % 4},a{i % 3},"
        f"{'r' if i % 2 else ''},{i % 5}\n\n" for i in range(40)), 7)
    @example("case_id,activity,timestamp\nc1,a,2023-01-01T10:00:0\u0663+00:00\n"
             "c1,a,2023-01-01T10:0?:00+00:00\n", 1)
    @example('case_id,activity,timestamp\nc1,a,"2023-01-01T10:00:00,00:00"\n', 1)
    # Year 0 local time, which numpy reads, is year 1 in UTC.
    @example("case_id,activity,timestamp\nc1,a,2023-01-01T10:00:00+00:00\n"
             "c1,b,0000-12-31T23:30:00-01:00\nc1,c,0000-12-31T23:30:00.000000-01:00\n", 3)
    def test_columns_and_errors_equal_the_row_by_row_reference(self, text, block_rows):
        expected = _outcome(oracles.parse_csv, text)
        with mock.patch.object(eventlog, "_CSV_BLOCK_ROWS", block_rows):
            assert _outcome(parse_csv, text) == expected

    @pytest.mark.parametrize("block_rows", [1, eventlog._CSV_BLOCK_ROWS])
    def test_bad_row_before_malformed_csv_wins(self, block_rows):
        text = ("case_id,activity,timestamp\nc1,a,2023-01-01T10:00:00+00:00\n"
                "c1,b,2023-01-01T10:00:00+25:00\n"
                'c1,"' + "a" * 200_000 + '",2023-01-01T10:00:00+00:00\n')
        expected = _outcome(oracles.parse_csv, text)
        assert expected[0] is RecordError and "row 3" in expected[1]
        with mock.patch.object(eventlog, "_CSV_BLOCK_ROWS", block_rows):
            assert _outcome(parse_csv, text) == expected


class TestParseXesBlocks:
    @FUZZ
    @given(xes_documents(), st.sampled_from([1, 2, 3]))
    def test_columns_and_errors_do_not_depend_on_the_block_size(self, doc, block_rows):
        expected = _outcome(parse_xes, doc)
        with mock.patch.object(eventlog, "_CSV_BLOCK_ROWS", block_rows):
            assert _outcome(parse_xes, doc) == expected


class TestXesThroughCsv:
    @FUZZ
    @given(xes_documents())
    # A trace without events, an empty attribute value and an empty case id.
    @example(xes_doc([("t0", [], {}),
                      ("t1", [("a", "2023-01-01T10:00:00Z", None)], {"k": ""}),
                      ("", [("b", "2023-01-01T11:00:00Z", "r1")], {})]))
    def test_accepted_documents_survive_their_own_csv(self, doc):
        try:
            log = parse_xes(doc)
        except ParseError:
            return
        sink = io.StringIO()
        write_csv(log, sink)
        assert _columns(parse_csv(sink.getvalue())) == _columns(log)
