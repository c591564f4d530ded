"""Property tests: the log parsers end in a log or a typed error.

Every input to ``parse_xes`` and ``parse_csv`` must give an ``EventLog`` or
raise ``ParseError``/``RecordError``; ``parse_csv`` may also raise the
``ConfigError`` for a mapped column missing from the header. Any other
exception (``ValueError``, ``UnicodeDecodeError``, ...) is a bug.
"""

from __future__ import annotations

import csv
import io
from datetime import timedelta, timezone
from xml.sax.saxutils import quoteattr

from hypothesis import HealthCheck, given, settings, strategies as st

from icppm.errors import ConfigError, ParseError
from icppm.eventlog import EventLog, parse_csv, parse_xes

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
    or spliced with random bytes."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xmlns="http://www.xes-standard.org/">']
    for _ in range(draw(st.integers(0, 4))):
        parts.append("<trace>")
        parts.append(_xes_attr("string", "concept:name", draw(optional(names))))
        parts.append(_xes_attr("string", draw(names), draw(optional(names))))
        for _ in range(draw(st.integers(0, 4))):
            parts.append("<event>")
            parts.append(_xes_attr("string", "concept:name", draw(optional(names))))
            parts.append(_xes_attr("date", "time:timestamp", draw(optional(timestamps))))
            parts.append(_xes_attr("string", "org:resource", draw(optional(names))))
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    doc = "\n".join(parts).encode("utf-8")
    cut = draw(st.integers(0, len(doc)))
    return draw(st.sampled_from([doc, doc[:cut], doc[:cut] + draw(st.binary(max_size=8))
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

