from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy, as the benchmark
# does: multi-threaded BLAS on small matrix products makes timing checks
# (acceptance criterion 8) swing by an order of magnitude between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import random  # noqa: E402
from datetime import datetime, timedelta, timezone

import pytest

from icppm.eventlog import _ATTR_PREFIX, _CSV_FIELDS, EventLog, _csv_field, parse_csv

BASE = datetime(2023, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def ts(offset_s) -> datetime:
    """Timestamp at a fixed base plus an offset in seconds; a datetime
    offset is the timestamp itself."""
    if isinstance(offset_s, datetime):
        return offset_s
    return BASE + timedelta(seconds=offset_s)


def make_trace(case_id: str, spec, attributes=None):
    """spec: iterable of (activity, offset_s) or (activity, offset_s, resource).

    The case as ``oracles.cases`` gives one: (case_id, attributes, events),
    events as (activity, datetime, resource) tuples, here in spec order.
    """
    events = [(item[0], ts(item[1]), item[2] if len(item) > 2 else None) for item in spec]
    return case_id, dict(attributes or {}), events


def make_log(*traces) -> EventLog:
    """The log of ``make_trace`` cases, written as CSV text (one row per
    event, in spec order) and read back by ``parse_csv``."""
    keys = sorted({key for _, attributes, _ in traces for key in attributes})
    lines = [[*_CSV_FIELDS, *(_ATTR_PREFIX + key for key in keys)]]
    for case_id, attributes, events in traces:
        cells = [attributes.get(key, "") for key in keys]
        lines.extend([case_id, activity, when.isoformat(timespec="microseconds"),
                      resource or "", *cells] for activity, when, resource in events)
    return parse_csv("".join(",".join(map(_csv_field, line)) + "\n" for line in lines))


def random_log(
    seed: int,
    n_cases: int = 20,
    activities=("a", "b", "c", "d"),
    resources=("r1", "r2", "r3"),
    with_resources: bool = True,
    max_len: int = 6,
    span_s: float = 5000.0,
    integer_times: bool = False,
) -> EventLog:
    """Synthetic multi-case log with overlapping case lifetimes."""
    rng = random.Random(seed)
    traces = []
    for c in range(n_cases):
        t = rng.uniform(0, span_s)
        spec = []
        for _ in range(rng.randint(1, max_len)):
            if integer_times:
                t = float(int(t))
            res = rng.choice(resources) if with_resources and rng.random() < 0.8 else None
            spec.append((rng.choice(activities), t, res))
            t += rng.uniform(1, span_s / 10)
        traces.append(make_trace(f"case{c}", spec))
    return make_log(*traces)


def xes_doc(traces, log_attrs: str = "") -> bytes:
    """Minimal XES document. traces: list of (case_id, [(act, iso_ts, res|None)], attrs)."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
        log_attrs,
    ]
    for case_id, events, attrs in traces:
        parts.append("<trace>")
        if case_id is not None:
            parts.append(f'<string key="concept:name" value="{case_id}"/>')
        for key, value in (attrs or {}).items():
            parts.append(f'<string key="{key}" value="{value}"/>')
        for act, iso, res in events:
            parts.append("<event>")
            if act is not None:
                parts.append(f'<string key="concept:name" value="{act}"/>')
            if iso is not None:
                parts.append(f'<date key="time:timestamp" value="{iso}"/>')
            if res is not None:
                parts.append(f'<string key="org:resource" value="{res}"/>')
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts).encode("utf-8")


@pytest.fixture
def tiny_log() -> EventLog:
    return make_log(
        make_trace("c1", [("a", 0, "r1"), ("b", 60, "r2"), ("c", 180, "r1")]),
        make_trace("c2", [("a", 30, "r2"), ("c", 90, "r2")]),
        make_trace("c3", [("b", 45, None), ("b", 100, "r3")]),
    )
