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

from icppm.eventlog import Event, EventLog, Trace

BASE = datetime(2023, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def ts(offset_s: float) -> datetime:
    """Timestamp at a fixed base plus an offset in seconds."""
    return BASE + timedelta(seconds=offset_s)


def make_event(case_id: str, activity: str, offset_s: float, resource: str | None = None) -> Event:
    return Event(case_id, activity, ts(offset_s), resource)


def make_trace(case_id: str, spec, attributes=None) -> Trace:
    """spec: iterable of (activity, offset_s) or (activity, offset_s, resource)."""
    events = []
    for item in spec:
        act, off = item[0], item[1]
        res = item[2] if len(item) > 2 else None
        events.append(make_event(case_id, act, off, res))
    return Trace.build(case_id, events, attributes or {})


def make_log(*traces) -> EventLog:
    return EventLog.from_traces(traces)


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
        cid = f"case{c}"
        t = rng.uniform(0, span_s)
        events = []
        for _ in range(rng.randint(1, max_len)):
            if integer_times:
                t = float(int(t))
            res = rng.choice(resources) if with_resources and rng.random() < 0.8 else None
            events.append(make_event(cid, rng.choice(activities), t, res))
            t += rng.uniform(1, span_s / 10)
        traces.append(Trace.build(cid, events))
    return EventLog.from_traces(traces)


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
