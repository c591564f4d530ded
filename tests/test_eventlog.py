from __future__ import annotations

import gzip
import io
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import make_event, make_log, make_trace, random_log, ts, xes_doc
from icppm.errors import ConfigError, ParseError, RecordError
from icppm.eventlog import (
    END_LABEL,
    Event,
    EventLog,
    Trace,
    build_prefix_log,
    filter_singleton_variants,
    load_log,
    log_statistics,
    make_cv_folds,
    parse_csv,
    parse_xes,
    slice_date_range,
    stratified_subsample,
    write_csv,
)


class TestEvent:
    def test_empty_activity_rejected(self):
        with pytest.raises(ValueError):
            Event("c1", "", ts(0))

    def test_naive_timestamp_becomes_utc(self):
        ev = Event("c1", "a", datetime(2023, 1, 1, 12, 0, 0))
        assert ev.timestamp.tzinfo == timezone.utc

    def test_aware_timestamp_converted_to_utc(self):
        offset = timezone(timedelta(hours=2))
        ev = Event("c1", "a", datetime(2023, 1, 1, 12, 0, 0, tzinfo=offset))
        assert ev.timestamp == datetime(2023, 1, 1, 10, 0, 0, tzinfo=timezone.utc)


class TestTrace:
    def test_build_sorts_by_timestamp(self):
        t = Trace.build("c1", [make_event("c1", "b", 50), make_event("c1", "a", 0)])
        assert t.activities == ("a", "b")

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            Trace("c1", (make_event("c1", "b", 50), make_event("c1", "a", 0)))

    def test_case_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace.build("c1", [make_event("c2", "a", 0)])

    def test_tie_keeps_original_order(self):
        events = [make_event("c1", "x", 10), make_event("c1", "y", 10)]
        assert Trace.build("c1", events).activities == ("x", "y")

    def test_duration(self):
        t = make_trace("c1", [("a", 0), ("b", 3600)])
        assert t.duration.total_seconds() == 3600


class TestEventLog:
    def test_vocabularies_are_exactly_the_values_present(self, tiny_log):
        assert tiny_log.activity_vocab == ("a", "b", "c")
        assert tiny_log.resource_vocab == ("r1", "r2", "r3")

    def test_duplicate_case_ids_rejected(self):
        with pytest.raises(ValueError):
            make_log(make_trace("c1", [("a", 0)]), make_trace("c1", [("b", 1)]))


class TestParseXes:
    def test_zero_traces(self):
        assert len(parse_xes(xes_doc([]))) == 0

    def test_shuffled_timestamps_resorted(self):
        doc = xes_doc([
            ("t1", [("b", "2023-01-01T12:00:00+00:00", None),
                    ("a", "2023-01-01T10:00:00+00:00", None),
                    ("c", "2023-01-01T14:00:00+00:00", None)], {}),
        ])
        log = parse_xes(doc)
        assert log.traces[0].activities == ("a", "b", "c")

    def test_zulu_and_offset_timestamps(self):
        doc = xes_doc([
            ("t1", [("a", "2023-01-01T10:00:00Z", None),
                    ("b", "2023-01-01T13:00:00+02:00", None)], {}),
        ])
        log = parse_xes(doc)
        tstamps = [e.timestamp for e in log.traces[0].events]
        assert tstamps[0] == datetime(2023, 1, 1, 10, tzinfo=timezone.utc)
        assert tstamps[1] == datetime(2023, 1, 1, 11, tzinfo=timezone.utc)

    def test_resources_and_case_attributes(self):
        doc = xes_doc([
            ("t1", [("a", "2023-01-01T10:00:00Z", "alice")], {"channel": "web"}),
        ])
        log = parse_xes(doc)
        assert log.traces[0].events[0].resource == "alice"
        assert log.traces[0].attributes["channel"] == "web"

    def test_empty_resource_is_no_resource(self):
        doc = xes_doc([("t1", [("a", "2023-01-01T10:00:00Z", "")], {})])
        log = parse_xes(doc)
        assert log.traces[0].events[0].resource is None
        assert not log.resource_vocab

    def test_trace_without_name_gets_generated_id(self):
        doc = xes_doc([(None, [("a", "2023-01-01T10:00:00Z", None)], {})])
        log = parse_xes(doc)
        assert log.traces[0].case_id

    def test_missing_activity_is_record_error_naming_trace(self):
        doc = xes_doc([("bad-trace", [(None, "2023-01-01T10:00:00Z", None)], {})])
        with pytest.raises(RecordError, match="bad-trace"):
            parse_xes(doc)

    def test_missing_timestamp_is_record_error(self):
        doc = xes_doc([("t9", [("a", None, None)], {})])
        with pytest.raises(RecordError, match="t9"):
            parse_xes(doc)

    def test_malformed_xml_reports_line(self):
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_xes(b"<?xml version='1.0'?>\n<log>\n<trace>\n</log>")

    def test_duplicate_case_id_is_record_error(self):
        doc = xes_doc([("t1", [("a", "2023-01-01T10:00:00Z", None)], {}),
                       ("t1", [("b", "2023-01-01T11:00:00Z", None)], {})])
        with pytest.raises(RecordError, match="t1"):
            parse_xes(doc)

    def test_unknown_declared_encoding_is_parse_error(self):
        with pytest.raises(ParseError, match="encoding"):
            parse_xes(b'<?xml version="1.0" encoding="no-such-codec"?><log/>')

    def test_out_of_range_timestamp_is_record_error(self):
        doc = xes_doc([("t1", [("a", "0001-01-01T00:00:00+01:00", None)], {})])
        with pytest.raises(RecordError, match="t1"):
            parse_xes(doc)


class TestParseCsv:
    def test_single_case(self):
        log = parse_csv(
            "case_id,activity,timestamp\n"
            "c1,a,2023-01-01T10:00:00Z\n"
            "c1,b,2023-01-01T11:00:00Z\n"
            "c1,c,2023-01-01T12:00:00Z\n"
        )
        assert len(log) == 1
        assert log.traces[0].activities == ("a", "b", "c")

    def test_interleaved_cases_grouped_and_sorted(self):
        log = parse_csv(
            "case_id,activity,timestamp\n"
            "c1,a,2023-01-01T10:00:00Z\n"
            "c2,x,2023-01-01T09:00:00Z\n"
            "c1,b,2023-01-01T08:00:00Z\n"
            "c2,y,2023-01-01T11:00:00Z\n"
        )
        assert len(log) == 2
        by_id = {t.case_id: t for t in log.traces}
        assert by_id["c1"].activities == ("b", "a")
        assert by_id["c2"].activities == ("x", "y")

    def test_empty_after_header(self):
        assert len(parse_csv("case_id,activity,timestamp\n")) == 0

    def test_missing_required_column(self):
        with pytest.raises(ConfigError, match="timestamp"):
            parse_csv("case_id,activity\nc1,a\n")

    def test_bad_timestamp_reports_row(self):
        with pytest.raises(RecordError, match="row 3"):
            parse_csv(
                "case_id,activity,timestamp\n"
                "c1,a,2023-01-01T10:00:00Z\n"
                "c1,b,not-a-time\n"
            )

    def test_column_map(self):
        log = parse_csv(
            "Case ID,Act,When\nc1,a,2023-01-01T10:00:00Z\n",
            column_map={"case_id": "Case ID", "activity": "Act", "timestamp": "When"},
        )
        assert log.traces[0].activities == ("a",)

    def test_non_utf8_bytes_are_parse_error(self, tmp_path):
        data = b"case_id,activity,timestamp\nc1,\xff\xfe,2023-01-01T10:00:00Z\n"
        with pytest.raises(ParseError, match="UTF-8"):
            parse_csv(io.BytesIO(data))
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="UTF-8"):
            load_log(path)

    def test_oversized_field_is_parse_error(self):
        text = 'case_id,activity,timestamp\nc1,"' + "a" * 200_000 + '",2023-01-01T10:00:00Z\n'
        with pytest.raises(ParseError, match="field limit"):
            parse_csv(text)

    def test_out_of_range_timestamp_is_record_error(self):
        with pytest.raises(RecordError, match="row 2"):
            parse_csv("case_id,activity,timestamp\nc1,a,0001-01-01T00:00:00+01:00\n")

    def test_attr_columns_become_case_attributes(self):
        log = parse_csv(
            "case_id,activity,timestamp,attr:channel\n"
            "c1,a,2023-01-01T10:00:00Z,web\n"
        )
        assert log.traces[0].attributes == {"channel": "web"}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_csv_round_trip_identical(self, seed):
        log = random_log(seed, n_cases=12)
        buf = io.StringIO()
        write_csv(log, buf)
        again = parse_csv(buf.getvalue())
        assert len(again) == len(log)
        orig = {t.case_id: t for t in log.traces}
        for t in again.traces:
            o = orig[t.case_id]
            assert t.activities == o.activities
            assert [e.timestamp for e in t.events] == [e.timestamp for e in o.events]
            assert [e.resource for e in t.events] == [e.resource for e in o.events]
        assert again.activity_vocab == log.activity_vocab
        assert again.resource_vocab == log.resource_vocab


class TestLoadLog:
    def test_csv_and_gz(self, tmp_path, tiny_log):
        plain = tmp_path / "log.csv"
        with plain.open("w") as fh:
            write_csv(tiny_log, fh)
        packed = tmp_path / "log.csv.gz"
        with gzip.open(packed, "wt") as fh:
            write_csv(tiny_log, fh)
        assert len(load_log(plain)) == len(load_log(packed)) == 3

    def test_carriage_returns_survive_a_file(self, tmp_path):
        log = make_log(make_trace("c1", [("a\r\nb", 0), ("a\rb", 60)]))
        for name, opener in (("log.csv", open), ("log.csv.gz", gzip.open)):
            path = tmp_path / name
            with opener(path, "wt", newline="") as sink:
                write_csv(log, sink)
            assert load_log(path).traces[0].activities == ("a\r\nb", "a\rb")
        data = (tmp_path / "log.csv").read_bytes()
        assert parse_csv(io.BytesIO(data)).traces[0].activities == ("a\r\nb", "a\rb")

    def test_xes(self, tmp_path):
        doc = xes_doc([("t1", [("a", "2023-01-01T10:00:00Z", None)], {})])
        path = tmp_path / "log.xes"
        path.write_bytes(doc)
        assert len(load_log(path)) == 1

    @pytest.mark.parametrize("name", ["log.csv.gz", "log.xes.gz"])
    def test_corrupt_gzip_is_parse_error(self, tmp_path, tiny_log, name):
        sink = io.StringIO()
        write_csv(tiny_log, sink)
        packed = gzip.compress(sink.getvalue().encode("utf-8"))
        for data in (packed[: len(packed) // 2], b"not gzip at all",
                     packed[:20] + bytes(len(packed) - 20)):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(ParseError, match="gzip"):
                load_log(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_log(tmp_path / "nope.csv")

    def test_unknown_suffix(self, tmp_path):
        p = tmp_path / "log.bin"
        p.write_text("x")
        with pytest.raises(ConfigError):
            load_log(p)


class TestFilterSingletonVariants:
    def test_unique_variants_all_dropped(self):
        log = make_log(
            make_trace("c1", [("a", 0)]),
            make_trace("c2", [("a", 0), ("b", 1)]),
        )
        assert len(filter_singleton_variants(log)) == 0

    def test_duplicated_variant_retained(self):
        log = make_log(
            make_trace("c1", [("a", 0), ("b", 1)]),
            make_trace("c2", [("a", 5), ("b", 9)]),
            make_trace("c3", [("b", 0)]),
        )
        kept = filter_singleton_variants(log)
        assert {t.case_id for t in kept.traces} == {"c1", "c2"}
        assert kept.activity_vocab == ("a", "b")

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_idempotent(self, seed):
        log = random_log(seed, n_cases=30, max_len=3, activities=("a", "b"))
        once = filter_singleton_variants(log)
        twice = filter_singleton_variants(once)
        assert [t.case_id for t in twice.traces] == [t.case_id for t in once.traces]


class TestSliceDateRange:
    def test_whole_range_is_identity(self, tiny_log):
        out = slice_date_range(tiny_log, date(2023, 1, 1), date(2023, 12, 31))
        assert len(out) == len(tiny_log)

    def test_range_before_all_events_empty(self, tiny_log):
        out = slice_date_range(tiny_log, date(2020, 1, 1), date(2020, 12, 31))
        assert len(out) == 0

    def test_inverted_range_rejected(self, tiny_log):
        with pytest.raises(ConfigError):
            slice_date_range(tiny_log, date(2023, 6, 1), date(2023, 1, 1))

    def test_end_day_inclusive(self):
        log = make_log(make_trace("c1", [("a", 0)]))  # base is 2023-03-01 12:00 UTC
        kept = slice_date_range(log, date(2023, 3, 1), date(2023, 3, 1))
        assert len(kept) == 1

    def test_first_rule_keeps_whole_case(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 40 * 86400)]))
        kept = slice_date_range(log, date(2023, 3, 1), date(2023, 3, 2), rule="first")
        assert kept.traces[0].activities == ("a", "b")

    def test_all_rule_requires_every_event(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 40 * 86400)]))
        assert len(slice_date_range(log, date(2023, 3, 1), date(2023, 3, 2), rule="all")) == 0

    def test_any_rule_catches_later_events(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 40 * 86400)]))
        kept = slice_date_range(log, date(2023, 4, 9), date(2023, 4, 12), rule="any")
        assert len(kept) == 1

    def test_unknown_rule(self, tiny_log):
        with pytest.raises(ConfigError):
            slice_date_range(tiny_log, date(2023, 1, 1), date(2023, 12, 31), rule="middle")


class TestBuildPrefixLog:
    def test_three_event_trace_enumeration(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 1), ("c", 2)]))
        samples = build_prefix_log(log)
        assert [(len(s.prefix), s.label) for s in samples] == [
            (1, "b"), (2, "c"), (3, END_LABEL),
        ]

    def test_single_event_trace(self):
        samples = build_prefix_log(make_log(make_trace("c1", [("a", 0)])))
        assert len(samples) == 1
        assert samples[0].label == END_LABEL

    def test_two_identical_traces_give_four_samples(self):
        log = make_log(
            make_trace("c1", [("a", 0), ("b", 1)]),
            make_trace("c2", [("a", 5), ("b", 7)]),
        )
        assert len(build_prefix_log(log)) == 4

    def test_min_and_max_prefix(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 1), ("c", 2), ("d", 3)]))
        samples = build_prefix_log(log, min_prefix=2, max_prefix=3)
        assert [(len(s.prefix), s.label) for s in samples] == [(2, "c"), (3, "d")]

    def test_bad_bounds(self, tiny_log):
        with pytest.raises(ConfigError):
            build_prefix_log(tiny_log, min_prefix=0)
        with pytest.raises(ConfigError):
            build_prefix_log(tiny_log, min_prefix=3, max_prefix=2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_sample_count_equals_total_events(self, seed):
        log = random_log(seed)
        assert len(build_prefix_log(log)) == log.n_events

    def test_prefix_keeps_case_attributes(self):
        log = make_log(make_trace("c1", [("a", 0), ("b", 1)], {"channel": "web"}))
        samples = build_prefix_log(log)
        assert samples[0].prefix.attributes["channel"] == "web"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_prefixes_equal_checked_traces(self, seed):
        log = random_log(seed)
        traces = {t.case_id: t for t in log.traces}
        for s in build_prefix_log(log):
            trace = traces[s.case_id]
            want = Trace(trace.case_id, trace.events[:len(s.prefix)], trace.attributes)
            assert s.prefix == want
            assert type(s.prefix) is Trace


class TestStratifiedSubsample:
    def _samples(self, counts):
        traces = []
        i = 0
        for label, n in counts.items():
            for _ in range(n):
                traces.append(make_trace(f"c{i}", [(label, 0), (label + "_next", 1)]))
                i += 1
        prefixes = build_prefix_log(make_log(*traces))
        return prefixes[np.array(prefixes.labels) != END_LABEL]

    def test_fraction_one_is_identity(self):
        samples = self._samples({"a": 10, "b": 5})
        assert list(stratified_subsample(samples, 1.0, seed=0)) == list(samples)

    def test_per_class_rounding(self):
        samples = self._samples({"a": 100, "b": 50})
        out = stratified_subsample(samples, 0.5, seed=3)
        labels = [s.label for s in out]
        assert labels.count("a_next") == 50
        assert labels.count("b_next") == 25

    def test_minimum_one_per_class(self):
        samples = self._samples({"a": 100, "b": 2})
        out = stratified_subsample(samples, 0.01, seed=1)
        labels = [s.label for s in out]
        assert labels.count("a_next") == 1
        assert labels.count("b_next") == 1

    def test_deterministic(self):
        samples = self._samples({"a": 30, "b": 20})
        first = stratified_subsample(samples, 0.4, seed=11)
        second = stratified_subsample(samples, 0.4, seed=11)
        assert list(first) == list(second)

    def test_bad_fraction(self):
        samples = self._samples({"a": 3})
        for f in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                stratified_subsample(samples, f, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_label_ratio_within_one_sample(self, seed):
        samples = self._samples({"a": 37, "b": 23, "c": 9})
        fraction = 0.35
        out = stratified_subsample(samples, fraction, seed=seed)
        for label, total in (("a_next", 37), ("b_next", 23), ("c_next", 9)):
            got = sum(1 for s in out if s.label == label)
            assert abs(got - fraction * total) <= 1.0


class TestMakeCvFolds:
    def test_three_cases_three_folds(self):
        log = make_log(*[make_trace(f"c{i}", [("a", 0), ("b", 1)]) for i in range(3)])
        samples = build_prefix_log(log)
        folds = make_cv_folds(samples, 3, seed=0)
        per_fold = [folds.split(f)[1] for f in range(3)]
        assert sorted(len(p) for p in per_fold) == [2, 2, 2]

    def test_case_cohesion(self):
        log = random_log(4, n_cases=15)
        samples = build_prefix_log(log)
        folds = make_cv_folds(samples, 3, seed=9)
        fold_of_case = {}
        for sample, fold in zip(samples, folds.fold_assignments):
            fold_of_case.setdefault(sample.case_id, set()).add(fold)
        assert all(len(fs) == 1 for fs in fold_of_case.values())

    def test_partition(self):
        log = random_log(5, n_cases=12)
        samples = build_prefix_log(log)
        folds = make_cv_folds(samples, 3, seed=2)
        seen = sorted(i for f in range(3) for i in folds.split(f)[1])
        assert seen == list(range(len(samples)))
        for f in range(3):
            train, test = folds.split(f)
            assert set(train).isdisjoint(test)
            assert len(train) + len(test) == len(samples)

    def test_deterministic(self):
        samples = build_prefix_log(random_log(6, n_cases=9))
        assert np.array_equal(
            make_cv_folds(samples, 3, seed=5).fold_assignments,
            make_cv_folds(samples, 3, seed=5).fold_assignments,
        )

    def test_too_few_cases(self):
        samples = build_prefix_log(make_log(make_trace("c1", [("a", 0)])))
        with pytest.raises(ConfigError):
            make_cv_folds(samples, 2, seed=0)

    def test_fold_index_out_of_range(self):
        samples = build_prefix_log(random_log(7, n_cases=6))
        folds = make_cv_folds(samples, 3, seed=0)
        with pytest.raises(ConfigError):
            folds.split(3)


class TestLogStatistics:
    def test_single_event_case_duration_zero(self):
        stats = log_statistics(make_log(make_trace("c1", [("a", 0)])))
        assert stats["median_case_time_seconds"] == 0.0
        assert stats["cases"] == 1

    def test_median_of_two_durations(self):
        log = make_log(
            make_trace("c1", [("a", 0), ("b", 10 * 86400)]),
            make_trace("c2", [("a", 0), ("b", 20 * 86400)]),
        )
        stats = log_statistics(log)
        assert stats["median_case_time_seconds"] == 15 * 86400
        assert stats["median_case_time"] == "15.0d"

    def test_long_durations_reported_in_weeks(self):
        log = make_log(
            make_trace("c1", [("a", 0), ("b", 198.1 * 86400)]),
        )
        assert log_statistics(log)["median_case_time"] == "28.3w"

    def test_counts(self, tiny_log):
        stats = log_statistics(tiny_log)
        assert stats["cases"] == 3
        assert stats["events"] == 7
        assert stats["activities"] == 3
        assert stats["variants"] == 3

    def test_empty_log(self):
        stats = log_statistics(EventLog.from_traces([]))
        assert stats["cases"] == 0
        assert stats["events"] == 0
        assert stats["median_case_time_seconds"] == 0.0
