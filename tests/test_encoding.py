from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import make_log, make_trace, random_log
from icppm.encoding import (
    INTRA_ENCODERS,
    PAD_TOKEN,
    FeatureVector,
    Vocabulary,
    apply_scaler,
    encode_aggregation,
    encode_index_based,
    encode_last_state,
    encode_static,
    fit_scaler,
    make_intra_encoder,
    write_feature_csv,
)
from icppm.errors import ConfigError
from icppm.eventlog import EventLog, Trace, build_prefix_log


def sample_from(spec, attrs=None, idx=-1):
    """Build a one-prefix set from a trace spec; idx picks which prefix."""
    log = make_log(make_trace("c1", spec, attrs))
    return build_prefix_log(log)[[idx]]


def row(fv: FeatureVector) -> list[float]:
    """The only row of a one-row feature block."""
    assert fv.values.shape[0] == 1
    return fv.values[0].tolist()


class TestVocabulary:
    def test_pad_reserved_at_zero(self):
        v = Vocabulary.from_values(["b", "a"])
        assert v.entries == (PAD_TOKEN, "a", "b")
        assert v.index("a") == 1
        assert v.index("b") == 2

    def test_unknown_and_none_map_to_pad(self):
        v = Vocabulary.from_values(["a"])
        assert v.index("zzz") == 0
        assert v.index(None) == 0

    def test_duplicates_and_empties_dropped(self):
        v = Vocabulary.from_values(["a", "a", "", "b"])
        assert v.entries == (PAD_TOKEN, "a", "b")

    def test_len(self):
        v = Vocabulary.from_values(["x"])
        assert len(v) == 2


class TestFeatureVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1.0, 2.0]), ("only_one",))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([math.nan]), ("f",))

    def test_concat(self):
        a = FeatureVector(np.array([1.0]), ("x",))
        b = FeatureVector(np.array([2.0, 3.0]), ("y", "z"))
        c = a.concat(b)
        assert c.schema == ("x", "y", "z")
        assert c.values.tolist() == [1.0, 2.0, 3.0]

    def test_block_concat_joins_columns(self):
        a = FeatureVector(np.array([[1.0], [4.0]]), ("x",))
        b = FeatureVector(np.array([[2.0, 3.0], [5.0, 6.0]]), ("y", "z"))
        c = a.concat(b)
        assert c.schema == ("x", "y", "z")
        assert c.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_block_shape_checked(self):
        with pytest.raises(ValueError):
            FeatureVector(np.zeros((3, 2)), ("only_one",))
        with pytest.raises(ValueError):
            FeatureVector(np.zeros((2, 2, 1)), ("a",))
        with pytest.raises(ValueError):
            FeatureVector(np.array([[0.0], [math.inf]]), ("f",))

    def test_len_counts_rows_of_a_block(self):
        assert len(FeatureVector(np.zeros((5, 2)), ("a", "b"))) == 5
        assert len(FeatureVector(np.zeros((0, 2)), ("a", "b"))) == 0
        assert len(FeatureVector(np.zeros(2), ("a", "b"))) == 2

    def test_block_iterates_as_rows(self):
        block = FeatureVector(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"))
        rows = list(block)
        assert [r.values.tolist() for r in rows] == [[1.0, 2.0], [3.0, 4.0]]
        assert all(r.values.ndim == 1 and r.schema == ("a", "b") for r in rows)
        with pytest.raises(TypeError):
            list(rows[0])


class TestEncodeStatic:
    def test_lookup(self):
        vocabs = {"channel": Vocabulary.from_values(["phone", "web"])}
        s = sample_from([("a", 0)], {"channel": "web"})
        fv = encode_static(s, ["channel"], vocabs)
        assert row(fv) == [2.0]
        assert fv.schema == ("static_channel",)

    def test_missing_attribute_is_pad(self):
        vocabs = {"channel": Vocabulary.from_values(["web"])}
        s = sample_from([("a", 0)])
        assert row(encode_static(s, ["channel"], vocabs)) == [0.0]

    def test_two_attrs_in_schema_order(self):
        vocabs = {
            "channel": Vocabulary.from_values(["web"]),
            "region": Vocabulary.from_values(["eu", "us"]),
        }
        s = sample_from([("a", 0)], {"channel": "web", "region": "us"})
        fv = encode_static(s, ["region", "channel"], vocabs)
        assert fv.schema == ("static_region", "static_channel")
        assert row(fv) == [2.0, 1.0]


class TestEncodeLastState:
    def test_last_activity_code(self):
        vocab = Vocabulary.from_values(["a", "b"])
        s = sample_from([("a", 0), ("b", 1)])
        assert row(encode_last_state(s, vocab)) == [2.0]

    def test_single_event_prefix(self):
        vocab = Vocabulary.from_values(["a", "b"])
        s = sample_from([("a", 0), ("b", 1)], idx=0)
        assert row(encode_last_state(s, vocab)) == [1.0]

    def test_unseen_activity_maps_to_pad(self):
        vocab = Vocabulary.from_values(["x", "y"])
        s = sample_from([("a", 0)])
        assert row(encode_last_state(s, vocab)) == [0.0]

    def test_resource_block_present_when_resources_known(self):
        act = Vocabulary.from_values(["a"])
        res = Vocabulary.from_values(["r1", "r2"])
        s = sample_from([("a", 0, "r2")])
        fv = encode_last_state(s, act, res)
        assert fv.schema == ("last_act", "last_res")
        assert row(fv) == [1.0, 2.0]

    def test_no_resource_block_without_vocab(self):
        act = Vocabulary.from_values(["a"])
        s = sample_from([("a", 0, "r2")])
        assert encode_last_state(s, act, None).schema == ("last_act",)


class TestEncodeAggregation:
    def test_count_mode(self):
        vocab = Vocabulary.from_values(["a", "b", "c"])
        s = sample_from([("a", 0), ("b", 1), ("a", 2)])
        fv = encode_aggregation(s, vocab, "count")
        assert row(fv) == [2.0, 1.0, 0.0]
        assert fv.schema == ("agg_a", "agg_b", "agg_c")

    def test_boolean_mode(self):
        vocab = Vocabulary.from_values(["a", "b", "c"])
        s = sample_from([("a", 0), ("b", 1), ("a", 2)])
        assert row(encode_aggregation(s, vocab, "boolean")) == [1.0, 1.0, 0.0]

    def test_empty_vocab_gives_empty_vector(self):
        vocab = Vocabulary.from_values([])
        s = sample_from([("a", 0)])
        assert encode_aggregation(s, vocab, "count").values.shape == (1, 0)

    def test_unknown_mode(self):
        vocab = Vocabulary.from_values(["a"])
        s = sample_from([("a", 0)])
        with pytest.raises(ConfigError):
            encode_aggregation(s, vocab, "sum")

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
    def test_count_sum_equals_prefix_length(self, acts):
        vocab = Vocabulary.from_values(["a", "b", "c"])
        s = sample_from([(a, i) for i, a in enumerate(acts)])
        assert encode_aggregation(s, vocab, "count").values.sum() == len(acts)


class TestEncodeIndexBased:
    def test_left_padding_oldest_first(self):
        vocab = Vocabulary.from_values(["a", "b"])
        s = sample_from([("a", 0), ("b", 1)])
        fv = encode_index_based(s, 4, vocab)
        assert row(fv) == [0.0, 0.0, 1.0, 2.0]
        assert fv.schema == ("act_1", "act_2", "act_3", "act_4")

    def test_truncates_to_last_k(self):
        vocab = Vocabulary.from_values(["a", "b", "c", "d", "e"])
        s = sample_from([("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4)])
        fv = encode_index_based(s, 4, vocab)
        assert row(fv) == [2.0, 3.0, 4.0, 5.0]

    def test_exact_length_no_padding(self):
        vocab = Vocabulary.from_values(["a", "b"])
        s = sample_from([("a", 0), ("b", 1)])
        assert row(encode_index_based(s, 2, vocab)) == [1.0, 2.0]

    def test_resource_block_parallel(self):
        act = Vocabulary.from_values(["a", "b"])
        res = Vocabulary.from_values(["r1", "r2"])
        s = sample_from([("a", 0, "r2"), ("b", 1, None)])
        fv = encode_index_based(s, 3, act, res)
        assert fv.schema == ("act_1", "act_2", "act_3", "res_1", "res_2", "res_3")
        assert row(fv) == [0.0, 1.0, 2.0, 0.0, 2.0, 0.0]

    def test_k_must_be_positive(self):
        vocab = Vocabulary.from_values(["a"])
        s = sample_from([("a", 0)])
        with pytest.raises(ConfigError):
            encode_index_based(s, 0, vocab)

    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
    )
    def test_injective_on_last_k_activities(self, acts1, acts2):
        k = 5
        vocab = Vocabulary.from_values(["a", "b", "c", "d"])
        s1 = sample_from([(a, i) for i, a in enumerate(acts1)])
        s2 = sample_from([(a, i) for i, a in enumerate(acts2)])
        v1 = encode_index_based(s1, k, vocab).values
        v2 = encode_index_based(s2, k, vocab).values
        if acts1[-k:] != acts2[-k:]:
            assert not np.array_equal(v1, v2)
        else:
            assert np.array_equal(v1, v2)

    def test_pure(self):
        vocab = Vocabulary.from_values(["a", "b"])
        s = sample_from([("a", 0), ("b", 1)])
        first = encode_index_based(s, 4, vocab)
        second = encode_index_based(s, 4, vocab)
        assert np.array_equal(first.values, second.values)
        assert first.schema == second.schema


class TestScaler:
    def _fv(self, *values):
        return FeatureVector(np.array(values, dtype=float), tuple(f"f{i}" for i in range(len(values))))

    def _block(self, *rows):
        return FeatureVector(np.array(rows, dtype=float), tuple(f"f{i}" for i in range(len(rows[0]))))

    def test_fit_records_min_max(self):
        params = fit_scaler(self._block((0.0,), (10.0,)))
        assert params.mins.tolist() == [0.0]
        assert params.maxs.tolist() == [10.0]

    def test_apply_maps_extremes_and_midpoint(self):
        params = fit_scaler(self._block((0.0,), (10.0,)))
        assert apply_scaler(self._fv(10.0), params).values[0] == pytest.approx(math.pi)
        assert apply_scaler(self._fv(5.0), params).values[0] == pytest.approx(math.pi / 2)
        assert apply_scaler(self._fv(0.0), params).values[0] == 0.0

    def test_test_time_clamping(self):
        params = fit_scaler(self._block((0.0,), (10.0,)))
        assert apply_scaler(self._fv(12.0), params).values[0] == pytest.approx(math.pi)
        assert apply_scaler(self._fv(-3.0), params).values[0] == 0.0

    def test_constant_feature_maps_to_midpoint(self):
        params = fit_scaler(self._block((4.0,), (4.0,)))
        assert apply_scaler(self._fv(4.0), params).values[0] == pytest.approx(math.pi / 2)
        assert apply_scaler(self._fv(99.0), params).values[0] == pytest.approx(math.pi / 2)

    def test_features_scaled_independently(self):
        params = fit_scaler(self._block((0.0, 100.0), (10.0, 200.0)))
        out = apply_scaler(self._fv(10.0, 100.0), params)
        assert out.values[0] == pytest.approx(math.pi)
        assert out.values[1] == 0.0

    def test_custom_interval(self):
        params = fit_scaler(self._block((0.0,), (2.0,)), target=(-1.0, 1.0))
        assert apply_scaler(self._fv(1.0), params).values[0] == pytest.approx(0.0)

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            fit_scaler(FeatureVector(np.zeros((0, 3)), ("a", "b", "c")))

    def test_fit_needs_a_block(self):
        with pytest.raises(ValueError):
            fit_scaler(self._fv(1.0, 2.0))

    def test_schema_mismatch(self):
        params = fit_scaler(self._block((0.0,), (1.0,)))
        other = FeatureVector(np.array([1.0]), ("other",))
        with pytest.raises(ValueError):
            apply_scaler(other, params)

    def test_block_scaling_equals_row_scaling_bit_for_bit(self):
        rng = np.random.default_rng(4)
        train = self._block(*rng.normal(size=(30, 4)) * [1.0, 1e3, 0.0, 5.0])
        test = self._block(*rng.normal(size=(12, 4)) * 2e3)
        params = fit_scaler(train)
        block = apply_scaler(test, params).values
        rows = np.stack([apply_scaler(r, params).values for r in test])
        assert block.tobytes() == rows.tobytes()

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=20,
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_output_always_inside_target(self, train_values, probe):
        params = fit_scaler(self._block(*[(v,) for v in train_values]))
        out = apply_scaler(self._fv(probe), params).values[0]
        assert 0.0 <= out <= math.pi + 1e-12


class TestWriteFeatureCsv:
    def test_header_schema_then_label(self):
        fv = FeatureVector(np.array([[0.5, 1.5]]), ("u", "v"))
        buf = io.StringIO()
        write_feature_csv(fv, ["next_a"], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "u,v,label"
        assert lines[1] == "0.5,1.5,next_a"

    def test_values_round_trip_through_repr(self):
        fv = FeatureVector(np.array([[math.pi]]), ("angle",))
        buf = io.StringIO()
        write_feature_csv(fv, ["y"], buf)
        cell = buf.getvalue().splitlines()[1].split(",")[0]
        assert float(cell) == math.pi

    def test_empty_rows_header_only(self):
        buf = io.StringIO()
        write_feature_csv(FeatureVector(np.zeros((0, 0)), ()), [], buf)
        assert buf.getvalue().splitlines() == ["label"]

    def test_length_mismatch(self):
        fv = FeatureVector(np.array([[1.0]]), ("f",))
        with pytest.raises(ValueError):
            write_feature_csv(fv, [], io.StringIO())


class TestMakeIntraEncoder:
    def test_unknown_name(self):
        vocab = Vocabulary.from_values(["a"])
        with pytest.raises(ConfigError):
            make_intra_encoder("one_hot", vocab, None)

    def test_static_requires_attrs(self):
        vocab = Vocabulary.from_values(["a"])
        with pytest.raises(ConfigError):
            make_intra_encoder("static", vocab, None)

    def test_all_known_encoders_produce_vectors(self):
        act = Vocabulary.from_values(["a", "b"])
        res = Vocabulary.from_values(["r1"])
        s = sample_from([("a", 0, "r1"), ("b", 1, "r1")], {"kind": "gold"})
        vocabs = {"kind": Vocabulary.from_values(["gold"])}
        for name in ("last_state", "agg_count", "agg_bool", "index_bsd"):
            encoder = make_intra_encoder(name, act, res, k=3)
            assert len(encoder(s).schema) > 0
        static = make_intra_encoder("static", act, res, static_attrs=("kind",), attr_vocabs=vocabs)
        assert row(static(s)) == [1.0]

    @pytest.mark.parametrize("name", INTRA_ENCODERS)
    def test_block_rows_match_reference(self, name):
        log = random_log(2, n_cases=12, max_len=7)
        traces = [
            Trace.build(t.case_id, t.events, {"kind": ("gold", "tin", "")[i % 3]})
            for i, t in enumerate(log.traces)
        ]
        samples = build_prefix_log(EventLog.from_traces(traces))
        act = Vocabulary.from_values(["a", "b", "c"])
        res = Vocabulary.from_values(log.resource_vocab)
        vocabs = {"kind": Vocabulary.from_values(["gold"])}
        encoder = make_intra_encoder(name, act, res, k=3, static_attrs=("kind",),
                                     attr_vocabs=vocabs)
        block = encoder(samples)
        assert block.values.shape == (len(samples), len(block.schema))
        for i, sample in enumerate(samples):
            want = oracles.intra_row(name, sample, act, res, 3, ("kind",), vocabs)
            assert block.values[i].tolist() == want
        assert encoder(samples[:0]).values.shape == (0, len(block.schema))
