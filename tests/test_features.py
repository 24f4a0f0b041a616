import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank.features import (
    FEATURE_NAMES,
    FeatureContext,
    MinMaxScaler,
    _in_sorted,
    balance_and_normalize,
    build_instances,
    js_divergence_rows,
)
from influxrank.temporal import global_activity

from oracles import (
    assert_activity_matches_loop,
    extract,
    instance_id_keys,
    is_response,
    jensen_shannon_divergence,
    positive_count,
    positive_rate,
    topic_similarity,
    ts_uv,
)


def _jsd2_hand(p, q):
    p, q = np.asarray(p, float), np.asarray(q, float)
    m = 0.5 * (p + q)

    def kl(a, b):
        return sum(x * math.log(x / y) for x, y in zip(a, b) if x > 0)

    return (0.5 * kl(p, m) + 0.5 * kl(q, m)) / math.log(2)


distributions = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
).map(lambda xs: np.asarray(xs) / sum(xs))


class TestTopicSimilarity:
    def test_identical_distributions(self):
        assert jensen_shannon_divergence((0.3, 0.7), (0.3, 0.7)) == pytest.approx(0.0)
        assert topic_similarity((0.3, 0.7), (0.3, 0.7)) == pytest.approx(0.0)

    def test_disjoint_distributions_hit_the_bound(self):
        assert jensen_shannon_divergence((1, 0), (0, 1)) == pytest.approx(1.0)
        assert topic_similarity((1, 0), (0, 1)) == pytest.approx(math.sqrt(2))

    def test_hand_value(self):
        got = jensen_shannon_divergence((1.0, 0.0), (0.5, 0.5))
        assert got == pytest.approx(_jsd2_hand((1, 0), (0.5, 0.5)), abs=1e-12)

    @given(distributions, distributions)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, p, q):
        if len(p) != len(q):
            q = np.resize(q, len(p))
            q = q / q.sum()
        a = jensen_shannon_divergence(p, q)
        b = jensen_shannon_divergence(q, p)
        assert a == pytest.approx(b, abs=1e-12)
        assert -1e-12 <= a <= 1.0 + 1e-12


# pairs of rows over 2..6 outcomes, often with zero entries; normalised in the test
row_pairs = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(
        st.tuples(
            st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]), min_size=k, max_size=k),
            st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]), min_size=k, max_size=k),
        ).filter(lambda pq: sum(pq[0]) > 0 and sum(pq[1]) > 0),
        min_size=1,
        max_size=8,
    )
)


class TestJsDivergenceRows:
    @given(row_pairs)
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_oracle(self, pairs):
        p = np.array([np.asarray(a) / sum(a) for a, _ in pairs])
        q = np.array([np.asarray(b) / sum(b) for _, b in pairs])
        got = js_divergence_rows(p, q)
        want = [jensen_shannon_divergence(a, b) for a, b in zip(p, q)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(got, js_divergence_rows(q, p))
        assert np.all(got <= 1.0 + 1e-12)
        assert np.all(js_divergence_rows(p, p) == 0.0)

    def test_disjoint_rows_hit_the_bound(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(js_divergence_rows(p, p[::-1]), 1.0, rtol=0.0, atol=1e-15)


class TestExtract:
    def test_hand_computed_edge_a_b_hour_1(self, tiny_dataset):
        fv = extract(tiny_dataset, "A", "B", 1)
        assert fv.li_v == 2
        assert fv.fv_v == pytest.approx(4 / 3)
        assert fv.vr_v == 0.0
        assert fv.rr_v == pytest.approx(1 / 3)
        assert fv.rr_u == 0.0
        assert fv.re_uv == 1.0
        assert fv.pt_uv == pytest.approx(3 / 4)
        assert fv.n_v_t == pytest.approx(2.0)  # B: 2 tweets in hour 1 over 1 day
        assert fv.a_u_t == 0.0  # A tweets only in hours 2 and 10
        assert fv.a_v_t == pytest.approx(2 / 3)
        assert fv.ja_uv_t == 0.0
        expected_ts = math.sqrt(2 * _jsd2_hand((1, 0), (0.5, 0.5)))
        assert fv.ts_uv == pytest.approx(expected_ts, abs=1e-12)

    def test_hand_computed_edge_a_c_hour_17(self, tiny_dataset):
        fv = extract(tiny_dataset, "A", "C", 17)
        assert fv.li_v == 0.0
        assert fv.fv_v == 0.0
        assert fv.rr_v == 0.0
        assert fv.re_uv == 0.0  # A never responded to C
        assert fv.pt_uv == pytest.approx(1 / 4)
        assert fv.n_v_t == pytest.approx(1.0)  # single-tweet span floors to 1 day
        assert fv.a_v_t == pytest.approx(1.0)
        assert fv.ts_uv == pytest.approx(math.sqrt(2))  # fully disjoint topics

    def test_joint_activity_is_product(self, tiny_dataset):
        fv = extract(tiny_dataset, "B", "A", 10)
        assert fv.ja_uv_t == pytest.approx(fv.a_u_t * fv.a_v_t)
        assert fv.a_v_t == pytest.approx(0.5)

    def test_non_edge_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="not a follow edge"):
            extract(tiny_dataset, "C", "A", 0)

    def test_hour_out_of_range(self, tiny_dataset):
        with pytest.raises(ValueError, match="hour"):
            extract(tiny_dataset, "A", "B", 24)

    def test_unknown_attribute(self, tiny_dataset):
        fv = extract(tiny_dataset, "A", "B", 1)
        with pytest.raises(AttributeError):
            fv.nonexistent

    def test_context_matches_direct_extraction(self, small_synth, small_ctx):
        dataset, _ = small_synth
        static = small_ctx.edge_static_features()
        rng = np.random.default_rng(0)
        edges = list(dataset.graph.edges())
        picks = rng.choice(len(edges), size=20, replace=False)
        for i in picks:
            u, v = edges[i]
            hour = int(rng.integers(0, 24))
            direct = extract(dataset, u, v, hour, ctx=small_ctx).as_array()
            row = small_ctx.edge_features(np.array([i]), hour)[0]
            assert np.array_equal(row[:7], static[i, :7])
            assert np.allclose(row, direct, atol=1e-12)

    def test_hour_counts_are_the_global_hourly_activity(self, small_synth, small_ctx):
        # the same 24 counts, summed over the profile table's rows and
        # over the weekday rows of the table binned straight from the tweet
        # times
        dataset, _ = small_synth
        heat = global_activity(dataset)
        assert_activity_matches_loop(dataset, heat)
        assert small_ctx.hour_counts.tobytes() == heat.sum(axis=0).tobytes()

    def test_static_features_read_no_uninitialised_memory(self, small_synth):
        dataset, _ = small_synth
        ctx = FeatureContext(dataset)  # fresh: the static matrix is cached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            static = ctx.edge_static_features()
        for i, (u, v) in enumerate(dataset.graph.edges()):
            assert static[i, 11] == pytest.approx(ts_uv(ctx, u, v), abs=1e-12)


class TestBuildInstances:
    def test_tiny_dataset_enumeration(self, tiny_dataset):
        inst = build_instances(tiny_dataset)
        keys = instance_id_keys(inst)
        # one row per (tweet, follower-of-author); A follows B,C and B follows A
        assert [k[0] for k in keys] == ["a1", "a2", "b1", "b2", "b3", "c1"]
        assert [k[1] for k in keys] == ["B", "B", "A", "A", "A", "A"]
        labels = dict(zip([k[0] for k in keys], inst.labels))
        assert labels == {"a1": 1, "a2": 0, "b1": 1, "b2": 0, "b3": 0, "c1": 0}
        assert positive_count(inst) == 2
        assert positive_rate(inst) == pytest.approx(2 / 6)

    def test_features_match_extract(self, tiny_dataset):
        inst = build_instances(tiny_dataset)
        ctx = FeatureContext(tiny_dataset)
        for (tweet_id, u, v, hour), row in zip(instance_id_keys(inst), inst.features):
            assert np.allclose(
                row, extract(tiny_dataset, u, v, hour, ctx=ctx).as_array()
            )

    def test_instance_count_is_follower_degree_sum(self, small_synth):
        dataset, _ = small_synth
        inst = build_instances(dataset)
        expected = sum(
            len(dataset.graph.followers(tw.author)) for tw in dataset.tweets
        )
        assert len(inst) == expected

    def test_every_response_yields_a_positive(self, small_synth):
        dataset, _ = small_synth
        inst = build_instances(dataset)
        positive_keys = {
            (k[0], k[1]) for k, y in zip(instance_id_keys(inst), inst.labels) if y == 1
        }
        for tw in dataset.tweets:
            if is_response(tw) and dataset.graph.has_edge(tw.author, tw.responds_to_user):
                assert (tw.responds_to_tweet, tw.author) in positive_keys


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=30),
       keys=st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=10))
def test_in_sorted_equals_isin(values, keys):
    values = np.array(values, dtype=np.int64)
    keys = np.unique(np.array(keys, dtype=np.int64))
    got = _in_sorted(values, keys)
    assert got.dtype == bool
    assert np.array_equal(got, np.isin(values, keys))


class TestScaler:
    def test_transform_and_clamp(self):
        scaler = MinMaxScaler(mins=np.array([0.0, 10.0]), maxs=np.array([2.0, 20.0]))
        out = scaler.transform(np.array([[1.0, 15.0], [-5.0, 25.0]]))
        assert np.allclose(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_degenerate_column_maps_to_zero(self):
        scaler = MinMaxScaler(mins=np.array([3.0]), maxs=np.array([3.0]))
        assert np.allclose(scaler.transform([[3.0], [7.0]]), 0.0)

    def test_json_roundtrip(self, tmp_path):
        scaler = MinMaxScaler(mins=np.array([0.0, 1.5]), maxs=np.array([2.0, 9.0]))
        path = tmp_path / "scaler.json"
        scaler.save(path)
        again = MinMaxScaler.load(path)
        assert np.array_equal(again.mins, scaler.mins)
        assert np.array_equal(again.maxs, scaler.maxs)

    @given(
        st.lists(
            st.lists(st.floats(-100, 100), min_size=3, max_size=3),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_output_always_in_unit_interval(self, rows):
        x = np.asarray(rows)
        scaler = MinMaxScaler(mins=x.min(axis=0), maxs=x.max(axis=0))
        out = scaler.transform(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestBalance:
    def test_balanced_counts_and_unit_range(self, small_synth):
        dataset, _ = small_synth
        inst = build_instances(dataset)
        balanced, scaler = balance_and_normalize(inst, seed=0)
        n_pos = int(balanced.labels.sum())
        assert n_pos == len(balanced) - n_pos
        assert n_pos == min(positive_count(inst), len(inst) - positive_count(inst))
        assert balanced.features.min() >= 0.0
        assert balanced.features.max() <= 1.0

    def test_deterministic_given_seed(self, small_synth):
        dataset, _ = small_synth
        inst = build_instances(dataset)
        a, _ = balance_and_normalize(inst, seed=7)
        b, _ = balance_and_normalize(inst, seed=7)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.features, b.features)

    def test_single_class_rejected(self, tiny_dataset):
        inst = build_instances(tiny_dataset)
        inst.labels[:] = 0
        with pytest.raises(ValueError, match="each class"):
            balance_and_normalize(inst, seed=0)


def test_feature_names_are_stable():
    assert len(FEATURE_NAMES) == 12
    assert FEATURE_NAMES[5] == "re_uv"
    assert len(set(FEATURE_NAMES)) == 12
