import csv
import hashlib

import numpy as np
import pytest

from influxrank.model import serialize
from influxrank.synth import (
    DEFAULT_PROTOTYPES,
    GeneratorConfig,
    generate,
    truth_report,
)

from oracles import is_response, planted_instances


# sha256 of the files of small_synth's config, as truth_report and serialize
# write them
SMALL_SYNTH_SHA256 = {
    "users.jsonl": "0ab3014f5198c26372b54cb14c74020fccd1581ae7454c2a99656ddc7dd4ac7c",
    "edges.jsonl": "286d11f70874e63b8d2637142d3a1e9cdac45c7bb6b28cc8356039d2c853f969",
    "tweets.jsonl": "6d83b5a75b994af5e950b769ea88f872fe53462dafcbc08372b1f768aea07cae",
    "truth.csv": "a8662e90c0bdfef082ad8d732feadc060ef4e899914273f70ec0f8e4e533c774",
}


class TestConfigValidation:
    def test_negative_users(self):
        with pytest.raises(ValueError, match="n_users"):
            generate(GeneratorConfig(n_users=-1))

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match="exponents"):
            generate(GeneratorConfig(n_users=10, follower_exponent=1.0))

    @pytest.mark.parametrize("field, value, message", [
        ("follower_exponent", float("nan"), "exponents"),
        ("close_fraction", float("nan"), "close_fraction"),
        ("close_fraction", 1.5, "close_fraction"),
        ("close_fraction", -0.1, "close_fraction"),
        ("observation_days", 0, "observation_days"),
        ("n_topics", 0, "n_topics"),
    ])
    def test_out_of_range_or_nan_settings(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            generate(GeneratorConfig(n_users=10, **{field: value}))

    def test_prototype_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            generate(GeneratorConfig(n_users=10, prototype_weights=(0.5, 0.2, 0.2)))

    def test_w_star_length(self):
        with pytest.raises(ValueError, match="w_star"):
            generate(GeneratorConfig(n_users=10, w_star=np.zeros(3)))


class TestGenerate:
    def test_empty_dataset(self):
        dataset, truth = generate(GeneratorConfig(n_users=0))
        assert dataset.n_users == 0
        assert len(dataset.tweets) == 0
        assert len(truth.instance_probs) == 0
        assert truth.expected_positives == 0.0

    def test_deterministic_given_seed(self, tmp_path):
        cfg = GeneratorConfig(n_users=40, seed=9, observation_days=7)
        a, _ = generate(cfg)
        b, _ = generate(GeneratorConfig(n_users=40, seed=9, observation_days=7))
        serialize(a, tmp_path / "a")
        serialize(b, tmp_path / "b")
        for name in ("users.jsonl", "edges.jsonl", "tweets.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        c, _ = generate(GeneratorConfig(n_users=40, seed=10, observation_days=7))
        assert [t.tweet_id for t in c.tweets] != [t.tweet_id for t in a.tweets] or [
            t.timestamp for t in c.tweets
        ] != [t.timestamp for t in a.tweets]

    def test_graph_constraints(self, small_synth):
        dataset, _ = small_synth
        g = dataset.graph
        cap = 60 // 10
        for u in g.vertices:
            assert len(g.friends(u)) <= cap
            assert len(g.followers(u)) <= cap
            assert u not in g.friends(u)
        edges = list(g.edges())
        assert len(edges) == len(set(edges))

    def test_tweet_counts_and_window(self, small_synth):
        dataset, _ = small_synth
        lo, hi = dataset.observation_window
        originals = {}
        for tw in dataset.tweets:
            assert lo <= tw.timestamp <= hi
            if tw.kind == "original":
                originals[tw.author] = originals.get(tw.author, 0) + 1
        for uid in dataset.users:
            assert 20 <= originals.get(uid, 0) <= 400

    def test_responses_are_well_formed(self, small_synth):
        dataset, _ = small_synth
        by_id = {tw.tweet_id: tw for tw in dataset.tweets}
        n_resp = 0
        for tw in dataset.tweets:
            if not is_response(tw):
                continue
            n_resp += 1
            orig = by_id[tw.responds_to_tweet]
            assert orig.author == tw.responds_to_user
            assert dataset.graph.has_edge(tw.author, orig.author)
            assert tw.timestamp > orig.timestamp
        assert n_resp > 0

    def test_close_edges_are_edges_with_higher_response_rate(self):
        cfg = GeneratorConfig(n_users=300, seed=5, observation_days=14)
        dataset, truth = generate(cfg)
        edge_set = set(dataset.graph.edges())
        assert truth.close_edges <= edge_set
        responded = {}
        for tw in dataset.tweets:
            if is_response(tw):
                key = (tw.author, tw.responds_to_user)
                responded[key] = responded.get(key, 0) + 1
        close_rate = np.mean([1 if e in responded else 0 for e in truth.close_edges])
        other = edge_set - truth.close_edges
        other_rate = np.mean([1 if e in responded else 0 for e in other])
        assert close_rate > other_rate

    def test_expected_positives_matches_realized(self, small_synth):
        dataset, truth = small_synth
        realized = sum(1 for tw in dataset.tweets if is_response(tw))
        expected = truth.expected_positives
        assert abs(realized - expected) < 5 * np.sqrt(expected)
        assert np.all(truth.instance_probs > 0)
        assert np.all(truth.instance_probs < 1)

    def test_prototype_labels_shape_activity(self):
        cfg = GeneratorConfig(n_users=150, seed=2, observation_days=14)
        dataset, truth = generate(cfg)
        by_label = {0: np.zeros(24), 1: np.zeros(24), 2: np.zeros(24)}
        for tw in dataset.tweets:
            if tw.kind == "original":
                by_label[truth.prototype_labels[tw.author]][
                    dataset.hour_of(tw.timestamp)
                ] += 1
        assert 14 <= int(np.argmax(by_label[0])) <= 21
        assert int(np.argmax(by_label[1])) == 17
        assert int(np.argmax(by_label[2])) <= 4

    def test_low_follower_bias_skews_close_edges(self):
        base = GeneratorConfig(n_users=300, seed=6, close_fraction=0.15)
        biased = GeneratorConfig(
            n_users=300, seed=6, close_fraction=0.15, close_low_follower_bias=3.0
        )
        _, t0 = generate(base)
        ds, t1 = generate(biased)
        deg = lambda v: len(ds.graph.followers(v))
        mean_biased = np.mean([deg(v) for _, v in t1.close_edges])
        mean_plain = np.mean([deg(v) for _, v in t0.close_edges])
        assert mean_biased < mean_plain


class TestPlantedInstances:
    def test_shapes_and_ranges(self):
        x, y, p, bayes = planted_instances(500, seed=1)
        assert x.shape == (500, 12)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert np.all((p > 0) & (p < 1))
        assert 0.5 <= bayes <= 1.0

    def test_deterministic(self):
        a = planted_instances(100, seed=3)
        b = planted_instances(100, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_label_rate_tracks_probabilities(self):
        _, y, p, _ = planted_instances(20000, seed=4)
        assert y.mean() == pytest.approx(p.mean(), abs=0.02)


def test_small_synth_bytes_are_pinned(tmp_path, small_synth):
    """A change to how synth builds its output must not move a byte of it."""
    dataset, truth = small_synth
    serialize(dataset, tmp_path)
    truth_report(truth, tmp_path / "truth.csv")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SMALL_SYNTH_SHA256}
    assert got == SMALL_SYNTH_SHA256


def test_truth_report_contents(tmp_path, small_synth):
    _, truth = small_synth
    path = truth_report(truth, tmp_path / "truth.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["section", "key", "value"]
    sections = {r[0] for r in rows[1:]}
    assert {"intercept", "weight", "prototype", "close_edge", "summary"} <= sections
    weights = [r for r in rows if r[0] == "weight"]
    assert len(weights) == 12
    protos = [r for r in rows if r[0] == "prototype"]
    assert len(protos) == 60
