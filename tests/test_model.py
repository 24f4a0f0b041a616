import json

import numpy as np
import pytest

from influxrank.model import (
    Dataset,
    FollowGraph,
    ParseError,
    Tweet,
    ValidationError,
    degree_stats,
    ingest,
    load_dataset,
    serialize,
)

from conftest import make_dataset, make_user
from oracles import loglog_slope


def _jsonl(objs):
    return [json.dumps(o) for o in objs]


USERS = _jsonl(
    [
        {"id": "a", "listed": 1, "favourites": 2, "verified": False, "topics": [1.0]},
        {"id": "b", "listed": 0, "favourites": 0, "verified": True, "topics": [1.0]},
        {"id": "c", "listed": 3, "favourites": 1, "verified": False, "topics": [1.0]},
    ]
)
EDGES = _jsonl([{"follower": "a", "friend": "b"}, {"follower": "c", "friend": "b"}])
TWEETS = _jsonl(
    [
        {"id": f"t{i}", "author": a, "kind": "original", "ts": 1000 + i}
        for i, a in enumerate(["a", "b", "b", "c", "a"])
    ]
)


def test_ingest_passthrough():
    ds = ingest(USERS, EDGES, TWEETS, window=(0, 10000))
    assert ds.n_users == 3
    assert ds.graph.n_edges == 2
    assert len(ds.tweets) == 5
    assert ds.dropped_tweets == 0


def test_ingest_drops_unknown_author():
    extra = TWEETS + _jsonl(
        [{"id": "tx", "author": "zzz", "kind": "original", "ts": 1500}]
    )
    ds = ingest(USERS, EDGES, extra, window=(0, 10000))
    assert len(ds.tweets) == 5
    assert ds.dropped_tweets == 1


def test_ingest_self_loop_rejected():
    bad = EDGES + _jsonl([{"follower": "a", "friend": "a"}])
    with pytest.raises(ValidationError, match="self-loop"):
        ingest(USERS, bad, TWEETS, window=(0, 10000))


def test_ingest_duplicate_user_rejected():
    with pytest.raises(ValidationError, match="duplicate user_id"):
        ingest(USERS + [USERS[0]], EDGES, TWEETS, window=(0, 10000))


def test_ingest_duplicate_tweet_rejected():
    # rejected before any filtering, even when one copy lies outside the window
    dup = _jsonl([{"id": "t1", "author": "b", "kind": "original", "ts": 99999}])
    with pytest.raises(ValidationError, match="duplicate tweet_id 't1'"):
        ingest(USERS, EDGES, TWEETS + dup, window=(0, 10000))


def test_ingest_values_beyond_int64_rejected():
    big_count = _jsonl([{"id": "z", "listed": 2**63, "favourites": 0, "verified": False,
                         "topics": [1.0]}])
    with pytest.raises(ValidationError, match="count field exceeds int64"):
        ingest(USERS + big_count, EDGES, TWEETS)
    late = _jsonl([{"id": "tz", "author": "a", "kind": "original", "ts": 2**63}])
    with pytest.raises(ValidationError, match="timestamp exceeds int64"):
        ingest(USERS, EDGES, TWEETS + late)


WRONG_TYPES = [
    ("tweets", "ts", True, "integer"),
    ("tweets", "ts", 1.9, "integer"),
    ("tweets", "ts", 1.0, "integer"),
    ("tweets", "ts", "123", "integer"),
    ("tweets", "ts", None, "integer"),
    ("tweets", "ts", "abc", "integer"),
    ("users", "listed", 2.7, "integer"),
    ("users", "listed", False, "integer"),
    ("users", "favourites", "3", "integer"),
    ("users", "verified", "false", "boolean"),
    ("users", "verified", 1, "boolean"),
    ("users", "verified", None, "boolean"),
]


@pytest.mark.parametrize("source, key, value, want", WRONG_TYPES,
                         ids=[f"{s}-{k}-{v!r}" for s, k, v, _ in WRONG_TYPES])
def test_ingest_rejects_a_value_of_the_wrong_json_type(source, key, value, want):
    lines = {"users": list(USERS), "tweets": list(TWEETS)}
    lines[source][1] = json.dumps({**json.loads(lines[source][1]), key: value})
    with pytest.raises(ParseError, match=f"{source}, line 2: '{key}' must be a JSON {want}"):
        ingest(lines["users"], EDGES, lines["tweets"], window=(0, 10000))


def test_ingest_empty_users_rejected():
    with pytest.raises(ValidationError, match="empty user set"):
        ingest([], EDGES, TWEETS, window=(0, 10000))


def test_ingest_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 2"):
        ingest([USERS[0], "{not json"], EDGES, TWEETS, window=(0, 10000))


def test_ingest_window_trim():
    ds = ingest(USERS, EDGES, TWEETS, window=(1001, 1003))
    assert len(ds.tweets) == 3
    assert ds.dropped_tweets == 2


def test_ingest_min_tweets_filter():
    ds = ingest(USERS, EDGES, TWEETS, window=(0, 10000), min_tweets=2)
    # a and b have 2 tweets each, c has 1
    assert set(ds.users) == {"a", "b"}
    assert ds.graph.n_edges == 1


def test_response_without_target_rejected():
    bad = _jsonl([{"id": "r", "author": "a", "kind": "retweet", "ts": 1200}])
    with pytest.raises(ValidationError, match="without a target user"):
        ingest(USERS, EDGES, bad, window=(0, 10000))


def test_roundtrip_idempotent(tmp_path, small_synth):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    again = load_dataset(tmp_path, window=dataset.observation_window)
    assert set(again.users) == set(dataset.users)
    assert list(again.graph.edges()) == list(dataset.graph.edges())
    assert [t.tweet_id for t in again.tweets] == [t.tweet_id for t in dataset.tweets]
    # serializing the re-ingested dataset reproduces the files byte for byte
    second = tmp_path / "again"
    serialize(again, second)
    for name in ("users.jsonl", "edges.jsonl", "tweets.jsonl"):
        assert (tmp_path / name).read_bytes() == (second / name).read_bytes()


def _write_inputs(path, tweets):
    path.mkdir()
    for name, lines in (("users", USERS), ("edges", EDGES), ("tweets", tweets)):
        (path / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines))
    return path


def test_load_dataset_window_spans_every_parsed_tweet(tmp_path):
    # the unknown author's tweets widen the window but are dropped
    extra = TWEETS + _jsonl(
        [{"id": "tx", "author": "zzz", "kind": "original", "ts": 900},
         {"id": "ty", "author": "zzz", "kind": "original", "ts": 2000}]
    )
    ds = load_dataset(_write_inputs(tmp_path / "in", extra))
    assert ds.observation_window == (900, 2000)
    assert len(ds.tweets) == 5
    assert ds.dropped_tweets == 2
    assert ingest(USERS, EDGES, []).observation_window == (0, 0)


def test_load_dataset_reports_tweet_without_ts_by_line(tmp_path):
    bad = TWEETS[:3] + _jsonl([{"id": "t9", "author": "a", "kind": "original"}])
    with pytest.raises(ParseError, match="tweets, line 4: missing key 'ts'"):
        load_dataset(_write_inputs(tmp_path / "in", bad))


def test_follower_adjacency_is_transpose(small_synth):
    dataset, _ = small_synth
    g = dataset.graph
    for v in g.vertices:
        direct = set(g.followers(v))
        via_friends = {u for u in g.vertices if v in g.friends(u)}
        assert direct == via_friends
    assert sum(len(g.followers(v)) for v in g.vertices) == g.n_edges


@pytest.mark.parametrize("vertices, odd", [(["b", "a", "c"], "c"), (["a"], "b")],
                         ids=["extra_vertex", "missing_vertex"])
def test_graph_vertices_must_be_the_users(vertices, odd):
    users = {u: make_user(u) for u in "ab"}
    graph = FollowGraph(vertices, [("a", v) for v in vertices if v != "a"])
    with pytest.raises(ValidationError, match=f"graph vertices are not the users.*'{odd}'"):
        Dataset(users, graph, [], (0, 1))


def test_hour_and_weekday_binning():
    users = [make_user("a")]
    # day 4 since epoch is a Monday; 10:00
    ts = 4 * 86400 + 10 * 3600
    ds = make_dataset(users, [], [Tweet("t", "a", "original", ts)])
    assert ds.hour_of(ts) == 10
    assert ds.weekday_of(ts) == 0
    ds.tz_offset = -3600
    assert ds.hour_of(ts) == 9


def test_degree_stats_histograms():
    users = [make_user(u) for u in "abc"]
    ds = make_dataset(users, [("a", "b"), ("c", "b")], [])
    report = degree_stats(ds)
    assert report.follower_hist == {0: 2, 2: 1}
    assert report.friend_hist == {1: 2, 0: 1}
    assert sum(report.follower_hist.values()) == 3
    assert sum(report.friend_hist.values()) == 3
    assert sum(report.tweet_hist.values()) == 3


def test_degree_stats_two_users_one_follower_each():
    users = [make_user(u) for u in "ab"]
    ds = make_dataset(users, [("a", "b"), ("b", "a")], [])
    assert degree_stats(ds).follower_hist == {1: 2}


def test_degree_stats_zero_variance_correlation_absent():
    users = [make_user(u) for u in "ab"]
    ds = make_dataset(users, [], [])  # nobody has friends
    assert degree_stats(ds).follower_friend_corr is None


def test_loglog_slope_recovers_planted_exponent():
    rng = np.random.default_rng(42)
    ks = np.arange(1, 501)
    probs = ks**-2.0
    probs /= probs.sum()
    samples = rng.choice(ks, size=5000, p=probs)
    assert abs(loglog_slope(samples) - (-2.0)) < 0.3
