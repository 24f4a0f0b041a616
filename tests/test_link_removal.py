"""Single-edge-removal scorers against a full rebuild and a dense direct solve
of the reduced system, on random small graphs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from influxrank.evaluation import (
    TirLinkScorer,
    TunkRankLinkScorer,
    TwitterRankLinkScorer,
)
from influxrank.features import FeatureContext, MinMaxScaler
from influxrank.logistic import LogisticModel
from influxrank.model import Tweet
from influxrank.ranking import (
    RankVector,
    _edge_weights_all_hours,
    aggregate,
    build_matrix,
    personal_weights,
    tir_rank,
    tunkrank,
    twitterrank,
    twitterrank_matrices,
)

from conftest import _remove_edge_dataset, make_dataset, make_user

GAMMA = 0.85
# fixed, non-trivial response model; the scaler clips some raw features
MODEL = LogisticModel(
    w0=0.3,
    w=np.linspace(-0.6, 0.4, 12),
    scaler=MinMaxScaler(
        mins=np.zeros(12),
        maxs=np.array([2, 4, 1, 1, 1, 1, 1, 3, 0.5, 0.5, 0.2, 1.0]),
    ),
)


def dense_pagerank(tm) -> np.ndarray:
    """(I - gamma M_e) y = 1, normalised: PageRank with uniform dangling."""
    m = tm.matrix.toarray()
    y = np.linalg.solve(np.eye(len(m)) - tm.gamma * m, np.ones(len(m)))
    return y / y.sum()


def dense_tir(reduced, u, c):
    ctx = FeatureContext(reduced)
    weights = _edge_weights_all_hours(ctx, MODEL, c)
    hourly = [
        RankVector(tuple(ctx.user_ids), dense_pagerank(
            build_matrix(reduced, MODEL, t, c, GAMMA, ctx=ctx, edge_weights=weights)))
        for t in range(24)
    ]
    return aggregate(hourly, personal_weights(ctx, u)).scores


def dense_twitterrank(reduced, u):
    ctx = FeatureContext(reduced)
    shares = ctx.topics[ctx.index[u]]
    scores = sum(
        s * dense_pagerank(tm)
        for s, tm in zip(shares, twitterrank_matrices(reduced, GAMMA, ctx))
    )
    return scores / shares.sum()


def dense_tunkrank(reduced, p):
    ids = sorted(reduced.users)
    index = {x: i for i, x in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)))
    for follower, friend in reduced.graph.edges():
        a[index[friend], index[follower]] = 1.0 / len(reduced.graph.friends(follower))
    return np.linalg.solve(np.eye(len(ids)) - p * a, a @ np.ones(len(ids)))


def assert_scorers_match(dataset, u, v, c, p):
    reduced = _remove_edge_dataset(dataset, u, v)
    ctx = FeatureContext(dataset)

    tir = TirLinkScorer(dataset, MODEL, c, gamma=GAMMA, ctx=ctx)
    fast = tir.personal_scores_without(u, v).scores
    rebuilt = tir_rank(reduced, MODEL, c, GAMMA, mode="personal", user=u,
                       tol=1e-14, max_iters=1000).scores
    assert np.allclose(fast, rebuilt, rtol=0, atol=1e-12)
    assert np.allclose(fast, dense_tir(reduced, u, c), rtol=0, atol=1e-12)

    tw = TwitterRankLinkScorer(dataset, gamma=GAMMA, ctx=ctx)
    fast = tw.personal_scores_without(u, v).scores
    rebuilt = twitterrank(reduced, GAMMA, mode="personal", user=u,
                          tol=1e-14, max_iters=1000).scores
    assert np.allclose(fast, rebuilt, rtol=0, atol=1e-12)
    assert np.allclose(fast, dense_twitterrank(reduced, u), rtol=0, atol=1e-12)

    fast = TunkRankLinkScorer(dataset, p=p).scores_without(u, v).scores
    rebuilt = tunkrank(reduced, p=p, tol=1e-14, max_iters=1000).scores
    assert np.allclose(fast, rebuilt, rtol=1e-12, atol=1e-12)
    assert np.allclose(fast, dense_tunkrank(reduced, p), rtol=1e-12, atol=1e-12)


def build(n_users, edges, tweet_hours, topics, responses=()):
    """Users u00.. with given topic rows; tweet_hours[i] lists the hours of
    user i's originals; responses are (author, target, hour) retweets."""
    ids = [f"u{i:02d}" for i in range(n_users)]
    users = [make_user(x, listed=i % 3, favourites=i, topics=tuple(topics[i]))
             for i, x in enumerate(ids)]
    tweets = []
    for i, hours in enumerate(tweet_hours):
        for j, h in enumerate(hours):
            tweets.append(Tweet(f"t{i}_{j}", ids[i], "original", 86400 * j + 3600 * h))
    for j, (a, b, h) in enumerate(responses):
        tweets.append(Tweet(f"r{j}", ids[a], "retweet", 86400 * 3 + 3600 * h,
                            responds_to_user=ids[b]))
    return make_dataset(users, [(ids[a], ids[b]) for a, b in edges], tweets,
                        window=(0, 5 * 86400))


@st.composite
def link_cases(draw):
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    # many tweetless users, so all-zero and dangling columns are common
    tweet_hours = [draw(st.lists(st.integers(0, 23), max_size=3)) for _ in range(n)]
    topics = []
    for _ in range(n):
        raw = np.array(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2)), float)
        topics.append(raw / raw.sum() if raw.sum() > 0 else np.array([1.0, 0.0]))
    responses = draw(st.lists(
        st.tuples(st.sampled_from(edges), st.integers(0, 23)), max_size=4))
    dataset = build(n, edges, tweet_hours, topics,
                    [(a, b, h) for (a, b), h in responses])
    a, b = draw(st.sampled_from(edges))
    return dataset, f"u{a:02d}", f"u{b:02d}"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=link_cases(), c=st.sampled_from([0.5, 0.85, 1.0]),
       p=st.sampled_from([0.0, 0.05, 0.3]))
def test_scorers_match_rebuild_and_direct_solve(case, c, p):
    dataset, u, v = case
    assert_scorers_match(dataset, u, v, c, p)


class TestColumnCases:
    """Column u of the reduced matrices in the cases a random graph may miss."""

    # u00 follows only u01; u02 follows u03 and u04, both tweetless;
    # u05 follows u01 and tweetless u04; u01 follows u05. No close friends.
    EDGES = [(0, 1), (2, 3), (2, 4), (5, 1), (5, 4), (1, 5)]
    HOURS = [[1], [2, 9], [3], [], [], [20]]
    TOPICS = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (0.2, 0.8)]

    @pytest.mark.parametrize("link, c", [
        (("u00", "u01"), 0.85),  # u loses its only friend: column dangling
        (("u02", "u03"), 0.85),  # all-zero weights before and after
        (("u05", "u01"), 0.85),  # only a zero-weight friend is left
        (("u05", "u04"), 1.0),   # c = 1 zeroes the normal friend left
    ])
    def test_dangling_and_zero_columns(self, link, c):
        dataset = build(6, self.EDGES, self.HOURS, self.TOPICS)
        assert_scorers_match(dataset, *link, c=c, p=0.05)

    def test_close_friend_column(self):
        # u05 retweeted u01, so u01 is a close friend of u05
        dataset = build(6, self.EDGES, self.HOURS, self.TOPICS,
                        responses=[(5, 1, 4)])
        for c in (0.5, 0.95, 1.0):
            assert_scorers_match(dataset, "u05", "u04", c=c, p=0.05)
