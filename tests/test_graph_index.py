"""The follow graph's index form against the per-user loops in oracles.py.

Random vertex and edge lists, with self-loops, duplicates, unknown ids and
vertices out of order or repeated, check that ``FollowGraph`` rejects what
the dict-of-lists ``FollowGraphLoop`` rejects, with the same message, and
otherwise gives the same views. Random small graphs, with isolated users,
users nobody follows, vertices given out of id order and reciprocal pairs,
check that ``FollowGraph.src`` and ``dst`` are ``edges()`` as indices, and
that each array form built on them equals its loop: degree counts, friend
tweet totals, close-friend flags and reciprocity (through the ``L_rr`` and
``L_ur`` link sets).
"""

import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank.evaluation import build_link_sets
from influxrank.features import FeatureContext
from influxrank.model import Dataset, FollowGraph, Tweet, ValidationError, degree_stats

from conftest import make_user
from oracles import (
    FollowGraphLoop,
    degree_counts_loop,
    edge_close_loop,
    friend_tweet_total_loop,
    reciprocal_loop,
)

USER_POOL = ("a", "b", "c", "d", "e", "f")


def _built(cls, vertices, edges):
    """(graph, None), or (None, message) when cls rejects the input."""
    try:
        return cls(vertices, edges), None
    except ValidationError as exc:
        return None, str(exc)


@st.composite
def vertex_and_edge_lists(draw):
    """Vertices with repeats, in any order, and distinct edges between them,
    with up to three more edges put in anywhere: a repeat of an edge, or
    any pair of the vertices and an unknown id, self-loops included."""
    vertices = draw(st.lists(st.sampled_from(USER_POOL), max_size=8))
    ids = sorted(set(vertices))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    ends = st.sampled_from(ids + ["ghost"])
    extra = st.tuples(ends, ends) | st.sampled_from(edges) if edges else st.tuples(ends, ends)
    for edge in draw(st.lists(extra, max_size=3)):
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(vertex_and_edge_lists())
def test_graph_matches_dict_of_lists_oracle(lists):
    vertices, edges = lists
    graph, error = _built(FollowGraph, vertices, edges)
    oracle, want = _built(FollowGraphLoop, vertices, edges)
    assert error == want
    if graph is None:
        return
    assert graph.vertices == oracle.vertices
    assert list(graph.edges()) == list(oracle.edges())
    assert graph.n_edges == oracle.n_edges
    for u in graph.vertices:
        assert graph.friends(u) == oracle.friends(u)
        assert graph.followers(u) == oracle.followers(u)
    for u in USER_POOL + ("ghost",):
        for v in USER_POOL + ("ghost",):
            assert graph.has_edge(u, v) == oracle.has_edge(u, v)


@st.composite
def graph_datasets(draw):
    """A dataset whose graph takes its vertices and edges in drawn order,
    with some edges followed back, and whose tweets respond to friends,
    to non-friends and to unknown users."""
    users = draw(st.lists(st.sampled_from(USER_POOL), min_size=1, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    back = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    edges += [(v, u) for u, v in back if (v, u) not in edges]
    tweets = []
    for i in range(draw(st.integers(0, 12))):
        author = draw(st.sampled_from(users))
        kind = draw(st.sampled_from(("original", "retweet", "reply")))
        target = None if kind == "original" else draw(st.sampled_from(users + ["ghost"]))
        tweets.append(Tweet(f"t{i}", author, kind, draw(st.integers(0, 3 * 86400)), target))
    return Dataset(
        users={u: make_user(u) for u in users},
        graph=FollowGraph(draw(st.permutations(users)), edges),
        tweets=tweets,
        observation_window=(0, 3 * 86400),
    )


@settings(max_examples=150, deadline=None)
@given(graph_datasets())
def test_index_form_matches_loops(dataset):
    graph, ids = dataset.graph, sorted(dataset.users)
    edges, n = list(graph.edges()), len(ids)
    assert graph.vertices == ids
    assert [(ids[a], ids[b]) for a, b in zip(graph.src.tolist(), graph.dst.tolist())] == edges
    assert np.all(np.diff(graph.src) >= 0)
    for u in ids + ["zz"]:
        for v in ids + ["zz"]:
            assert graph.has_edge(u, v) == ((u, v) in edges)

    friends, followers = degree_counts_loop(dataset)
    assert np.array_equal(np.bincount(graph.src, minlength=n), friends)
    assert np.array_equal(np.bincount(graph.dst, minlength=n), followers)
    report = degree_stats(dataset)
    assert report.friend_hist == Counter(friends.tolist())
    assert report.follower_hist == Counter(followers.tolist())

    ctx = FeatureContext(dataset)
    assert ctx.user_ids is graph.vertices and ctx.index is graph.index
    assert ctx.edge_src is graph.src and ctx.edge_dst is graph.dst
    assert np.array_equal(ctx.friend_tweet_total,
                          [friend_tweet_total_loop(ctx, u) for u in ids])
    assert np.array_equal(ctx.edge_close, edge_close_loop(dataset))

    if edges:
        reciprocal = reciprocal_loop(dataset)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty pool is skipped with a warning
            sets = build_link_sets(dataset, ctx=ctx, n_links=len(edges))
        assert sets["L_rr"].links == [e for e, r in zip(edges, reciprocal) if r]
        assert sets["L_ur"].links == [e for e, r in zip(edges, reciprocal) if not r]
