"""The vectorised TIR weight kernel and the direct CSC assembly against the
per-hour and sparse-product oracles in tests/oracles.py, on random small
graphs with friendless users, all-zero columns and degenerate scalers."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from influxrank.evaluation import _friend_shares_without
from influxrank.features import (
    HOURLY_INDICES, N_FEATURES, PT_INDEX, RE_INDEX, FeatureContext, MinMaxScaler,
)
from influxrank.logistic import LogisticModel
from influxrank.model import Tweet
from influxrank.ranking import _assemble, _edge_weights_all_hours, power_iterate

from conftest import _remove_edge_dataset, make_dataset, make_user
from oracles import assemble_by_sparse_product, edge_weights_by_hour, iterate_from_uniform

TOL = 1e-10
finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def graphs(draw):
    """Users u00..; several have no friends and many post nothing, so
    dangling and all-zero columns are common. Retweets make close friends."""
    n = draw(st.integers(2, 12))
    ids = [f"u{i:02d}" for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40, unique=True))
    tweets = []
    for i in range(n):
        for j, h in enumerate(draw(st.lists(st.integers(0, 23), max_size=3))):
            tweets.append(Tweet(f"t{i}_{j}", ids[i], "original", 86400 * j + 3600 * h))
    if edges:
        responses = draw(st.lists(st.tuples(st.sampled_from(edges), st.integers(0, 23)),
                                  max_size=4))
        for j, ((a, b), h) in enumerate(responses):
            tweets.append(Tweet(f"r{j}", ids[a], "retweet", 86400 * 3 + 3600 * h,
                                responds_to_user=ids[b]))
    users = [make_user(x, listed=i % 3, favourites=i) for i, x in enumerate(ids)]
    return make_dataset(users, [(ids[a], ids[b]) for a, b in edges], tweets,
                        window=(0, 5 * 86400))


@st.composite
def models(draw):
    """Random weights; the scaler, when there is one, has degenerate
    columns (max <= min) and clips values outside [min, max]."""
    w = np.array(draw(st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES)))
    scaler = None
    if draw(st.booleans()):
        mins = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=N_FEATURES,
                                      max_size=N_FEATURES)))
        spans = np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.1, 1.0, 5.0]),
                                       min_size=N_FEATURES, max_size=N_FEATURES)))
        scaler = MinMaxScaler(mins=mins, maxs=mins + spans)
    return LogisticModel(w0=draw(finite), w=w, scaler=scaler)


cases = given(dataset=graphs(), model=models(), c=st.sampled_from([0.5, 0.85, 1.0]))
kernel_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def logit_magnitude(ctx, model):
    """(n_edges, 24) sum of |w0| and every |w_j x_j| of the logit."""
    rows = np.arange(ctx.dataset.graph.n_edges)
    out = np.empty((len(rows), 24))
    for t in range(24):
        x = ctx.edge_features(rows, t)
        x[:, RE_INDEX] = 1.0
        if model.scaler is not None:
            x = model.scaler.transform(x)
        out[:, t] = abs(model.w0) + np.abs(x) @ np.abs(model.w)
    return out


@kernel_settings
@cases
def test_weights_match_per_hour_oracle(dataset, model, c):
    # The kernel and the oracle add the logit's 13 terms in different
    # orders, so each logit may differ by 2 * 13 * eps * (sum of |terms|),
    # and p = 1 / (1 + exp(z)) turns that into a relative error in p (and
    # in the weight) of at most that much, plus a few roundings.
    ctx = FeatureContext(dataset)
    fast = _edge_weights_all_hours(ctx, model, c)
    slow = edge_weights_by_hour(ctx, model, c)
    assert fast.shape == slow.shape == (dataset.graph.n_edges, 24)
    eps = np.finfo(float).eps
    bound = (26 * logit_magnitude(ctx, model) + 8) * eps
    assert np.all(np.abs(fast - slow) <= bound * np.abs(slow))


def test_weights_match_per_hour_oracle_with_a_trained_model(small_synth, small_model):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    for c in (0.5, 0.85, 1.0):
        fast = _edge_weights_all_hours(ctx, small_model, c)
        slow = edge_weights_by_hour(ctx, small_model, c)
        assert np.all(np.abs(fast - slow) <= 1e-15 * np.abs(slow))


@kernel_settings
@cases
def test_assembly_and_iteration_match_sparse_product(dataset, model, c):
    ctx = FeatureContext(dataset)
    n = len(ctx.user_ids)
    fast_weights = _edge_weights_all_hours(ctx, model, c)
    slow_weights = edge_weights_by_hour(ctx, model, c)
    for t in range(24):
        fast = _assemble(ctx, slow_weights[:, t], t, 0.85)
        slow = assemble_by_sparse_product(
            ctx.edge_src, ctx.edge_dst, slow_weights[:, t], n, t, 0.85)
        assert np.array_equal(fast.dangling, slow.dangling)
        assert np.array_equal(fast.matrix.indptr, slow.matrix.indptr)
        assert np.array_equal(fast.matrix.indices, slow.matrix.indices)
        values = slow.matrix.data
        assert np.all(np.abs(fast.matrix.data - values) <= np.spacing(np.abs(values)))

        # the whole path, kernel weights to iteration, against the oracles
        tm = _assemble(ctx, fast_weights[:, t], t, 0.85)
        rv = power_iterate(tm, ctx.user_ids, tol=TOL)
        scores, iterations = iterate_from_uniform(slow, TOL)
        assert rv.params["iterations"] == iterations
        assert np.allclose(rv.scores, scores, rtol=1e-13, atol=0)


@kernel_settings
@cases
def test_link_scorer_rows_equal_kernel_rows(dataset, model, c):
    # column u's weights with the tweet shares of the full graph, i.e. with
    # no link removed, are the kernel's rows for u's edges, bit for bit
    ctx = FeatureContext(dataset)
    everything = _edge_weights_all_hours(ctx, model, c)
    for iu in np.unique(ctx.edge_src):
        rows = np.flatnonzero(ctx.edge_src == iu)
        shares = ctx.edge_static_features()[rows, PT_INDEX]
        column = _edge_weights_all_hours(ctx, model, c, rows=rows, shares=shares)
        assert np.array_equal(column, everything[rows])


@kernel_settings
@cases
def test_link_scorer_rows_match_oracle_on_reduced_graph(dataset, model, c):
    # column u's weights once u unfollows v, from the tweet shares the link
    # scorer passes in, against the per-hour oracle on the rebuilt graph
    ctx = FeatureContext(dataset)
    eps = np.finfo(float).eps
    for u, v in dataset.graph.edges():
        rows, _, shares = _friend_shares_without(
            ctx, np.array([ctx.index[u]]), np.array([ctx.index[v]]))
        fast = _edge_weights_all_hours(ctx, model, c, rows=rows, shares=shares)
        reduced = FeatureContext(_remove_edge_dataset(dataset, u, v))
        kept = np.flatnonzero(reduced.edge_src == reduced.index[u])
        slow = edge_weights_by_hour(reduced, model, c)[kept]
        bound = (26 * logit_magnitude(reduced, model)[kept] + 8) * eps
        assert np.all(np.abs(fast - slow) <= bound * np.abs(slow))


@kernel_settings
@given(dataset=graphs())
def test_hourly_grid_columns_are_the_single_hour_fill(dataset):
    ctx = FeatureContext(dataset)
    rows = np.arange(ctx.dataset.graph.n_edges)
    grid = ctx.fill_hourly(rows, slice(None), np.empty((4, len(rows), 24)))
    for t in range(24):
        x = ctx.edge_features(rows, t)
        for j, all_hours in zip(HOURLY_INDICES, grid):
            assert np.array_equal(all_hours[:, t], x[:, j])
