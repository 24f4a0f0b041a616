import copy
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from influxrank.evaluation import TirLinkScorer
from influxrank.features import FeatureContext, N_FEATURES
from influxrank.logistic import LogisticModel
from influxrank.model import Tweet
from influxrank import ranking
from influxrank.ranking import (
    ConvergenceError,
    RankVector,
    _edge_weights_all_hours,
    activity_weights,
    build_matrix,
    hourly_matrices,
    personal_weights,
    power_iterate,
    tir_rank,
    tunkrank,
    twitterrank,
    twitterrank_matrices,
)

from influxrank.temporal import global_activity

from conftest import make_dataset, make_user
from oracles import aggregate, assert_activity_matches_loop, dense


def flat_model():
    """All-zero weights: every response probability is exactly 0.5."""
    return LogisticModel(w0=0.0, w=np.zeros(N_FEATURES))


def eig_stationary(dense):
    """Dominant-eigenvector oracle for a dense column-stochastic matrix."""
    vals, vecs = np.linalg.eig(dense)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return v / v.sum()


def edge_weight(dataset, model, u, v, t, c):
    """Raw TIR transition weight of edge (u, v) at hour t."""
    ctx = FeatureContext(dataset)
    return _edge_weights_all_hours(ctx, model, c)[list(dataset.graph.edges()).index((u, v)), t]


class TestHourlyWeights:
    def test_close_friend_hand_value(self, tiny_dataset):
        # A replied to B, so B is a realized close friend of A.
        # weight = c * n_B(1) * p = 0.8 * 2 * 0.5
        w = edge_weight(tiny_dataset, flat_model(), "A", "B", 1, c=0.8)
        assert w == pytest.approx(0.8 * 2.0 * 0.5)

    def test_ordinary_friend_hand_value(self, tiny_dataset):
        # C is not a close friend of A; weight = (1-c) * n_C(17) * p
        w = edge_weight(tiny_dataset, flat_model(), "A", "C", 17, c=0.8)
        assert w == pytest.approx(0.2 * 1.0 * 0.5)

    def test_zero_rate_hour_gives_zero(self, tiny_dataset):
        assert edge_weight(tiny_dataset, flat_model(), "A", "C", 0, c=0.8) == 0.0

    def test_c_range_enforced(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        model = flat_model()
        for bad in (0.4, 0.2, 1.01, 2.0, -1.0):
            with pytest.raises(ValueError, match="c must be"):
                tir_rank(tiny_dataset, model, c=bad, ctx=ctx)
            with pytest.raises(ValueError, match="c must be"):
                build_matrix(tiny_dataset, model, t=1, c=bad, ctx=ctx)
            with pytest.raises(ValueError, match="c must be"):
                TirLinkScorer(tiny_dataset, model, bad, ctx=ctx)

    def test_responded_feature_is_forced_on(self, tiny_dataset):
        # a model that only looks at the ever-responded feature must give the
        # same probability for close and ordinary friends
        w = np.zeros(N_FEATURES)
        w[5] = -3.0
        model = LogisticModel(w0=0.0, w=w)
        close = edge_weight(tiny_dataset, model, "A", "B", 1, c=0.5)
        plain = edge_weight(tiny_dataset, model, "A", "C", 17, c=0.5)
        # both edges see the feature as 1, so p is identical; only n_v_t differs
        assert close / 2.0 == pytest.approx(plain / 1.0)


class TestBuildMatrix:
    def test_columns_stochastic(self, small_synth, small_model, small_ctx):
        dataset, _ = small_synth
        tm = build_matrix(dataset, small_model, t=12, c=0.85, ctx=small_ctx)
        sums = np.asarray(tm.matrix.sum(axis=0)).ravel()
        assert np.allclose(sums[~tm.dangling], 1.0, atol=1e-9)
        assert np.allclose(sums[tm.dangling], 0.0)
        full = dense(tm)
        assert np.allclose(full.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(full >= 0)

    def test_step_preserves_probability_mass(self, small_synth, small_model,
                                              small_ctx):
        dataset, _ = small_synth
        tm = build_matrix(dataset, small_model, t=9, ctx=small_ctx)
        r = np.full(tm.n, 1.0 / tm.n)
        for _ in range(3):
            r = tm.step(r)
            assert r.sum() == pytest.approx(1.0)
            assert np.all(r >= (1 - tm.gamma) / tm.n - 1e-15)

    def test_step_matches_dense(self, small_synth, small_model, small_ctx):
        dataset, _ = small_synth
        tm = build_matrix(dataset, small_model, t=17, ctx=small_ctx)
        rng = np.random.default_rng(0)
        r = rng.random(tm.n)
        r /= r.sum()
        assert np.allclose(tm.step(r), dense(tm) @ r, atol=1e-12)

    def test_gamma_validated(self, tiny_dataset):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="gamma"):
                build_matrix(tiny_dataset, flat_model(), t=0, gamma=bad)


class TestPowerIterate:
    def test_matches_eigenvector_oracle(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        for t in (1, 10, 17):
            tm = build_matrix(tiny_dataset, flat_model(), t=t, c=0.7, ctx=ctx)
            rv = power_iterate(tm, ctx.user_ids)
            assert np.allclose(rv.scores, eig_stationary(dense(tm)), atol=1e-9)
            assert rv.scores.sum() == pytest.approx(1.0)

    def test_random_graphs_match_oracle(self, small_synth, small_model):
        dataset, _ = small_synth
        ctx = FeatureContext(dataset)
        tm = build_matrix(dataset, small_model, t=8, ctx=ctx)
        rv = power_iterate(tm, ctx.user_ids)
        assert np.allclose(rv.scores, eig_stationary(dense(tm)), atol=1e-8)

    def test_non_convergence_raises_with_residual(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        tm = build_matrix(tiny_dataset, flat_model(), t=1, ctx=ctx)
        with pytest.raises(ConvergenceError) as exc:
            power_iterate(tm, ctx.user_ids, max_iters=1)
        assert exc.value.residual > 0

    def test_bad_tolerance(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        tm = build_matrix(tiny_dataset, flat_model(), t=1, ctx=ctx)
        with pytest.raises(ValueError, match="tol"):
            power_iterate(tm, ctx.user_ids, tol=0.0)


class TestAggregate:
    def _hourlies(self, scores_by_hour):
        return [
            RankVector(user_ids=("a", "b"), scores=np.asarray(s), hour=t)
            for t, s in enumerate(scores_by_hour)
        ]

    def test_convex_combination_with_renormalized_weights(self):
        hourly = self._hourlies([[1.0, 0.0]] * 12 + [[0.0, 1.0]] * 12)
        weights = [3.0] * 12 + [1.0] * 12  # renormalizes to 0.75 / 0.25
        agg = aggregate(hourly, weights)
        assert np.allclose(agg.scores, [0.75, 0.25])
        assert agg.hour is None

    def test_wrong_count_rejected(self):
        hourly = self._hourlies([[0.5, 0.5]] * 23)
        with pytest.raises(ValueError, match="24"):
            aggregate(hourly, [1.0] * 23)

    def test_negative_weights_rejected(self):
        hourly = self._hourlies([[0.5, 0.5]] * 24)
        weights = [1.0] * 24
        weights[3] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            aggregate(hourly, weights)

    def test_mismatched_user_sets_rejected(self):
        hourly = self._hourlies([[0.5, 0.5]] * 24)
        hourly[5] = RankVector(user_ids=("a", "z"), scores=np.array([0.5, 0.5]),
                               hour=5)
        with pytest.raises(ValueError, match="different user sets"):
            aggregate(hourly, [1.0] * 24)


class TestRankVector:
    def test_order_breaks_ties_by_id(self):
        rv = RankVector(user_ids=("u3", "u1", "u2"),
                        scores=np.array([0.2, 0.6, 0.2]))
        assert rv.order() == ["u1", "u2", "u3"]

    @given(
        st.dictionaries(
            st.text(alphabet="abcuU019_", min_size=1, max_size=4),
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-300]),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_order_matches_sorted_oracle(self, scores):
        rv = RankVector(user_ids=tuple(scores), scores=np.array(list(scores.values())))
        assert rv.order() == sorted(scores, key=lambda u: (-scores[u], u))


class TestActivityWeights:
    def test_equals_global_hourly_activity(self, small_synth, small_ctx):
        dataset, _ = small_synth
        heat = global_activity(dataset)
        assert_activity_matches_loop(dataset, heat)
        hourly = heat.sum(axis=0)
        assert np.array_equal(activity_weights(small_ctx), hourly / hourly.sum())

    def test_no_tweets_rejected(self):
        ds = make_dataset([make_user("a"), make_user("b")], [("a", "b")], [])
        with pytest.raises(ValueError, match="empty dataset"):
            activity_weights(FeatureContext(ds))


class TestTirRank:
    def test_global_scores_form_distribution(self, small_synth, small_model,
                                             small_ctx):
        dataset, _ = small_synth
        rv = tir_rank(dataset, small_model, c=0.85, ctx=small_ctx)
        assert rv.scores.sum() == pytest.approx(1.0)
        assert np.all(rv.scores > 0)
        assert rv.params["c"] == 0.85
        assert set(rv.user_ids) == set(dataset.users)

    def test_matches_manual_hourly_aggregation(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        model = flat_model()
        hourly = [
            power_iterate(
                build_matrix(tiny_dataset, model, t, c=0.7, ctx=ctx), ctx.user_ids
            )
            for t in range(24)
        ]
        manual = aggregate(hourly, activity_weights(ctx))
        auto = tir_rank(tiny_dataset, model, c=0.7, ctx=ctx)
        assert np.allclose(auto.scores, manual.scores, atol=1e-12)

    def test_personal_mode_uses_user_activity(self, small_synth, small_model,
                                              small_ctx):
        dataset, _ = small_synth
        active = max(dataset.users, key=lambda u: small_ctx.tweet_counts[
            small_ctx.index[u]])
        personal = tir_rank(dataset, small_model, mode="personal", user=active,
                            ctx=small_ctx)
        glob = tir_rank(dataset, small_model, ctx=small_ctx)
        assert personal.scores.sum() == pytest.approx(1.0)
        assert not np.allclose(personal.scores, glob.scores)

    def test_personal_mode_requires_user(self, tiny_dataset):
        with pytest.raises(ValueError, match="user id"):
            tir_rank(tiny_dataset, flat_model(), mode="personal")

    def test_unknown_mode(self, tiny_dataset):
        with pytest.raises(ValueError, match="mode"):
            tir_rank(tiny_dataset, flat_model(), mode="median")

    def test_personal_weights_fall_back_to_uniform(self, tiny_dataset):
        users = [make_user(u) for u in "ab"]
        from influxrank.model import Tweet

        ds = make_dataset(users, [("a", "b")], [Tweet("t", "b", "original", 3600)])
        ctx = FeatureContext(ds)
        assert np.allclose(personal_weights(ctx, [ctx.index["a"]]), 1 / 24)


class TestTunkRank:
    def test_star_hand_value(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "c"), ("b", "c")], [])
        rv = tunkrank(ds, p=0.05)
        scores = rv.as_dict()
        assert scores["c"] == pytest.approx(2.0)
        assert scores["a"] == 0.0 and scores["b"] == 0.0

    def test_chain_hand_value(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "c")], [])
        scores = tunkrank(ds, p=0.1).as_dict()
        assert scores["a"] == 0.0
        assert scores["b"] == pytest.approx(1.0)
        assert scores["c"] == pytest.approx(1.1)

    def test_cycle_fixed_point(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "c"), ("c", "a")], [])
        scores = tunkrank(ds, p=0.05).as_dict()
        for u in "abc":
            assert scores[u] == pytest.approx(1.0 / (1.0 - 0.05), abs=1e-8)

    def test_fixed_point_equation_holds(self, small_synth):
        dataset, _ = small_synth
        rv = tunkrank(dataset, p=0.05)
        scores = rv.as_dict()
        g = dataset.graph
        for v in list(dataset.users)[:20]:
            expected = sum(
                (1.0 + 0.05 * scores[y]) / len(g.friends(y))
                for y in g.followers(v)
            )
            assert scores[v] == pytest.approx(expected, abs=1e-7)

    def test_p_validated(self, tiny_dataset):
        with pytest.raises(ValueError, match="p must be"):
            tunkrank(tiny_dataset, p=1.5)

    def test_p1_closed_follow_class_fails_fast(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "a"), ("c", "a")], [])
        # the check imports csgraph lazily; keep that one-off import out of
        # the time budget, which bounds the check itself
        import scipy.sparse.csgraph  # noqa: F401

        started = time.perf_counter()
        with pytest.raises(ValueError, match="2 users form a closed follow class"):
            tunkrank(ds, p=1.0)
        assert time.perf_counter() - started < 0.1

    def test_p1_chain_closed_form(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "c")], [])
        scores = tunkrank(ds, p=1.0).as_dict()
        assert scores == {"a": 0.0, "b": 1.0, "c": 2.0}

    def test_p1_cycle_with_an_exit_converges(self):
        # {a, b} is strongly connected but a also follows c, so it is not
        # closed: a = 1 + b, b = (1 + a) / 2, c = (1 + a) / 2
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "a"), ("a", "c")], [])
        scores = tunkrank(ds, p=1.0).as_dict()
        assert scores["a"] == pytest.approx(3.0, abs=1e-8)
        assert scores["b"] == pytest.approx(2.0, abs=1e-8)
        assert scores["c"] == pytest.approx(2.0, abs=1e-8)


class TestTwitterRank:
    def test_matrices_column_stochastic(self, small_synth, small_ctx):
        dataset, _ = small_synth
        for tm in twitterrank_matrices(dataset, ctx=small_ctx):
            assert np.allclose(dense(tm).sum(axis=0), 1.0, atol=1e-9)

    def test_per_topic_matches_eigen_oracle(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        mats = twitterrank_matrices(tiny_dataset, ctx=ctx)
        for t, tm in enumerate(mats):
            rv = power_iterate(tm, ctx.user_ids)
            assert np.allclose(rv.scores, eig_stationary(dense(tm)), atol=1e-9)

    def test_global_is_topic_share_mixture(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        per_topic = [power_iterate(tm, ctx.user_ids)
                     for tm in twitterrank_matrices(tiny_dataset, ctx=ctx)]
        # tweet-weighted mean topic shares: A(2 tweets)*(1,0) + B(3)*(0.5,0.5)
        # + C(1)*(0,1) = (3.5, 2.5) -> (7/12, 5/12)
        expected = (7 / 12) * per_topic[0].scores + (5 / 12) * per_topic[1].scores
        rv = twitterrank(tiny_dataset, ctx=ctx)
        assert np.allclose(rv.scores, expected, atol=1e-12)

    def test_matrices_assembled_only_when_iterated(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        with mock.patch("influxrank.ranking._assemble", wraps=ranking._assemble) as spy:
            mats = twitterrank_matrices(tiny_dataset, ctx=ctx)
            spy.assert_not_called()
            assert [tm.hour for tm in mats] == [0, 1]
        assert [call.args[2] for call in spy.call_args_list] == [0, 1]

    def test_personal_uses_own_distribution(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        per_topic = [power_iterate(tm, ctx.user_ids)
                     for tm in twitterrank_matrices(tiny_dataset, ctx=ctx)]
        rv = twitterrank(tiny_dataset, mode="personal", user="A", ctx=ctx)
        # A's topics are (1, 0)
        assert np.allclose(rv.scores, per_topic[0].scores, atol=1e-12)

    def test_scores_form_distribution(self, small_synth, small_ctx):
        dataset, _ = small_synth
        rv = twitterrank(dataset, ctx=small_ctx)
        assert rv.scores.sum() == pytest.approx(1.0)
        assert np.all(rv.scores > 0)


# ------------------------------------------------------- zero-weight hours

SKIP_MODEL = LogisticModel(w0=0.3, w=np.linspace(-0.6, 0.4, N_FEATURES))


def hours_dataset(n, edges, tweet_hours):
    """Users u0.. following ``edges``; tweet_hours[i] lists the hours of
    user i's originals, one per day."""
    ids = [f"u{i}" for i in range(n)]
    tweets = [Tweet(f"t{i}_{j}", ids[i], "original", 86400 * j + 3600 * h)
              for i, hours in enumerate(tweet_hours) for j, h in enumerate(hours)]
    return make_dataset([make_user(x) for x in ids],
                        [(ids[a], ids[b]) for a, b in edges], tweets,
                        window=(0, 5 * 86400))


def all_hours_tir(dataset, ctx, c, user):
    """Personal TIR the long way: 24 power iterations, then aggregate."""
    hourly = [power_iterate(tm, ctx.user_ids)
              for tm in hourly_matrices(dataset, SKIP_MODEL, range(24), c, ctx=ctx)]
    return aggregate(hourly, personal_weights(ctx, [ctx.index[user]])[0]).scores


@st.composite
def personal_cases(draw):
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20, unique=True))
    tweet_hours = [draw(st.lists(st.integers(0, 23), max_size=4)) for _ in range(n)]
    return n, edges, tweet_hours, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None)
@given(case=personal_cases(), c=st.sampled_from([0.5, 0.85, 1.0]))
# user u0 has tweets in one hour only, and in none at all (uniform weights)
@example(case=(3, [(0, 1), (1, 2), (2, 0)], [[7, 7], [1, 7], [3]], 0), c=0.85)
@example(case=(3, [(0, 1), (1, 2), (2, 0)], [[], [1, 7], [3]], 0), c=0.85)
def test_personal_tir_equals_all_hours_aggregation(case, c):
    n, edges, tweet_hours, i = case
    dataset = hours_dataset(n, edges, tweet_hours)
    ctx = FeatureContext(dataset)
    user = f"u{i}"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].hour)
        return power_iterate(*args, **kwargs)

    with mock.patch("influxrank.ranking.power_iterate", counted):
        got = tir_rank(dataset, SKIP_MODEL, c, mode="personal", user=user, ctx=ctx)
    assert np.array_equal(got.scores, all_hours_tir(dataset, ctx, c, user))
    weighed = np.flatnonzero(personal_weights(ctx, [i])[0] > 0).tolist()
    assert calls == weighed
    assert len(weighed) == (24 if not tweet_hours[i] else len(set(tweet_hours[i])))


class TestZeroWeightHours:
    # u0 follows u1 and u2 and tweets only at hour 5, where nobody else
    # does and nobody follows u0: hour 5's matrix has no edge mass and
    # converges at once, every other matrix needs many iterations
    def dataset(self):
        return hours_dataset(3, [(0, 1), (0, 2), (1, 2), (2, 1)], [[5], [9, 14], [9, 20]])

    def test_unweighted_hour_that_would_not_converge_is_not_iterated(self):
        ds = self.dataset()
        rv = tir_rank(ds, SKIP_MODEL, mode="personal", user="u0", max_iters=1)
        assert np.allclose(rv.scores, 1 / 3)
        with pytest.raises(ConvergenceError):
            tir_rank(ds, SKIP_MODEL, mode="personal", user="u1", max_iters=1)
        with pytest.raises(ConvergenceError):
            tir_rank(ds, SKIP_MODEL, mode="global", max_iters=1)

    def test_hour_that_does_not_converge_is_not_stored(self):
        ds = self.dataset()
        ctx = FeatureContext(ds)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                tir_rank(ds, SKIP_MODEL, mode="global", max_iters=1, ctx=ctx)
        # hour 5 converged before hour 9 raised, and stays stored
        (walks,) = ctx.walks.values()
        assert list(walks) == [5]
        with mock.patch("influxrank.ranking.power_iterate", wraps=power_iterate) as spy:
            rv = tir_rank(ds, SKIP_MODEL, mode="personal", user="u0", max_iters=1, ctx=ctx)
        spy.assert_not_called()
        assert np.allclose(rv.scores, 1 / 3)

    def test_aggregate_accepts_none_only_at_zero_weight(self):
        ids = ("a", "b")
        hourly = [RankVector(ids, np.array([0.25, 0.75]), hour=t) for t in range(24)]
        weights = [0.0] * 24
        weights[3], weights[9] = 1.0, 3.0
        full = aggregate(hourly, weights)
        sparse_hours = [rv if w > 0 else None for rv, w in zip(hourly, weights)]
        assert np.array_equal(aggregate(sparse_hours, weights).scores, full.scores)
        sparse_hours[9] = None
        with pytest.raises(ValueError, match="positive weight"):
            aggregate(sparse_hours, weights)

    def test_twitterrank_skips_topics_without_share(self, tiny_dataset):
        # A's topic row is (1, 0): only topic 0 is iterated
        ctx = FeatureContext(tiny_dataset)
        with mock.patch("influxrank.ranking.power_iterate", wraps=power_iterate) as spy:
            rv = twitterrank(tiny_dataset, mode="personal", user="A", ctx=ctx)
        assert [call.args[0].hour for call in spy.call_args_list] == [0]
        only = power_iterate(next(twitterrank_matrices(tiny_dataset, ctx=ctx)), ctx.user_ids)
        assert np.array_equal(rv.scores, only.scores)


class TestParametersFailFast:
    """Bad iteration parameters raise ValueError before any work."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_iters": 0}, "max_iters"),
        ({"tol": 0.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
    ])
    def test_tunkrank(self, tiny_dataset, kwargs, match):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            tunkrank(tiny_dataset, **kwargs)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.2])
    def test_twitterrank_gamma(self, tiny_dataset, gamma):
        with pytest.raises(ValueError, match="gamma"):
            twitterrank(tiny_dataset, gamma=gamma)
        with pytest.raises(ValueError, match="gamma"):
            twitterrank_matrices(tiny_dataset, gamma=gamma)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_power_iterate_max_iters(self, tiny_dataset, max_iters):
        ctx = FeatureContext(tiny_dataset)
        tm = build_matrix(tiny_dataset, flat_model(), t=1, ctx=ctx)
        with pytest.raises(ValueError, match="max_iters"):
            power_iterate(tm, ctx.user_ids, max_iters=max_iters)

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": float("inf")}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"gamma": 1.0}, "gamma"),
    ])
    def test_tir_rank(self, tiny_dataset, kwargs, match):
        with mock.patch("influxrank.ranking._edge_weights_all_hours") as spy:
            with pytest.raises(ValueError, match=match):
                tir_rank(tiny_dataset, flat_model(), **kwargs)
        spy.assert_not_called()

    @pytest.mark.parametrize("rank", [
        lambda ds: tir_rank(ds, flat_model(), mode="personal", user="nobody"),
        lambda ds: twitterrank(ds, mode="personal", user="nobody"),
    ], ids=["tir", "twitterrank"])
    def test_personal_mode_unknown_user(self, tiny_dataset, rank):
        with mock.patch("influxrank.ranking.FeatureContext") as context:
            with pytest.raises(ValueError, match="^unknown user 'nobody'$"):
                rank(tiny_dataset)
        context.assert_not_called()


# ------------------------------------------------------------ stored walks

C_VALUES = (0.5, 0.85, 1.0)


def ranked(dataset, kind, request, ctx, model=None):
    """Scores of one request of ``kind``: (c, user) for "tir", (user,) for
    "twitterrank"; user None asks for the global ranking."""
    user = request[-1]
    mode = "global" if user is None else "personal"
    if kind == "tir":
        return tir_rank(dataset, model, request[0], mode=mode, user=user, ctx=ctx).scores
    return twitterrank(dataset, mode=mode, user=user, ctx=ctx).scores


def cold(dataset, kind, request, model=None):
    """The scores of a request on a fresh context, which has stored no walk."""
    return ranked(dataset, kind, request, FeatureContext(dataset), model)


def test_warm_results_equal_cold_results(small_synth, small_model):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    users = [None] + dataset.graph.vertices
    for c in C_VALUES:
        for u in users:
            got = ranked(dataset, "tir", (c, u), ctx, small_model)
            assert np.array_equal(got, cold(dataset, "tir", (c, u), small_model)), (c, u)
    for u in users:
        assert np.array_equal(ranked(dataset, "twitterrank", (u,), ctx),
                              cold(dataset, "twitterrank", (u,))), u
    assert len(ctx.walks) == len(C_VALUES) + 1
    # every stored walk shares the context's one tuple of user ids
    assert all(rv.user_ids is ctx.walk_ids
               for walks in ctx.walks.values() for rv in walks.values())


@pytest.fixture(scope="module")
def cold_results(small_synth, small_model):
    """Cold scores of a pool of requests: TIR at three c values and
    TwitterRank, globally and for a few users."""
    dataset, _ = small_synth
    users = [None] + dataset.graph.vertices[::12]
    requests = [("tir", (c, u)) for c in C_VALUES for u in users]
    requests += [("twitterrank", (u,)) for u in users]
    return {r: cold(dataset, *r, model=small_model) for r in requests}


@settings(max_examples=25, deadline=None)
@given(data=st.data(), keys=st.integers(1, 5))
def test_any_request_order_on_one_context_gives_cold_results(
    small_synth, small_model, cold_results, data, keys
):
    dataset, _ = small_synth
    order = data.draw(st.lists(st.sampled_from(sorted(cold_results, key=repr)),
                               min_size=1, max_size=30))
    ctx = FeatureContext(dataset)
    with mock.patch("influxrank.ranking._WALK_KEYS", keys):
        for request in order:
            got = ranked(dataset, *request, ctx=ctx, model=small_model)
            assert np.array_equal(got, cold_results[request]), request
            assert len(ctx.walks) <= keys


def test_in_place_model_edits_are_not_served_stale(small_synth, small_model):
    dataset, _ = small_synth
    model = copy.deepcopy(small_model)
    ctx = FeatureContext(dataset)
    first = tir_rank(dataset, model, ctx=ctx).scores

    def edit_w(m):
        m.w[3] += 0.5

    def edit_w0(m):
        m.w0 -= 0.25

    def edit_scaler(m):
        m.scaler.maxs[7] *= 2.0

    for edit in (edit_w, edit_w0, edit_scaler):
        edit(model)
        got = tir_rank(dataset, model, ctx=ctx).scores
        assert np.array_equal(got, cold(dataset, "tir", (0.85, None), model)), edit.__name__
    assert not np.array_equal(got, first)


def test_mutating_a_result_leaves_the_next_result_alone(small_synth, small_model):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    active = max(dataset.users, key=lambda u: ctx.tweet_counts[ctx.index[u]])
    for kind, request in [("tir", (0.85, None)), ("tir", (0.85, active)),
                          ("twitterrank", (None,)), ("twitterrank", (active,))]:
        scores = ranked(dataset, kind, request, ctx, small_model)
        expected = scores.copy()
        scores[:] = 0.0
        assert np.array_equal(ranked(dataset, kind, request, ctx, small_model), expected)


def test_store_never_exceeds_its_bound(tiny_dataset):
    model = flat_model()
    ctx = FeatureContext(tiny_dataset)
    keys = ranking._WALK_KEYS
    cs = np.linspace(0.5, 1.0, keys + 4)
    for c in cs:
        tir_rank(tiny_dataset, model, c, ctx=ctx)
        twitterrank(tiny_dataset, ctx=ctx)
        assert len(ctx.walks) <= keys
        assert all(len(walks) <= 24 for walks in ctx.walks.values())
    # an evicted key is walked again
    assert np.array_equal(tir_rank(tiny_dataset, model, cs[0], ctx=ctx).scores,
                          cold(tiny_dataset, "tir", (cs[0], None), model))


def test_store_drops_the_least_recently_used_key(tiny_dataset):
    model = flat_model()
    ctx = FeatureContext(tiny_dataset)
    keys = ranking._WALK_KEYS
    cs = list(np.linspace(0.5, 1.0, keys + 1))
    for c in cs[:keys]:
        tir_rank(tiny_dataset, model, c, ctx=ctx)
    tir_rank(tiny_dataset, model, cs[0], ctx=ctx)  # now the most recently used
    tir_rank(tiny_dataset, model, cs[keys], ctx=ctx)  # drops cs[1]
    assert [key[2] for key in ctx.walks] == cs[2:keys] + [cs[0], cs[keys]]


@pytest.mark.parametrize("params", [{"gamma": 0.5}, {"tol": 1e-4}, {"max_iters": 1}])
def test_iteration_parameters_are_part_of_the_key(tiny_dataset, params):
    model = flat_model()
    ctx = FeatureContext(tiny_dataset)
    tir_rank(tiny_dataset, model, ctx=ctx)
    twitterrank(tiny_dataset, ctx=ctx)
    for rank in (lambda ctx: tir_rank(tiny_dataset, model, ctx=ctx, **params),
                 lambda ctx: twitterrank(tiny_dataset, ctx=ctx, **params)):
        try:
            want = rank(FeatureContext(tiny_dataset)).scores
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                rank(ctx)
        else:
            assert np.array_equal(rank(ctx).scores, want)


def test_warm_personal_call_makes_no_power_iteration(small_synth, small_model):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    tir_rank(dataset, small_model, ctx=ctx)
    twitterrank(dataset, ctx=ctx)
    # a user's hours and topics are among the global ones when the user tweets
    users = [u for u in dataset.graph.vertices if ctx.tweet_counts[ctx.index[u]] > 0]
    with mock.patch("influxrank.ranking.power_iterate", wraps=power_iterate) as spy:
        for u in users:
            tir_rank(dataset, small_model, mode="personal", user=u, ctx=ctx)
            twitterrank(dataset, mode="personal", user=u, ctx=ctx)
    spy.assert_not_called()


def test_bad_c_or_model_fails_on_a_warm_context_and_stores_nothing(tiny_dataset):
    ctx = FeatureContext(tiny_dataset)
    tir_rank(tiny_dataset, flat_model(), c=0.7, ctx=ctx)
    keys = list(ctx.walks)
    with pytest.raises(ValueError, match="c must be"):
        tir_rank(tiny_dataset, flat_model(), c=0.4, ctx=ctx)
    short = LogisticModel(w0=0.0, w=np.zeros(N_FEATURES - 1))
    with pytest.raises(ValueError, match="model dimension"):
        tir_rank(tiny_dataset, short, c=0.7, ctx=ctx)
    assert list(ctx.walks) == keys
