import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank.evaluation import TirLinkScorer
from influxrank.features import FeatureContext, N_FEATURES
from influxrank.logistic import LogisticModel
from influxrank.ranking import (
    ConvergenceError,
    RankVector,
    _edge_weights_all_hours,
    activity_weights,
    aggregate,
    build_matrix,
    personal_weights,
    power_iterate,
    tir_rank,
    tunkrank,
    twitterrank,
    twitterrank_matrices,
)

from influxrank.temporal import global_activity

from conftest import make_dataset, make_user
from oracles import dense


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
    return _edge_weights_all_hours(ctx, model, c)[ctx.edge_index[(u, v)], t]


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
        assert rv.ranks() == {"u1": 1, "u2": 2, "u3": 3}

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
        hourly = global_activity(dataset, "hour_of_day")
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
            rv = twitterrank(tiny_dataset, topic=t, ctx=ctx)
            assert np.allclose(rv.scores, eig_stationary(dense(tm)), atol=1e-9)

    def test_global_is_topic_share_mixture(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        per_topic = [twitterrank(tiny_dataset, topic=t, ctx=ctx) for t in range(2)]
        # tweet-weighted mean topic shares: A(2 tweets)*(1,0) + B(3)*(0.5,0.5)
        # + C(1)*(0,1) = (3.5, 2.5) -> (7/12, 5/12)
        expected = (7 / 12) * per_topic[0].scores + (5 / 12) * per_topic[1].scores
        rv = twitterrank(tiny_dataset, ctx=ctx)
        assert np.allclose(rv.scores, expected, atol=1e-12)

    def test_personal_uses_own_distribution(self, tiny_dataset):
        ctx = FeatureContext(tiny_dataset)
        per_topic = [twitterrank(tiny_dataset, topic=t, ctx=ctx) for t in range(2)]
        rv = twitterrank(tiny_dataset, mode="personal", user="A", ctx=ctx)
        # A's topics are (1, 0)
        assert np.allclose(rv.scores, per_topic[0].scores, atol=1e-12)

    def test_scores_form_distribution(self, small_synth, small_ctx):
        dataset, _ = small_synth
        rv = twitterrank(dataset, ctx=small_ctx)
        assert rv.scores.sum() == pytest.approx(1.0)
        assert np.all(rv.scores > 0)
