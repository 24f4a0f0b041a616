"""Single-edge-removal scorers against a full rebuild and a dense direct solve
of the reduced system, and their blocks of links against the per-link
oracles bit for bit, on random small graphs. On a 500-user synthetic graph,
the factors in the follow graph's shared elimination order keep their pivots
on the diagonal, their multi-column solves equal single-column ones bit for
bit, and the scores agree with scipy's default COLAMD factor to 1e-12."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from influxrank import evaluation, ranking
from influxrank.evaluation import (
    TirLinkScorer,
    TunkRankLinkScorer,
    TwitterRankLinkScorer,
    run_scenarios,
)
from influxrank.features import FeatureContext, MinMaxScaler
from influxrank.logistic import LogisticModel
from influxrank.model import Tweet
from influxrank.ranking import (
    RankVector,
    hourly_matrices,
    personal_weights,
    tir_rank,
    tunkrank,
    twitterrank,
    twitterrank_matrices,
)
from influxrank.synth import GeneratorConfig, generate

from conftest import _remove_edge_dataset, make_dataset, make_user
from oracles import (
    ColamdSolver,
    aggregate,
    link_solvers,
    run_scenarios_loop,
    scores_without_loop,
    tir_scores_without_loop,
    tunkrank_scores_without_loop,
    twitterrank_scores_without_loop,
)

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
    hourly = [RankVector(tuple(ctx.user_ids), dense_pagerank(tm), hour=tm.hour)
              for tm in hourly_matrices(reduced, MODEL, range(24), c, GAMMA, ctx)]
    return aggregate(hourly, personal_weights(ctx, [ctx.index[u]])[0]).scores


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


def draw_dataset(draw, n, edges):
    # many tweetless users, so all-zero and dangling columns are common;
    # topic rows like (1, 0, 0) give TwitterRank topics with zero share, and
    # rows like (1, 2, 4) / 7 shares that do not sum to exactly 1
    tweet_hours = [draw(st.lists(st.integers(0, 23), max_size=3)) for _ in range(n)]
    topics = []
    for _ in range(n):
        raw = np.array(draw(st.lists(st.integers(0, 5), min_size=3, max_size=3)), float)
        topics.append(raw / raw.sum() if raw.sum() > 0 else np.array([1.0, 0.0, 0.0]))
    responses = draw(st.lists(
        st.tuples(st.sampled_from(edges), st.integers(0, 23)), max_size=4))
    return build(n, edges, tweet_hours, topics, [(a, b, h) for (a, b), h in responses])


def draw_graph(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    return n, edges


@st.composite
def link_cases(draw):
    n, edges = draw_graph(draw, 2, 12)
    dataset = draw_dataset(draw, n, edges)
    a, b = draw(st.sampled_from(edges))
    return dataset, f"u{a:02d}", f"u{b:02d}"


@st.composite
def link_blocks(draw):
    """A dataset and a block of its edges, with repeated links and repeated
    followers common."""
    n, edges = draw_graph(draw, 2, 12)
    dataset = draw_dataset(draw, n, edges)
    links = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=8))
    return dataset, [(f"u{a:02d}", f"u{b:02d}") for a, b in links]


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


# ---------------------------------------------- batched scorers vs per link

def assert_batch_matches_oracle(dataset, links, c, p):
    """Every row of each scorer's block equals the per-link oracle's scores
    bit for bit, and the single-link methods are the block of one."""
    ctx = FeatureContext(dataset)
    scorers = [
        TirLinkScorer(dataset, MODEL, c, gamma=GAMMA, ctx=ctx),
        TwitterRankLinkScorer(dataset, gamma=GAMMA, ctx=ctx),
        TunkRankLinkScorer(dataset, p=p),
    ]
    for scorer in scorers:
        block = scorer.scores_without_links(links)
        assert block.shape == (len(links), len(ctx.user_ids))
        for row, (u, v) in zip(block, links):
            assert np.array_equal(row, scores_without_loop(scorer, u, v))
    u, v = links[0]
    tir, tw, tunk = scorers
    assert np.array_equal(tir.personal_scores_without(u, v).scores, scores_without_loop(tir, u, v))
    assert np.array_equal(tw.personal_scores_without(u, v).scores, scores_without_loop(tw, u, v))
    assert np.array_equal(tunk.scores_without(u, v).scores, scores_without_loop(tunk, u, v))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=link_blocks(), c=st.sampled_from([0.5, 0.85, 1.0]),
       p=st.sampled_from([0.0, 0.05, 0.3]))
def test_batched_scorers_equal_per_link_oracle(case, c, p):
    dataset, links = case
    assert_batch_matches_oracle(dataset, links, c, p)


class TestBatchCases:
    """Blocks that hold the column cases of TestColumnCases together."""

    def dataset(self, responses=()):
        return build(6, TestColumnCases.EDGES, TestColumnCases.HOURS, TestColumnCases.TOPICS,
                     responses=responses)

    @pytest.mark.parametrize("c", [0.5, 0.85, 1.0])
    def test_every_link_in_one_block(self, c):
        # u00 loses its only friend (zero column), u02's friends are
        # tweetless (dangling before and after), u02 and u05 repeat as
        # followers, (u02, u03) repeats; u00 has no share of topic 1
        links = [(f"u{a:02d}", f"u{b:02d}") for a, b in TestColumnCases.EDGES]
        links += [("u02", "u03"), ("u00", "u01")]
        assert_batch_matches_oracle(self.dataset(responses=[(5, 1, 4)]), links, c, p=0.05)

    def test_follower_with_many_friends(self):
        # u00 follows the 19 others, so its column sums run over 18 weights
        hours = [[(5 * i + j) % 24 for j in range(i % 4 + 1)] for i in range(20)]
        topics = [(1 + i % 3, 1 + i % 5, 1 + i % 7) for i in range(20)]
        topics = [np.array(t, float) / sum(t) for t in topics]
        edges = [(0, b) for b in range(1, 20)] + [(b, 0) for b in range(1, 20, 3)]
        dataset = build(20, edges, hours, topics, responses=[(0, 3, 5), (0, 7, 9)])
        links = [("u00", f"u{b:02d}") for b in (1, 3, 7, 12, 19)] + [("u04", "u00")]
        for c in (0.5, 0.85):
            assert_batch_matches_oracle(dataset, links, c, p=0.05)

    def test_topic_totals_below_one(self):
        # the topic rows of followers u01, u02 and u05 sum to 1 - 2**-53 in
        # floating point, so the shares divided by that total, as the scorer
        # and the oracle weigh the topics, are not the raw shares; u00 has no
        # share of topics 1, 2
        topics = [(1.0, 0.0, 0.0), (0.7, 0.2, 0.1), (0.6, 0.3, 0.1), (0.5, 0.5, 0.0),
                  (0.0, 0.2, 0.8), (0.7, 0.2, 0.1)]
        dataset = build(6, TestColumnCases.EDGES, TestColumnCases.HOURS, topics,
                        responses=[(5, 1, 4)])
        assert FeatureContext(dataset).topics[[1, 2, 5]].sum(axis=1).tolist() == [1 - 2**-53] * 3
        links = [(f"u{a:02d}", f"u{b:02d}") for a, b in TestColumnCases.EDGES]
        assert_batch_matches_oracle(dataset, links, 0.85, p=0.05)

    def test_follower_without_topic_mass(self):
        # the Dataset constructor does not validate users, so follower u05's
        # topic row can be all zero: its TwitterRank link rows weigh the
        # topics uniformly, as its personal ranking of the reduced graph does
        topics = list(TestColumnCases.TOPICS)
        topics[5] = (0.0, 0.0)
        dataset = build(6, TestColumnCases.EDGES, TestColumnCases.HOURS, topics)
        links = [("u05", "u01"), ("u05", "u04"), ("u00", "u01")]
        block = TwitterRankLinkScorer(dataset, gamma=GAMMA).scores_without_links(links)
        for row, (u, v) in zip(block, links):
            rebuilt = twitterrank(_remove_edge_dataset(dataset, u, v), GAMMA, mode="personal",
                                  user=u, tol=1e-14, max_iters=1000).scores
            assert np.allclose(row, rebuilt, rtol=0, atol=1e-12)
        assert_batch_matches_oracle(dataset, links, 0.85, p=0.05)

    def test_expected_links_asked_out_of_order(self, monkeypatch):
        # rows left over from a block are served by link, and a link asked
        # for again, or ahead of its turn, is scored alone
        monkeypatch.setattr(evaluation, "BLOCK_LINKS", 4)
        links = [(f"u{a:02d}", f"u{b:02d}") for a, b in TestColumnCases.EDGES]
        scorer = TunkRankLinkScorer(self.dataset(), p=0.05)
        want = scorer.scores_without_links(links)
        scorer.expect(links)
        for i in (0, 2, 1, 5, 3, 4, 0):
            assert np.array_equal(scorer.scores_without(*links[i]).scores, want[i])

    def test_followers_without_a_shared_active_hour(self, monkeypatch):
        # followers u00 (hour 1), u02 (hour 3) and u05 (hours 4 and 20,
        # its retweet and its original) are active in disjoint hours: each
        # hour solves only its own follower's links, and the 20 hours that
        # none of them is active in are not solved
        solved = []
        solve = evaluation.ColumnUpdateSolver.solve_with_columns

        def counted(self, us, rows, columns, link):
            solved.append(us.tolist())
            return solve(self, us, rows, columns, link)

        links = [("u00", "u01"), ("u02", "u03"), ("u05", "u01"), ("u02", "u04")]
        dataset = self.dataset(responses=[(5, 1, 4)])
        scorer = TirLinkScorer(dataset, MODEL, 0.85, gamma=GAMMA)
        monkeypatch.setattr(evaluation.ColumnUpdateSolver, "solve_with_columns", counted)
        block = scorer.scores_without_links(links)
        assert solved == [[0], [2, 2], [5], [5]]
        for row, (u, v) in zip(block, links):
            assert np.array_equal(row, scores_without_loop(scorer, u, v))

    def test_block_of_one(self):
        assert_batch_matches_oracle(self.dataset(), [("u05", "u01")], 0.85, p=0.3)

    def test_twitterrank_assembles_only_the_weighed_topics(self, monkeypatch):
        # building the scorer assembles no topic matrix, and each call
        # assembles once each topic that some link's follower has a share
        # of: u00's topic row is (1, 0), u02's (0, 1)
        assembled = []
        assemble = ranking._assemble

        def counted(ctx, weights, key, gamma):
            assembled.append(key)
            return assemble(ctx, weights, key, gamma)

        monkeypatch.setattr(ranking, "_assemble", counted)
        scorer = TwitterRankLinkScorer(self.dataset(), gamma=GAMMA)
        assert assembled == []
        for links, topics in [([("u00", "u01")], [0]), ([("u02", "u03")], [1]),
                              ([("u00", "u01"), ("u02", "u04")], [0, 1])]:
            assembled.clear()
            scorer.scores_without_links(links)
            assert assembled == topics, links

    def test_tunkrank_p1_rejects_the_link_that_closes_a_class(self):
        users = [make_user(u) for u in "abc"]
        ds = make_dataset(users, [("a", "b"), ("b", "a"), ("a", "c")], [])
        scorer = TunkRankLinkScorer(ds, p=1.0)
        with pytest.raises(ValueError, match="2 users form a closed follow class"):
            scorer.scores_without_links([("b", "a"), ("a", "c")])
        block = scorer.scores_without_links([("b", "a"), ("b", "a")])
        for row in block:
            assert np.array_equal(row, scores_without_loop(scorer, "b", "a"))


@st.composite
def scenario_cases(draw):
    """Datasets where every follower leaves at least ten users unfollowed,
    as the candidate draw needs."""
    n = draw(st.integers(13, 16))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    drawn = draw(st.lists(st.sampled_from(pairs), min_size=4, max_size=30, unique=True))
    edges, out_degree = [], [0] * n
    for a, b in drawn:
        if out_degree[a] < n - 11:
            edges.append((a, b))
            out_degree[a] += 1
    return draw_dataset(draw, n, edges)


@pytest.mark.filterwarnings("ignore:scenario")
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dataset=scenario_cases(), seed=st.integers(0, 2**31),
       n_links=st.integers(1, 3), p=st.sampled_from([0.0, 0.05, 0.3]))
def test_run_scenarios_q_equal_per_link_oracle(dataset, seed, n_links, p):
    ctx = FeatureContext(dataset)
    models, c_grid = ("tir", "tunkrank", "twitterrank"), (0.5, 1.0)
    got = run_scenarios(dataset, MODEL, seed=seed, models=models, c_grid=c_grid, gamma=GAMMA,
                        tunkrank_p=p, n_links=n_links, ctx=ctx)
    want = run_scenarios_loop(dataset, MODEL, seed, models, c_grid, GAMMA, p, n_links, ctx)
    assert [(r.tag, r.model, r.c, r.q_values) for r in got] == want


# ------------------------------------------- the follow graph's shared order

@pytest.fixture(scope="module")
def synth_500():
    dataset, _ = generate(GeneratorConfig(n_users=500, seed=3))
    ctx = FeatureContext(dataset)
    ids = ctx.user_ids
    # three blocks of links from distinct followers, the first edge of each
    first = {}
    for row, u in enumerate(ctx.edge_src.tolist()):
        first.setdefault(u, row)
    rows = list(first.values())[:3 * evaluation.BLOCK_LINKS]
    links = [(ids[ctx.edge_src[r]], ids[ctx.edge_dst[r]]) for r in rows]
    return dataset, ctx, links


def scorers_of(dataset, ctx, c=0.85, p=0.3):
    return [TirLinkScorer(dataset, MODEL, c, gamma=GAMMA, ctx=ctx),
            TwitterRankLinkScorer(dataset, gamma=GAMMA, ctx=ctx),
            TunkRankLinkScorer(dataset, p=p)]


def test_order_is_a_permutation_computed_once_per_graph(monkeypatch):
    from scipy.sparse import csgraph

    # a dataset of its own, whose graph has not computed its order yet
    dataset, _ = generate(GeneratorConfig(n_users=60, seed=1, observation_days=14))
    calls, rcm = [], csgraph.reverse_cuthill_mckee
    monkeypatch.setattr(csgraph, "reverse_cuthill_mckee",
                        lambda *args, **kwargs: calls.append(args) or rcm(*args, **kwargs))
    built, init = [], evaluation.ColumnUpdateSolver.__init__

    def tracked(self, matrix, s, order, *args, **kwargs):
        built.append(order)
        init(self, matrix, s, order, *args, **kwargs)

    monkeypatch.setattr(evaluation.ColumnUpdateSolver, "__init__", tracked)
    run_scenarios(dataset, MODEL, seed=2, c_grid=(0.5, 0.85), n_links=5)
    # two TIR scorers, TunkRank and TwitterRank share the graph's one order,
    # and every factor of every scorer is in that order
    assert len(calls) == 1
    order = dataset.graph.elimination_order
    assert np.array_equal(np.sort(order), np.arange(dataset.n_users))
    assert len(built) == 2 * 24 + FeatureContext(dataset).topics.shape[1] + 1
    assert all(o is order for o in built)


@pytest.mark.parametrize("p", [0.05, 0.3])
def test_every_factor_pivots_on_the_diagonal(synth_500, monkeypatch, p):
    # I - s S is column diagonally dominant for s <= 1, so the LU of the
    # permuted system keeps its row order equal to its column order
    dataset, ctx, links = synth_500
    pivots, init = [], evaluation.ColumnUpdateSolver.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pivots.append((self.eta, np.array_equal(self.lu.perm_r, self.lu.perm_c)))

    monkeypatch.setattr(evaluation.ColumnUpdateSolver, "__init__", tracked)
    for c in (0.5, 1.0):
        for scorer in scorers_of(dataset, ctx, c, p):
            scorer.scores_without_links(links)
    assert sum(eta == 0.0 for eta, _ in pivots) > 24
    assert sum(eta == 1.0 for eta, _ in pivots) == 2
    assert all(diagonal for _, diagonal in pivots)


def test_multi_column_solves_equal_single_column_solves(synth_500):
    dataset, ctx, links = synth_500
    for scorer in scorers_of(dataset, ctx):
        block = scorer.scores_without_links(links)
        solvers = None if isinstance(scorer, TunkRankLinkScorer) else link_solvers(scorer)
        for row, (u, v) in zip(block, links):
            assert np.array_equal(row, scores_without_loop(scorer, u, v, solvers))


def test_scores_agree_with_the_colamd_factor(synth_500):
    dataset, ctx, links = synth_500
    tir, tw, tunk = scorers_of(dataset, ctx)
    colamd = ColamdSolver(tunk.solver.matrix, tunk.p, rhs_from_matrix=True)
    tir_solvers, tw_solvers = link_solvers(tir, colamd=True), link_solvers(tw, colamd=True)
    for scorer, slow in [
        (tir, lambda u, v: tir_scores_without_loop(tir, u, v, tir_solvers)),
        (tw, lambda u, v: twitterrank_scores_without_loop(tw, u, v, tw_solvers)),
        (tunk, lambda u, v: tunkrank_scores_without_loop(tunk, u, v, colamd)),
    ]:
        block = scorer.scores_without_links(links)
        for row, (u, v) in zip(block, links):
            np.testing.assert_allclose(row, slow(u, v), rtol=1e-12, atol=0)
