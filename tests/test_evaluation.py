import weakref

import numpy as np
import pytest

from influxrank import evaluation
from influxrank.evaluation import (
    SCENARIO_TAGS,
    TirLinkScorer,
    TunkRankLinkScorer,
    TwitterRankLinkScorer,
    build_link_sets,
    evaluate_link,
    kendall_tau,
    q_score,
    run_scenarios,
    sample_candidates,
)
from influxrank.features import FeatureContext
from influxrank.model import Tweet
from influxrank.ranking import RankVector, tir_rank, tunkrank, twitterrank

from conftest import _remove_edge_dataset, make_dataset, make_user
from oracles import kendall_tau_bruteforce, q_score_dict, sample_candidates_loop


class TestKendallTau:
    def test_identical_orders(self):
        a = {"u1": 3.0, "u2": 2.0, "u3": 1.0}
        assert kendall_tau(a, a) == 1.0

    def test_reversed_orders(self):
        a = {"u1": 3.0, "u2": 2.0, "u3": 1.0}
        b = {"u1": 1.0, "u2": 2.0, "u3": 3.0}
        assert kendall_tau(a, b) == -1.0

    def test_hand_value_one_swap(self):
        # orders: (u1,u2,u3) vs (u2,u1,u3): 2 concordant, 1 discordant of 3
        a = {"u1": 3.0, "u2": 2.0, "u3": 1.0}
        b = {"u2": 3.0, "u1": 2.0, "u3": 1.0}
        assert kendall_tau(a, b) == 1 / 3

    def test_matches_bruteforce_oracle_random(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 40 if trial < 20 else 300))
            users = [f"u{i:02d}" for i in range(n)]
            # quantized scores so ties occur regularly
            a = {u: float(rng.integers(0, 5)) for u in users}
            b = {u: float(rng.integers(0, 5)) for u in users}
            # a ratio of the same two integers, so equal to the last bit
            assert kendall_tau(a, b) == kendall_tau_bruteforce(a, b)

    def test_accepts_rank_vectors(self):
        rv_a = RankVector(("x", "y"), np.array([0.7, 0.3]))
        rv_b = RankVector(("x", "y"), np.array([0.1, 0.9]))
        assert kendall_tau(rv_a, rv_b) == -1.0

    def test_mismatched_user_sets(self):
        with pytest.raises(ValueError, match="different user sets"):
            kendall_tau({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})

    def test_too_few_users(self):
        with pytest.raises(ValueError, match="two users"):
            kendall_tau({"a": 1.0}, {"a": 1.0})

    def test_all_tied_scores_give_tau_one(self):
        # ties resolve to the same id order on both sides
        a = {"a": 1.0, "b": 1.0, "c": 1.0}
        b = {"a": 5.0, "b": 5.0, "c": 5.0}
        assert kendall_tau(a, b) == 1.0


class TestLinkSets:
    def test_all_eight_scenarios_present(self, small_synth, small_ctx):
        dataset, _ = small_synth
        sets = build_link_sets(dataset, seed=0, ctx=small_ctx, n_links=10)
        assert set(sets) == set(SCENARIO_TAGS)
        for tag, ls in sets.items():
            assert ls.tag == tag
            for u, v in ls.links:
                assert dataset.graph.has_edge(u, v)

    def test_high_low_pools_are_ordered(self, small_synth, small_ctx):
        dataset, _ = small_synth
        sets = build_link_sets(dataset, seed=0, ctx=small_ctx, n_links=10)
        deg = lambda v: len(dataset.graph.followers(v))
        high = min(deg(v) for _, v in sets["L_fh"].links)
        low = max(deg(v) for _, v in sets["L_fl"].links)
        assert high >= low
        counts = lambda v: sum(1 for tw in dataset.tweets if tw.author == v)
        assert min(counts(v) for _, v in sets["L_th"].links) >= max(
            counts(v) for _, v in sets["L_tl"].links
        )

    def test_reciprocal_scenarios(self, small_synth, small_ctx):
        dataset, _ = small_synth
        sets = build_link_sets(dataset, seed=0, ctx=small_ctx, n_links=10)
        g = dataset.graph
        assert all(g.has_edge(v, u) for u, v in sets["L_rr"].links)
        assert not any(g.has_edge(v, u) for u, v in sets["L_ur"].links)

    def test_deterministic_given_seed(self, small_synth, small_ctx):
        dataset, _ = small_synth
        a = build_link_sets(dataset, seed=3, ctx=small_ctx)
        b = build_link_sets(dataset, seed=3, ctx=small_ctx)
        assert all(a[t].links == b[t].links for t in SCENARIO_TAGS)
        c = build_link_sets(dataset, seed=4, ctx=small_ctx)
        assert any(a[t].links != c[t].links for t in SCENARIO_TAGS)

    def test_short_pool_is_flagged(self, small_synth, small_ctx):
        dataset, _ = small_synth
        sets = build_link_sets(dataset, seed=0, ctx=small_ctx, n_links=10_000)
        assert all(ls.flagged for ls in sets.values())


class TestCandidatesAndQ:
    def test_candidates_exclude_followed_and_self(self, small_synth):
        dataset, _ = small_synth
        u = next(iter(dataset.users))
        cands = sample_candidates(dataset, u, seed=0)
        assert len(cands) == 10
        assert len(set(cands)) == 10
        for x in cands:
            assert x != u
            assert not dataset.graph.has_edge(u, x)
        assert cands == sample_candidates(dataset, u, seed=0)
        assert cands != sample_candidates(dataset, u, seed=1)

    def test_candidates_equal_the_sorting_oracle(self, small_synth):
        dataset, _ = small_synth
        for i, u in enumerate(sorted(dataset.users)):
            assert sample_candidates(dataset, u, seed=i) == \
                sample_candidates_loop(dataset, u, seed=i)

    def test_candidates_insufficient(self, tiny_dataset):
        with pytest.raises(ValueError, match="fewer than 10"):
            sample_candidates(tiny_dataset, "A", seed=0)

    def test_candidates_of_unknown_user(self, small_synth):
        dataset, _ = small_synth
        with pytest.raises(ValueError, match="unknown user 'nobody'"):
            sample_candidates(dataset, "nobody", seed=0)

    def test_q_score_hand_value(self):
        rv = RankVector(
            ("c1", "c2", "c3", "v"), np.array([0.5, 0.3, 0.4, 0.4])
        )
        # v (0.4) outranks c2 (0.3) and ties c3 (0.4): tie broken by id,
        # "v" > "c3" so c3 wins the tie
        assert q_score(rv.scores, 3, np.array([0, 1, 2])) == 1
        assert q_score_dict(rv, "v", ["c1", "c2", "c3"]) == 1

    def test_q_score_range(self, small_synth):
        dataset, _ = small_synth
        link = next(iter(dataset.graph.edges()))
        q = evaluate_link(dataset, link, seed=0, model="tunkrank",
                          scorer=TunkRankLinkScorer(dataset))
        assert 0 <= q <= 10

    def test_evaluate_missing_link(self, small_synth):
        dataset, _ = small_synth
        users = sorted(dataset.users)
        non_edge = next(
            (u, v)
            for u in users
            for v in users
            if u != v and not dataset.graph.has_edge(u, v)
        )
        with pytest.raises(ValueError, match="not in graph"):
            evaluate_link(dataset, non_edge, seed=0)

    def test_evaluate_requires_scorer(self, small_synth):
        dataset, _ = small_synth
        link = next(iter(dataset.graph.edges()))
        with pytest.raises(ValueError, match="prepared scorer"):
            evaluate_link(dataset, link, seed=0, model="tir")

    def test_evaluate_unknown_model(self, small_synth):
        dataset, _ = small_synth
        link = next(iter(dataset.graph.edges()))
        with pytest.raises(ValueError, match="unknown model"):
            evaluate_link(dataset, link, seed=0, model="hits")


class TestIncrementalScorers:
    """Single-edge-removal rescoring must equal a full rebuild on the
    reduced dataset."""

    def _links(self, dataset, n=4):
        edges = list(dataset.graph.edges())
        rng = np.random.default_rng(12)
        return [edges[i] for i in rng.choice(len(edges), size=n, replace=False)]

    def test_tir_scorer_matches_full_rebuild(self, small_synth, small_model,
                                             small_ctx):
        dataset, _ = small_synth
        scorer = TirLinkScorer(dataset, small_model, c=0.85, ctx=small_ctx)
        for u, v in self._links(dataset):
            fast = scorer.personal_scores_without(u, v)
            reduced = _remove_edge_dataset(dataset, u, v)
            slow = tir_rank(reduced, small_model, c=0.85, mode="personal",
                            user=u, tol=1e-14, max_iters=1000)
            assert np.allclose(fast.scores, slow.scores, atol=1e-12)

    def test_twitterrank_scorer_matches_full_rebuild(self, small_synth,
                                                     small_ctx):
        dataset, _ = small_synth
        scorer = TwitterRankLinkScorer(dataset, ctx=small_ctx)
        for u, v in self._links(dataset):
            fast = scorer.personal_scores_without(u, v)
            reduced = _remove_edge_dataset(dataset, u, v)
            slow = twitterrank(reduced, mode="personal", user=u, tol=1e-14,
                               max_iters=1000)
            assert np.allclose(fast.scores, slow.scores, atol=1e-12)

    def test_tunkrank_scorer_matches_full_rebuild(self, small_synth):
        dataset, _ = small_synth
        scorer = TunkRankLinkScorer(dataset, p=0.05)
        for u, v in self._links(dataset):
            fast = scorer.scores_without(u, v)
            reduced = _remove_edge_dataset(dataset, u, v)
            slow = tunkrank(reduced, p=0.05, tol=1e-14)
            assert fast.user_ids == slow.user_ids
            assert np.allclose(fast.scores, slow.scores, atol=1e-12)


class TestTunkRankP1:
    """p = 1 has a fixed point only without a closed follow class; the
    scorer refuses a graph, or a reduced graph, that has one."""

    def _dataset(self, edges):
        users = [make_user(u) for u in "abc"]
        return make_dataset(users, edges, [])

    def test_closed_class_rejected_at_construction(self):
        ds = self._dataset([("a", "b"), ("b", "a"), ("c", "a")])
        with pytest.raises(ValueError, match="closed follow class"):
            TunkRankLinkScorer(ds, p=1.0)

    def test_removal_that_closes_a_class_rejected(self):
        ds = self._dataset([("a", "b"), ("b", "a"), ("a", "c")])
        scorer = TunkRankLinkScorer(ds, p=1.0)
        with pytest.raises(ValueError, match="2 users form a closed follow class"):
            scorer.scores_without("a", "c")
        fast = scorer.scores_without("b", "a")
        slow = tunkrank(_remove_edge_dataset(ds, "b", "a"), p=1.0, tol=1e-14)
        assert np.allclose(fast.scores, slow.scores, atol=1e-12)


class TestRunScenarios:
    def test_structure_and_bounds(self, small_synth, small_model, small_ctx):
        dataset, _ = small_synth
        results = run_scenarios(
            dataset,
            small_model,
            seed=0,
            models=("tir", "tunkrank"),
            c_grid=(0.5, 0.95),
            scenarios=("L_fh", "L_rr"),
            n_links=5,
            ctx=small_ctx,
        )
        # per scenario: 2 c values for tir + 1 tunkrank row
        assert len(results) == 2 * 3
        for res in results:
            assert res.tag in ("L_fh", "L_rr")
            assert res.n_links == len(res.q_values) <= 5
            assert all(0 <= q <= 10 for q in res.q_values)
            assert res.mean_q == pytest.approx(float(np.mean(res.q_values)))
            if res.model == "tir":
                assert res.c in (0.5, 0.95)
            else:
                assert res.c is None

    @pytest.mark.parametrize("kwargs, match", [
        ({"tunkrank_p": 2.0}, "p must be in"),
        ({"tunkrank_p": -0.5}, "p must be in"),
        ({"gamma": 1.0}, "gamma must be in"),
        ({"gamma": 0.0}, "gamma must be in"),
        ({"n_links": 0}, "n_links must be at least 1"),
        ({"n_links": -1}, "n_links must be at least 1"),
        ({"c_grid": (0.5, 0.3)}, "penalty factor c"),
        ({"models": ("tir", "hits")}, "unknown model 'hits'"),
        ({"scenarios": ("L_fh", "L_zz")}, "unknown scenario 'L_zz'"),
        ({"models": ("tir", "tunkrank", "tir")}, "models must not repeat"),
        ({"scenarios": ("L_fh", "L_rr", "L_fh")}, "scenarios must not repeat"),
        ({"c_grid": (0.5, 0.85, 0.5)}, "c_grid must not repeat"),
    ])
    def test_bad_parameters_raise_before_any_scorer(self, small_synth, small_model, small_ctx,
                                                    monkeypatch, kwargs, match):
        def refuse(*args, **kw):
            raise AssertionError("a scorer was built")

        for name in ("TirLinkScorer", "TwitterRankLinkScorer", "TunkRankLinkScorer"):
            monkeypatch.setattr(evaluation, name, refuse)
        dataset, _ = small_synth
        with pytest.raises(ValueError, match=match):
            run_scenarios(dataset, small_model, ctx=small_ctx, **kwargs)

    def test_no_requested_link_builds_no_scorer(self, small_model, monkeypatch):
        # nobody follows back, so L_rr holds no link: the result is empty
        # before a candidate is drawn (three users have too few to draw) or
        # a scorer is built
        def refuse(*args, **kw):
            raise AssertionError("a scorer was built or candidates drawn")

        for name in ("TirLinkScorer", "TwitterRankLinkScorer", "TunkRankLinkScorer",
                     "_candidate_rows"):
            monkeypatch.setattr(evaluation, name, refuse)
        tweets = [Tweet(f"t{u}", u, "original", 3600 * i) for i, u in enumerate("abc")]
        dataset = make_dataset([make_user(u) for u in "abc"],
                               [("a", "b"), ("a", "c"), ("b", "c")], tweets)
        with pytest.warns(UserWarning, match="L_rr: empty pool"):
            assert run_scenarios(dataset, small_model, scenarios=("L_rr",)) == []

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_selection_runs_no_scenario(self, small_synth, small_model, small_ctx,
                                              monkeypatch, empty):
        # an empty selection selects no scenario (None selects all eight):
        # the result is empty before a candidate is drawn or a scorer is built
        def refuse(*args, **kw):
            raise AssertionError("a scorer was built or candidates drawn")

        for name in ("TirLinkScorer", "TwitterRankLinkScorer", "TunkRankLinkScorer",
                     "_candidate_rows"):
            monkeypatch.setattr(evaluation, name, refuse)
        dataset, _ = small_synth
        assert run_scenarios(dataset, small_model, scenarios=empty, ctx=small_ctx) == []

    def test_block_size_does_not_change_q(self, small_synth, small_model, small_ctx,
                                          monkeypatch):
        dataset, _ = small_synth

        def q_lists():
            return [(r.tag, r.model, r.c, r.q_values) for r in run_scenarios(
                dataset, small_model, seed=2, c_grid=(0.85,), n_links=5, ctx=small_ctx)]

        whole = q_lists()
        monkeypatch.setattr(evaluation, "BLOCK_LINKS", 3)
        assert q_lists() == whole

    def test_blocks_scored_once_and_each_link_evaluated(self, small_synth, small_model,
                                                        small_ctx, monkeypatch):
        # each scorer scores all distinct links in one call, each solve
        # covers at most BLOCK_LINKS of them, and evaluate_link still runs
        # once per (link, model, c)
        dataset, _ = small_synth
        calls, solved, evaluated = [], [], []
        for cls in (TirLinkScorer, TwitterRankLinkScorer, TunkRankLinkScorer):
            def counted(self, links, score=cls.scores_without_links):
                calls.append((self.__class__.__name__, list(links)))
                return score(self, links)
            monkeypatch.setattr(cls, "scores_without_links", counted)
        solve = evaluation.ColumnUpdateSolver.solve_with_columns

        def counted_solve(self, us, *args):
            solved.append(len(us))
            return solve(self, us, *args)

        monkeypatch.setattr(evaluation.ColumnUpdateSolver, "solve_with_columns", counted_solve)

        def evaluate(*args, **kwargs):
            evaluated.append((args[1], args[3]))
            return evaluate_link(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_link", evaluate)
        monkeypatch.setattr(evaluation, "BLOCK_LINKS", 4)
        run_scenarios(dataset, small_model, seed=2, c_grid=(0.5, 0.85), n_links=5,
                      ctx=small_ctx)
        link_sets = build_link_sets(dataset, seed=2, ctx=small_ctx, n_links=5)
        links = list(dict.fromkeys(l for t in SCENARIO_TAGS for l in link_sets[t].links))
        assert len(links) > 4
        assert calls == [(name, links) for name in ("TirLinkScorer", "TirLinkScorer",
                                                    "TunkRankLinkScorer", "TwitterRankLinkScorer")]
        assert solved and max(solved) <= 4
        assert evaluated == [(l, m) for m in ("tir", "tir", "tunkrank", "twitterrank")
                             for l in links]

    def test_one_factorisation_at_a_time(self, small_synth, small_model, small_ctx,
                                         monkeypatch):
        # the hourly and topic solvers are alive one at a time; TunkRank's
        # own factor (the S 1 right-hand side) may live beside one of them
        dataset, _ = small_synth
        live, peaks = weakref.WeakSet(), []
        init = evaluation.ColumnUpdateSolver.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            live.add(self)
            peaks.append((sum(s.eta == 0.0 for s in live), sum(s.eta == 1.0 for s in live)))

        monkeypatch.setattr(evaluation.ColumnUpdateSolver, "__init__", tracked)
        run_scenarios(dataset, small_model, seed=2, c_grid=(0.5, 0.85), n_links=5,
                      ctx=small_ctx)
        # every hour for each c (the links' followers weigh all 24 between
        # them), every topic, and one TunkRank factor
        assert len(peaks) == 2 * 24 + small_ctx.topics.shape[1] + 1
        assert max(hourly for hourly, _ in peaks) == 1
        assert max(tunk for _, tunk in peaks) == 1
