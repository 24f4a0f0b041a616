import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank import temporal
from influxrank.model import RETWEET, Tweet
from influxrank.synth import DEFAULT_PROTOTYPES, GeneratorConfig, generate
from influxrank.temporal import (
    _row_blocks,
    _shape_distance_rows,
    _shift_set,
    _silhouettes,
    all_profiles,
    cdf_table,
    global_activity,
    ksc_cluster,
    response_metrics,
    select_k,
)

from conftest import make_dataset, make_user
from oracles import (
    HourlyProfile,
    assert_activity_matches_loop,
    ksc_distance,
    pairwise_shape_distance,
    response_metrics_loop,
    response_records,
    silhouette_by_cluster,
    silhouette_loop,
)


def _originals(author, timestamps, prefix):
    return [
        Tweet(f"{prefix}{i}", author, "original", ts)
        for i, ts in enumerate(timestamps)
    ]


def _profile(table, user_id):
    """``user_id``'s row of a ``ProfileTable``, as the oracle's record."""
    i = table.user_ids.tolist().index(user_id)
    return HourlyProfile(user_id, table.raw_counts[i], table.n_t[i], table.a_t[i],
                         table.available_days[i], table.has_tweets[i])


class TestHourlyProfile:
    def test_uniform_one_per_hour_over_one_day(self):
        users = [make_user("a")]
        ts = [h * 3600 for h in range(24)]
        ts[-1] = 86400 - 3600  # keep span exactly under a day
        ds = make_dataset(users, [], _originals("a", [h * 3600 for h in range(24)], "t"))
        prof = _profile(all_profiles(ds), "a")
        assert np.allclose(prof.n_t, 1.0)
        assert np.allclose(prof.a_t, 1 / 24)

    def test_single_bin_over_two_days(self):
        users = [make_user("a")]
        base = 17 * 3600
        stamps = [base + i * (2 * 86400) // 9 for i in range(10)]
        # force all into hour 17 while spanning exactly 2 days
        stamps = [base + (i % 2) * 2 * 86400 // 2 * 0 for i in range(10)]
        stamps = [base, base + 2 * 86400] + [base + 86400] * 8
        ds = make_dataset(users, [], _originals("a", stamps, "t"), window=(0, 4 * 86400))
        prof = _profile(all_profiles(ds), "a")
        assert prof.available_days == pytest.approx(2.0)
        assert prof.n_t[17] == pytest.approx(5.0)
        assert prof.a_t[17] == pytest.approx(1.0)
        assert prof.n_t.sum() == pytest.approx(5.0)

    def test_mixed_fixture_matches_hand_counts(self):
        users = [make_user("a")]
        # 7 tweets: 3 in hour 2, 3 in hour 9, 1 in hour 20, spanning 3.5 days
        stamps = [
            2 * 3600,
            2 * 3600 + 86400,
            2 * 3600 + 2 * 86400,
            9 * 3600,
            9 * 3600 + 86400,
            9 * 3600 + 2 * 86400,
            2 * 3600 + int(3.5 * 86400),  # hour 14 on day 3.5
        ]
        ds = make_dataset(users, [], _originals("a", stamps, "t"), window=(0, 5 * 86400))
        prof = _profile(all_profiles(ds), "a")
        assert prof.available_days == pytest.approx(3.5)
        assert prof.n_t[2] == pytest.approx(3 / 3.5)
        assert prof.n_t[9] == pytest.approx(3 / 3.5)
        assert prof.n_t[14] == pytest.approx(1 / 3.5)
        assert prof.a_t.sum() == pytest.approx(1.0)
        assert np.allclose(prof.n_t * prof.available_days, prof.raw_counts)

    def test_zero_tweets_flagged(self):
        ds = make_dataset([make_user("a"), make_user("b")], [],
                          _originals("b", [100], "t"))
        prof = _profile(all_profiles(ds), "a")
        assert not prof.has_tweets
        assert prof.n_t.sum() == 0
        assert prof.a_t.sum() == 0

    def test_unknown_user(self, tiny_dataset):
        table = all_profiles(tiny_dataset)
        assert table.user_ids.tolist() == sorted(tiny_dataset.users)
        assert "nobody" not in table.user_ids.tolist()


class TestGlobalActivity:
    def test_single_tweet_monday_ten(self):
        ts = 4 * 86400 + 10 * 3600  # Monday 10:00
        ds = make_dataset([make_user("a")], [], _originals("a", [ts], "t"))
        heat = global_activity(ds)
        assert heat.shape == (7, 24)
        assert heat[0, 10] == 1
        assert heat.sum() == 1
        assert_activity_matches_loop(ds, heat)

    def test_heatmap_marginalizes_to_hourly(self, small_synth):
        dataset, _ = small_synth
        assert_activity_matches_loop(dataset, global_activity(dataset))

    def test_planted_peak_recovered(self):
        cfg = GeneratorConfig(
            n_users=80,
            seed=3,
            prototypes=(DEFAULT_PROTOTYPES[1],),
            prototype_weights=(1.0,),
        )
        ds, _ = generate(cfg)
        heat = global_activity(ds)
        assert_activity_matches_loop(ds, heat)
        assert int(np.argmax(heat.sum(axis=0))) == 17


def _planted_profiles(seed, n=300, sigma=0.05):
    protos = [np.asarray(p) for p in DEFAULT_PROTOTYPES]
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    profiles, truth = {}, {}
    for i in range(n):
        p = protos[labels[i]]
        v = np.maximum(p + rng.normal(0, sigma * np.linalg.norm(p), 24), 0.0)
        profiles[f"u{i:03d}"] = v
        truth[f"u{i:03d}"] = int(labels[i])
    return profiles, truth


def _table(profiles):
    """A dict of profiles as the increasing ids and the matching (n, 24)
    rows that ``ksc_cluster`` and ``select_k`` take."""
    ids = sorted(profiles)
    return np.asarray(ids), np.asarray([profiles[u] for u in ids], dtype=float)


def _assignment(result):
    """A clustering's {id: cluster}."""
    return dict(zip(result.ids.tolist(), result.labels.tolist()))


def _purity(assignment, truth, k):
    from collections import Counter

    total = 0
    for j in range(k):
        members = [truth[u] for u, c in assignment.items() if c == j]
        if members:
            total += Counter(members).most_common(1)[0][1]
    return total / len(assignment)


class TestKsc:
    def test_single_cluster_of_identical_profiles(self):
        v = np.zeros(24)
        v[5] = 2.0
        v[6] = 1.0
        result = ksc_cluster(*_table({"a": v, "b": v.copy()}), k=1)
        unit = v / np.linalg.norm(v)
        assert np.allclose(np.abs(result.centroids[0]), unit, atol=1e-9)

    def test_scale_invariance(self):
        profiles, _ = _planted_profiles(0, n=60)
        scaled = {u: 3.0 * v for u, v in profiles.items()}
        for k in (2, 3):
            a = _assignment(ksc_cluster(*_table(profiles), k, seed=1))
            b = _assignment(ksc_cluster(*_table(scaled), k, seed=1))
            assert a == b

    def test_uniform_cyclic_shift_invariance_full_shift_range(self):
        profiles, _ = _planted_profiles(4, n=60)
        shifted = {u: np.roll(v, 7) for u, v in profiles.items()}
        a = _assignment(ksc_cluster(*_table(profiles), 3, max_shift=23, seed=2))
        b = _assignment(ksc_cluster(*_table(shifted), 3, max_shift=23, seed=2))
        assert a == b

    def test_planted_prototypes_recovered(self):
        profiles, truth = _planted_profiles(7)
        result = ksc_cluster(*_table(profiles), 3, seed=7)
        assert _purity(_assignment(result), truth, 3) >= 0.9
        assert np.allclose(np.linalg.norm(result.centroids, axis=1), 1.0)
        assert result.proportions.sum() == pytest.approx(1.0)

    def test_objective_non_increasing(self):
        profiles, _ = _planted_profiles(11)
        result = ksc_cluster(*_table(profiles), 3, seed=5)
        hist = result.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_all_zero_profiles_excluded(self):
        profiles, _ = _planted_profiles(2, n=20)
        profiles["zzz"] = np.zeros(24)
        with pytest.warns(UserWarning, match="all-zero"):
            result = ksc_cluster(*_table(profiles), 2, seed=0)
        assert "zzz" not in _assignment(result)

    @pytest.mark.parametrize("max_shift", [3, 23])
    def test_shifted_copies_align_to_one_centroid(self, max_shift):
        """Cyclic shifts of one shape align exactly, so the centroid is that
        shape and the final objective is 0 up to rounding."""
        v = np.random.default_rng(0).random(24)
        profiles = {f"u{s}": np.roll(v, s) for s in range(max_shift + 1)}
        result = ksc_cluster(*_table(profiles), 1, max_shift=max_shift, seed=0)
        assert result.objective < 1e-12
        unit = v / np.linalg.norm(v)
        assert any(np.allclose(result.centroids[0], np.roll(unit, s), atol=1e-9)
                   for s in range(24))

    def test_farthest_point_seeding_covers_every_group(self):
        """Seeds land one per group, so the first objective, taken against
        the seeds themselves, is only the noise: groups peaked at hour 0, at
        hour 12 and at both, where the two-peak group is 0.71 from either."""
        rng = np.random.default_rng(0)
        shapes = [np.eye(24)[0], np.eye(24)[12], np.eye(24)[0] + np.eye(24)[12]]
        profiles = {f"g{g}u{i}": shape + rng.random(24) * 0.01
                    for g, shape in enumerate(shapes) for i in range(10)}
        for seed in range(6):
            result = ksc_cluster(*_table(profiles), 3, seed=seed, max_iters=1)
            assert result.objective_history[0] < 0.05

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            ksc_cluster(*_table({"a": np.ones(24)}), k=2)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, monkeypatch, max_iters):
        def refuse(*args):
            raise AssertionError("a shape distance was computed")

        monkeypatch.setattr(temporal, "_shape_distances", refuse)
        profiles, _ = _planted_profiles(3)
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            ksc_cluster(*_table(profiles), 3, max_iters=max_iters)

    def test_distance_scale_invariant(self):
        x = np.random.default_rng(0).random(24)
        assert ksc_distance(x, 5 * x) == pytest.approx(0.0, abs=1e-9)


class TestSelectK:
    def test_two_planted_prototypes(self):
        protos = [np.asarray(p) for p in DEFAULT_PROTOTYPES[:3:2]]  # C1 and C3
        rng = np.random.default_rng(0)
        profiles = {}
        for i in range(120):
            p = protos[i % 2]
            profiles[f"u{i}"] = np.maximum(
                p + rng.normal(0, 0.05 * np.linalg.norm(p), 24), 0
            )
        best, _ = select_k(*_table(profiles), range(2, 6), seed=0)
        assert best.k == 2

    def test_three_planted_prototypes(self):
        profiles, _ = _planted_profiles(9)
        best, asc = select_k(*_table(profiles), range(2, 6), seed=9)
        assert best.k == 3
        # the returned clustering is the one ksc_cluster gives for that k
        again = ksc_cluster(*_table(profiles), 3, seed=9)
        assert _assignment(best) == _assignment(again)
        assert np.array_equal(best.centroids, again.centroids)

    def test_identical_users_degenerate(self):
        v = np.zeros(24)
        v[8] = 1.0
        profiles = {f"u{i}": v.copy() for i in range(10)}
        best, asc = select_k(*_table(profiles), range(2, 4), seed=0)
        assert best.k == 2  # ties broken toward smaller k

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            select_k(*_table({"a": np.ones(24)}), [1, 2], seed=0)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, monkeypatch, max_iters):
        def refuse(*args):
            raise AssertionError("a shape distance was computed")

        monkeypatch.setattr(temporal, "_shape_distances", refuse)
        monkeypatch.setattr(temporal, "_shape_distance_rows", refuse)
        profiles, _ = _planted_profiles(3)
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            select_k(*_table(profiles), range(2, 4), max_iters=max_iters)


# both K-SC entry points, on (ids, rows) and two clusters
CLUSTERINGS = {
    "ksc_cluster": lambda ids, rows: ksc_cluster(ids, rows, 2),
    "select_k": lambda ids, rows: select_k(ids, rows, range(2, 4)),
}


@pytest.mark.parametrize("cluster", CLUSTERINGS.values(), ids=CLUSTERINGS.keys())
class TestProfileRowChecks:
    """Both reject ids and rows that do not match before any clustering."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a shape distance was computed")

        monkeypatch.setattr(temporal, "_shape_distances", refuse)
        monkeypatch.setattr(temporal, "_shape_distance_rows", refuse)

    def test_no_profiles(self, cluster):
        with pytest.raises(ValueError, match="no profile has tweets"):
            cluster(np.array([], dtype=str), np.empty((0, 24)))

    def test_ids_and_rows_differ_in_length(self, cluster):
        ids, rows = _table(_planted_profiles(0, n=10)[0])
        with pytest.raises(ValueError, match=r"not 9 ids for \(10, 24\)"):
            cluster(ids[:-1], rows)

    def test_rows_not_24_wide(self, cluster):
        ids, rows = _table(_planted_profiles(0, n=10)[0])
        with pytest.raises(ValueError, match=r"one \(24,\) row per id"):
            cluster(ids, rows[:, :23])

    @pytest.mark.parametrize("order", ["decreasing", "repeated"])
    def test_ids_not_strictly_increasing(self, cluster, order):
        ids, rows = _table(_planted_profiles(0, n=10)[0])
        ids = ids[::-1] if order == "decreasing" else np.insert(ids[1:], 0, ids[1])
        with pytest.raises(ValueError, match="strictly increasing"):
            cluster(ids, rows)


# silhouette row blocks: one row, two rows, and a size that divides neither
# the 40 nor the 300 points of the cases below
BLOCK_ROWS = (1, 2, 7)


def _blocked_rows(mat: np.ndarray, max_shift: int):
    """distance_rows for ``_silhouettes``: blocks of rows of the shape
    distances of the rows of mat, as ``select_k`` computes them."""
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    shifts = _shift_set(max_shift)
    return lambda lo, hi: _shape_distance_rows(unit, lo, hi, shifts)


@st.composite
def labelled_distances(draw):
    """A labelling in 0..k-1 that may leave clusters empty or singleton, and
    a distance matrix with its rows for ``_silhouettes``: the shape
    distances of a few random profiles or of equal profiles (every distance
    0), whose rows are computed as ``select_k`` computes them and whose
    matrix is the oracle's, or an arbitrary nonnegative matrix (its diagonal
    too), whose rows are sliced from it."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    labels = np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(("profiles", "equal", "arbitrary")))
    if source == "arbitrary":
        dist = rng.random((n, n))
        return lambda lo, hi: dist[lo:hi], dist, labels, k
    mat = rng.random((n, 24)) if source == "profiles" else np.tile(rng.random(24), (n, 1))
    max_shift = draw(st.integers(0, 23))
    dist = pairwise_shape_distance(mat, _shift_set(max_shift))
    return _blocked_rows(mat, max_shift), dist, labels, k


class TestSilhouette:
    @settings(max_examples=300, deadline=None)
    @given(labelled_distances())
    def test_matches_per_point_loop(self, case):
        # each mean sums the same gathered elements in the same order as the
        # loop's, so the two agree exactly, not only within rel 1e-12
        distance_rows, dist, labels, k = case
        want = {k: silhouette_loop(dist, labels, k)}
        for rows in BLOCK_ROWS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(temporal, "_SILHOUETTE_ROWS", rows)
                assert _silhouettes(distance_rows, {k: labels}) == want

    @pytest.mark.parametrize("rows", BLOCK_ROWS + (temporal._SILHOUETTE_ROWS,))
    def test_every_labelling_in_one_pass(self, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        n = 300
        dist = rng.random((n, n))
        labellings = {k: rng.integers(0, k, n) for k in range(1, 7)}
        # an empty cluster and two singletons
        labellings[9] = np.where(rng.random(n) < 0.5, 0, 8)
        labellings[9][[3, 150]] = [4, 5]
        monkeypatch.setattr(temporal, "_SILHOUETTE_ROWS", rows)
        asc = _silhouettes(lambda lo, hi: dist[lo:hi], labellings)
        assert asc == {k: silhouette_by_cluster(dist, labels, k)
                       for k, labels in labellings.items()}

    @pytest.mark.parametrize("size", range(1, 6))
    def test_row_blocks_cover_every_row(self, size):
        for n in range(0, 30):
            blocks = _row_blocks(n, size)
            assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
            assert all(min(n, 2) <= hi - lo <= max(size, 2) + 1 for lo, hi in blocks)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 23))
    def test_pairwise_distance_matches_oracle(self, seed, n, max_shift):
        mat = np.random.default_rng(seed).random((n, 24)) + 0.01
        dist = pairwise_shape_distance(mat, _shift_set(max_shift))
        distance_rows = _blocked_rows(mat, max_shift)
        for rows in BLOCK_ROWS:
            blocks = [distance_rows(lo, hi) for lo, hi in _row_blocks(n, rows)]
            assert np.vstack(blocks).tobytes() == dist.tobytes()
        for i in range(n):
            for j in range(n):
                assert dist[i, j] == pytest.approx(
                    ksc_distance(mat[i], mat[j], max_shift), rel=1e-6, abs=1e-7)

    @pytest.mark.parametrize("max_shift", [0, 3, 23])
    def test_select_k_scores_each_clustering(self, monkeypatch, max_shift):
        profiles, _ = _planted_profiles(5, n=40)
        profiles["zero"] = np.zeros(24)
        with pytest.warns(UserWarning, match="all-zero"):
            best, asc = select_k(*_table(profiles), range(2, 7), seed=1, max_shift=max_shift)
        ids = sorted(u for u in profiles if u != "zero")
        mat = np.asarray([profiles[u] for u in ids])
        dist = pairwise_shape_distance(mat, _shift_set(max_shift))
        for k in range(2, 7):
            with pytest.warns(UserWarning, match="all-zero"):
                result = ksc_cluster(*_table(profiles), k, seed=1, max_shift=max_shift)
            labels = np.asarray([_assignment(result)[u] for u in ids])
            assert asc[k] == silhouette_loop(dist, labels, k)
        assert best.k == max(asc, key=lambda k: (asc[k], -k))
        for rows in BLOCK_ROWS:
            monkeypatch.setattr(temporal, "_SILHOUETTE_ROWS", rows)
            with pytest.warns(UserWarning, match="all-zero"):
                assert select_k(*_table(profiles), range(2, 7), seed=1,
                                max_shift=max_shift)[1] == asc

    def test_select_k_holds_no_distance_matrix(self):
        # one n×n float64 matrix is 18 MB at n = 1,500; the row blocks take
        # a few MB
        n = 1500
        rng = np.random.default_rng(0)
        ids, profiles = _table({f"u{i:04d}": rng.random(24) for i in range(n)})
        tracemalloc.start()
        try:
            _, asc = select_k(ids, profiles, range(2, 7), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(asc) == [2, 3, 4, 5, 6]
        assert peak < n * n * 8


class TestResponseMetrics:
    def test_simple_delay_no_trace(self):
        users = [make_user(u) for u in "uv"]
        tweets = [
            Tweet("t1", "v", "original", 1000),
            Tweet("r1", "u", "retweet", 1030, responds_to_user="v",
                  responds_to_tweet="t1"),
        ]
        ds = make_dataset(users, [("u", "v")], tweets)
        metrics, excluded = response_metrics(ds)
        assert excluded == 0
        assert len(metrics) == 1
        assert ds.tweets.tweet_id[metrics.row[0]] == "r1"
        assert metrics.kind[0] == RETWEET
        assert metrics.delay[0] == 30
        assert metrics.trace[0] == 0

    def test_trace_counts_intervening_friend_tweets(self):
        users = [make_user(u) for u in "uvw"]
        tweets = [
            Tweet("t1", "v", "original", 0),
            Tweet("w1", "w", "original", 10),
            Tweet("w2", "w", "original", 20),
            Tweet("r1", "u", "retweet", 30, responds_to_user="v",
                  responds_to_tweet="t1"),
        ]
        ds = make_dataset(users, [("u", "v"), ("u", "w")], tweets)
        metrics, _ = response_metrics(ds)
        assert metrics.delay[0] == 30
        assert metrics.trace[0] == 2

    def test_same_second_response_has_zero_trace(self):
        # u follows v and w; v's original, w's original and u's retweet of
        # v all fall in the same second, so no tweet lies strictly between
        users = [make_user(u) for u in "uvw"]
        tweets = [
            Tweet("t1", "v", "original", 100),
            Tweet("w1", "w", "original", 100),
            Tweet("r1", "u", "retweet", 100, responds_to_user="v",
                  responds_to_tweet="t1"),
        ]
        ds = make_dataset(users, [("u", "v"), ("u", "w")], tweets)
        metrics, _ = response_metrics(ds)
        assert (metrics.delay[0], metrics.trace[0]) == (0, 0)
        assert [m.trace for m in response_metrics_loop(ds)[0]] == [0]

    def test_unresolvable_original_excluded(self):
        users = [make_user(u) for u in "uv"]
        tweets = [
            Tweet("r1", "u", "reply", 50, responds_to_user="v",
                  responds_to_tweet="gone"),
        ]
        ds = make_dataset(users, [("u", "v")], tweets)
        metrics, excluded = response_metrics(ds)
        assert len(metrics) == 0
        assert excluded == 1

    def test_trace_matches_bruteforce_recount(self, small_synth):
        dataset, _ = small_synth
        metrics, _ = response_metrics(dataset)
        assert len(metrics), "fixture should contain responses"
        by_id = {tw.tweet_id: tw for tw in dataset.tweets}
        for m in response_records(dataset, metrics):
            resp = by_id[m.tweet_id]
            orig = by_id[resp.responds_to_tweet]
            friends = set(dataset.graph.friends(resp.author))
            brute = sum(
                1
                for tw in dataset.tweets
                if tw.author in friends
                and orig.timestamp < tw.timestamp < resp.timestamp
            )
            assert m.trace == brute
            assert m.delay == resp.timestamp - orig.timestamp
            assert m.delay >= 0


@st.composite
def response_datasets(draw):
    """Small datasets of responses: tied timestamps, responses to responses
    and to themselves, originals that are unknown, empty or later than the
    response, responders with no friends and friends with no tweets."""
    users = [f"u{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = [(u, v) for u in users for v in users if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ids = [f"t{i}" for i in range(draw(st.integers(0, 16)))]
    # extreme times too: the sort key must not overflow, nor the delay
    times = st.sampled_from((0, 1, 2, 5, 9, -2**63, 2**63 - 1))
    tweets = []
    for tweet_id in ids:
        author, kind = draw(st.sampled_from(users)), draw(st.sampled_from(
            ("original", "retweet", "reply")))
        if kind == "original":
            tweets.append(Tweet(tweet_id, author, kind, draw(times)))
        else:
            tweets.append(Tweet(tweet_id, author, kind, draw(times),
                                draw(st.sampled_from(users)),
                                draw(st.sampled_from(ids + ["gone", ""]))))
    return make_dataset([make_user(u) for u in users], edges, tweets)


@settings(max_examples=200, deadline=None)
@given(dataset=response_datasets(), pairs_per_pass=st.sampled_from((1, 3, 1 << 18)))
def test_response_columns_equal_the_loop(dataset, pairs_per_pass):
    with mock.patch.object(temporal, "_PAIRS_PER_PASS", pairs_per_pass):
        metrics, excluded = response_metrics(dataset)
    assert (metrics.trace.dtype, metrics.delay.dtype) == (np.int64, np.uint64)
    assert (response_records(dataset, metrics), excluded) == response_metrics_loop(dataset)


class TestCdf:
    def test_monotone_and_reaches_one(self, small_synth):
        dataset, _ = small_synth
        metrics, _ = response_metrics(dataset)
        table = cdf_table(metrics.delay)
        assert table == cdf_table(metrics.delay.tolist())
        fracs = [f for _, f in table]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)
        values = [v for v, _ in table]
        assert values[-1] == metrics.delay.max()

    def test_empty(self):
        assert cdf_table([]) == []
        assert cdf_table(np.array([], dtype=np.int64)) == []
