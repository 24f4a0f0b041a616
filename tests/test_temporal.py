import numpy as np
import pytest

from influxrank.model import Tweet
from influxrank.synth import DEFAULT_PROTOTYPES, GeneratorConfig, generate
from influxrank.temporal import (
    cdf_table,
    global_activity,
    hourly_profile,
    ksc_cluster,
    ksc_distance,
    response_metrics,
    select_k,
)

from conftest import make_dataset, make_user


def _originals(author, timestamps, prefix):
    return [
        Tweet(f"{prefix}{i}", author, "original", ts)
        for i, ts in enumerate(timestamps)
    ]


class TestHourlyProfile:
    def test_uniform_one_per_hour_over_one_day(self):
        users = [make_user("a")]
        ts = [h * 3600 for h in range(24)]
        ts[-1] = 86400 - 3600  # keep span exactly under a day
        ds = make_dataset(users, [], _originals("a", [h * 3600 for h in range(24)], "t"))
        prof = hourly_profile(ds, "a")
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
        prof = hourly_profile(ds, "a")
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
        prof = hourly_profile(ds, "a")
        assert prof.available_days == pytest.approx(3.5)
        assert prof.n_t[2] == pytest.approx(3 / 3.5)
        assert prof.n_t[9] == pytest.approx(3 / 3.5)
        assert prof.n_t[14] == pytest.approx(1 / 3.5)
        assert prof.a_t.sum() == pytest.approx(1.0)
        assert np.allclose(prof.n_t * prof.available_days, prof.raw_counts)

    def test_zero_tweets_flagged(self):
        ds = make_dataset([make_user("a"), make_user("b")], [],
                          _originals("b", [100], "t"))
        prof = hourly_profile(ds, "a")
        assert not prof.has_tweets
        assert prof.n_t.sum() == 0
        assert prof.a_t.sum() == 0

    def test_unknown_user(self, tiny_dataset):
        with pytest.raises(KeyError):
            hourly_profile(tiny_dataset, "nobody")


class TestGlobalActivity:
    def test_single_tweet_monday_ten(self):
        ts = 4 * 86400 + 10 * 3600  # Monday 10:00
        ds = make_dataset([make_user("a")], [], _originals("a", [ts], "t"))
        weekly = global_activity(ds, "day_of_week")
        assert weekly[0] == 1
        assert weekly.sum() == 1
        hourly = global_activity(ds, "hour_of_day")
        assert hourly[10] == 1

    def test_heatmap_marginalizes_to_hourly(self, small_synth):
        dataset, _ = small_synth
        heat = global_activity(dataset, "hour_x_day")
        hourly = global_activity(dataset, "hour_of_day")
        weekly = global_activity(dataset, "day_of_week")
        assert np.allclose(heat.sum(axis=0), hourly)
        assert np.allclose(heat.sum(axis=1), weekly)

    def test_planted_peak_recovered(self):
        cfg = GeneratorConfig(
            n_users=80,
            seed=3,
            prototypes=(DEFAULT_PROTOTYPES[1],),
            prototype_weights=(1.0,),
        )
        ds, _ = generate(cfg)
        hourly = global_activity(ds, "hour_of_day")
        assert int(np.argmax(hourly)) == 17


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
        result = ksc_cluster({"a": v, "b": v.copy()}, k=1)
        assert result.asc is None
        unit = v / np.linalg.norm(v)
        assert np.allclose(np.abs(result.centroids[0]), unit, atol=1e-9)

    def test_scale_invariance(self):
        profiles, _ = _planted_profiles(0, n=60)
        scaled = {u: 3.0 * v for u, v in profiles.items()}
        for k in (2, 3):
            a = ksc_cluster(profiles, k, seed=1).assignment
            b = ksc_cluster(scaled, k, seed=1).assignment
            assert a == b

    def test_uniform_cyclic_shift_invariance_full_shift_range(self):
        profiles, _ = _planted_profiles(4, n=60)
        shifted = {u: np.roll(v, 7) for u, v in profiles.items()}
        a = ksc_cluster(profiles, 3, max_shift=23, seed=2).assignment
        b = ksc_cluster(shifted, 3, max_shift=23, seed=2).assignment
        assert a == b

    def test_planted_prototypes_recovered(self):
        profiles, truth = _planted_profiles(7)
        result = ksc_cluster(profiles, 3, seed=7)
        assert _purity(result.assignment, truth, 3) >= 0.9
        assert np.allclose(np.linalg.norm(result.centroids, axis=1), 1.0)
        assert result.proportions.sum() == pytest.approx(1.0)

    def test_objective_non_increasing(self):
        profiles, _ = _planted_profiles(11)
        result = ksc_cluster(profiles, 3, seed=5)
        hist = result.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_all_zero_profiles_excluded(self):
        profiles, _ = _planted_profiles(2, n=20)
        profiles["zzz"] = np.zeros(24)
        with pytest.warns(UserWarning, match="all-zero"):
            result = ksc_cluster(profiles, 2, seed=0)
        assert "zzz" not in result.assignment

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            ksc_cluster({"a": np.ones(24)}, k=2)

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
        best, _ = select_k(profiles, range(2, 6), seed=0)
        assert best.k == 2

    def test_three_planted_prototypes(self):
        profiles, _ = _planted_profiles(9)
        best, asc = select_k(profiles, range(2, 6), seed=9)
        assert best.k == 3
        # the returned clustering is the one ksc_cluster gives for that k
        again = ksc_cluster(profiles, 3, seed=9)
        assert best.assignment == again.assignment
        assert np.array_equal(best.centroids, again.centroids)
        assert best.asc == asc[3]

    def test_identical_users_degenerate(self):
        v = np.zeros(24)
        v[8] = 1.0
        profiles = {f"u{i}": v.copy() for i in range(10)}
        best, asc = select_k(profiles, range(2, 4), seed=0)
        assert best.k == 2  # ties broken toward smaller k

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            select_k({"a": np.ones(24)}, [1, 2], seed=0)


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
        assert metrics[0].delay == 30
        assert metrics[0].trace == 0

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
        assert metrics[0].delay == 30
        assert metrics[0].trace == 2

    def test_unresolvable_original_excluded(self):
        users = [make_user(u) for u in "uv"]
        tweets = [
            Tweet("r1", "u", "reply", 50, responds_to_user="v",
                  responds_to_tweet="gone"),
        ]
        ds = make_dataset(users, [("u", "v")], tweets)
        metrics, excluded = response_metrics(ds)
        assert metrics == []
        assert excluded == 1

    def test_trace_matches_bruteforce_recount(self, small_synth):
        dataset, _ = small_synth
        metrics, _ = response_metrics(dataset)
        assert metrics, "fixture should contain responses"
        by_id = {tw.tweet_id: tw for tw in dataset.tweets}
        for m in metrics:
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


class TestCdf:
    def test_monotone_and_reaches_one(self, small_synth):
        dataset, _ = small_synth
        metrics, _ = response_metrics(dataset)
        table = cdf_table([m.delay for m in metrics])
        fracs = [f for _, f in table]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)
        values = [v for v, _ in table]
        assert values[-1] == max(m.delay for m in metrics)

    def test_empty(self):
        assert cdf_table([]) == []
