"""Reproducible synthetic social datasets with planted, testable structure."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    RE_INDEX,
    FeatureContext,
    MinMaxScaler,
    follower_pairs,
    friend_order,
)
from .logistic import probability_of_score
from .model import ORIGINAL, REPLY, RETWEET, Dataset, FollowGraph, TweetTable, UserRecord

SECONDS_PER_DAY = 86400

# Three default activity prototypes: a broad afternoon/evening plateau, a
# narrow burst around 17:00 and a night-owl 0-4 a.m. shape.
def _prototype(peaks: dict[int, float]) -> np.ndarray:
    v = np.full(24, 0.01)
    for h, w in peaks.items():
        v[h] += w
    return v / v.sum()


DEFAULT_PROTOTYPES = (
    _prototype({h: 1.0 for h in range(14, 22)}),
    _prototype({16: 0.6, 17: 2.5, 18: 0.6}),
    _prototype({h: 1.0 for h in range(0, 5)}),
)
DEFAULT_PROTOTYPE_WEIGHTS = (0.42, 0.13, 0.45)

# Planted logistic weights over the 12-feature space. Probabilities come from
# P = 1/(1 + exp(w0 + w.x)), so negative entries raise response probability.
DEFAULT_W_STAR = np.array(
    [0.3, -0.2, -0.4, -0.3, 0.5, -2.5, -1.5, 1.2, -1.8, -0.6, 0.9, 0.7]
)
DEFAULT_W0_STAR = 2.8

# Generator settings that no caller varies. Degrees are capped at a tenth of
# the users.
FRIEND_EXPONENT = 2.5  # out-degree power law
MIN_FRIEND_DEGREE = 1
TWEET_EXPONENT = 2.2
TOPIC_CONCENTRATION = 0.5
RESPONSE_DELAY_MEAN = 1200.0  # seconds
MAX_RETRIES = 20


@dataclass
class GeneratorConfig:
    n_users: int = 2000
    follower_exponent: float = 2.5  # in-degree (follower count) power law
    min_follower_degree: int = 1
    min_tweets: int = 20
    max_tweets: int = 400
    prototypes: tuple = DEFAULT_PROTOTYPES
    prototype_weights: tuple = DEFAULT_PROTOTYPE_WEIGHTS
    w_star: np.ndarray = field(default_factory=lambda: DEFAULT_W_STAR.copy())
    w0_star: float = DEFAULT_W0_STAR
    close_fraction: float = 0.1
    # >0 skews close edges toward low-follower friends (weight 1/in_deg^bias)
    close_low_follower_bias: float = 0.0
    n_topics: int = 4
    observation_days: int = 28
    seed: int = 0

    def validate(self) -> None:
        if self.n_users < 0:
            raise ValueError("n_users must be >= 0")
        # written so that NaN, which every comparison rejects, fails them
        if not self.follower_exponent > 1:
            raise ValueError("degree exponents must be > 1")
        if not 0 <= self.close_fraction <= 1:
            raise ValueError("close_fraction must be in [0, 1]")
        if self.observation_days < 1:
            raise ValueError("observation_days must be >= 1")
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if abs(sum(self.prototype_weights) - 1.0) > 1e-9:
            raise ValueError("prototype weights must sum to 1")
        if len(self.prototypes) != len(self.prototype_weights):
            raise ValueError("prototype/weight length mismatch")
        if len(self.w_star) != N_FEATURES:
            raise ValueError(f"w_star must have {N_FEATURES} entries")


@dataclass
class GroundTruth:
    prototype_labels: dict[str, int]
    w_star: np.ndarray
    w0_star: float
    close_edges: set[tuple[str, str]]
    instance_probs: np.ndarray  # per (original tweet, follower) pair, in tweet order

    @property
    def expected_positives(self) -> float:
        return float(self.instance_probs.sum())


def _power_law_ints(rng, exponent: float, size: int, lo: int, hi: int) -> np.ndarray:
    """Discrete samples with P(k) proportional to k^-exponent on [lo, hi]."""
    ks = np.arange(lo, hi + 1, dtype=float)
    probs = ks ** (-exponent)
    probs /= probs.sum()
    return rng.choice(np.arange(lo, hi + 1), size=size, p=probs)


def _sample_graph(rng, config: GeneratorConfig) -> list[tuple[int, int]]:
    """Directed configuration model via stub matching with rewiring of
    self-loops/duplicates; leftover bad stubs are dropped after the retry cap
    if they are rare, otherwise the sequence is declared infeasible."""
    n = config.n_users
    cap = max(1, n // 10)
    lo_in = max(1, config.min_follower_degree)
    hi = max(cap, lo_in)
    in_deg = _power_law_ints(rng, config.follower_exponent, n, lo_in, hi)
    out_deg = _power_law_ints(rng, FRIEND_EXPONENT, n, MIN_FRIEND_DEGREE, cap)
    # balance stub totals by growing the smaller side (floors stay intact)
    diff = int(in_deg.sum() - out_deg.sum())
    grow = out_deg if diff > 0 else in_deg
    while diff != 0:
        i = int(rng.integers(n))
        if grow[i] < hi:
            grow[i] += 1
            diff += -1 if diff > 0 else 1

    in_stubs = np.repeat(np.arange(n), in_deg)
    out_stubs = np.repeat(np.arange(n), out_deg)
    rng.shuffle(in_stubs)
    edges: set[tuple[int, int]] = set()
    pending = list(zip(out_stubs, in_stubs))
    for _ in range(MAX_RETRIES):
        bad = []
        for u, v in pending:
            if u == v or (int(u), int(v)) in edges:
                bad.append((u, v))
            else:
                edges.add((int(u), int(v)))
        if not bad:
            return sorted(edges)
        us = np.array([b[0] for b in bad])
        vs = np.array([b[1] for b in bad])
        rng.shuffle(vs)
        pending = list(zip(us, vs))
    if len(pending) > max(1, len(edges) // 100):
        raise ValueError(
            f"degree sequence infeasible: {len(pending)} unplaceable stubs"
        )
    return sorted(edges)


def _planted_probabilities(
    ctx: FeatureContext,
    rows: np.ndarray,
    hours: np.ndarray,
    close_mask: np.ndarray,
    config: GeneratorConfig,
) -> np.ndarray:
    """Response probability of each (edge row, hour) pair under the planted
    weights, on features min-max scaled over all pairs.
    The feature matrices are freed on return, before the caller builds the
    final dataset."""
    x = ctx.edge_features(rows, hours)
    x[:, RE_INDEX] = close_mask[rows]
    if not len(x):
        return np.zeros(0)
    mins, maxs = x.min(axis=0), x.max(axis=0)
    xn = MinMaxScaler(mins, maxs).transform(x)
    return probability_of_score(config.w0_star + xn @ config.w_star)


def _tweet_ids(start: int, stop: int) -> np.ndarray:
    """The ids t{k:08d} for k in range(start, stop), as a string column."""
    digits = np.arange(start, stop).astype(f"U{len(str(stop))}")
    return np.char.add("t", np.char.zfill(digits, 8))


def _table(users, tweet_id, author, kind, ts, to_user, to_tweet) -> TweetTable:
    """A TweetTable whose every reference is a row: author and to_user of
    users, to_tweet of this table, and -1 where a target is absent. So its
    side tables are empty."""
    no_names = np.array([], dtype=str)
    return TweetTable(
        tweet_id=tweet_id, author=author.astype(np.int32), kind=kind.astype(np.int8),
        ts=ts, to_user=to_user.astype(np.int32), has_to_user=to_user >= 0,
        to_tweet=to_tweet.astype(np.int32), has_to_tweet=to_tweet >= 0,
        users=users, other_users=no_names, unknown_tweets=no_names,
    )


def generate(config: GeneratorConfig) -> tuple[Dataset, GroundTruth]:
    """Sample a dataset with planted degrees, activity shapes, topics and
    logistic response behaviour; returns the dataset plus the ground truth
    needed by oracle tests.

    Responses are sampled per (original tweet, follower) pair with
    probability from the planted weights applied to population-min-max
    normalized features; close edges enter with the ever-responded feature
    set to 1, which boosts their realized response rate.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_users
    window = (0, config.observation_days * SECONDS_PER_DAY)
    if n == 0:
        empty = Dataset(
            users={}, graph=FollowGraph([], []), tweets=[], observation_window=window
        )
        truth = GroundTruth(
            prototype_labels={},
            w_star=config.w_star.copy(),
            w0_star=config.w0_star,
            close_edges=set(),
            instance_probs=np.zeros(0),
        )
        return empty, truth

    width = max(4, len(str(n - 1)))
    # zero-padded, so user i is row i of the sorted ids
    user_ids = [f"u{i:0{width}d}" for i in range(n)]

    edges = [(user_ids[a], user_ids[b]) for a, b in _sample_graph(rng, config)]

    labels = rng.choice(
        len(config.prototypes), size=n, p=np.asarray(config.prototype_weights)
    )
    tweets_per_user = _power_law_ints(rng, TWEET_EXPONENT, n, config.min_tweets, config.max_tweets)

    listed = np.maximum(0, (rng.pareto(1.5, size=n) * 5).astype(int))
    favourites = np.maximum(0, (rng.pareto(1.2, size=n) * 20).astype(int))
    verified = rng.random(n) < 0.05
    topics = rng.dirichlet(np.full(config.n_topics, TOPIC_CONCENTRATION), size=n)

    users = {
        uid: UserRecord(
            user_id=uid,
            listed_count=int(listed[i]),
            favourites_received=int(favourites[i]),
            verified=bool(verified[i]),
            topic_distribution=tuple(float(x) for x in topics[i]),
        )
        for i, uid in enumerate(user_ids)
    }

    # originals, drawn per user; tweet k is t{k:08d}
    stamps = []
    for i in range(n):
        proto = np.asarray(config.prototypes[labels[i]], dtype=float)
        proto = proto / proto.sum()
        m = int(tweets_per_user[i])
        days = rng.integers(0, config.observation_days, size=m)
        hours = rng.choice(24, size=m, p=proto)
        secs = rng.integers(0, 3600, size=m)
        stamps.append(days * SECONDS_PER_DAY + hours * 3600 + secs)
    n_originals = int(tweets_per_user.sum())
    absent = np.full(n_originals, -1)

    graph = FollowGraph(user_ids, edges)
    user_col = np.array(graph.vertices, dtype=str)
    base = Dataset(users, graph, _table(
        user_col, _tweet_ids(0, n_originals), np.repeat(np.arange(n), tweets_per_user),
        np.full(n_originals, ORIGINAL), np.concatenate(stamps), absent, absent,
    ), window)
    ctx = FeatureContext(base)

    if config.close_low_follower_bias > 0:
        in_deg_v = np.bincount(graph.dst, minlength=n)[graph.dst].astype(float)
        w = in_deg_v ** (-config.close_low_follower_bias)
        p_close = np.minimum(1.0, config.close_fraction * w / w.mean())
    else:
        p_close = np.full(graph.n_edges, config.close_fraction)
    close_mask = rng.random(graph.n_edges) < p_close
    # ids as arrays of shared str objects: a key costs one tuple, not new strings
    user_objs = np.array(graph.vertices, dtype=object)
    close_edges = set(zip(user_objs[graph.src[close_mask]].tolist(),
                          user_objs[graph.dst[close_mask]].tolist()))

    # features for every (original tweet, follower) pair, in tweet order
    pair_tweets, rows_a = follower_pairs(base, np.arange(n_originals), friend_order(ctx))
    originals = base.tweets
    probs = _planted_probabilities(
        ctx, rows_a, base.hour_of(originals.ts[pair_tweets]), close_mask, config
    )

    responders = np.flatnonzero(rng.random(len(probs)) < probs)
    # two draws per response, in this order: its delay, then its kind
    delay, coin = np.fromiter(
        (x for _ in responders for x in (rng.exponential(RESPONSE_DELAY_MEAN), rng.random())),
        float, 2 * len(responders),
    ).reshape(-1, 2).T
    # each column: the original rows, then the responses, each naming its original's row
    parent = pair_tweets[responders]
    responses = (
        _tweet_ids(n_originals, n_originals + len(parent)),
        graph.src[rows_a[responders]],
        np.where(coin < 0.5, RETWEET, REPLY),
        # every time is below 2^53, so the float sum and truncation are exact
        np.minimum((originals.ts[parent] + 1 + delay).astype(np.int64), window[1]),
        originals.author[parent],
        parent,
    )
    columns = (originals.tweet_id, originals.author, originals.kind, originals.ts,
               originals.to_user, originals.to_tweet)
    dataset = Dataset(
        users, graph, _table(user_col, *map(np.concatenate, zip(columns, responses))), window
    )
    truth = GroundTruth(
        prototype_labels={uid: int(labels[i]) for i, uid in enumerate(user_ids)},
        w_star=config.w_star.copy(),
        w0_star=config.w0_star,
        close_edges=close_edges,
        instance_probs=probs,
    )
    return dataset, truth


def truth_report(truth: GroundTruth, path: str | Path) -> Path:
    """CSV dump of the planted quantities used by oracle tests."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "key", "value"])
        writer.writerow(["intercept", "w0", f"{truth.w0_star:.12g}"])
        for name, w in zip(FEATURE_NAMES, truth.w_star):
            writer.writerow(["weight", name, f"{w:.12g}"])
        for uid in sorted(truth.prototype_labels):
            writer.writerow(["prototype", uid, truth.prototype_labels[uid]])
        for u, v in sorted(truth.close_edges):
            writer.writerow(["close_edge", u, v])
        writer.writerow(
            ["summary", "expected_positives", f"{truth.expected_positives:.12g}"]
        )
        writer.writerow(["summary", "n_instances", len(truth.instance_probs)])
    return path
