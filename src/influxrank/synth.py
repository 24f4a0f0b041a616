"""Reproducible synthetic social datasets with planted, testable structure."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
from .model import Dataset, FollowGraph, TweetTable, UserRecord

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


@dataclass
class GeneratorConfig:
    n_users: int = 2000
    follower_exponent: float = 2.5  # in-degree (follower count) power law
    friend_exponent: float = 2.5  # out-degree power law
    min_follower_degree: int = 1
    min_friend_degree: int = 1
    max_degree: Optional[int] = None  # default n_users // 10
    tweet_exponent: float = 2.2
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
    topic_concentration: float = 0.5
    observation_days: int = 28
    response_delay_mean: float = 1200.0  # seconds
    seed: int = 0
    max_retries: int = 20

    def validate(self) -> None:
        if self.n_users < 0:
            raise ValueError("n_users must be >= 0")
        if self.follower_exponent <= 1 or self.friend_exponent <= 1:
            raise ValueError("degree exponents must be > 1")
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
    instance_keys: list[tuple[str, str]]  # (tweet_id, follower)
    instance_probs: np.ndarray
    feature_mins: np.ndarray
    feature_maxs: np.ndarray

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
    cap = config.max_degree or max(1, n // 10)
    lo_in = max(1, config.min_follower_degree)
    lo_out = max(1, config.min_friend_degree)
    in_deg = _power_law_ints(rng, config.follower_exponent, n, lo_in, max(cap, lo_in))
    out_deg = _power_law_ints(rng, config.friend_exponent, n, lo_out, max(cap, lo_out))
    # balance stub totals by growing the smaller side (floors stay intact)
    diff = int(in_deg.sum() - out_deg.sum())
    grow = out_deg if diff > 0 else in_deg
    hi = max(cap, lo_in, lo_out)
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
    for _ in range(config.max_retries):
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Response probability of each (edge row, hour) pair under the planted
    weights, on features min-max scaled over all pairs, plus those bounds.
    The feature matrices are freed on return, before the caller builds the
    final dataset."""
    x = ctx.edge_features(rows, hours)
    x[:, RE_INDEX] = close_mask[rows]
    if not len(x):
        return np.zeros(0), np.zeros(N_FEATURES), np.zeros(N_FEATURES)
    mins, maxs = x.min(axis=0), x.max(axis=0)
    xn = MinMaxScaler(mins, maxs).transform(x)
    z = np.clip(config.w0_star + xn @ config.w_star, -500, 500)
    return 1.0 / (1.0 + np.exp(z)), mins, maxs


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
            instance_keys=[],
            instance_probs=np.zeros(0),
            feature_mins=np.zeros(N_FEATURES),
            feature_maxs=np.zeros(N_FEATURES),
        )
        return empty, truth

    width = max(4, len(str(n - 1)))
    user_ids = [f"u{i:0{width}d}" for i in range(n)]

    edges_idx = _sample_graph(rng, config)
    edges = [(user_ids[a], user_ids[b]) for a, b in edges_idx]

    labels = rng.choice(
        len(config.prototypes), size=n, p=np.asarray(config.prototype_weights)
    )
    tweets_per_user = _power_law_ints(
        rng, config.tweet_exponent, n, config.min_tweets, config.max_tweets
    )

    listed = np.maximum(0, (rng.pareto(1.5, size=n) * 5).astype(int))
    favourites = np.maximum(0, (rng.pareto(1.2, size=n) * 20).astype(int))
    verified = rng.random(n) < 0.05
    topics = rng.dirichlet(
        np.full(config.n_topics, config.topic_concentration), size=n
    )

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

    # originals, drawn per user: one column list per TweetTable field
    ids: list[str] = []
    authors: list[str] = []
    stamps: list[int] = []
    for i, uid in enumerate(user_ids):
        proto = np.asarray(config.prototypes[labels[i]], dtype=float)
        proto = proto / proto.sum()
        m = int(tweets_per_user[i])
        days = rng.integers(0, config.observation_days, size=m)
        hours = rng.choice(24, size=m, p=proto)
        secs = rng.integers(0, 3600, size=m)
        stamps.extend((days * SECONDS_PER_DAY + hours * 3600 + secs).tolist())
        ids.extend(f"t{k:08d}" for k in range(len(ids), len(ids) + m))
        authors.extend([uid] * m)
    n_originals = len(ids)
    kinds = ["original"] * n_originals
    to_users: list[Optional[str]] = [None] * n_originals
    to_tweets: list[Optional[str]] = [None] * n_originals

    graph = FollowGraph(user_ids, edges)
    base = Dataset(
        users=users,
        graph=graph,
        tweets=TweetTable.from_rows(ids, authors, kinds, stamps, to_users, to_tweets,
                                    graph.vertices),
        observation_window=window,
    )
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
    probs, mins, maxs = _planted_probabilities(
        ctx, rows_a, base.hour_of(base.tweets.ts[pair_tweets]), close_mask, config
    )
    base_ids = np.array(base.tweets.tweet_id.tolist(), dtype=object)
    followers = user_objs[graph.src[rows_a]]
    keys = list(zip(base_ids[pair_tweets].tolist(), followers.tolist()))

    draws = rng.random(len(probs))
    responders = np.flatnonzero(draws < probs)
    window_end = window[1]
    originals = pair_tweets[responders]
    for follower, orig_id, orig_author, orig_ts in zip(
        followers[responders].tolist(),
        base_ids[originals].tolist(),
        user_objs[base.tweets.author[originals]].tolist(),
        base.tweets.ts[originals].tolist(),
    ):
        delay = rng.exponential(config.response_delay_mean)
        ids.append(f"t{len(ids):08d}")
        authors.append(follower)
        kinds.append("retweet" if rng.random() < 0.5 else "reply")
        stamps.append(min(int(orig_ts + 1 + delay), window_end))
        to_users.append(orig_author)
        to_tweets.append(orig_id)

    dataset = Dataset(
        users=users,
        graph=graph,
        tweets=TweetTable.from_rows(ids, authors, kinds, stamps, to_users, to_tweets,
                                    graph.vertices),
        observation_window=window,
    )
    truth = GroundTruth(
        prototype_labels={uid: int(labels[i]) for i, uid in enumerate(user_ids)},
        w_star=config.w_star.copy(),
        w0_star=config.w0_star,
        close_edges=close_edges,
        instance_keys=keys,
        instance_probs=probs,
        feature_mins=mins,
        feature_maxs=maxs,
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
        writer.writerow(["summary", "n_instances", len(truth.instance_keys)])
    return path
