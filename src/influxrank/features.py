"""Pairwise response-prediction features and labeled instance construction."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import Dataset
from .temporal import all_profiles

FEATURE_NAMES = (
    "li_v",  # friend's listed count
    "fv_v",  # friend's favourites per tweet
    "vr_v",  # friend verified flag
    "rr_v",  # friend's retweet ratio
    "rr_u",  # follower's retweet ratio
    "re_uv",  # follower ever responded to friend
    "pt_uv",  # friend's share of all tweets by the follower's friends
    "n_v_t",  # friend's tweets-per-day in hour t
    "a_u_t",  # follower's activity share in hour t
    "a_v_t",  # friend's activity share in hour t
    "ja_uv_t",  # joint activity a_u_t * a_v_t
    "ts_uv",  # topic dissimilarity sqrt(2 * JSD)
)
N_FEATURES = len(FEATURE_NAMES)

# column indices used elsewhere
RE_INDEX = FEATURE_NAMES.index("re_uv")
HOURLY_INDICES = tuple(
    FEATURE_NAMES.index(n) for n in ("n_v_t", "a_u_t", "a_v_t", "ja_uv_t")
)


def jensen_shannon_divergence(p, q, base: float = 2.0) -> float:
    """JSD between two probability vectors; bounded by 1 for base 2."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(b[mask]))))

    return (0.5 * kl(p, m) + 0.5 * kl(q, m)) / np.log(base)


def topic_similarity(p, q, base: float = 2.0) -> float:
    return float(np.sqrt(2.0 * jensen_shannon_divergence(p, q, base=base)))


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]

    def __getattr__(self, name):
        try:
            return self.values[FEATURE_NAMES.index(name)]
        except ValueError:
            raise AttributeError(name) from None

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


class FeatureContext:
    """Precomputed per-user and per-edge quantities for fast feature lookup.

    Built once per dataset; all arrays are indexed by the sorted-user order.
    """

    def __init__(self, dataset: Dataset, jsd_base: float = 2.0):
        self.dataset = dataset
        self.jsd_base = jsd_base
        self.user_ids = sorted(dataset.users)
        self.index = {u: i for i, u in enumerate(self.user_ids)}
        n = len(self.user_ids)

        tweet_counts = np.zeros(n)
        retweet_counts = np.zeros(n)
        for tw in dataset.tweets:
            i = self.index[tw.author]
            tweet_counts[i] += 1
            if tw.kind == "retweet":
                retweet_counts[i] += 1
        self.tweet_counts = tweet_counts

        listed = np.array([dataset.users[u].listed_count for u in self.user_ids], float)
        favs = np.array(
            [dataset.users[u].favourites_received for u in self.user_ids], float
        )
        verified = np.array(
            [1.0 if dataset.users[u].verified else 0.0 for u in self.user_ids]
        )
        with np.errstate(invalid="ignore"):
            fv = np.where(tweet_counts > 0, favs / np.maximum(tweet_counts, 1), 0.0)
            rr = np.where(tweet_counts > 0, retweet_counts / np.maximum(tweet_counts, 1), 0.0)
        self.listed = listed
        self.fv = fv
        self.vr = verified
        self.rr = rr

        profiles = all_profiles(dataset)
        self.n_t = np.stack([profiles[u].n_t for u in self.user_ids])  # (n, 24)
        self.a_t = np.stack([profiles[u].a_t for u in self.user_ids])

        self.topics = np.stack(
            [dataset.users[u].topic_distribution for u in self.user_ids]
        )

        # friend-tweet totals per follower: sum of |T_f| over f in F_u
        self.friend_tweet_total = np.array(
            [
                sum(tweet_counts[self.index[f]] for f in dataset.graph.friends(u))
                for u in self.user_ids
            ]
        )

        # responded friends: u -> set of friends u retweeted/replied to
        responded: dict[str, set[str]] = {u: set() for u in self.user_ids}
        for tw in dataset.tweets:
            if tw.is_response and tw.responds_to_user in dataset.users:
                responded[tw.author].add(tw.responds_to_user)
        self.close_friends = {
            u: {v for v in targets if dataset.graph.has_edge(u, v)}
            for u, targets in responded.items()
        }

        # edges in deterministic order
        self.edges = list(dataset.graph.edges())
        self.edge_src = np.array([self.index[u] for u, _ in self.edges], dtype=int)
        self.edge_dst = np.array([self.index[v] for _, v in self.edges], dtype=int)
        self.edge_close = np.array(
            [v in self.close_friends[u] for u, v in self.edges], dtype=bool
        )
        self._edge_static: Optional[np.ndarray] = None

    def ts_uv(self, u: str, v: str) -> float:
        return topic_similarity(
            self.topics[self.index[u]], self.topics[self.index[v]], base=self.jsd_base
        )

    def pt(self, u: str, v: str, friend_total: Optional[float] = None) -> float:
        total = (
            self.friend_tweet_total[self.index[u]]
            if friend_total is None
            else friend_total
        )
        tv = self.tweet_counts[self.index[v]]
        return float(tv / total) if total > 0 else 0.0

    def edge_static_features(self) -> np.ndarray:
        """(n_edges, 12) matrix with the four hourly columns left at zero."""
        if self._edge_static is not None:
            return self._edge_static
        src, dst = self.edge_src, self.edge_dst
        x = np.zeros((len(self.edges), N_FEATURES))
        x[:, 0] = self.listed[dst]
        x[:, 1] = self.fv[dst]
        x[:, 2] = self.vr[dst]
        x[:, 3] = self.rr[dst]
        x[:, 4] = self.rr[src]
        x[:, 5] = self.edge_close.astype(float)
        totals = self.friend_tweet_total[src]
        with np.errstate(divide="ignore", invalid="ignore"):
            pt = np.where(totals > 0, self.tweet_counts[dst] / np.maximum(totals, 1e-300), 0.0)
        x[:, 6] = pt
        # ts_uv from per-topic vectorized JSD
        p = self.topics[src]
        q = self.topics[dst]
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_m = np.log(m, out=np.zeros_like(m), where=m > 0)
            kl_pm = np.where(p > 0, p * (np.log(p, out=np.zeros_like(p), where=p > 0) - log_m), 0.0)
            kl_qm = np.where(q > 0, q * (np.log(q, out=np.zeros_like(q), where=q > 0) - log_m), 0.0)
        jsd = (0.5 * kl_pm.sum(axis=1) + 0.5 * kl_qm.sum(axis=1)) / np.log(self.jsd_base)
        x[:, 11] = np.sqrt(np.maximum(2.0 * jsd, 0.0))
        self._edge_static = x
        return x

    def fill_hourly(self, x: np.ndarray, hours: np.ndarray) -> np.ndarray:
        """Set the four hourly feature columns in place for edge rows x."""
        src, dst = self.edge_src, self.edge_dst
        x[:, 7] = self.n_t[dst, hours]
        x[:, 8] = self.a_t[src, hours]
        x[:, 9] = self.a_t[dst, hours]
        x[:, 10] = x[:, 8] * x[:, 9]
        return x


def extract(
    dataset: Dataset,
    u: str,
    v: str,
    t: int,
    ctx: Optional[FeatureContext] = None,
) -> FeatureVector:
    """Raw (unnormalized) feature vector for follower u, friend v, hour t."""
    if not dataset.graph.has_edge(u, v):
        raise ValueError(f"({u!r}, {v!r}) is not a follow edge")
    if not 0 <= t <= 23:
        raise ValueError("hour must be in [0, 23]")
    if ctx is None:
        ctx = FeatureContext(dataset)
    iu, iv = ctx.index[u], ctx.index[v]
    a_u = ctx.a_t[iu, t]
    a_v = ctx.a_t[iv, t]
    values = (
        float(ctx.listed[iv]),
        float(ctx.fv[iv]),
        float(ctx.vr[iv]),
        float(ctx.rr[iv]),
        float(ctx.rr[iu]),
        1.0 if v in ctx.close_friends[u] else 0.0,
        ctx.pt(u, v),
        float(ctx.n_t[iv, t]),
        float(a_u),
        float(a_v),
        float(a_u * a_v),
        ctx.ts_uv(u, v),
    )
    return FeatureVector(values)


@dataclass
class InstanceSet:
    """Columnar store of labeled (tweet, follower) response instances."""

    keys: list[tuple[str, str, str, int]]  # (tweet_id, follower, friend, hour)
    features: np.ndarray  # (n, 12), raw or normalized
    labels: np.ndarray  # (n,) in {0, 1}

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    @property
    def positive_rate(self) -> float:
        return float(self.labels.mean()) if len(self.keys) else 0.0


def build_instances(
    dataset: Dataset, ctx: Optional[FeatureContext] = None
) -> InstanceSet:
    """One instance per (tweet, follower-of-author) pair.

    Positive iff that follower retweeted/replied to that tweet. Hourly
    features are read off at the tweet's hour. Output is sorted by
    (tweet_id, follower).
    """
    if ctx is None:
        ctx = FeatureContext(dataset)
    responded_pairs: set[tuple[str, str]] = set()
    for tw in dataset.tweets:
        if tw.is_response and tw.responds_to_tweet:
            responded_pairs.add((tw.responds_to_tweet, tw.author))

    static = ctx.edge_static_features()
    edge_lookup = {(u, v): i for i, (u, v) in enumerate(ctx.edges)}

    rows: list[int] = []
    hours: list[int] = []
    keys: list[tuple[str, str, str, int]] = []
    labels: list[int] = []
    for tw in dataset.tweets:
        v = tw.author
        hour = dataset.hour_of(tw.timestamp)
        for u in dataset.graph.followers(v):
            rows.append(edge_lookup[(u, v)])
            hours.append(hour)
            keys.append((tw.tweet_id, u, v, hour))
            labels.append(1 if (tw.tweet_id, u) in responded_pairs else 0)

    order = sorted(range(len(keys)), key=lambda i: (keys[i][0], keys[i][1]))
    rows_a = np.asarray(rows, dtype=int)[order]
    hours_a = np.asarray(hours, dtype=int)[order]
    x = static[rows_a].copy()
    iu, iv = ctx.edge_src[rows_a], ctx.edge_dst[rows_a]
    x[:, 7] = ctx.n_t[iv, hours_a]
    x[:, 8] = ctx.a_t[iu, hours_a]
    x[:, 9] = ctx.a_t[iv, hours_a]
    x[:, 10] = x[:, 8] * x[:, 9]
    return InstanceSet(
        keys=[keys[i] for i in order],
        features=x,
        labels=np.asarray(labels, dtype=int)[order],
    )


@dataclass
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.maxs <= self.mins

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        span = np.where(self.degenerate, 1.0, self.maxs - self.mins)
        out = (x - self.mins) / span
        out[:, self.degenerate] = 0.0
        return np.clip(out, 0.0, 1.0)

    def to_json(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "MinMaxScaler":
        return cls(np.asarray(obj["mins"], float), np.asarray(obj["maxs"], float))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "MinMaxScaler":
        return cls.from_json(json.loads(Path(path).read_text()))


def balance_and_normalize(
    instances: InstanceSet, seed: int = 0
) -> tuple[InstanceSet, MinMaxScaler]:
    """Keep all positives, subsample an equal number of negatives, then fit
    a per-feature min-max scaler on the balanced set.

    Unseen data run through the scaler is clamped to [0, 1].
    """
    pos_idx = np.flatnonzero(instances.labels == 1)
    neg_idx = np.flatnonzero(instances.labels == 0)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("need at least one instance of each class")
    rng = np.random.default_rng(seed)
    n_keep = min(len(pos_idx), len(neg_idx))
    if len(neg_idx) > n_keep:
        neg_idx = rng.choice(neg_idx, size=n_keep, replace=False)
    if len(pos_idx) > n_keep:
        pos_idx = rng.choice(pos_idx, size=n_keep, replace=False)
    keep = np.sort(np.concatenate([pos_idx, neg_idx]))
    x = instances.features[keep]
    scaler = MinMaxScaler(mins=x.min(axis=0), maxs=x.max(axis=0))
    return (
        InstanceSet(
            keys=[instances.keys[i] for i in keep],
            features=scaler.transform(x),
            labels=instances.labels[keep],
        ),
        scaler,
    )
