"""Pairwise response-prediction features and labeled instance construction."""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .model import ORIGINAL, RETWEET, Dataset
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
PT_INDEX = FEATURE_NAMES.index("pt_uv")
# the four columns that depend on the hour t, in FeatureContext.fill_hourly order
HOURLY_INDICES = tuple(FEATURE_NAMES.index(f) for f in ("n_v_t", "a_u_t", "a_v_t", "ja_uv_t"))


def js_divergence_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence, base 2, between matching rows of p and q.

    Rows are probability vectors and may hold zeros; each result lies in
    [0, 1].
    """
    m = 0.5 * (p + q)
    log_m = np.log(m, out=np.zeros_like(m), where=m > 0)
    kl_pm = np.where(p > 0, p * (np.log(p, out=np.zeros_like(p), where=p > 0) - log_m), 0.0)
    kl_qm = np.where(q > 0, q * (np.log(q, out=np.zeros_like(q), where=q > 0) - log_m), 0.0)
    return (0.5 * kl_pm.sum(axis=1) + 0.5 * kl_qm.sum(axis=1)) / np.log(2.0)


class FeatureContext:
    """Precomputed per-user and per-edge quantities for fast feature lookup.

    Built once per dataset; all arrays are indexed by the sorted-user order.
    ``user_ids`` and ``index`` are the graph's own ``FollowGraph.vertices``
    and ``index``, and the edge arrays ``edge_src`` and ``edge_dst`` its
    ``src`` and ``dst``, one row per edge in ``graph.edges()`` order.

    The context is read-only once built: callers must not write to its
    arrays. It memoises what is derived from them: the static edge
    features (``edge_static_features``) and, in ``walks``, the converged
    hourly and topic walk vectors of ``ranking.tir_rank`` and
    ``ranking.twitterrank`` (see ``ranking._walk_sum``), which all
    share ``walk_ids``, the user ids as one tuple.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        graph = dataset.graph
        self.user_ids, self.index = graph.vertices, graph.index
        self.edge_src, self.edge_dst = graph.src, graph.dst
        n = len(self.user_ids)

        tweets = dataset.tweets
        authors, kinds = tweets.author, tweets.kind
        tweet_counts = np.bincount(authors, minlength=n).astype(float)
        retweet_counts = np.bincount(authors[kinds == RETWEET], minlength=n).astype(float)
        self.tweet_counts = tweet_counts

        records = [dataset.users[u] for u in self.user_ids]
        listed = np.array([r.listed_count for r in records], float)
        favs = np.array([r.favourites_received for r in records], float)
        verified = np.array([1.0 if r.verified else 0.0 for r in records])
        with np.errstate(invalid="ignore"):
            fv = np.where(tweet_counts > 0, favs / np.maximum(tweet_counts, 1), 0.0)
            rr = np.where(tweet_counts > 0, retweet_counts / np.maximum(tweet_counts, 1), 0.0)
        self.listed = listed
        self.fv = fv
        self.vr = verified
        self.rr = rr

        profiles = all_profiles(dataset)
        self.n_t, self.a_t = profiles.n_t, profiles.a_t  # (n, 24)
        self.hour_counts = profiles.raw_counts.sum(axis=0)  # tweets per hour, all users

        self.topics = np.stack([r.topic_distribution for r in records])

        # friend-tweet totals per follower: sum of |T_f| over f in F_u
        self.friend_tweet_total = np.bincount(
            self.edge_src, weights=tweet_counts[self.edge_dst], minlength=n
        )
        # close friends: the edges whose follower retweeted or replied to the friend
        replied = (kinds != ORIGINAL) & (tweets.to_user >= 0)
        self.edge_close = np.isin(
            self.edge_src * n + self.edge_dst,
            authors[replied].astype(np.intp) * n + tweets.to_user[replied],
        )
        self._edge_static: Optional[np.ndarray] = None
        self.walk_ids = tuple(self.user_ids)
        self.walks: OrderedDict = OrderedDict()

    def edge_static_features(self) -> np.ndarray:
        """(n_edges, 12) matrix with the four hourly columns left at zero."""
        if self._edge_static is not None:
            return self._edge_static
        src, dst = self.edge_src, self.edge_dst
        x = np.zeros((len(src), N_FEATURES))
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
        jsd = js_divergence_rows(self.topics[src], self.topics[dst])
        x[:, 11] = np.sqrt(np.maximum(2.0 * jsd, 0.0))
        self._edge_static = x
        return x

    def fill_hourly(self, rows: np.ndarray, hours, out):
        """Write the hourly features n_v_t, a_u_t, a_v_t and ja_uv_t of edge
        rows ``rows`` into the four arrays of ``out`` and return it. ``hours``
        is one hour for all rows or one per row (each array of shape
        (len(rows),)), or ``slice(None)`` for all 24 (each (len(rows), 24))."""
        src, dst = self.edge_src[rows], self.edge_dst[rows]
        n_v, a_u, a_v, ja = out
        n_v[...] = self.n_t[dst, hours]
        a_u[...] = self.a_t[src, hours]
        a_v[...] = self.a_t[dst, hours]
        np.multiply(a_u, a_v, out=ja)
        return out

    def edge_features(self, rows: np.ndarray, hours) -> np.ndarray:
        """(len(rows), 12) features of edge rows ``rows`` at ``hours`` (one
        hour for all rows, or one per row): a new array, which callers may
        modify."""
        x = self.edge_static_features()[rows]
        self.fill_hourly(rows, hours, [x[:, j] for j in HOURLY_INDICES])
        return x


# odd 64-bit multiplier (2^64 / golden ratio) of the row hash
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# rows hashed or compared per pass: bounds the feature rows held at once
_BLOCK_ROWS = 1 << 12


def _row_bits(rows_of: Callable[[np.ndarray], np.ndarray], index: np.ndarray) -> np.ndarray:
    """The bits of rows ``rows_of(index)``, one uint64 per value."""
    return np.ascontiguousarray(rows_of(index), dtype=float).view(np.uint64)


def _group_starts(rows_of: Callable[[np.ndarray], np.ndarray], order: np.ndarray) -> np.ndarray:
    """Whether each row of ``rows_of(order)`` differs in its bits from the
    row before it (the first always does), a block of rows at a time."""
    starts = np.ones(len(order), dtype=bool)
    for lo in range(1, len(order), _BLOCK_ROWS):
        bits = _row_bits(rows_of, order[lo - 1 : lo + _BLOCK_ROWS])
        starts[lo : lo + len(bits) - 1] = (bits[1:] != bits[:-1]).any(axis=1)
    return starts


def equal_row_groups(
    n: int, rows_of: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(first, group): a row of each group and the (int32) group of each
    row, of the n float rows that ``rows_of(index)`` gives for an index
    array, where a group holds the rows with equal bits; -0.0 and each NaN
    keep their own. ``first`` holds each group's lowest row.

    Groups are numbered in the order of a hash of their bits and then of
    the bits themselves, so the numbering depends only on which rows occur:
    any n rows that hold the same distinct rows give the same rows
    ``rows_of(first)`` in the same order. The rows are asked for
    ``_BLOCK_ROWS`` at a time, once to hash them and once, in hash order, to
    compare neighbours, so no (n, 12) matrix is built unless two unequal
    rows share a hash: then all n rows are sorted by their bits as well.
    """
    h = np.zeros(n, dtype=np.uint64)
    for lo in range(0, n, _BLOCK_ROWS):
        part = h[lo : lo + _BLOCK_ROWS]
        for column in _row_bits(rows_of, np.arange(lo, lo + len(part))).T:
            part ^= column
            part *= _HASH_MULTIPLIER
            part ^= part >> np.uint64(29)
    order = np.argsort(h, kind="stable")
    starts = _group_starts(rows_of, order)
    if (starts[1:] & (h[order[1:]] == h[order[:-1]])).any():
        # unequal rows share a hash: sort by the bits as well, so that equal
        # rows are neighbours and the groups come in (hash, bits) order
        x = np.ascontiguousarray(rows_of(np.arange(n)), dtype=float)
        order = np.lexsort(np.vstack([x.view(np.uint64).T[::-1], h]))
        starts = _group_starts(x.__getitem__, order)
    group = np.empty(n, dtype=np.int32)
    group[order] = np.cumsum(starts, dtype=np.int32)
    group -= 1
    return order[starts], group


@dataclass
class InstanceSet:
    """Columnar store of labeled (tweet, follower) response instances.

    Each row of ``keys`` is one instance's (tweet, follower, friend, hour):
    the tweet column indexes ``tweet_ids``, the sorted ids of the tweets
    that occur, and the follower and friend columns index ``user_ids``.
    Both are sorted, so key rows sort in the order of the id tuples they
    stand for.

    The id tables are referenced, not owned. A built set reads its tweet
    ids off the dataset's own ``tweets.tweet_id`` (``tweet_table``) through
    ``tweet_rows``, the int32 row of each tweet code in it; a parsed set
    holds the sorted table it read as ``tweet_table``, with ``tweet_rows``
    None. A set that ``cli.load_instances_csv`` gives holds no id table
    (``tweet_table`` and ``user_ids`` are None), as ``instances.npz`` holds
    none: its keys were checked against the tables' lengths alone, and
    asking it for ids raises ValueError.

    Features are a function of (edge, hour), so they repeat: ``rows`` holds
    feature rows and ``row_of`` the row of each instance, and every row is
    some instance's. Built or loaded, the rows are distinct and in the order
    of ``equal_row_groups``.
    """

    keys: np.ndarray  # (n, 4) int32: (tweet, follower, friend, hour)
    rows: np.ndarray  # (R, 12), raw or normalized
    row_of: np.ndarray  # (n,) int32: index into rows
    labels: np.ndarray  # (n,) int8 in {0, 1}
    tweet_table: Optional[np.ndarray]  # str: the tweet ids, a table holding them, or None
    user_ids: Optional[np.ndarray]  # str, sorted, or None
    tweet_rows: Optional[np.ndarray] = None  # int32 row of each tweet code in tweet_table

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def features(self) -> np.ndarray:
        """(n, 12) features of each instance: a new array."""
        return self.rows[self.row_of]

    @property
    def n_tweets(self) -> int:
        """The number of tweet codes."""
        table = self.tweet_table if self.tweet_rows is None else self.tweet_rows
        return len(table)

    def tweet_ids_of(self, codes) -> np.ndarray:
        """The ids of tweet codes ``codes``, an index array or a slice."""
        if self.tweet_table is None:
            raise ValueError("this instance set holds no id tables: it was loaded for "
                             "its keys, rows and labels alone")
        if self.tweet_rows is not None:
            codes = self.tweet_rows[codes]
        return self.tweet_table[codes]

    @property
    def tweet_ids(self) -> np.ndarray:
        """The sorted ids of all tweet codes: for a built set, a new array."""
        return self.tweet_ids_of(slice(None))


def friend_order(ctx: FeatureContext) -> tuple[np.ndarray, np.ndarray]:
    """(rows, bounds): edge rows ordered by friend, then follower; friend v's
    are rows[bounds[v]:bounds[v + 1]]."""
    rows = np.lexsort((ctx.edge_src, ctx.edge_dst))
    degree = np.bincount(ctx.edge_dst, minlength=len(ctx.user_ids))
    return rows, np.concatenate(([0], np.cumsum(degree)))


def follower_pairs(
    dataset: Dataset, tweet_rows: np.ndarray, order: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Every (tweet, follower of its author) pair as (tweet row, edge row):
    tweets in the order of ``tweet_rows``, and each tweet's followers in
    user-id order. ``order`` is ``friend_order(ctx)``."""
    by_friend, lo = order
    authors = dataset.tweets.author[tweet_rows]
    per_tweet = np.diff(lo)[authors]
    starts = np.repeat(lo[authors] - (np.cumsum(per_tweet) - per_tweet), per_tweet)
    pairs = np.repeat(np.asarray(tweet_rows, dtype=np.intp), per_tweet)
    return pairs, by_friend[starts + np.arange(len(starts))]


# tweets walked per pass of build_instances: bounds the pair arrays held at once
_INSTANCE_TWEETS = 1 << 13


def build_instances(
    dataset: Dataset, ctx: Optional[FeatureContext] = None
) -> InstanceSet:
    """One instance per (tweet, follower-of-author) pair.

    Positive iff that follower retweeted/replied to that tweet. Hourly
    features are read off at the tweet's hour. Output is sorted by
    (tweet_id, follower).

    The tweets are walked in id order, a block at a time, and each block's
    keys, labels and (edge, hour) codes go into arrays sized up front. The
    feature rows of the distinct codes are never all held at once: they are
    grouped a block at a time, and only each group's first is kept.
    """
    if ctx is None:
        ctx = FeatureContext(dataset)
    n = len(ctx.user_ids)
    order = friend_order(ctx)
    # tweet ids are unique, so tweet-id order then follower order is the
    # (tweet_id, follower) order; the instances of the tweet at position i of
    # id_order are end[i] - per_tweet[i]:end[i]
    id_order = dataset.id_order
    author = dataset.tweets.author
    per_tweet = np.diff(order[1])[author[id_order]]
    end = np.cumsum(per_tweet)
    # key codes index only the tweets and users that occur: the tweets whose
    # author has a follower, and both ends of the edges whose friend tweets
    used_tweets, tweet_code = _used_codes(len(id_order), np.flatnonzero(per_tweet))
    live = ctx.tweet_counts[ctx.edge_dst] > 0
    used_users, user_code = _used_codes(n, ctx.edge_src[live], ctx.edge_dst[live])
    parent = dataset.tweets.to_tweet
    responses = (dataset.tweets.kind != ORIGINAL) & (parent >= 0)
    responded = np.unique(parent[responses].astype(np.intp) * n + author[responses])

    size = int(end[-1]) if len(end) else 0
    keys = np.empty((size, 4), dtype=np.int32)
    labels = np.empty(size, dtype=np.int8)
    edge_hour = np.empty(size, dtype=np.int32)
    for lo in range(0, len(id_order), _INSTANCE_TWEETS):
        hi = min(lo + _INSTANCE_TWEETS, len(id_order))
        at = slice(int(end[lo] - per_tweet[lo]), int(end[hi - 1]))
        tweets, edges = follower_pairs(dataset, id_order[lo:hi], order)
        followers, friends = ctx.edge_src[edges], ctx.edge_dst[edges]
        hours = dataset.hour_of(dataset.tweets.ts[tweets])
        labels[at] = _in_sorted(tweets * n + followers, responded)
        keys[at, 0] = np.repeat(tweet_code[lo:hi], per_tweet[lo:hi])
        keys[at, 1] = user_code[followers]
        keys[at, 2] = user_code[friends]
        keys[at, 3] = hours
        edge_hour[at] = edges * 24 + hours
    del per_tweet, end, tweet_code, user_code, responded
    # features of each distinct (edge, hour), computed a block at a time to
    # group them by their bits, and kept only for each group's first
    codes, code = _used_codes(len(ctx.edge_src) * 24, edge_hour)

    def rows_of(index: np.ndarray) -> np.ndarray:
        return ctx.edge_features(*np.divmod(codes[index], 24))

    first, group = equal_row_groups(len(codes), rows_of)
    # each instance's row, written over its (edge, hour)
    row_of = edge_hour
    for lo in range(0, size, _BLOCK_ROWS):
        part = row_of[lo : lo + _BLOCK_ROWS]
        part[:] = group[code[part]]
    del code, group
    return InstanceSet(
        keys=keys,
        rows=rows_of(first),
        row_of=row_of,
        labels=labels,
        tweet_table=dataset.tweets.tweet_id,
        user_ids=dataset.user_ids[used_users],
        tweet_rows=id_order[used_tweets].astype(np.int32),
    )


def _in_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.isin(values, keys) for sorted keys, by a binary search of each
    value instead of np.isin's sort of both arrays together."""
    if not keys.size:
        return np.zeros(values.shape, dtype=bool)
    at = np.searchsorted(keys, values)
    np.minimum(at, len(keys) - 1, out=at)
    return keys[at] == values


def _used_codes(size: int, *values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(used, code): the distinct ints in ``values``, each in [0, size),
    in order, and for each int in [0, size) its (int32) index among them. As
    np.unique with return_inverse, by a mask instead of a sort."""
    mask = np.zeros(size, dtype=bool)
    for v in values:
        mask[v] = True
    code = np.cumsum(mask, dtype=np.int32)
    code -= 1
    return np.flatnonzero(mask), code


@dataclass
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray

    def transform(self, x: np.ndarray, column: Optional[int] = None) -> np.ndarray:
        """Scale rows of all features into [0, 1]; with ``column``, scale an
        array of any shape that holds values of that one feature. A
        degenerate feature (max <= min) scales to 0."""
        if column is None:
            x = np.atleast_2d(np.asarray(x, dtype=float))
            mins, maxs = self.mins, self.maxs
        else:
            x = np.asarray(x, dtype=float)
            mins, maxs = self.mins[column], self.maxs[column]
        degenerate = maxs <= mins
        span = np.where(degenerate, 1.0, maxs - mins)
        return np.clip(np.where(degenerate, 0.0, (x - mins) / span), 0.0, 1.0)

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

    The balanced set holds only the rows its instances use, scaled. Unseen
    data run through the scaler is clamped to [0, 1].
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
    # only the rows that kept instances use: min and max over them are min
    # and max over the kept instances
    kept_rows = instances.row_of[keep]
    used, code = _used_codes(len(instances.rows), kept_rows)
    x = instances.rows[used]
    scaler = MinMaxScaler(mins=x.min(axis=0), maxs=x.max(axis=0))
    return (
        replace(instances, keys=instances.keys[keep], rows=scaler.transform(x),
                row_of=code[kept_rows], labels=instances.labels[keep]),
        scaler,
    )
