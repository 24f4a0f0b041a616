"""Reference implementations that tests compare the package against.

The scalar ones compute one value at a time, directly from its definition.
The TIR weight loop, the sparse-product matrix assembly and the plain power
iteration are the straightforward forms the vectorised ranking code replaced:
one feature fill per hour and scipy's own COO -> CSC -> product path. The
per-tweet loops over ``Tweet`` records (profiles, global activity, response
metrics, instances) are the forms the column code in ``temporal`` and
``features`` replaced. ``hourly_profile_loop`` returns the oracle's own
per-user record, ``HourlyProfile``, where ``temporal.all_profiles`` gives one
``ProfileTable`` row per user. ``serialize_loop`` is the
one-``json.dumps``-per-record JSONL writer that the line templates of
``model.serialize`` replaced, and ``silhouette_loop`` is the per-point
silhouette over a whole distance matrix.
``pairwise_shape_distance`` (the whole n×n shape-distance matrix) and
``silhouette_by_cluster`` (one pass per cluster over that matrix) are the
forms that the row-blocked ``temporal._shape_distance_rows`` and
``temporal._silhouettes`` replaced. ``write_instances_loop`` is the
value-at-a-time ``instances.csv`` writer that ``cli.write_instances``
replaced, ``equal_row_groups_whole`` the grouping of a whole feature
matrix that the row-blocked ``features.equal_row_groups`` replaced, and
``stratified_folds_loop`` the id-tuple sort that the integer keys of ``logistic._stratified_folds`` replaced. ``ksc_distance`` is the K-SC
shape distance of one pair, from its definition. ``aggregate`` is the
convex combination of 24 hourly rank vectors (None at a zero-weight
hour) that ``ranking._walk_sum`` replaced in ``tir_rank``. ``dense`` and
``planted_instances`` serve only tests, and so do ``is_response``,
``positive_count``, ``positive_rate`` and ``loglog_slope`` (the degree-law
fit of criterion 11). ``FollowGraphLoop`` is the dict-of-lists follow
graph, validated edge by edge, that the index arrays of ``model.FollowGraph``
replaced. ``log_loss_gradient`` is the per-row gradient that
``logistic.grouped_log_loss_gradient`` replaced in training. The
follow-graph loops (friend tweet totals, close friends, reciprocity, degree
counts, edge rows) walk ``graph.friends``/``followers``/``has_edge``/
``edges()`` user by user: the forms that the array code over
``FollowGraph.src``/``dst`` replaced. The
link-removal oracles score one removed link at a time against all of a
model's factorisations, which ``link_solvers`` builds and holds together
(``solve_with_column_loop`` is the single-column solve that
``ColumnUpdateSolver.solve_with_columns`` replaced; ``ColamdSolver`` is
scipy's default factor in user order, which the follow graph's shared
elimination order replaced), draw candidates with a sort of the ids
(``sample_candidates_loop``) and count Q from the score dictionary
(``q_score_dict``); ``run_scenarios_loop`` is the protocol built from them,
link by link and scenario by scenario.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from influxrank.evaluation import (
    SCENARIO_TAGS,
    ColumnUpdateSolver,
    TirLinkScorer,
    TunkRankLinkScorer,
    TwitterRankLinkScorer,
    _sub_seed,
    build_link_sets,
)
from influxrank import features as feature_module
from influxrank.features import FEATURE_NAMES, RE_INDEX, FeatureContext, InstanceSet
from influxrank.logistic import (
    LogisticModel,
    _stratified_folds,
    response_probability,
    train,
)
from influxrank.model import SECONDS_PER_DAY, TWEET_KINDS, Dataset, Tweet, ValidationError
from influxrank.ranking import (
    RankVector,
    TransitionMatrix,
    _edge_weights_all_hours,
    build_matrix,
    check_tunkrank_fixed_point,
    normalise_weights,
    personal_weights,
    twitterrank_matrices,
)
from influxrank.synth import DEFAULT_W_STAR
from influxrank.temporal import ResponseColumns


def aggregate(
    rank_vectors: Sequence[Optional[RankVector]],
    weights: Sequence[float],
    model: str = "tir",
    params: Optional[dict] = None,
) -> RankVector:
    """Convex combination of 24 hourly rank vectors; weights are renormalized.

    An hour of weight 0 adds nothing, so its rank vector may be None: a
    ranking need not compute it. None where the weight is positive raises
    ValueError. Leaving a zero-weight hour out changes no bit of the result:
    the running sum starts at +0.0, so it is never -0.0, and adding the zero
    0 * r (r finite) to it leaves it as it is."""
    if len(rank_vectors) != 24 or len(weights) != 24:
        raise ValueError("expected 24 hourly rank vectors and 24 weights")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    if any(rv is None for rv, wt in zip(rank_vectors, w) if wt > 0):
        raise ValueError("an hour with positive weight has no rank vector")
    w = normalise_weights(w)
    present = [(wt, rv) for wt, rv in zip(w, rank_vectors) if rv is not None]
    user_ids = present[0][1].user_ids
    scores = np.zeros(len(user_ids))
    for wt, rv in present:
        if rv.user_ids is not user_ids and rv.user_ids != user_ids:
            raise ValueError("hourly rank vectors cover different user sets")
        scores += wt * rv.scores
    return RankVector(
        user_ids=user_ids, scores=scores, hour=None, model=model, params=params or {}
    )


def is_response(tweet: Tweet) -> bool:
    return tweet.kind in ("retweet", "reply")


def positive_count(instances: InstanceSet) -> int:
    return int(instances.labels.sum())


def positive_rate(instances: InstanceSet) -> float:
    return float(instances.labels.mean()) if len(instances) else 0.0


def loglog_slope(values, n_bins: int = 12) -> float:
    """Least-squares slope of log density vs log value on logarithmic bins.

    For samples from a power law p(k) ~ k^-a the slope estimates -a.
    """
    vals = np.asarray([v for v in values if v >= 1], dtype=float)
    if vals.size < 10:
        raise ValidationError("too few positive samples for a slope fit")
    lo, hi = vals.min(), vals.max()
    if hi <= lo:
        raise ValidationError("degenerate sample range")
    edges = np.logspace(math.log10(lo), math.log10(hi), n_bins + 1)
    edges[0] *= 0.999
    edges[-1] *= 1.001
    counts, edges = np.histogram(vals, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    mask = counts > 0
    if mask.sum() < 3:
        raise ValidationError("too few populated bins for a slope fit")
    density = counts[mask] / widths[mask]
    slope, _ = np.polyfit(np.log(centers[mask]), np.log(density), 1)
    return float(slope)


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
    """Feature ts_uv: sqrt(2 * JSD) of two topic distributions."""
    return float(np.sqrt(2.0 * jensen_shannon_divergence(p, q, base=base)))


def ts_uv(ctx: FeatureContext, u: str, v: str) -> float:
    return topic_similarity(ctx.topics[ctx.index[u]], ctx.topics[ctx.index[v]])


def friend_tweet_total_loop(ctx: FeatureContext, u: str) -> float:
    """The tweets of all of u's friends, summed friend by friend."""
    return sum(ctx.tweet_counts[ctx.index[f]] for f in ctx.dataset.graph.friends(u))


def pt(ctx: FeatureContext, u: str, v: str) -> float:
    """Feature pt_uv: v's share of all tweets by u's friends."""
    total = friend_tweet_total_loop(ctx, u)
    tv = ctx.tweet_counts[ctx.index[v]]
    return float(tv / total) if total > 0 else 0.0


class FollowGraphLoop:
    """The follow graph as dicts of sorted adjacency lists, checked edge by
    edge with a set of the edges seen: the form that the index arrays of
    ``model.FollowGraph`` replaced."""

    def __init__(self, vertices, edges):
        self._friends: dict[str, list[str]] = {v: [] for v in vertices}
        self._followers: dict[str, list[str]] = {v: [] for v in self._friends}
        seen: set[tuple[str, str]] = set()
        for follower, friend in edges:
            if follower == friend:
                raise ValidationError(f"self-loop edge ({follower}, {friend})")
            if (follower, friend) in seen:
                raise ValidationError(f"duplicate edge ({follower}, {friend})")
            if follower not in self._friends or friend not in self._friends:
                raise ValidationError(f"edge ({follower}, {friend}) references unknown user")
            seen.add((follower, friend))
            self._friends[follower].append(friend)
            self._followers[friend].append(follower)
        for adj in (*self._friends.values(), *self._followers.values()):
            adj.sort()
        self.n_edges = len(seen)

    @property
    def vertices(self) -> list[str]:
        return sorted(self._friends)

    def friends(self, user_id: str) -> list[str]:
        return self._friends[user_id]

    def followers(self, user_id: str) -> list[str]:
        return self._followers[user_id]

    def has_edge(self, follower: str, friend: str) -> bool:
        friends = self._friends.get(follower, [])
        i = bisect.bisect_left(friends, friend)
        return i < len(friends) and friends[i] == friend

    def edges(self):
        for follower in sorted(self._friends):
            for friend in self._friends[follower]:
                yield follower, friend


def close_friends_loop(dataset: Dataset) -> dict[str, set[str]]:
    """u -> the friends u retweeted or replied to."""
    close: dict[str, set[str]] = {u: set() for u in dataset.users}
    for tw in dataset.tweets:
        if is_response(tw) and tw.responds_to_user in dataset.users:
            if dataset.graph.has_edge(tw.author, tw.responds_to_user):
                close[tw.author].add(tw.responds_to_user)
    return close


def edge_close_loop(dataset: Dataset) -> np.ndarray:
    """Per edge of ``graph.edges()``: is the friend a close friend."""
    close = close_friends_loop(dataset)
    return np.array([v in close[u] for u, v in dataset.graph.edges()], dtype=bool)


def reciprocal_loop(dataset: Dataset) -> np.ndarray:
    """Per edge (u, v) of ``graph.edges()``: does v follow u back."""
    return np.array([dataset.graph.has_edge(v, u) for u, v in dataset.graph.edges()],
                    dtype=bool)


def degree_counts_loop(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Each user's friend count and follower count, in user-id order."""
    users = sorted(dataset.users)
    return (np.array([len(dataset.graph.friends(u)) for u in users], dtype=int),
            np.array([len(dataset.graph.followers(u)) for u in users], dtype=int))


def edge_rows_loop(dataset: Dataset) -> dict[tuple[str, str], int]:
    """Each edge's row in ``graph.edges()`` order."""
    return {e: i for i, e in enumerate(dataset.graph.edges())}


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
        1.0 if v in close_friends_loop(dataset)[u] else 0.0,
        pt(ctx, u, v),
        float(ctx.n_t[iv, t]),
        float(a_u),
        float(a_v),
        float(a_u * a_v),
        ts_uv(ctx, u, v),
    )
    return FeatureVector(values)


def kendall_tau_bruteforce(rank_a, rank_b) -> float:
    """O(n^2) pair-count Kendall tau-a with ties broken by user id."""
    a = rank_a.as_dict() if isinstance(rank_a, RankVector) else dict(rank_a)
    b = rank_b.as_dict() if isinstance(rank_b, RankVector) else dict(rank_b)
    users = sorted(a)
    n = len(users)
    concordant = discordant = 0
    key_a = {u: (-a[u], u) for u in users}
    key_b = {u: (-b[u], u) for u in users}
    for i in range(n):
        for j in range(i + 1, n):
            u, v = users[i], users[j]
            s = (key_a[u] < key_a[v]) == (key_b[u] < key_b[v])
            concordant += s
            discordant += not s
    return (concordant - discordant) / (n * (n - 1) // 2)


def edge_weights_by_hour(ctx: FeatureContext, model: LogisticModel, c: float) -> np.ndarray:
    """(n_edges, 24) raw TIR transition weights, one feature fill, scaling
    and prediction of all 12 columns per hour."""
    rows = np.arange(ctx.dataset.graph.n_edges)
    mult = np.where(ctx.edge_close, c, 1.0 - c)
    out = np.empty((len(rows), 24))
    for t in range(24):
        x = ctx.edge_features(rows, t)
        x[:, RE_INDEX] = 1.0
        if model.scaler is not None:
            x = model.scaler.transform(x)
        out[:, t] = mult * ctx.n_t[ctx.edge_dst, t] * model.predict(x)
    return out


def assemble_by_sparse_product(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int, hour: int, gamma: float
) -> TransitionMatrix:
    """Column-normalised transition matrix built COO -> CSC -> product with
    the diagonal of inverse column sums; zero columns are dangling."""
    m = sparse.coo_matrix((weights, (dst, src)), shape=(n, n)).tocsc()
    col_sums = np.asarray(m.sum(axis=0)).ravel()
    dangling = col_sums <= 0.0
    scale = np.where(dangling, 1.0, col_sums)
    m = m @ sparse.diags(1.0 / scale, format="csc")
    return TransitionMatrix(hour=hour, gamma=gamma, n=n, matrix=m.tocsc(), dangling=dangling)


def iterate_from_uniform(tm: TransitionMatrix, tol: float) -> tuple[np.ndarray, int]:
    """Power iteration r <- gamma (M r + dangling mass / n) + (1 - gamma) / n
    from uniform until the L1 change drops below tol: (scores, iterations)."""
    n = tm.n
    r = np.full(n, 1.0 / n)
    for it in range(1, 10_000):
        y = tm.matrix @ r + float(r[tm.dangling].sum()) / n
        r_new = tm.gamma * y + (1.0 - tm.gamma) / n
        residual = float(np.abs(r_new - r).sum())
        r = r_new
        if residual < tol:
            return r, it
    raise AssertionError("no convergence")


def dense(tm: TransitionMatrix) -> np.ndarray:
    """The full n x n Google matrix of ``tm``: dangling columns uniform,
    then damped toward uniform."""
    d = tm.matrix.toarray()
    d[:, tm.dangling] = 1.0 / tm.n
    return tm.gamma * d + (1.0 - tm.gamma) / tm.n


def planted_instances(
    n: int,
    w_star: Optional[np.ndarray] = None,
    w0_star: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Instances drawn uniformly on [0,1]^12 with labels from the planted
    logistic law. Returns (features, labels, probabilities, Bayes accuracy)."""
    if w_star is None:
        w_star = DEFAULT_W_STAR
    rng = np.random.default_rng(seed)
    x = rng.random((n, len(w_star)))
    z = w0_star + x @ w_star
    p = 1.0 / (1.0 + np.exp(z))
    y = (rng.random(n) < p).astype(float)
    bayes = float(np.maximum(p, 1.0 - p).mean())
    return x, y, p, bayes


@dataclass
class HourlyProfile:
    """One user's profile, the record ``hourly_profile_loop`` returns: what
    row ``user_id`` of ``temporal.ProfileTable`` holds."""

    user_id: str
    raw_counts: np.ndarray  # tweets per hour bin, integer counts
    n_t: np.ndarray  # raw_counts / available_days
    a_t: np.ndarray  # n_t normalized to sum 1 (zero vector if no tweets)
    available_days: float
    has_tweets: bool


def hourly_profile_loop(dataset: Dataset, user_id: str) -> HourlyProfile:
    """One user's profile counted tweet by tweet."""
    tweets = list(dataset.tweets_by_author[user_id])
    counts = np.zeros(24)
    if not tweets:
        return HourlyProfile(user_id, counts, counts.copy(), counts.copy(), 1.0, False)
    for tw in tweets:
        counts[dataset.hour_of(tw.timestamp)] += 1
    span = (tweets[-1].timestamp - tweets[0].timestamp) / SECONDS_PER_DAY
    days = max(span, 1.0)
    n_t = counts / days
    a_t = n_t / n_t.sum()
    return HourlyProfile(user_id, counts, n_t, a_t, days, True)


def global_activity_loop(dataset: Dataset, granularity: str) -> np.ndarray:
    """Tweet counts by hour of day, day of week or both, tweet by tweet."""
    shape = {"hour_of_day": (24,), "day_of_week": (7,), "hour_x_day": (7, 24)}[granularity]
    out = np.zeros(shape)
    for tw in dataset.tweets:
        hour, day = dataset.hour_of(tw.timestamp), dataset.weekday_of(tw.timestamp)
        cell = {"hour_of_day": hour, "day_of_week": day, "hour_x_day": (day, hour)}
        out[cell[granularity]] += 1
    return out


def assert_activity_matches_loop(dataset: Dataset, heat: np.ndarray) -> None:
    """The weekday x hour table, its column sums (by hour) and its row sums
    (by weekday) carry the bits of the tweet-by-tweet counts."""
    for granularity, counts in (("hour_x_day", heat), ("hour_of_day", heat.sum(axis=0)),
                                ("day_of_week", heat.sum(axis=1))):
        assert counts.tobytes() == global_activity_loop(dataset, granularity).tobytes()


@dataclass(frozen=True)
class ResponseMetric:
    tweet_id: str
    kind: str
    delay: int
    trace: int


def response_records(dataset: Dataset, columns: ResponseColumns) -> list[ResponseMetric]:
    """The columns that ``response_metrics`` returns, as one record per response."""
    ids = dataset.tweets.tweet_id[columns.row].tolist()
    return [
        ResponseMetric(tweet_id, TWEET_KINDS[kind], delay, trace)
        for tweet_id, kind, delay, trace in zip(ids, columns.kind.tolist(),
                                                columns.delay.tolist(), columns.trace.tolist())
    ]


def response_metrics_loop(dataset: Dataset) -> tuple[list[ResponseMetric], int]:
    """Delay and trace of each response, bisecting each friend's timeline."""
    by_id = {tw.tweet_id: tw for tw in dataset.tweets}
    timelines = {
        uid: [tw.timestamp for tw in tws] for uid, tws in dataset.tweets_by_author.items()
    }
    metrics, excluded = [], 0
    for tw in dataset.tweets:
        if not is_response(tw):
            continue
        orig = by_id.get(tw.responds_to_tweet) if tw.responds_to_tweet else None
        if orig is None or orig.timestamp > tw.timestamp:
            excluded += 1
            continue
        t_i, t_j = orig.timestamp, tw.timestamp
        trace = 0
        for friend in dataset.graph.friends(tw.author):
            ts = timelines[friend]
            trace += max(0, bisect.bisect_left(ts, t_j) - bisect.bisect_right(ts, t_i))
        metrics.append(ResponseMetric(tw.tweet_id, tw.kind, delay=t_j - t_i, trace=trace))
    return metrics, excluded


def serialize_loop(dataset: Dataset, out_dir) -> dict[str, Path]:
    """The users/edges/tweets JSONL files, one ``json.dumps`` per record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.jsonl" for name in ("users", "edges", "tweets")}
    with paths["users"].open("w") as fh:
        for uid in sorted(dataset.users):
            rec = dataset.users[uid]
            fh.write(json.dumps({"id": rec.user_id, "listed": rec.listed_count,
                                 "favourites": rec.favourites_received,
                                 "verified": rec.verified,
                                 "topics": list(rec.topic_distribution)},
                                sort_keys=True) + "\n")
    with paths["edges"].open("w") as fh:
        for follower, friend in dataset.graph.edges():
            fh.write(json.dumps({"follower": follower, "friend": friend}) + "\n")
    with paths["tweets"].open("w") as fh:
        for tw in dataset.tweets:
            obj = {"id": tw.tweet_id, "author": tw.author, "kind": tw.kind, "ts": tw.timestamp}
            if tw.responds_to_user is not None:
                obj["to_user"] = tw.responds_to_user
            if tw.responds_to_tweet is not None:
                obj["to_tweet"] = tw.responds_to_tweet
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return paths


def build_instances_loop(dataset: Dataset, ctx: FeatureContext) -> InstanceSet:
    """One instance per (tweet, follower of its author), labelled by a set of
    (responded tweet id, responder) pairs and sorted by (tweet_id, follower)."""
    responded = {
        (tw.responds_to_tweet, tw.author)
        for tw in dataset.tweets
        if is_response(tw) and tw.responds_to_tweet
    }
    edge_rows = edge_rows_loop(dataset)
    rows, hours, keys, labels = [], [], [], []
    for tw in dataset.tweets:
        v, hour = tw.author, dataset.hour_of(tw.timestamp)
        for u in dataset.graph.followers(v):
            rows.append(edge_rows[(u, v)])
            hours.append(hour)
            keys.append((tw.tweet_id, u, v, hour))
            labels.append(1 if (tw.tweet_id, u) in responded else 0)
    order = sorted(range(len(keys)), key=lambda i: (keys[i][0], keys[i][1]))
    return instance_set_of_ids(
        [keys[i] for i in order],
        ctx.edge_features(
            np.asarray(rows, dtype=int)[order], np.asarray(hours, dtype=int)[order]
        ),
        np.asarray(labels, dtype=int)[order],
    )


def equal_row_groups_whole(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``features.equal_row_groups`` over the rows of the matrix x, hashed
    and compared as one whole (n, 12) matrix of bits."""
    bits = np.ascontiguousarray(x, dtype=float).view(np.uint64)
    h = np.zeros(len(bits), dtype=np.uint64)
    for column in bits.T:
        h ^= column
        h *= feature_module._HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    order = np.argsort(h, kind="stable")
    starts = np.ones(len(bits), dtype=bool)
    starts[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    if (starts[1:] & (h[order[1:]] == h[order[:-1]])).any():
        order = np.lexsort(np.vstack([bits.T[::-1], h]))
        starts[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    group = np.empty(len(bits), dtype=np.int32)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def instance_set_of_ids(id_keys: list[tuple], features: np.ndarray,
                        labels: np.ndarray) -> InstanceSet:
    """The InstanceSet of (tweet_id, follower, friend, hour) tuples, with its
    id tables built by sorting the distinct ids and its feature rows grouped
    by their bits (``equal_row_groups_whole``)."""
    first, row_of = equal_row_groups_whole(features)
    tweet_ids = sorted({k[0] for k in id_keys})
    user_ids = sorted({k[1] for k in id_keys} | {k[2] for k in id_keys})
    tweet_at = {t: i for i, t in enumerate(tweet_ids)}
    user_at = {u: i for i, u in enumerate(user_ids)}
    return InstanceSet(
        keys=np.array([(tweet_at[t], user_at[u], user_at[v], h) for t, u, v, h in id_keys],
                      dtype=np.int32).reshape(-1, 4),
        rows=features[first],
        row_of=row_of,
        labels=np.asarray(labels, dtype=np.int8),
        tweet_table=np.array(tweet_ids, dtype=str),
        user_ids=np.array(user_ids, dtype=str),
    )


def instance_id_keys(instances: InstanceSet) -> list[tuple[str, str, str, int]]:
    """The (tweet_id, follower, friend, hour) tuple of each instance."""
    t, u, v, h = instances.keys.T.tolist()
    tweets, users = instances.tweet_ids.tolist(), instances.user_ids.tolist()
    return [(tweets[a], users[b], users[c], d) for a, b, c, d in zip(t, u, v, h)]


def write_instances_loop(path, instances: InstanceSet) -> None:
    """instances.csv through csv.writer, one formatted value at a time: the
    bytes the features stage writes."""
    header = ["tweet_id", "follower", "friend", "hour", *FEATURE_NAMES, "label"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for key, x, y in zip(instance_id_keys(instances), instances.features,
                             instances.labels):
            writer.writerow([str(v) for v in key] + ["{:.12g}".format(float(v)) for v in x]
                            + [str(int(y))])


def stratified_folds_loop(y: np.ndarray, folds: int, seed: int, keys: list) -> np.ndarray:
    """Fold index per instance, dealing the instances of each class to folds
    in the order of a Python sort of their keys."""
    n = len(y)
    base = np.asarray(sorted(range(n), key=lambda i: keys[i]), dtype=int)
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=int)
    for cls in (0, 1):
        members = base[y[base] == cls]
        members = members[rng.permutation(len(members))]
        assignment[members] = np.arange(len(members)) % folds
    return assignment


def log_loss_gradient(
    w0: float, w: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Analytic gradient of the mean log loss wrt (w0, w), one row of x per
    instance. With p = sigmoid(-(w0 + w.x)), dL/dz = y - p for z = w0 + w.x.
    """
    x = np.atleast_2d(x)
    p = response_probability(w0, w, x)
    err = np.asarray(y, float) - p
    return float(err.mean()), (err @ x) / len(x)


def cross_validate_per_row(x: np.ndarray, y: np.ndarray, folds: int = 5, seed: int = 0,
                           learning_rate: float = 0.1, epochs: int = 500,
                           keys=None) -> tuple[list[float], float]:
    """cross_validate with one row of x per instance: each fold fits its
    training instances' rows and predicts its test instances' rows."""
    assignment = _stratified_folds(y, folds, seed, keys)
    accuracies = []
    for f in range(folds):
        test = assignment == f
        model = train(x[~test], y[~test], learning_rate, epochs, seed)
        pred = (model.predict(x[test]) >= 0.5).astype(float)
        accuracies.append(float((pred == y[test]).mean()))
    return accuracies, float(np.mean(accuracies))


def ksc_distance(x, c, max_shift: int = 0) -> float:
    """K-SC distance min over cyclic shifts |q| <= max_shift of
    sqrt(1 - cos^2(x, shift(c, q))); invariant to the scale of x and c."""
    x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
    best = np.inf
    for q in range(-max_shift, max_shift + 1):
        cq = np.roll(c, q)
        cos = float(x @ cq) / (np.linalg.norm(x) * np.linalg.norm(cq))
        best = min(best, float(np.sqrt(max(0.0, 1.0 - cos**2))))
    return best


def silhouette_loop(dist: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Average silhouette over the distance matrix ``dist``, point by point."""
    n = len(labels)
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own[i] = False
        a = dist[i, own].mean() if own.any() else 0.0
        b = np.inf
        for j in range(k):
            if j == labels[i]:
                continue
            other = labels == j
            if other.any():
                b = min(b, dist[i, other].mean())
        if not np.isfinite(b):
            scores[i] = 0.0
            continue
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())



def pairwise_shape_distance(x: np.ndarray, shifts: Sequence[int]) -> np.ndarray:
    """The n×n K-SC shape-distance matrix of the rows of x over the cyclic
    shifts ``shifts``, as one product per shift."""
    xn = np.linalg.norm(x, axis=1)
    unit = x / xn[:, None]
    best = np.full((x.shape[0], x.shape[0]), np.inf)
    for q in shifts:
        cos2 = (unit @ np.roll(unit, q, axis=1).T) ** 2
        np.minimum(best, np.sqrt(np.maximum(0.0, 1.0 - cos2)), out=best)
    return best


def silhouette_by_cluster(dist: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Average silhouette of the labelling ``labels`` in 0..k-1 over the
    whole distance matrix ``dist``, one pass per cluster."""
    a = np.zeros(len(labels))
    b = np.full(len(labels), np.inf)
    for j in range(k):
        cols = np.flatnonzero(labels == j)
        if not cols.size:
            continue
        # take, not dist[:, cols]: its rows are contiguous, so each mean sums
        # in the same order as the mean of one gathered row
        to_j = dist.take(cols, axis=1).mean(axis=1)
        b = np.where(labels == j, b, np.minimum(b, to_j))
        if cols.size > 1:
            block = dist[np.ix_(cols, cols)]
            off_diagonal = ~np.eye(cols.size, dtype=bool)
            a[cols] = block[off_diagonal].reshape(cols.size, -1).mean(axis=1)
    denom = np.maximum(a, b)
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isfinite(b) & (denom > 0), (b - a) / denom, 0.0)
    return float(scores.mean())

# ------------------------------------------------- link-removal evaluation

def solve_with_column_loop(solver, u: int, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One replaced column of a ``ColumnUpdateSolver``: one single-column LU
    solve, the Sherman-Morrison factor and the fixed-point step."""
    total = weights.sum()
    column = weights * (1.0 / total) if total > 0 else np.zeros(len(rows))
    d = np.zeros(len(solver.x))
    d[rows] = column
    start, stop = solver.matrix.indptr[u], solver.matrix.indptr[u + 1]
    d[solver.matrix.indices[start:stop]] -= solver.matrix.data[start:stop]
    z = solver.solve(d)
    x = solver.x + z * ((solver.eta + solver.s * solver.x[u]) / (1.0 - solver.s * z[u]))
    w = solver.eta + solver.s * x
    w_u, w[u] = w[u], 0.0
    y = solver.matrix @ w
    y[rows] += column * w_u
    return (1.0 - solver.eta) + y


def _friend_shares_loop(ctx: FeatureContext, iu: int, iv: int):
    rows = np.flatnonzero(ctx.edge_src == iu)
    rows = rows[ctx.edge_dst[rows] != iv]
    dsts = ctx.edge_dst[rows]
    total = ctx.friend_tweet_total[iu] - ctx.tweet_counts[iv]
    shares = ctx.tweet_counts[dsts] / total if total > 0 else np.zeros(len(dsts))
    return rows, dsts, shares


class ColamdSolver:
    """The factorisation that ``ColumnUpdateSolver`` replaced: scipy's
    default ``splu`` of I - s S in user order, which computes a COLAMD
    column order and searches each column for its pivot. It has the
    attributes that ``solve_with_column_loop`` reads."""

    def __init__(self, matrix: sparse.csc_matrix, s: float, rhs_from_matrix: bool = False):
        from scipy.sparse.linalg import splu

        n = matrix.shape[0]
        self.matrix = matrix.tocsc()
        self.s = s
        self.eta = 1.0 if rhs_from_matrix else 0.0
        self.lu = splu((sparse.identity(n, format="csc") - s * self.matrix).tocsc())
        self.x = self.solve(self.matrix @ np.ones(n) if rhs_from_matrix else np.ones(n))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)


def link_solvers(scorer, colamd: bool = False) -> list:
    """The solvers of a ``TirLinkScorer``'s 24 hourly matrices (from
    ``build_matrix``) or of a ``TwitterRankLinkScorer``'s topic matrices
    (from ``twitterrank_matrices``), all factored here and held together:
    ``ColumnUpdateSolver``s in the scorer's order, or with ``colamd`` the
    ``ColamdSolver``s."""
    if isinstance(scorer, TirLinkScorer):
        matrices = [build_matrix(scorer.dataset, scorer.model, t, scorer.c, scorer.gamma,
                                 ctx=scorer.ctx) for t in range(24)]
    else:
        matrices = twitterrank_matrices(scorer.dataset, scorer.gamma, scorer.ctx)
    if colamd:
        return [ColamdSolver(tm.matrix, scorer.gamma) for tm in matrices]
    return [ColumnUpdateSolver(tm.matrix, scorer.gamma, scorer.order) for tm in matrices]


def tir_scores_without_loop(scorer, u: str, v: str, solvers=None) -> np.ndarray:
    """Personal TIR scores once u unfollows v, with the parameters of a
    ``TirLinkScorer``: one column solve per hour against ``solvers`` (by
    default ``link_solvers(scorer)``), then ``aggregate``."""
    ctx = scorer.ctx
    iu = ctx.index[u]
    rows, dsts, shares = _friend_shares_loop(ctx, iu, ctx.index[v])
    weights = _edge_weights_all_hours(ctx, scorer.model, scorer.c, rows=rows, shares=shares)
    hourly = []
    for t, solver in enumerate(solvers or link_solvers(scorer)):
        y = solve_with_column_loop(solver, iu, dsts, weights[:, t])
        hourly.append(RankVector(tuple(ctx.user_ids), y / y.sum(), hour=t))
    return aggregate(hourly, personal_weights(ctx, [ctx.index[u]])[0]).scores


def twitterrank_scores_without_loop(scorer, u: str, v: str, solvers=None) -> np.ndarray:
    """Personal TwitterRank scores once u unfollows v, with the parameters
    of a ``TwitterRankLinkScorer``, topic by topic against ``solvers`` (by
    default ``link_solvers(scorer)``)."""
    ctx = scorer.ctx
    iu = ctx.index[u]
    _, dsts, ratio = _friend_shares_loop(ctx, iu, ctx.index[v])
    sims = 1.0 - np.abs(ctx.topics[iu] - ctx.topics[dsts])
    shares = ctx.topics[iu]
    scores = np.zeros(len(ctx.user_ids))
    for t, solver in enumerate(solvers or link_solvers(scorer)):
        if shares[t] <= 0:
            continue
        y = solve_with_column_loop(solver, iu, dsts, ratio * sims[:, t])
        scores += shares[t] * (y / y.sum())
    if shares.sum() > 0:
        scores /= shares.sum()
    return scores


def tunkrank_scores_without_loop(scorer, u: str, v: str, solver=None) -> np.ndarray:
    """TunkRank once (u, v) is removed, from a ``TunkRankLinkScorer``'s
    factorisation or the given ``solver`` of its matrix; p = 1 checks the
    reduced graph for a closed class."""
    src, dst = scorer.graph.src, scorer.graph.dst
    iu, iv = scorer.graph.index[u], scorer.graph.index[v]
    if scorer.p == 1.0:
        keep = (src != iu) | (dst != iv)
        check_tunkrank_fixed_point(src[keep], dst[keep], len(scorer.user_ids))
    rows = np.flatnonzero(src == iu)
    rows = rows[dst[rows] != iv]
    return solve_with_column_loop(solver or scorer.solver, iu, dst[rows],
                                  np.ones(len(rows)))


def scores_without_loop(scorer, u: str, v: str, solvers=None) -> np.ndarray:
    """The per-link oracle for any of the three link scorers; ``solvers``,
    when given, are a TIR or TwitterRank scorer's ``link_solvers``."""
    if isinstance(scorer, TirLinkScorer):
        return tir_scores_without_loop(scorer, u, v, solvers)
    if isinstance(scorer, TwitterRankLinkScorer):
        return twitterrank_scores_without_loop(scorer, u, v, solvers)
    assert isinstance(scorer, TunkRankLinkScorer)
    return tunkrank_scores_without_loop(scorer, u, v)


def sample_candidates_loop(dataset: Dataset, u: str, seed: int, size: int = 10) -> list[str]:
    """Candidates as a sort of the ids u does not follow and one draw."""
    not_followed = sorted(
        x for x in dataset.users if x != u and not dataset.graph.has_edge(u, x)
    )
    if len(not_followed) < size:
        raise ValueError(f"fewer than {size} non-followed users for {u!r}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(not_followed), size=size, replace=False)
    return [not_followed[i] for i in sorted(chosen)]


def q_score_dict(scores: RankVector, v: str, candidates) -> int:
    """Q from the score dictionary: candidates that v outranks, ties by id."""
    d = scores.as_dict()
    key_v = (-d[v], v)
    return sum(1 for cand in candidates if key_v < (-d[cand], cand))


def run_scenarios_loop(dataset: Dataset, logistic_model: LogisticModel, seed: int,
                       models, c_grid, gamma: float, tunkrank_p: float, n_links: int,
                       ctx: FeatureContext) -> list[tuple]:
    """(tag, model, c, Q list) in ``run_scenarios`` order, scoring each link
    of each scenario on its own: candidates drawn per evaluation, scores from
    the per-link loops, Q from the score dictionary."""
    link_sets = build_link_sets(dataset, seed=seed, ctx=ctx, n_links=n_links)
    tags = [t for t in SCENARIO_TAGS if link_sets[t].links]
    ids = tuple(ctx.user_ids)
    per_model = []
    for model in models:
        if model == "tir":
            scorers = [(c, TirLinkScorer(dataset, logistic_model, c, gamma=gamma, ctx=ctx))
                       for c in c_grid]
        elif model == "twitterrank":
            scorers = [(None, TwitterRankLinkScorer(dataset, gamma=gamma, ctx=ctx))]
        else:
            scorers = [(None, TunkRankLinkScorer(dataset, p=tunkrank_p))]
        for c, scorer in scorers:
            solvers = None if model == "tunkrank" else link_solvers(scorer)
            q = {}
            for tag in tags:
                q[tag] = []
                for u, v in link_sets[tag].links:
                    cands = sample_candidates_loop(dataset, u, _sub_seed(seed, "candidates", u, v))
                    rv = RankVector(ids, scores_without_loop(scorer, u, v, solvers))
                    q[tag].append(q_score_dict(rv, v, cands))
            per_model.append((model, c, q))
    return [(tag, m, c, q[tag]) for tag in tags for m, c, q in per_model]
