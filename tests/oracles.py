"""Reference implementations that tests compare the package against.

The scalar ones compute one value at a time, directly from its definition.
The TIR weight loop, the sparse-product matrix assembly and the plain power
iteration are the straightforward forms the vectorised ranking code replaced:
one feature fill per hour and scipy's own COO -> CSC -> product path. The
per-tweet loops over ``Tweet`` records (profiles, global activity, response
metrics, instances) are the forms the column code in ``temporal`` and
``features`` replaced, and ``silhouette_loop`` is the per-point silhouette
that ``temporal._silhouette`` replaced. ``write_instances_loop`` is the
value-at-a-time ``instances.csv`` writer that ``cli.write_instances``
replaced, and ``stratified_folds_loop`` the id-tuple sort that the integer
keys of ``logistic._stratified_folds`` replaced. ``ksc_distance`` is the K-SC
shape distance of one pair, from its definition. ``dense`` and
``planted_instances`` serve only tests. The link-removal oracles score one
removed link at a time from a scorer's factorisations
(``solve_with_column_loop`` is the single-column solve that
``ColumnUpdateSolver.solve_with_columns`` replaced), draw candidates with a
sort of the ids (``sample_candidates_loop``) and count Q from the score
dictionary (``q_score_dict``); ``run_scenarios_loop`` is the protocol built
from them, link by link and scenario by scenario.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from influxrank.evaluation import (
    SCENARIO_TAGS,
    TirLinkScorer,
    TunkRankLinkScorer,
    TwitterRankLinkScorer,
    _sub_seed,
    build_link_sets,
)
from influxrank.features import FEATURE_NAMES, RE_INDEX, FeatureContext, InstanceSet
from influxrank.logistic import LogisticModel
from influxrank.model import SECONDS_PER_DAY, Dataset
from influxrank.ranking import (
    RankVector,
    TransitionMatrix,
    _edge_weights_all_hours,
    aggregate,
    check_tunkrank_fixed_point,
    personal_weights,
)
from influxrank.synth import DEFAULT_W_STAR
from influxrank.temporal import HourlyProfile, ResponseMetric


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


def pt(ctx: FeatureContext, u: str, v: str) -> float:
    """Feature pt_uv: v's share of all tweets by u's friends."""
    total = ctx.friend_tweet_total[ctx.index[u]]
    tv = ctx.tweet_counts[ctx.index[v]]
    return float(tv / total) if total > 0 else 0.0


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
        1.0 if v in ctx.close_friends[u] else 0.0,
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
    rows = np.arange(len(ctx.edges))
    mult = np.where(ctx.edge_close, c, 1.0 - c)
    out = np.empty((len(ctx.edges), 24))
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


def response_metrics_loop(dataset: Dataset) -> tuple[list[ResponseMetric], int]:
    """Delay and trace of each response, bisecting each friend's timeline."""
    by_id = {tw.tweet_id: tw for tw in dataset.tweets}
    timelines = {
        uid: [tw.timestamp for tw in tws] for uid, tws in dataset.tweets_by_author.items()
    }
    metrics, excluded = [], 0
    for tw in dataset.tweets:
        if not tw.is_response:
            continue
        orig = by_id.get(tw.responds_to_tweet) if tw.responds_to_tweet else None
        if orig is None or orig.timestamp > tw.timestamp:
            excluded += 1
            continue
        t_i, t_j = orig.timestamp, tw.timestamp
        trace = 0
        for friend in dataset.graph.friends(tw.author):
            ts = timelines[friend]
            trace += bisect.bisect_left(ts, t_j) - bisect.bisect_right(ts, t_i)
        metrics.append(ResponseMetric(tw.tweet_id, tw.kind, delay=t_j - t_i, trace=trace))
    return metrics, excluded


def build_instances_loop(dataset: Dataset, ctx: FeatureContext) -> InstanceSet:
    """One instance per (tweet, follower of its author), labelled by a set of
    (responded tweet id, responder) pairs and sorted by (tweet_id, follower)."""
    responded = {
        (tw.responds_to_tweet, tw.author)
        for tw in dataset.tweets
        if tw.is_response and tw.responds_to_tweet
    }
    rows, hours, keys, labels = [], [], [], []
    for tw in dataset.tweets:
        v, hour = tw.author, dataset.hour_of(tw.timestamp)
        for u in dataset.graph.followers(v):
            rows.append(ctx.edge_index[(u, v)])
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


def instance_set_of_ids(id_keys: list[tuple], features: np.ndarray,
                        labels: np.ndarray) -> InstanceSet:
    """The InstanceSet of (tweet_id, follower, friend, hour) tuples, with its
    id tables built by sorting the distinct ids."""
    tweet_ids = sorted({k[0] for k in id_keys})
    user_ids = sorted({k[1] for k in id_keys} | {k[2] for k in id_keys})
    tweet_at = {t: i for i, t in enumerate(tweet_ids)}
    user_at = {u: i for i, u in enumerate(user_ids)}
    return InstanceSet(
        keys=np.array([(tweet_at[t], user_at[u], user_at[v], h) for t, u, v, h in id_keys],
                      dtype=np.int64).reshape(-1, 4),
        features=features,
        labels=labels,
        tweet_ids=np.array(tweet_ids, dtype=str),
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
    z = solver.lu.solve(d)
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


def tir_scores_without_loop(scorer, u: str, v: str) -> np.ndarray:
    """Personal TIR scores once u unfollows v, from the factorisations of a
    ``TirLinkScorer``: one column solve per hour, then ``aggregate``."""
    ctx = scorer.ctx
    iu = ctx.index[u]
    rows, dsts, shares = _friend_shares_loop(ctx, iu, ctx.index[v])
    weights = _edge_weights_all_hours(ctx, scorer.model, scorer.c, rows=rows, shares=shares)
    hourly = []
    for t, solver in enumerate(scorer.solvers):
        y = solve_with_column_loop(solver, iu, dsts, weights[:, t])
        hourly.append(RankVector(tuple(ctx.user_ids), y / y.sum(), hour=t))
    return aggregate(hourly, personal_weights(ctx, [ctx.index[u]])[0]).scores


def twitterrank_scores_without_loop(scorer, u: str, v: str) -> np.ndarray:
    """Personal TwitterRank scores once u unfollows v, from the
    factorisations of a ``TwitterRankLinkScorer``, topic by topic."""
    ctx = scorer.ctx
    iu = ctx.index[u]
    _, dsts, ratio = _friend_shares_loop(ctx, iu, ctx.index[v])
    sims = 1.0 - np.abs(ctx.topics[iu] - ctx.topics[dsts])
    shares = ctx.topics[iu]
    scores = np.zeros(len(ctx.user_ids))
    for t, solver in enumerate(scorer.solvers):
        if shares[t] <= 0:
            continue
        y = solve_with_column_loop(solver, iu, dsts, ratio * sims[:, t])
        scores += shares[t] * (y / y.sum())
    if shares.sum() > 0:
        scores /= shares.sum()
    return scores


def tunkrank_scores_without_loop(scorer, u: str, v: str) -> np.ndarray:
    """TunkRank once (u, v) is removed, from a ``TunkRankLinkScorer``'s
    factorisation; p = 1 checks the reduced graph for a closed class."""
    iu, iv = scorer.index[u], scorer.index[v]
    if scorer.p == 1.0:
        keep = (scorer.src != iu) | (scorer.dst != iv)
        check_tunkrank_fixed_point(scorer.src[keep], scorer.dst[keep], len(scorer.user_ids))
    rows = np.flatnonzero(scorer.src == iu)
    rows = rows[scorer.dst[rows] != iv]
    return solve_with_column_loop(scorer.solver, iu, scorer.dst[rows], np.ones(len(rows)))


def scores_without_loop(scorer, u: str, v: str) -> np.ndarray:
    """The per-link oracle for any of the three link scorers."""
    if isinstance(scorer, TirLinkScorer):
        return tir_scores_without_loop(scorer, u, v)
    if isinstance(scorer, TwitterRankLinkScorer):
        return twitterrank_scores_without_loop(scorer, u, v)
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
            q = {}
            for tag in tags:
                q[tag] = []
                for u, v in link_sets[tag].links:
                    cands = sample_candidates_loop(dataset, u, _sub_seed(seed, "candidates", u, v))
                    rv = RankVector(ids, scores_without_loop(scorer, u, v))
                    q[tag].append(q_score_dict(rv, v, cands))
            per_model.append((model, c, q))
    return [(tag, m, c, q[tag]) for tag in tags for m, c, q in per_model]
