"""Hourly transition matrices, power iteration, rank aggregation, baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .features import HOURLY_INDICES, N_FEATURES, PT_INDEX, RE_INDEX, FeatureContext
from .logistic import LogisticModel, probability_of_score
from .model import Dataset

DEFAULT_GAMMA = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class TransitionMatrix:
    """Column-stochastic hourly transition structure.

    ``matrix`` holds the normalized edge part (column u = follower u's
    outgoing shares over friends); columns listed in ``dangling`` carry no
    edge mass and act as uniform 1/n columns. The damping jump term is never
    materialized; ``step`` applies gamma * M r + (1 - gamma)/n directly.
    """

    hour: int
    gamma: float
    n: int
    matrix: sparse.csc_matrix
    dangling: np.ndarray  # boolean mask over columns
    _dangling_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._dangling_index = np.flatnonzero(self.dangling)

    def step(self, r: np.ndarray) -> np.ndarray:
        y = self.matrix @ r
        y += float(r[self._dangling_index].sum()) / self.n
        y *= self.gamma
        y += (1.0 - self.gamma) / self.n
        return y


@dataclass
class RankVector:
    user_ids: tuple[str, ...]
    scores: np.ndarray
    hour: Optional[int] = None  # None means aggregated
    model: str = "tir"
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.user_ids, (float(s) for s in self.scores)))

    def order(self) -> list[str]:
        """User ids best-first; score ties broken by user id."""
        idx = np.lexsort((np.array(self.user_ids), -self.scores))
        return [self.user_ids[i] for i in idx]

    def ranks(self) -> dict[str, int]:
        return {u: i + 1 for i, u in enumerate(self.order())}


def _edge_weights_all_hours(
    ctx: FeatureContext,
    model: LogisticModel,
    c: float,
    rows: Optional[np.ndarray] = None,
    shares: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(len(rows), 24) raw transition weights of edge rows ``rows`` (all
    edges by default): the response probability with the ever-responded
    feature forced to 1, times the friend's hourly tweet rate, times c for
    close friends and 1 - c otherwise. ``shares`` replaces the tweet-share
    feature pt_uv of those rows.

    The logit is w0 plus the terms of the static features, summed once per
    edge, plus the terms of the four hourly features over all 24 hours."""
    if not 0.5 <= c <= 1.0:
        raise ValueError("penalty factor c must be in [0.5, 1]")
    if len(model.w) != N_FEATURES:
        raise ValueError(f"feature dimension {N_FEATURES} != model dimension {len(model.w)}")
    if rows is None:
        rows = np.arange(len(ctx.edges))
    x = ctx.edge_static_features()[rows]
    x[:, RE_INDEX] = 1.0
    if shares is not None:
        x[:, PT_INDEX] = shares

    def term(values: np.ndarray, j: int) -> np.ndarray:
        if model.scaler is not None:
            values = model.scaler.transform(values, column=j)
        return model.w[j] * values

    z = np.full(len(rows), float(model.w0))
    for j in range(N_FEATURES):
        if j not in HOURLY_INDICES:
            z += term(x[:, j], j)
    hourly = ctx.fill_hourly(rows, slice(None), np.empty((4, len(rows), 24)))
    z = np.repeat(z[:, None], 24, axis=1)
    for j, values in zip(HOURLY_INDICES, hourly):
        z += term(values, j)
    mult = np.where(ctx.edge_close[rows], c, 1.0 - c)
    return mult[:, None] * hourly[0] * probability_of_score(z)


def _assemble(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int, hour: int, gamma: float
) -> TransitionMatrix:
    """Column-normalize raw edge weights (edge src -> dst is entry [dst, src])
    into CSC form; zero columns become uniform.

    Each column is summed the way scipy sums a CSC matrix's columns (one
    ``np.add.reduceat`` over rows in ascending order), so the sums do not
    depend on the input's edge order. Entries whose normalized weight is
    exactly zero are dropped, and each column lists its rows in descending
    order: the entry order that ``rank --dump-matrix`` writes."""
    order = np.argsort(src * n + dst, kind="stable")
    col, row, w = src[order], dst[order], weights[order]
    counts = np.bincount(col, minlength=n)
    nonempty = counts > 0
    col_sums = np.zeros(n)
    col_sums[nonempty] = np.add.reduceat(w, (np.cumsum(counts) - counts)[nonempty])
    dangling = col_sums <= 0.0
    scale = np.where(dangling, 1.0, col_sums)
    values = w * (1.0 / scale)[col]
    keep = values != 0.0
    col, row, values = col[keep], row[keep], values[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    # position of each entry once every column's rows are reversed
    flip = indptr[col] + indptr[col + 1] - 1 - np.arange(len(col))
    m = sparse.csc_matrix((values[flip], row[flip], indptr), shape=(n, n))
    return TransitionMatrix(hour=hour, gamma=gamma, n=n, matrix=m, dangling=dangling)


def build_matrix(
    dataset: Dataset,
    model: LogisticModel,
    t: int,
    c: float = 0.85,
    gamma: float = DEFAULT_GAMMA,
    ctx: Optional[FeatureContext] = None,
    edge_weights: Optional[np.ndarray] = None,
) -> TransitionMatrix:
    """Hourly TIR transition matrix: raw weights from _edge_weights_all_hours,
    columns normalized to sum 1, dangling columns replaced by uniform 1/|V|."""
    if dataset.n_users == 0:
        raise ValueError("empty dataset")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if ctx is None:
        ctx = FeatureContext(dataset)
    if edge_weights is None:
        edge_weights = _edge_weights_all_hours(ctx, model, c)
    return _assemble(
        ctx.edge_src, ctx.edge_dst, edge_weights[:, t], len(ctx.user_ids), t, gamma
    )


def power_iterate(
    matrix: TransitionMatrix,
    user_ids: Sequence[str],
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    model: str = "tir",
    params: Optional[dict] = None,
) -> RankVector:
    """Iterate r <- gamma M r + (1 - gamma)/n from uniform until the L1
    change drops below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = matrix.n
    r = np.full(n, 1.0 / n)
    residual = np.inf
    for it in range(max_iters):
        r_new = matrix.step(r)
        residual = float(np.abs(r_new - r).sum())
        r = r_new
        if residual < tol:
            out_params = {"gamma": matrix.gamma, "iterations": it + 1}
            if params:
                out_params.update(params)
            return RankVector(
                user_ids=tuple(user_ids),
                scores=r,
                hour=matrix.hour,
                model=model,
                params=out_params,
            )
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations (residual {residual:.3e})",
        residual,
    )


def aggregate(
    rank_vectors: Sequence[RankVector],
    weights: Sequence[float],
    model: str = "tir",
    params: Optional[dict] = None,
) -> RankVector:
    """Convex combination of 24 hourly rank vectors; weights are renormalized."""
    if len(rank_vectors) != 24 or len(weights) != 24:
        raise ValueError("expected 24 hourly rank vectors and 24 weights")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    w = normalise_weights(w)
    user_ids = rank_vectors[0].user_ids
    scores = np.zeros(len(user_ids))
    for wt, rv in zip(w, rank_vectors):
        if rv.user_ids != user_ids:
            raise ValueError("hourly rank vectors cover different user sets")
        scores += wt * rv.scores
    return RankVector(
        user_ids=user_ids, scores=scores, hour=None, model=model, params=params or {}
    )


def activity_weights(ctx: FeatureContext) -> np.ndarray:
    """Share of all tweets posted in each hour of the day."""
    total = ctx.hour_counts.sum()
    if total <= 0:
        raise ValueError("empty dataset")
    return ctx.hour_counts / total


def normalise_weights(weights: np.ndarray) -> np.ndarray:
    """Weights divided by their sum along the last axis, as ``aggregate``
    applies them; each row of a 2-D array is divided by its own sum."""
    return weights / weights.sum(axis=-1, keepdims=True)


def personal_weights(ctx: FeatureContext, users: Sequence[int]) -> np.ndarray:
    """(len(users), 24) hour weights of personal aggregation for the user
    indices ``users``: each user's own hourly activity, or uniform for a
    user without tweets."""
    w = ctx.a_t[np.asarray(users, dtype=np.intp)]
    w[w.sum(axis=1) <= 0] = 1.0 / 24
    return w


def tir_rank(
    dataset: Dataset,
    model: LogisticModel,
    c: float = 0.85,
    gamma: float = DEFAULT_GAMMA,
    mode: str = "global",
    user: Optional[str] = None,
    ctx: Optional[FeatureContext] = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RankVector:
    """Full TIR pipeline: 24 hourly matrices -> power iteration -> aggregate."""
    if ctx is None:
        ctx = FeatureContext(dataset)
    weights = _edge_weights_all_hours(ctx, model, c)
    hourly = [
        power_iterate(
            build_matrix(dataset, model, t, c, gamma, ctx=ctx, edge_weights=weights),
            ctx.user_ids,
            tol=tol,
            max_iters=max_iters,
        )
        for t in range(24)
    ]
    if mode == "global":
        w = activity_weights(ctx)
    elif mode == "personal":
        if user is None:
            raise ValueError("personal mode requires a user id")
        w = personal_weights(ctx, [ctx.index[user]])[0]
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    return aggregate(hourly, w, model="tir", params={"c": c, "gamma": gamma, "mode": mode})


def tunkrank(
    dataset: Dataset,
    p: float = 0.05,
    tol: float = DEFAULT_TOL,
    max_iters: int = 100000,
) -> RankVector:
    """Fixed point of Influence(X) = sum over followers Y of
    (1 + p * Influence(Y)) / |Friends(Y)|."""
    user_ids, _, _, a = tunkrank_matrix(dataset, p)
    a = a.tocsr()
    influence = np.zeros(len(user_ids))
    for _ in range(max_iters):
        new = a @ (1.0 + p * influence)
        residual = float(np.abs(new - influence).sum())
        influence = new
        if residual < tol:
            return RankVector(
                user_ids=user_ids,
                scores=influence,
                hour=None,
                model="tunkrank",
                params={"p": p},
            )
    raise ConvergenceError("tunkrank did not converge", residual)


def tunkrank_matrix(
    dataset: Dataset, p: float
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, sparse.csc_matrix]:
    """Sorted user ids, the follower and friend index of every edge, and the
    follower -> friend matrix A with 1/|Friends(u)| on each friend in column
    u. Rejects p outside [0, 1], and p = 1 when it has no fixed point."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    user_ids = tuple(sorted(dataset.users))
    index = {u: i for i, u in enumerate(user_ids)}
    n = len(user_ids)
    edges = list(dataset.graph.edges())
    src = np.array([index[u] for u, _ in edges], dtype=int)
    dst = np.array([index[v] for _, v in edges], dtype=int)
    if p == 1.0:
        check_tunkrank_fixed_point(src, dst, n)
    deg = np.bincount(src, minlength=n)
    a = sparse.csc_matrix((1.0 / deg[src], (dst, src)), shape=(n, n))
    return user_ids, src, dst, a


def check_tunkrank_fixed_point(follower: np.ndarray, friend: np.ndarray, n: int) -> None:
    """Raise ValueError when TunkRank at p = 1 has no fixed point.

    With p = 1 the fixed point exists exactly when there is no closed follow
    class: a strongly connected set of users with a follow edge among them
    and no edge leaving it. Such a class keeps all of its followers'
    influence, so the follower -> friend matrix has eigenvalue 1 and the
    iteration grows without bound. For p < 1 a fixed point always exists.
    """
    # imported here, like splu in evaluation: csgraph adds about 11 MB of
    # resident libraries, and only p = 1 needs it
    from scipy.sparse.csgraph import connected_components

    graph = sparse.csr_matrix(
        (np.ones(len(follower)), (follower, friend)), shape=(n, n)
    )
    k, label = connected_components(graph, directed=True, connection="strong")
    a, b = label[follower], label[friend]
    inner = np.zeros(k, dtype=bool)
    inner[a[a == b]] = True
    leaving = np.zeros(k, dtype=bool)
    leaving[a[a != b]] = True
    closed = np.flatnonzero(inner & ~leaving)
    if len(closed):
        size = int(np.bincount(label, minlength=k)[closed].max())
        raise ValueError(
            f"tunkrank with p = 1 has no fixed point: {size} users form a closed "
            "follow class (no follow edge leaves it); use p < 1"
        )


def twitterrank_matrices(
    dataset: Dataset,
    gamma: float = DEFAULT_GAMMA,
    ctx: Optional[FeatureContext] = None,
) -> list[TransitionMatrix]:
    """One column-normalized, damped transition structure per topic.

    Raw edge weight at topic t: friend's tweet share among the follower's
    friends times 1 - |topic_t(u) - topic_t(v)|.
    """
    if ctx is None:
        ctx = FeatureContext(dataset)
    n = len(ctx.user_ids)
    k = ctx.topics.shape[1]
    src, dst = ctx.edge_src, ctx.edge_dst
    ratio = ctx.edge_static_features()[:, PT_INDEX]
    out = []
    for t in range(k):
        sim = 1.0 - np.abs(ctx.topics[src, t] - ctx.topics[dst, t])
        out.append(_assemble(src, dst, ratio * sim, n, t, gamma))
    return out


def twitterrank(
    dataset: Dataset,
    gamma: float = DEFAULT_GAMMA,
    mode: str = "global",
    user: Optional[str] = None,
    topic: Optional[int] = None,
    ctx: Optional[FeatureContext] = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RankVector:
    """Topic-specific random-walk ranking aggregated over topics.

    Global mode weighs topics by the tweet-weighted mean of user topic
    distributions; personal mode uses the query user's own distribution.
    """
    if ctx is None:
        ctx = FeatureContext(dataset)
    per_topic = [
        power_iterate(m, ctx.user_ids, tol=tol, max_iters=max_iters, model="twitterrank")
        for m in twitterrank_matrices(dataset, gamma, ctx)
    ]
    if topic is not None:
        rv = per_topic[topic]
        rv.params.update({"gamma": gamma, "topic": topic})
        return rv
    if mode == "global":
        mass = ctx.tweet_counts if ctx.tweet_counts.sum() > 0 else np.ones(len(ctx.user_ids))
        shares = mass @ ctx.topics
    elif mode == "personal":
        if user is None:
            raise ValueError("personal mode requires a user id")
        shares = ctx.topics[ctx.index[user]]
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if shares.sum() <= 0:
        shares = np.ones(len(shares))
    shares = shares / shares.sum()
    scores = np.zeros(len(ctx.user_ids))
    for s, rv in zip(shares, per_topic):
        scores += s * rv.scores
    return RankVector(
        user_ids=tuple(ctx.user_ids),
        scores=scores,
        hour=None,
        model="twitterrank",
        params={"gamma": gamma, "mode": mode},
    )
