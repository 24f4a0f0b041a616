"""Hourly transition matrices, power iteration, rank aggregation, baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .features import RE_INDEX, FeatureContext
from .logistic import LogisticModel
from .model import Dataset
from .temporal import global_activity

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

    def step(self, r: np.ndarray) -> np.ndarray:
        y = self.matrix @ r
        dangling_mass = float(r[self.dangling].sum())
        y = y + dangling_mass / self.n
        return self.gamma * y + (1.0 - self.gamma) / self.n

    def dense(self) -> np.ndarray:
        d = self.matrix.toarray()
        d[:, self.dangling] = 1.0 / self.n
        return self.gamma * d + (1.0 - self.gamma) / self.n


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
        return sorted(self.user_ids, key=lambda u: (-self.as_dict()[u], u))

    def ranks(self) -> dict[str, int]:
        return {u: i + 1 for i, u in enumerate(self.order())}


def hourly_weights(
    dataset: Dataset,
    model: LogisticModel,
    u: str,
    v: str,
    t: int,
    c: float,
    ctx: Optional[FeatureContext] = None,
) -> float:
    """Transition weight for edge (u, v) at hour t.

    Response probability with the ever-responded feature forced to 1, times
    the friend's hourly tweet rate, times c for close friends / (1 - c)
    otherwise.
    """
    from .features import extract

    if not 0.5 <= c <= 1.0:
        raise ValueError("penalty factor c must be in [0.5, 1]")
    if ctx is None:
        ctx = FeatureContext(dataset)
    x = extract(dataset, u, v, t, ctx=ctx).as_array().copy()
    x[RE_INDEX] = 1.0
    if model.scaler is not None:
        x = model.scaler.transform(x)[0]
    p = model.predict(x)
    n_v_t = float(ctx.n_t[ctx.index[v], t])
    mult = c if v in ctx.close_friends[u] else (1.0 - c)
    return mult * n_v_t * p


def _edge_weights_all_hours(
    ctx: FeatureContext, model: LogisticModel, c: float
) -> np.ndarray:
    """(n_edges, 24) raw transition weights, vectorized over edges."""
    static = ctx.edge_static_features().copy()
    static[:, RE_INDEX] = 1.0
    mult = np.where(ctx.edge_close, c, 1.0 - c)
    out = np.empty((len(ctx.edges), 24))
    for t in range(24):
        x = ctx.fill_hourly(static.copy(), np.full(len(ctx.edges), t))
        if model.scaler is not None:
            x = model.scaler.transform(x)
        p = model.predict(x)
        out[:, t] = mult * ctx.n_t[ctx.edge_dst, t] * p
    return out


def _assemble(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int, hour: int, gamma: float
) -> TransitionMatrix:
    """Column-normalize raw edge weights; zero columns become uniform."""
    m = sparse.coo_matrix((weights, (dst, src)), shape=(n, n)).tocsc()
    col_sums = np.asarray(m.sum(axis=0)).ravel()
    dangling = col_sums <= 0.0
    scale = np.where(dangling, 1.0, col_sums)
    m = m @ sparse.diags(1.0 / scale, format="csc")
    return TransitionMatrix(hour=hour, gamma=gamma, n=n, matrix=m.tocsc(), dangling=dangling)


def build_matrix(
    dataset: Dataset,
    model: LogisticModel,
    t: int,
    c: float = 0.85,
    gamma: float = DEFAULT_GAMMA,
    ctx: Optional[FeatureContext] = None,
    edge_weights: Optional[np.ndarray] = None,
) -> TransitionMatrix:
    """Hourly TIR transition matrix: raw weights from hourly_weights, columns
    normalized to sum 1, dangling columns replaced by uniform 1/|V|."""
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
    w = w / w.sum()
    user_ids = rank_vectors[0].user_ids
    scores = np.zeros(len(user_ids))
    for wt, rv in zip(w, rank_vectors):
        if rv.user_ids != user_ids:
            raise ValueError("hourly rank vectors cover different user sets")
        scores += wt * rv.scores
    return RankVector(
        user_ids=user_ids, scores=scores, hour=None, model=model, params=params or {}
    )


def activity_weights(dataset: Dataset) -> np.ndarray:
    act = global_activity(dataset, "hour_of_day")
    return act / act.sum()


def personal_weights(ctx: FeatureContext, user_id: str) -> np.ndarray:
    a = ctx.a_t[ctx.index[user_id]]
    if a.sum() <= 0:
        return np.full(24, 1.0 / 24)
    return a


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
        w = activity_weights(dataset)
    elif mode == "personal":
        if user is None:
            raise ValueError("personal mode requires a user id")
        w = personal_weights(ctx, user)
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
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    user_ids = sorted(dataset.users)
    index = {u: i for i, u in enumerate(user_ids)}
    n = len(user_ids)
    rows, cols, data = [], [], []
    for follower, friend in dataset.graph.edges():
        deg = len(dataset.graph.friends(follower))
        rows.append(index[friend])
        cols.append(index[follower])
        data.append(1.0 / deg)
    if p == 1.0:
        check_tunkrank_fixed_point(np.array(cols, dtype=int), np.array(rows, dtype=int), n)
    a = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    influence = np.zeros(n)
    for _ in range(max_iters):
        new = a @ (1.0 + p * influence)
        residual = float(np.abs(new - influence).sum())
        influence = new
        if residual < tol:
            return RankVector(
                user_ids=tuple(user_ids),
                scores=influence,
                hour=None,
                model="tunkrank",
                params={"p": p},
            )
    raise ConvergenceError("tunkrank did not converge", residual)


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
    totals = ctx.friend_tweet_total[src]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(totals > 0, ctx.tweet_counts[dst] / np.maximum(totals, 1e-300), 0.0)
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
