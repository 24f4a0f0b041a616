"""Hourly transition matrices, power iteration, rank aggregation, baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import sparse

from .features import HOURLY_INDICES, N_FEATURES, PT_INDEX, RE_INDEX, FeatureContext
from .logistic import LogisticModel, probability_of_score
from .model import Dataset

DEFAULT_GAMMA = 0.85
# TunkRank's retweet probability
DEFAULT_P = 0.05
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def check_params(
    gamma: Optional[float] = None,
    tol: Optional[float] = None,
    max_iters: Optional[int] = None,
) -> None:
    """Raise ValueError for a damping factor outside (0, 1), a tolerance
    that is not finite and positive, or fewer than one iteration; a
    parameter left None is not checked."""
    if gamma is not None and not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if max_iters is not None and max_iters < 1:
        raise ValueError("max_iters must be at least 1")


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


def check_tir_model(model: LogisticModel, c: float) -> None:
    """Raise ValueError for a penalty factor c outside [0.5, 1], or for a
    response model whose dimension is not the feature count."""
    if not 0.5 <= c <= 1.0:
        raise ValueError("penalty factor c must be in [0.5, 1]")
    if len(model.w) != N_FEATURES:
        raise ValueError(f"feature dimension {N_FEATURES} != model dimension {len(model.w)}")


def _edge_weights_all_hours(
    ctx: FeatureContext,
    model: LogisticModel,
    c: float,
    rows: Optional[np.ndarray] = None,
    shares: Optional[np.ndarray] = None,
    hours: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """(len(rows), len(hours)) raw transition weights of edge rows ``rows``
    (all edges by default) at ``hours`` (all 24 by default): the response
    probability with the ever-responded feature forced to 1, times the
    friend's hourly tweet rate, times c for close friends and 1 - c
    otherwise. ``shares`` replaces the tweet-share feature pt_uv of those
    rows.

    The logit is w0 plus the terms of the static features, summed once per
    edge, plus the terms of the four hourly features at each hour. Every
    hour's column is computed elementwise, so it has the same bits whichever
    other hours are computed with it."""
    check_tir_model(model, c)
    if rows is None:
        rows = np.arange(len(ctx.edge_src))
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
    # gathered for all 24 hours (a row gather, cheaper than a rows x hours
    # gather of a few), then the hours' columns copied out unless they are
    # all 24 in order
    hourly = ctx.fill_hourly(rows, slice(None), np.empty((4, len(rows), 24)))
    if hours is not None and list(hours) != list(range(24)):
        hourly = hourly[:, :, hours]
    z = np.repeat(z[:, None], hourly.shape[2], axis=1)
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


def hourly_matrices(
    dataset: Dataset,
    model: LogisticModel,
    hours: Sequence[int],
    c: float = 0.85,
    gamma: float = DEFAULT_GAMMA,
    ctx: Optional[FeatureContext] = None,
) -> Iterator[TransitionMatrix]:
    """The TIR transition matrices of ``hours``, in that order: raw weights
    from _edge_weights_all_hours, columns normalized to sum 1, dangling
    columns replaced by uniform 1/|V|.

    The parameters are checked and the weight grid over ``hours`` is
    computed at the call; each matrix is assembled only when the iterator
    reaches it, so a caller that lets go of one matrix before it asks for
    the next holds one at a time."""
    if dataset.n_users == 0:
        raise ValueError("empty dataset")
    check_params(gamma=gamma)
    if ctx is None:
        ctx = FeatureContext(dataset)
    weights = _edge_weights_all_hours(ctx, model, c, hours=hours)
    n = len(ctx.user_ids)
    return (
        _assemble(ctx.edge_src, ctx.edge_dst, weights[:, j], n, int(t), gamma)
        for j, t in enumerate(hours)
    )


def build_matrix(
    dataset: Dataset,
    model: LogisticModel,
    t: int,
    c: float = 0.85,
    gamma: float = DEFAULT_GAMMA,
    ctx: Optional[FeatureContext] = None,
) -> TransitionMatrix:
    """Hourly TIR transition matrix of hour t (see ``hourly_matrices``)."""
    return next(hourly_matrices(dataset, model, [t], c, gamma, ctx))


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
    check_params(tol=tol, max_iters=max_iters)
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


# walk keys that a FeatureContext keeps: more than the four (TIR at three
# values of c, and TwitterRank) that ``compare`` or ``rank-2k`` ranks with
_WALK_KEYS = 8


def _stored_walks(ctx: FeatureContext, key: tuple) -> dict[int, RankVector]:
    """The converged walk vectors that ``ctx`` keeps under ``key``, by hour
    (TIR) or topic (TwitterRank): a dict that the caller adds the walks it
    computes to.

    ``ctx.walks`` holds the vectors of the ``_WALK_KEYS`` keys used last and
    drops the least recently used key beyond them. A key holds at most 24
    hourly vectors, or one per topic, of n floats each, so with at most 24
    topics the store holds at most _WALK_KEYS * 24 * n * 8 bytes: 3 MB at
    2,000 users, 31 MB at 20,000."""
    store = ctx.walks
    if key in store:
        store.move_to_end(key)
    else:
        store[key] = {}
        if len(store) > _WALK_KEYS:
            store.popitem(last=False)
    return store[key]


def _model_key(model: LogisticModel) -> tuple[bytes, ...]:
    """The bits of everything of ``model`` that TIR's edge weights read."""
    arrays = [model.w0, model.w]
    if model.scaler is not None:
        arrays += [model.scaler.mins, model.scaler.maxs]
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


def _query_row(dataset: Dataset, mode: str, user: Optional[str]) -> Optional[int]:
    """None in global mode; in personal mode, the query user's index into
    the sorted user ids. Raises ValueError for an unknown mode or user."""
    if mode == "global":
        return None
    if mode != "personal":
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if user is None:
        raise ValueError("personal mode requires a user id")
    if user not in dataset.graph.index:
        raise ValueError(f"unknown user {user!r}")
    return dataset.graph.index[user]


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
    """Full TIR pipeline: hour weights -> hourly matrices -> power
    iteration -> aggregate.

    The hour weights come first: the share of all tweets in each hour
    (global mode) or the user's own hourly activity (personal mode, uniform
    for a user without tweets). Only the hours of positive weight are
    aggregated; the others enter ``aggregate`` as None. The scores equal
    the aggregation of all 24 hours bit for bit, but an hour of weight 0
    can no longer raise ConvergenceError, as it is never iterated.

    The hourly walks do not depend on the query, so ``ctx`` keeps them
    (``_stored_walks``) under the model's contents, c, gamma, tol and
    max_iters: only the hours of positive weight that no earlier call on
    ``ctx`` iterated get edge weights, a matrix and an iteration. Each
    hour's walk has the same bits whichever hours are computed with it, so
    a stored walk gives the scores a cold call gives. An hour that raises
    ConvergenceError is not stored."""
    check_params(gamma, tol, max_iters)
    check_tir_model(model, c)
    row = _query_row(dataset, mode, user)
    if ctx is None:
        ctx = FeatureContext(dataset)
    w = activity_weights(ctx) if row is None else personal_weights(ctx, [row])[0]
    walks = _stored_walks(ctx, ("tir", _model_key(model), c, gamma, tol, max_iters))
    missing = [int(t) for t in np.flatnonzero(w > 0) if t not in walks]
    if missing:
        for tm in hourly_matrices(dataset, model, missing, c, gamma, ctx):
            walks[tm.hour] = power_iterate(tm, ctx.walk_ids, tol=tol, max_iters=max_iters)
    hourly = [walks[t] if w[t] > 0 else None for t in range(24)]
    return aggregate(hourly, w, model="tir", params={"c": c, "gamma": gamma, "mode": mode})


def tunkrank(
    dataset: Dataset,
    p: float = DEFAULT_P,
    tol: float = DEFAULT_TOL,
    max_iters: int = 100000,
) -> RankVector:
    """Fixed point of Influence(X) = sum over followers Y of
    (1 + p * Influence(Y)) / |Friends(Y)|."""
    check_params(tol=tol, max_iters=max_iters)
    user_ids, a = tunkrank_matrix(dataset, p)
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


def tunkrank_matrix(dataset: Dataset, p: float) -> tuple[tuple[str, ...], sparse.csc_matrix]:
    """Sorted user ids and the follower -> friend matrix A with
    1/|Friends(u)| on each friend in column u. Rejects p outside [0, 1], and
    p = 1 when it has no fixed point."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    graph = dataset.graph
    user_ids, src, dst = tuple(graph.vertices), graph.src, graph.dst
    n = len(user_ids)
    if p == 1.0:
        check_tunkrank_fixed_point(src, dst, n)
    deg = np.bincount(src, minlength=n)
    a = sparse.csc_matrix((1.0 / deg[src], (dst, src)), shape=(n, n))
    return user_ids, a


def check_tunkrank_fixed_point(follower: np.ndarray, friend: np.ndarray, n: int) -> None:
    """Raise ValueError when TunkRank at p = 1 has no fixed point.

    With p = 1 the fixed point exists exactly when there is no closed follow
    class: a strongly connected set of users with a follow edge among them
    and no edge leaving it. Such a class keeps all of its followers'
    influence, so the follower -> friend matrix has eigenvalue 1 and the
    iteration grows without bound. For p < 1 a fixed point always exists.
    """
    # imported here, like splu in evaluation: csgraph alone adds about 10 MB
    # of resident libraries (1 MB once scipy.sparse.linalg is loaded), and
    # only p = 1 needs it
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
    topics: Optional[Sequence[int]] = None,
) -> list[TransitionMatrix]:
    """One column-normalized, damped transition structure per topic of
    ``topics`` (all topics by default), in that order.

    Raw edge weight at topic t: friend's tweet share among the follower's
    friends times 1 - |topic_t(u) - topic_t(v)|.
    """
    check_params(gamma=gamma)
    if ctx is None:
        ctx = FeatureContext(dataset)
    n = len(ctx.user_ids)
    src, dst = ctx.edge_src, ctx.edge_dst
    ratio = ctx.edge_static_features()[:, PT_INDEX]
    out = []
    for t in range(ctx.topics.shape[1]) if topics is None else topics:
        sim = 1.0 - np.abs(ctx.topics[src, t] - ctx.topics[dst, t])
        out.append(_assemble(src, dst, ratio * sim, n, t, gamma))
    return out


def twitterrank(
    dataset: Dataset,
    gamma: float = DEFAULT_GAMMA,
    mode: str = "global",
    user: Optional[str] = None,
    ctx: Optional[FeatureContext] = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RankVector:
    """Topic-specific random-walk ranking aggregated over topics.

    Global mode weighs topics by the tweet-weighted mean of user topic
    distributions; personal mode uses the query user's own distribution.
    As in ``tir_rank``, only the topics of positive share are aggregated,
    and ``ctx`` keeps the topic walks under gamma, tol and max_iters: only
    the topics that no earlier call on ``ctx`` iterated get a matrix and an
    iteration.
    """
    check_params(gamma, tol, max_iters)
    row = _query_row(dataset, mode, user)
    if ctx is None:
        ctx = FeatureContext(dataset)
    if row is None:
        mass = ctx.tweet_counts if ctx.tweet_counts.sum() > 0 else np.ones(len(ctx.user_ids))
        shares = mass @ ctx.topics
    else:
        shares = ctx.topics[row]
    if shares.sum() <= 0:
        shares = np.ones(len(shares))
    shares = shares / shares.sum()
    topics = np.flatnonzero(shares > 0)
    walks = _stored_walks(ctx, ("twitterrank", gamma, tol, max_iters))
    missing = [int(t) for t in topics if t not in walks]
    for tm in twitterrank_matrices(dataset, gamma, ctx, missing):
        walks[tm.hour] = power_iterate(tm, ctx.walk_ids, tol=tol, max_iters=max_iters,
                                       model="twitterrank")
    scores = np.zeros(len(ctx.user_ids))
    for t in topics:
        scores += shares[t] * walks[t].scores
    return RankVector(
        user_ids=ctx.walk_ids,
        scores=scores,
        hour=None,
        model="twitterrank",
        params={"gamma": gamma, "mode": mode},
    )
