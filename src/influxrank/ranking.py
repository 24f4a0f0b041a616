"""Hourly and topic transition matrices, power iteration, weighted walk sums, baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def _edge_weights_all_topics(
    ctx: FeatureContext,
    rows: Optional[np.ndarray] = None,
    shares: Optional[np.ndarray] = None,
    topics: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The topic counterpart of ``_edge_weights_all_hours``: (len(rows),
    len(topics)) raw TwitterRank weights, the tweet share pt_uv (or
    ``shares``) times 1 - |topic_t(u) - topic_t(v)|, elementwise, so each
    topic's column has the same bits whichever topics come with it."""
    if rows is None:
        rows = np.arange(len(ctx.edge_src))
    if shares is None:
        shares = ctx.edge_static_features()[rows, PT_INDEX]
    theta = ctx.topics if topics is None else ctx.topics[:, topics]
    src, dst = ctx.edge_src[rows], ctx.edge_dst[rows]
    return shares[:, None] * (1.0 - np.abs(theta[src] - theta[dst]))


def _assemble(
    ctx: FeatureContext, weights: np.ndarray, key: int, gamma: float
) -> TransitionMatrix:
    """Column-normalize the raw weights of the context's edges (edge src ->
    dst is entry [dst, src]) into CSC form; zero columns become uniform.
    ``key`` is the hour or topic the matrix is of.

    The edges come sorted by follower and then by friend, so each column is
    one run of them, in ascending rows, and is summed the way scipy sums a
    CSC matrix's columns (one ``np.add.reduceat``). Entries whose normalized
    weight is exactly zero are dropped, and each column lists its rows in
    descending order: the entry order that ``rank --dump-matrix`` writes."""
    graph, n = ctx.dataset.graph, len(ctx.user_ids)
    nonempty = np.diff(graph.bounds) > 0
    col_sums = np.zeros(n)
    col_sums[nonempty] = np.add.reduceat(weights, graph.bounds[:-1][nonempty])
    dangling = col_sums <= 0.0
    values = weights * (1.0 / np.where(dangling, 1.0, col_sums))[graph.src]
    keep = values != 0.0
    col, row, values = graph.src[keep], graph.dst[keep], values[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    # position of each entry once every column's rows are reversed
    flip = indptr[col] + indptr[col + 1] - 1 - np.arange(len(col))
    m = sparse.csc_matrix((values[flip], row[flip], indptr), shape=(n, n))
    return TransitionMatrix(hour=key, gamma=gamma, n=n, matrix=m, dangling=dangling)


def _transition_matrices(
    ctx: FeatureContext, weights: np.ndarray, keys: Sequence[int], gamma: float
) -> Iterator[TransitionMatrix]:
    """The matrix of each hour or topic of ``keys``, in that order, from its
    column of the (edges x keys) raw weight grid ``weights``. Each matrix is
    assembled only when the iterator reaches it, so a caller that lets go
    of one matrix before it asks for the next holds one at a time."""
    return (_assemble(ctx, weights[:, j], int(k), gamma) for j, k in enumerate(keys))


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
    computed at the call; the matrices are assembled lazily
    (``_transition_matrices``)."""
    if dataset.n_users == 0:
        raise ValueError("empty dataset")
    check_params(gamma=gamma)
    if ctx is None:
        ctx = FeatureContext(dataset)
    weights = _edge_weights_all_hours(ctx, model, c, hours=hours)
    return _transition_matrices(ctx, weights, hours, gamma)


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
            return RankVector(
                user_ids=tuple(user_ids),
                scores=r,
                hour=matrix.hour,
                model=model,
                params={"gamma": matrix.gamma, "iterations": it + 1},
            )
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations (residual {residual:.3e})",
        residual,
    )


def activity_weights(ctx: FeatureContext) -> np.ndarray:
    """Share of all tweets posted in each hour of the day."""
    total = ctx.hour_counts.sum()
    if total <= 0:
        raise ValueError("empty dataset")
    return ctx.hour_counts / total


def normalise_weights(weights: np.ndarray) -> np.ndarray:
    """Weights divided by their sum along the last axis, as a ranking
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


def _walk_sum(
    ctx: FeatureContext,
    key: tuple,
    weights: np.ndarray,
    matrices: Callable[[list[int]], Iterable[TransitionMatrix]],
    tol: float,
    max_iters: int,
) -> np.ndarray:
    """The walk vectors of the hours (TIR) or topics (TwitterRank) of
    positive weight, summed in ascending order from +0.0 with ``weights``
    divided by their sum. Leaving a zero weight out changes no bit: adding
    0 * r (r finite) to a sum that is never -0.0 leaves it as it is.

    ``ctx.walks`` keeps the walks under ``key``, whose first item names the
    model, so only the missing ones of positive weight get a matrix, from
    ``matrices(missing)``, and an iteration; a walk that raises
    ConvergenceError is not stored. The store drops its least recently used
    key beyond ``_WALK_KEYS``; with at most 24 hours or topics a key, it
    holds at most _WALK_KEYS * 24 * n * 8 bytes: 3 MB at 2,000 users, 31 MB
    at 20,000."""
    store = ctx.walks
    if key in store:
        store.move_to_end(key)
    else:
        store[key] = {}
        if len(store) > _WALK_KEYS:
            store.popitem(last=False)
    walks = store[key]
    w = normalise_weights(weights)
    on = np.flatnonzero(w > 0)
    missing = [int(t) for t in on if t not in walks]
    if missing:
        for tm in matrices(missing):
            walks[tm.hour] = power_iterate(tm, ctx.walk_ids, tol=tol, max_iters=max_iters,
                                           model=key[0])
    scores = np.zeros(len(ctx.walk_ids))
    for t in on:
        scores += w[t] * walks[t].scores
    return scores


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
    iteration -> weighted sum (``_walk_sum``).

    The hour weights are the share of all tweets in each hour (global mode)
    or the user's own hourly activity (personal mode, uniform for a user
    without tweets). Only the hours of positive weight are built and
    iterated, so an hour of weight 0 cannot raise ConvergenceError, and
    ``ctx`` keeps the walks under the model's contents, c, gamma, tol and
    max_iters. Each hour's walk has the same bits whichever hours are
    computed with it, so a warm call gives the scores a cold call gives."""
    check_params(gamma, tol, max_iters)
    check_tir_model(model, c)
    row = _query_row(dataset, mode, user)
    if ctx is None:
        ctx = FeatureContext(dataset)
    w = activity_weights(ctx) if row is None else personal_weights(ctx, [row])[0]
    scores = _walk_sum(ctx, ("tir", _model_key(model), c, gamma, tol, max_iters), w,
                       lambda hours: hourly_matrices(dataset, model, hours, c, gamma, ctx),
                       tol, max_iters)
    return RankVector(ctx.walk_ids, scores, model="tir",
                      params={"c": c, "gamma": gamma, "mode": mode})


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
    ``topics`` (all topics by default), in that order, from the raw edge
    weights of ``_edge_weights_all_topics``."""
    check_params(gamma=gamma)
    if ctx is None:
        ctx = FeatureContext(dataset)
    topics = range(ctx.topics.shape[1]) if topics is None else topics
    weights = _edge_weights_all_topics(ctx, topics=topics)
    return list(_transition_matrices(ctx, weights, topics, gamma))


def twitterrank(
    dataset: Dataset,
    gamma: float = DEFAULT_GAMMA,
    mode: str = "global",
    user: Optional[str] = None,
    ctx: Optional[FeatureContext] = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RankVector:
    """Topic-specific random-walk ranking: the topic walks summed with the
    topic shares (``_walk_sum``).

    Global mode weighs topics by the tweet-weighted mean of user topic
    distributions, personal mode by the query user's own distribution
    (uniform where either sums to 0). As in ``tir_rank``, only the topics
    of positive share are built and iterated, and ``ctx`` keeps the walks
    under gamma, tol and max_iters."""
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
    scores = _walk_sum(ctx, ("twitterrank", gamma, tol, max_iters), shares,
                       lambda topics: twitterrank_matrices(dataset, gamma, ctx, topics),
                       tol, max_iters)
    return RankVector(ctx.walk_ids, scores, model="twitterrank",
                      params={"gamma": gamma, "mode": mode})
