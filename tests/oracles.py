"""Reference implementations that tests compare the package against.

The scalar ones compute one value at a time, directly from its definition.
The TIR weight loop, the sparse-product matrix assembly and the plain power
iteration are the straightforward forms the vectorised ranking code replaced:
one feature fill per hour and scipy's own COO -> CSC -> product path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from influxrank.features import FEATURE_NAMES, RE_INDEX, FeatureContext
from influxrank.logistic import LogisticModel
from influxrank.model import Dataset
from influxrank.ranking import RankVector, TransitionMatrix


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
