"""Ranking comparison (Kendall tau) and the friend-recommendation protocol."""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .features import FeatureContext, js_divergence_rows
from .logistic import LogisticModel
from .model import Dataset
from .ranking import (
    DEFAULT_GAMMA,
    RankVector,
    _edge_weights_all_hours,
    aggregate,
    build_matrix,
    check_tunkrank_fixed_point,
    personal_weights,
    tunkrank_matrix,
    twitterrank_matrices,
)

SCENARIO_TAGS = ("L_fh", "L_fl", "L_th", "L_tl", "L_dh", "L_dl", "L_rr", "L_ur")


def _merge_count(seq: list[int]) -> tuple[list[int], int]:
    if len(seq) <= 1:
        return seq, 0
    mid = len(seq) // 2
    left, inv_l = _merge_count(seq[:mid])
    right, inv_r = _merge_count(seq[mid:])
    merged = []
    inv = inv_l + inv_r
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inv += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def kendall_tau(rank_a: RankVector | dict, rank_b: RankVector | dict) -> float:
    """tau-a over the tie-broken total orders: (C - D) / (n(n-1)/2).

    Computed by merge-sort inversion counting; score ties are broken by
    user id before pair counting.
    """
    a = rank_a.as_dict() if isinstance(rank_a, RankVector) else dict(rank_a)
    b = rank_b.as_dict() if isinstance(rank_b, RankVector) else dict(rank_b)
    if set(a) != set(b):
        raise ValueError("rankings cover different user sets")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two users")
    order_a = sorted(a, key=lambda u: (-a[u], u))
    pos_b = {u: i for i, u in enumerate(sorted(b, key=lambda u: (-b[u], u)))}
    seq = [pos_b[u] for u in order_a]
    _, inversions = _merge_count(seq)
    pairs = n * (n - 1) // 2
    return (pairs - 2 * inversions) / pairs


def _sub_seed(seed: int, *parts) -> int:
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") % 2**32


@dataclass
class LinkSet:
    tag: str
    links: list[tuple[str, str]]
    criterion: str
    seed: int
    flagged: bool = False  # fewer eligible links than requested


def user_signature_distributions(dataset: Dataset, ctx: FeatureContext) -> np.ndarray:
    """Per-user attribute vectors normalized into probability distributions.

    Components: listed count, favourites per tweet, verified flag, retweet
    ratio, tweet count, friend count, follower count - each min-max scaled
    over the user set, then shifted by a small epsilon and normalized to sum
    1 so Jensen-Shannon distances between users are well defined. This is an
    interpretive construction; only the relative distances matter.
    """
    n = len(ctx.user_ids)
    friend_deg = np.array([len(dataset.graph.friends(u)) for u in ctx.user_ids], float)
    follower_deg = np.array(
        [len(dataset.graph.followers(u)) for u in ctx.user_ids], float
    )
    cols = np.stack(
        [ctx.listed, ctx.fv, ctx.vr, ctx.rr, ctx.tweet_counts, friend_deg, follower_deg],
        axis=1,
    )
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = (cols - lo) / span + 1e-6
    return scaled / scaled.sum(axis=1, keepdims=True)


def edge_js_distances(dataset: Dataset, ctx: FeatureContext) -> np.ndarray:
    """Jensen-Shannon distance, sqrt(JSD), between each edge's user signatures."""
    sig = user_signature_distributions(dataset, ctx)
    return np.sqrt(np.maximum(js_divergence_rows(sig[ctx.edge_src], sig[ctx.edge_dst]), 0.0))


def build_link_sets(
    dataset: Dataset,
    seed: int = 0,
    ctx: Optional[FeatureContext] = None,
    n_links: int = 30,
    pool_fraction: float = 0.1,
) -> dict[str, LinkSet]:
    """Eight evaluation link sets: friend follower/tweet count high/low 10%,
    pairwise Jensen-Shannon distance high/low 10%, reciprocal, unreciprocal."""
    if ctx is None:
        ctx = FeatureContext(dataset)
    edges = ctx.edges
    follower_deg = np.array(
        [len(dataset.graph.followers(v)) for _, v in edges], dtype=float
    )
    tweet_count = ctx.tweet_counts[ctx.edge_dst]
    js_dist = edge_js_distances(dataset, ctx)
    reciprocal = np.array(
        [dataset.graph.has_edge(v, u) for u, v in edges], dtype=bool
    )

    def top_pool(values: np.ndarray, high: bool) -> list[int]:
        k = max(1, int(len(edges) * pool_fraction))
        order = np.argsort(-values if high else values, kind="stable")
        return list(order[:k])

    pools = {
        "L_fh": (top_pool(follower_deg, True), "friend follower count, high 10%"),
        "L_fl": (top_pool(follower_deg, False), "friend follower count, low 10%"),
        "L_th": (top_pool(tweet_count, True), "friend tweet count, high 10%"),
        "L_tl": (top_pool(tweet_count, False), "friend tweet count, low 10%"),
        "L_dh": (top_pool(js_dist, True), "pair JS distance, high 10%"),
        "L_dl": (top_pool(js_dist, False), "pair JS distance, low 10%"),
        "L_rr": (list(np.flatnonzero(reciprocal)), "followed each other"),
        "L_ur": (list(np.flatnonzero(~reciprocal)), "one-directional follow"),
    }
    out: dict[str, LinkSet] = {}
    for tag, (pool, criterion) in pools.items():
        if not pool:
            warnings.warn(f"scenario {tag}: empty pool, skipped")
            out[tag] = LinkSet(tag, [], criterion, seed, flagged=True)
            continue
        rng = np.random.default_rng(_sub_seed(seed, "linkset", tag))
        take = min(n_links, len(pool))
        chosen = rng.choice(len(pool), size=take, replace=False)
        out[tag] = LinkSet(
            tag,
            [edges[pool[i]] for i in sorted(chosen)],
            criterion,
            seed,
            flagged=take < n_links,
        )
    return out


class ColumnUpdateSolver:
    """Direct solve of (I - s S) x = b, and of the same system after one
    column of S is replaced.

    S is a column-normalised edge matrix: each column sums to 1 or is zero.
    The right-hand side b is either all ones or S 1. With ones and s = gamma,
    x normalised to sum 1 is PageRank with dangling mass spread uniformly,
    like the teleport vector (Del Corso, Gulli and Romani, "Fast PageRank
    Computation via a Sparse Linear System", 2005). With S 1 and s = p, x is
    TunkRank. I - s S is factored once with a sparse LU.

    Removing edge (u, v) replaces column u only: S' = S + d e_u^T with
    d = S'_u - S_u, and S' 1 = S 1 + d. By Sherman-Morrison the new solution
    is x + z (eta + s x_u) / (1 - s z_u), where z = (I - s S)^{-1} d and eta
    is 1 for the S 1 right-hand side, 0 for ones: one extra LU solve per
    removed link (Langville and Meyer, "Updating Markov Chains with an Eye
    on Google's PageRank", 2006).
    """

    def __init__(self, matrix: sparse.csc_matrix, s: float, rhs_from_matrix: bool = False):
        # imported here: scipy.sparse.linalg adds about 10 MB of resident
        # libraries, which only link scoring needs
        from scipy.sparse.linalg import splu

        n = matrix.shape[0]
        self.matrix = matrix.tocsc()
        self.s = s
        self.eta = 1.0 if rhs_from_matrix else 0.0
        self.lu = splu((sparse.identity(n, format="csc") - s * self.matrix).tocsc())
        rhs = self.matrix @ np.ones(n) if rhs_from_matrix else np.ones(n)
        self.x = self.lu.solve(rhs)

    def solve_with_column(self, u: int, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Solution with column u of S replaced by raw ``weights`` on ``rows``,
        normalised to sum 1; a column whose weights sum to 0 becomes zero."""
        total = weights.sum()
        column = weights * (1.0 / total) if total > 0 else np.zeros(len(rows))
        d = np.zeros(len(self.x))
        d[rows] = column
        start, stop = self.matrix.indptr[u], self.matrix.indptr[u + 1]
        d[self.matrix.indices[start:stop]] -= self.matrix.data[start:stop]
        z = self.lu.solve(d)
        x = self.x + z * ((self.eta + self.s * self.x[u]) / (1.0 - self.s * z[u]))
        # One fixed-point step, x <- b' + S'(eta + s x). It moves x by rounding
        # only, but computes each score from the user's in-edges as power
        # iteration does: users with the same in-edges (everyone nobody
        # follows, to begin with) get bitwise-equal scores, and such exact
        # ties fall to the user-id order instead of to LU rounding.
        w = self.eta + self.s * x
        w_u, w[u] = w[u], 0.0
        y = self.matrix @ w
        y[rows] += column * w_u
        return (1.0 - self.eta) + y


def _friend_rows(src: np.ndarray, dst: np.ndarray, iu: int, iv: int) -> np.ndarray:
    """Edge rows of follower iu that remain once iu unfollows iv."""
    rows = np.flatnonzero(src == iu)
    return rows[dst[rows] != iv]


def _friend_shares_without(
    ctx: FeatureContext, iu: int, iv: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u's remaining friend rows, those friends' indices, and each friend's
    share of the tweets of u's friends once u unfollows v (feature pt_uv)."""
    rows = _friend_rows(ctx.edge_src, ctx.edge_dst, iu, iv)
    dsts = ctx.edge_dst[rows]
    total = ctx.friend_tweet_total[iu] - ctx.tweet_counts[iv]
    shares = ctx.tweet_counts[dsts] / total if total > 0 else np.zeros(len(dsts))
    return rows, dsts, shares


class TirLinkScorer:
    """Reusable TIR machinery for repeated single-edge-removal rankings.

    Removing edge (u, v) only changes column u of every hourly matrix: u
    loses a friend, which shifts the tweet-share feature and close-friend
    multiplier for u's remaining edges. Those weights are recomputed and each
    hour's ranking is updated by one ColumnUpdateSolver solve.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: LogisticModel,
        c: float,
        gamma: float = DEFAULT_GAMMA,
        ctx: Optional[FeatureContext] = None,
    ):
        self.dataset = dataset
        self.model = model
        self.c = c
        self.gamma = gamma
        self.ctx = ctx if ctx is not None else FeatureContext(dataset)
        weights = _edge_weights_all_hours(self.ctx, model, c)
        self.solvers = [
            ColumnUpdateSolver(
                build_matrix(dataset, model, t, c, gamma, ctx=self.ctx, edge_weights=weights).matrix,
                gamma,
            )
            for t in range(24)
        ]

    def personal_scores_without(self, u: str, v: str) -> RankVector:
        ctx = self.ctx
        iu = ctx.index[u]
        u_rows, dsts, shares = _friend_shares_without(ctx, iu, ctx.index[v])
        weights = _edge_weights_all_hours(ctx, self.model, self.c, rows=u_rows, shares=shares)
        hourly = []
        for t, solver in enumerate(self.solvers):
            y = solver.solve_with_column(iu, dsts, weights[:, t])
            hourly.append(RankVector(tuple(ctx.user_ids), y / y.sum(), hour=t))
        return aggregate(
            hourly,
            personal_weights(ctx, u),
            model="tir",
            params={"c": self.c, "mode": "personal", "user": u},
        )


class TwitterRankLinkScorer:
    """TwitterRank counterpart of TirLinkScorer (per-topic matrices)."""

    def __init__(
        self,
        dataset: Dataset,
        gamma: float = DEFAULT_GAMMA,
        ctx: Optional[FeatureContext] = None,
    ):
        self.dataset = dataset
        self.gamma = gamma
        self.ctx = ctx if ctx is not None else FeatureContext(dataset)
        self.solvers = [
            ColumnUpdateSolver(tm.matrix, gamma)
            for tm in twitterrank_matrices(dataset, gamma, self.ctx)
        ]

    def personal_scores_without(self, u: str, v: str) -> RankVector:
        ctx = self.ctx
        iu = ctx.index[u]
        _, dsts, ratio = _friend_shares_without(ctx, iu, ctx.index[v])
        sims = 1.0 - np.abs(ctx.topics[iu] - ctx.topics[dsts])  # (len(dsts), k)
        shares = ctx.topics[iu]
        scores = np.zeros(len(ctx.user_ids))
        for t, solver in enumerate(self.solvers):
            if shares[t] <= 0:
                continue
            y = solver.solve_with_column(iu, dsts, ratio * sims[:, t])
            scores += shares[t] * (y / y.sum())
        if shares.sum() > 0:
            scores /= shares.sum()
        return RankVector(
            user_ids=tuple(ctx.user_ids),
            scores=scores,
            hour=None,
            model="twitterrank",
            params={"mode": "personal", "user": u},
        )


class TunkRankLinkScorer:
    """TunkRank after removing one follow link, by one ColumnUpdateSolver
    solve: column u of the follower -> friend matrix holds 1/deg(u) on each
    friend, and without (u, v) it holds 1/(deg(u) - 1) on the rest."""

    def __init__(self, dataset: Dataset, p: float = 0.05):
        self.p = p
        self.user_ids, self.src, self.dst, a = tunkrank_matrix(dataset, p)
        self.index = {u: i for i, u in enumerate(self.user_ids)}
        self.solver = ColumnUpdateSolver(a, p, rhs_from_matrix=True)

    def scores_without(self, u: str, v: str) -> RankVector:
        iu, iv = self.index[u], self.index[v]
        if self.p == 1.0:
            keep = (self.src != iu) | (self.dst != iv)
            check_tunkrank_fixed_point(self.src[keep], self.dst[keep], len(self.user_ids))
        u_rows = _friend_rows(self.src, self.dst, iu, iv)
        x = self.solver.solve_with_column(iu, self.dst[u_rows], np.ones(len(u_rows)))
        return RankVector(
            user_ids=self.user_ids, scores=x, hour=None, model="tunkrank", params={"p": self.p}
        )


def sample_candidates(
    dataset: Dataset, u: str, seed: int, size: int = 10
) -> list[str]:
    not_followed = sorted(
        x for x in dataset.users if x != u and not dataset.graph.has_edge(u, x)
    )
    if len(not_followed) < size:
        raise ValueError(f"fewer than {size} non-followed users for {u!r}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(not_followed), size=size, replace=False)
    return [not_followed[i] for i in sorted(chosen)]


def q_score(scores: RankVector, v: str, candidates: Sequence[str]) -> int:
    """Number of candidates the true friend v outranks (ties by user id)."""
    d = scores.as_dict()
    key_v = (-d[v], v)
    return sum(1 for cand in candidates if key_v < (-d[cand], cand))


def evaluate_link(
    dataset: Dataset,
    link: tuple[str, str],
    seed: int,
    model: str = "tunkrank",
    scorer=None,
    tunkrank_p: float = 0.05,
) -> int:
    """Q(l) for one removed link: sample 10 non-followed candidates, rank on
    the reduced graph, count candidates ranked below the true friend.

    TIR and TwitterRank use personal-perspective aggregation via the given
    scorer; TunkRank uses its global ranking, from the given scorer or one
    built here with ``tunkrank_p``.
    """
    u, v = link
    if not dataset.graph.has_edge(u, v):
        raise ValueError(f"link ({u!r}, {v!r}) not in graph")
    candidates = sample_candidates(dataset, u, _sub_seed(seed, "candidates", u, v))
    if model == "tunkrank":
        if scorer is None:
            scorer = TunkRankLinkScorer(dataset, p=tunkrank_p)
        scores = scorer.scores_without(u, v)
    elif model in ("tir", "twitterrank"):
        if scorer is None:
            raise ValueError(f"{model} evaluation requires a prepared scorer")
        scores = scorer.personal_scores_without(u, v)
    else:
        raise ValueError(f"unknown model {model!r}")
    return q_score(scores, v, candidates)


@dataclass
class ScenarioResult:
    tag: str
    model: str
    c: Optional[float]
    q_values: list[int]
    n_links: int = field(init=False)
    mean_q: float = field(init=False)

    def __post_init__(self):
        self.n_links = len(self.q_values)
        self.mean_q = float(np.mean(self.q_values)) if self.q_values else float("nan")


def run_scenarios(
    dataset: Dataset,
    logistic_model: LogisticModel,
    seed: int = 0,
    models: Sequence[str] = ("tir", "tunkrank", "twitterrank"),
    c_grid: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0),
    gamma: float = DEFAULT_GAMMA,
    tunkrank_p: float = 0.05,
    scenarios: Optional[Sequence[str]] = None,
    n_links: int = 30,
    ctx: Optional[FeatureContext] = None,
) -> list[ScenarioResult]:
    """Mean Q per (scenario, model); TIR additionally swept over c_grid.

    Results come in the order scenario -> model -> c; each scorer serves
    every scenario's links before the next one is built.
    """
    if ctx is None:
        ctx = FeatureContext(dataset)
    link_sets = build_link_sets(dataset, seed=seed, ctx=ctx, n_links=n_links)
    tags = [t for t in (scenarios or SCENARIO_TAGS) if link_sets[t].links]

    def q_by_tag(model: str, scorer) -> dict[str, list[int]]:
        return {
            tag: [evaluate_link(dataset, l, seed, model, scorer) for l in link_sets[tag].links]
            for tag in tags
        }

    # Scorers are temporaries: one c's TIR factorisations are freed before
    # the next c's are built.
    per_model: list[tuple[str, Optional[float], dict[str, list[int]]]] = []
    for model in models:
        if model == "tir":
            for c in c_grid:
                per_model.append(("tir", c, q_by_tag(
                    "tir", TirLinkScorer(dataset, logistic_model, c, gamma=gamma, ctx=ctx))))
        elif model == "twitterrank":
            per_model.append(("twitterrank", None, q_by_tag(
                "twitterrank", TwitterRankLinkScorer(dataset, gamma=gamma, ctx=ctx))))
        elif model == "tunkrank":
            per_model.append(("tunkrank", None, q_by_tag(
                "tunkrank", TunkRankLinkScorer(dataset, p=tunkrank_p))))
        else:
            raise ValueError(f"unknown model {model!r}")
    return [ScenarioResult(tag, m, c, qs[tag]) for tag in tags for m, c, qs in per_model]
