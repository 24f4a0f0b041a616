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
    build_matrix,
    check_tunkrank_fixed_point,
    normalise_weights,
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


# Links scored together, in one multi-column solve per matrix. At 2,000
# users larger blocks are no faster, and their (n x links) work arrays
# raised the process's peak RSS.
BLOCK_LINKS = 16


class ColumnUpdateSolver:
    """Direct solve of (I - s S) x = b, and of the same system after one
    column of S is replaced, for a block of such replacements at once.

    S is a column-normalised edge matrix: each column sums to 1 or is zero.
    The right-hand side b is either all ones or S 1. With ones and s = gamma,
    x normalised to sum 1 is PageRank with dangling mass spread uniformly,
    like the teleport vector (Del Corso, Gulli and Romani, "Fast PageRank
    Computation via a Sparse Linear System", 2005). With S 1 and s = p, x is
    TunkRank. I - s S is factored once with a sparse LU.

    Removing edge (u, v) replaces column u only: S' = S + d e_u^T with
    d = S'_u - S_u, and S' 1 = S 1 + d. By Sherman-Morrison the new solution
    is x + z (eta + s x_u) / (1 - s z_u), where z = (I - s S)^{-1} d and eta
    is 1 for the S 1 right-hand side, 0 for ones (Langville and Meyer,
    "Updating Markov Chains with an Eye on Google's PageRank", 2006). The
    differences d of L removals form an (n x L) matrix, and one multi-column
    LU solve gives all L vectors z. On the synthetic follow graphs that solve
    equals L single-column solves bit for bit; where the factors hold large
    dense supernodes, SuperLU's multi-column kernels may round differently.
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

    def solve_with_columns(
        self, us: np.ndarray, rows: np.ndarray, columns: np.ndarray, link: np.ndarray
    ) -> np.ndarray:
        """(L, n) solutions, one per replaced column: in solution k, column
        us[k] of S holds the values ``columns[link == k]`` on rows
        ``rows[link == k]`` (each a column that sums to 1, or all zero) and
        nothing else."""
        n, cols = len(self.x), np.arange(len(us))
        d = np.zeros((n, len(us)), order="F")
        d[rows, link] = columns
        starts, stops = self.matrix.indptr[us], self.matrix.indptr[us + 1]
        old = _concat_ranges(starts, stops)
        d[self.matrix.indices[old], np.repeat(cols, stops - starts)] -= self.matrix.data[old]
        # z becomes x, then w, in place: IEEE + and * commute exactly, so
        # z f + x and x s + eta have the bits of self.x + z f and eta + s x
        w = self.lu.solve(d)
        del d
        w *= (self.eta + self.s * self.x[us]) / (1.0 - self.s * w[us, cols])
        w += self.x[:, None]
        # One fixed-point step, x <- b' + S'(eta + s x). It moves x by rounding
        # only, but computes each score from the user's in-edges as power
        # iteration does: users with the same in-edges (everyone nobody
        # follows, to begin with) get bitwise-equal scores, and such exact
        # ties fall to the user-id order instead of to LU rounding.
        w *= self.s
        w += self.eta
        w_u = w[us, cols]
        w[us, cols] = 0.0
        # the sparse product reads a C-ordered block; copy it once here, so
        # that only two (n x L) blocks are held at a time
        w = np.ascontiguousarray(w)
        y = self.matrix @ w
        del w
        y[rows, link] += columns * w_u[link]
        y += 1.0 - self.eta
        return np.ascontiguousarray(y.T)


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of range(starts[i], stops[i]) for each i, concatenated."""
    counts = stops - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _friend_rows(
    src: np.ndarray, dst: np.ndarray, ius: np.ndarray, ivs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge rows of follower ius[k] that remain once it unfollows ivs[k], in
    ascending order, for each k in turn, and the k of each row. ``src`` must
    be sorted, as the follower indices of ``graph.edges()`` are."""
    starts = np.searchsorted(src, ius, "left")
    stops = np.searchsorted(src, ius, "right")
    rows = _concat_ranges(starts, stops)
    link = np.repeat(np.arange(len(ius)), stops - starts)
    keep = dst[rows] != ivs[link]
    return rows[keep], link[keep]


def _friend_shares_without(
    ctx: FeatureContext, ius: np.ndarray, ivs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_friend_rows of the context's edges, and each remaining friend's share
    of the tweets of u's friends once u unfollows v (feature pt_uv)."""
    rows, link = _friend_rows(ctx.edge_src, ctx.edge_dst, ius, ivs)
    total = (ctx.friend_tweet_total[ius] - ctx.tweet_counts[ivs])[link]
    shares = np.zeros(len(rows))
    pos = total > 0
    shares[pos] = ctx.tweet_counts[ctx.edge_dst[rows[pos]]] / total[pos]
    return rows, link, shares


def _normalise_columns(weights: np.ndarray, link: np.ndarray, n_links: int) -> np.ndarray:
    """(k, m) columns from (m, k) raw ``weights`` whose rows belong to the
    ascending links ``link``: each link's rows divided, per column, by their
    sum, or zero where that sum is not positive. Each sum is a contiguous
    1-D ``.sum()``, the sum the link would get alone."""
    by_column = np.ascontiguousarray(weights.T)
    out = np.zeros_like(by_column)
    bounds = np.searchsorted(link, np.arange(n_links + 1))
    for a, b in zip(bounds[:-1], bounds[1:]):
        total = by_column[:, a:b].sum(axis=1)
        ok = total > 0
        out[ok, a:b] = by_column[ok, a:b] * (1.0 / total[ok])[:, None]
    return out


def _link_indices(index: dict[str, int], links: Sequence[tuple[str, str]]):
    ius = np.array([index[u] for u, _ in links], dtype=np.intp)
    ivs = np.array([index[v] for _, v in links], dtype=np.intp)
    return ius, ivs


class _LinkBlocks:
    """Single-link scores served from blocks of links scored together.

    ``expect(links)`` lists the links that will be asked for, in that order.
    Asking for the next expected link scores it with the BLOCK_LINKS - 1
    expected links after it in one ``scores_without_links`` call, and the
    rest of that block is then served from memory. Any other link is scored
    alone, as a block of one."""

    def expect(self, links: Sequence[tuple[str, str]]) -> None:
        self._queue = list(links)
        self._rows: dict[tuple[str, str], np.ndarray] = {}

    def _scores(self, u: str, v: str) -> np.ndarray:
        link = (u, v)
        if link not in self._rows:
            block = [link]
            if self._queue[:1] == block:
                block, self._queue = self._queue[:BLOCK_LINKS], self._queue[BLOCK_LINKS:]
            self._rows.update(zip(block, self.scores_without_links(block)))
        return self._rows.pop(link)


class TirLinkScorer(_LinkBlocks):
    """Reusable TIR machinery for repeated single-edge-removal rankings.

    Removing edge (u, v) only changes column u of every hourly matrix: u
    loses a friend, which shifts the tweet-share feature and close-friend
    multiplier for u's remaining edges. Those weights are recomputed for a
    block of links at once, and each hour's rankings are updated by one
    ColumnUpdateSolver solve for the block.
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
        self.user_ids = tuple(self.ctx.user_ids)
        self.expect(())
        weights = _edge_weights_all_hours(self.ctx, model, c)
        self.solvers = [
            ColumnUpdateSolver(
                build_matrix(dataset, model, t, c, gamma, ctx=self.ctx, edge_weights=weights).matrix,
                gamma,
            )
            for t in range(24)
        ]

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) personal TIR scores of each link's follower u once
        u unfollows v, aggregated over the hours with u's activity."""
        ctx = self.ctx
        ius, ivs = _link_indices(ctx.index, links)
        rows, link, shares = _friend_shares_without(ctx, ius, ivs)
        weights = _edge_weights_all_hours(ctx, self.model, self.c, rows=rows, shares=shares)
        columns = _normalise_columns(weights, link, len(links))
        dsts = ctx.edge_dst[rows]
        hour_w = normalise_weights(personal_weights(ctx, ius))
        scores = np.zeros((len(links), len(ctx.user_ids)))
        for t, solver in enumerate(self.solvers):
            y = solver.solve_with_columns(ius, dsts, columns[t], link)
            y /= y.sum(axis=1)[:, None]
            y *= hour_w[:, t, None]
            scores += y
        return scores

    def personal_scores_without(self, u: str, v: str) -> RankVector:
        return RankVector(
            self.user_ids,
            self._scores(u, v),
            hour=None,
            model="tir",
            params={"c": self.c, "mode": "personal", "user": u},
        )


class TwitterRankLinkScorer(_LinkBlocks):
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
        self.user_ids = tuple(self.ctx.user_ids)
        self.expect(())
        self.solvers = [
            ColumnUpdateSolver(tm.matrix, gamma)
            for tm in twitterrank_matrices(dataset, gamma, self.ctx)
        ]

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) personal TwitterRank scores of each link's follower
        u once u unfollows v: the topic rankings weighted by u's topic
        shares, over the topics where that share is positive."""
        ctx = self.ctx
        ius, ivs = _link_indices(ctx.index, links)
        rows, link, ratio = _friend_shares_without(ctx, ius, ivs)
        dsts = ctx.edge_dst[rows]
        sims = 1.0 - np.abs(ctx.topics[ius[link]] - ctx.topics[dsts])  # (len(rows), k)
        columns = _normalise_columns(ratio[:, None] * sims, link, len(links))
        shares = ctx.topics[ius]
        scores = np.zeros((len(links), len(ctx.user_ids)))
        for t, solver in enumerate(self.solvers):
            on = shares[:, t] > 0
            if not on.any():
                continue
            y = solver.solve_with_columns(ius, dsts, columns[t], link)[on]
            y /= y.sum(axis=1)[:, None]
            y *= shares[on, t, None]
            scores[on] += y
        total = shares.sum(axis=1)
        on = total > 0
        scores[on] /= total[on, None]
        return scores

    def personal_scores_without(self, u: str, v: str) -> RankVector:
        return RankVector(
            user_ids=self.user_ids,
            scores=self._scores(u, v),
            hour=None,
            model="twitterrank",
            params={"mode": "personal", "user": u},
        )


class TunkRankLinkScorer(_LinkBlocks):
    """TunkRank after removing follow links, by one ColumnUpdateSolver
    solve per block of links: column u of the follower -> friend matrix
    holds 1/deg(u) on each friend, and without (u, v) it holds
    1/(deg(u) - 1) on the rest."""

    def __init__(self, dataset: Dataset, p: float = 0.05):
        self.p = p
        self.user_ids, self.src, self.dst, a = tunkrank_matrix(dataset, p)
        self.index = {u: i for i, u in enumerate(self.user_ids)}
        self.expect(())
        self.solver = ColumnUpdateSolver(a, p, rhs_from_matrix=True)

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) global TunkRank scores, each once its link is
        removed. With p = 1, a removal that leaves a closed follow class
        raises ValueError."""
        ius, ivs = _link_indices(self.index, links)
        if self.p == 1.0:
            for iu, iv in zip(ius, ivs):
                keep = (self.src != iu) | (self.dst != iv)
                check_tunkrank_fixed_point(self.src[keep], self.dst[keep], len(self.user_ids))
        rows, link = _friend_rows(self.src, self.dst, ius, ivs)
        columns = 1.0 / np.bincount(link, minlength=len(links))[link]
        return self.solver.solve_with_columns(ius, self.dst[rows], columns, link)

    def scores_without(self, u: str, v: str) -> RankVector:
        return RankVector(
            user_ids=self.user_ids,
            scores=self._scores(u, v),
            hour=None,
            model="tunkrank",
            params={"p": self.p},
        )


def _candidate_rows(dataset: Dataset, u: str, seed: int, size: int = 10) -> np.ndarray:
    """Indices into the sorted ``dataset.user_ids`` of ``size`` users drawn
    with ``seed`` from those u does not follow, u excluded; ascending."""
    ids = dataset.user_ids
    allowed = np.ones(len(ids), dtype=bool)
    allowed[np.searchsorted(ids, [u, *dataset.graph.friends(u)])] = False
    pool = np.flatnonzero(allowed)
    if len(pool) < size:
        raise ValueError(f"fewer than {size} non-followed users for {u!r}")
    rng = np.random.default_rng(seed)
    return pool[np.sort(rng.choice(len(pool), size=size, replace=False))]


def sample_candidates(
    dataset: Dataset, u: str, seed: int, size: int = 10
) -> list[str]:
    """``size`` user ids u does not follow, u excluded, drawn with ``seed``;
    in id order."""
    return dataset.user_ids[_candidate_rows(dataset, u, seed, size)].tolist()


def q_score(scores: np.ndarray, iv: int, candidates: np.ndarray) -> int:
    """Number of candidates the true friend outranks. ``scores`` and the
    indices ``iv`` and ``candidates`` follow the sorted user ids, so a score
    tie goes to the lower index, as it goes to the lower id."""
    s_v, s_c = scores[iv], scores[candidates]
    return int(np.count_nonzero((s_v > s_c) | ((s_v == s_c) & (iv < candidates))))


def evaluate_link(
    dataset: Dataset,
    link: tuple[str, str],
    seed: int,
    model: str = "tunkrank",
    scorer=None,
    tunkrank_p: float = 0.05,
    candidates: Optional[np.ndarray] = None,
) -> int:
    """Q(l) for one removed link: sample 10 non-followed candidates, rank on
    the reduced graph, count candidates ranked below the true friend.

    TIR and TwitterRank use personal-perspective aggregation via the given
    scorer; TunkRank uses its global ranking, from the given scorer or one
    built here with ``tunkrank_p``. ``candidates`` are the candidates' rows
    in the sorted user ids when the caller has drawn them already, as
    run_scenarios does once per link for every model.
    """
    u, v = link
    if not dataset.graph.has_edge(u, v):
        raise ValueError(f"link ({u!r}, {v!r}) not in graph")
    if model == "tunkrank":
        if scorer is None:
            scorer = TunkRankLinkScorer(dataset, p=tunkrank_p)
        score = scorer.scores_without
    elif model in ("tir", "twitterrank"):
        if scorer is None:
            raise ValueError(f"{model} evaluation requires a prepared scorer")
        score = scorer.personal_scores_without
    else:
        raise ValueError(f"unknown model {model!r}")
    if candidates is None:
        candidates = _candidate_rows(dataset, u, _sub_seed(seed, "candidates", u, v))
    return q_score(score(u, v).scores, np.searchsorted(dataset.user_ids, v), candidates)


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

    Results come in the order scenario -> model -> c. Each link is
    evaluated once per (model, c) even when several scenarios hold it, and
    its candidates are drawn once for all of them. Each scorer is told the
    links in advance and scores them BLOCK_LINKS at a time, with one
    multi-column solve per matrix, before the next scorer is built; Q is
    still taken link by link through evaluate_link. Bad parameters raise
    ValueError before any scorer is built.
    """
    if not 0.0 <= tunkrank_p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if n_links < 1:
        raise ValueError("n_links must be at least 1")
    if "tir" in models and any(not 0.5 <= c <= 1.0 for c in c_grid):
        raise ValueError("penalty factor c must be in [0.5, 1]")
    unknown = [m for m in models if m not in ("tir", "tunkrank", "twitterrank")]
    if unknown:
        raise ValueError(f"unknown model {unknown[0]!r}")
    if ctx is None:
        ctx = FeatureContext(dataset)
    link_sets = build_link_sets(dataset, seed=seed, ctx=ctx, n_links=n_links)
    tags = [t for t in (scenarios or SCENARIO_TAGS) if link_sets[t].links]
    links = list(dict.fromkeys(l for tag in tags for l in link_sets[tag].links))
    candidates = {(u, v): _candidate_rows(dataset, u, _sub_seed(seed, "candidates", u, v))
                  for u, v in links}

    def q_by_tag(model, scorer) -> dict[str, list[int]]:
        scorer.expect(links)
        q = {l: evaluate_link(dataset, l, seed, model, scorer, candidates=candidates[l])
             for l in links}
        return {tag: [q[l] for l in link_sets[tag].links] for tag in tags}

    def build_scorer(model, c):
        if model == "tir":
            return TirLinkScorer(dataset, logistic_model, c, gamma=gamma, ctx=ctx)
        if model == "twitterrank":
            return TwitterRankLinkScorer(dataset, gamma=gamma, ctx=ctx)
        return TunkRankLinkScorer(dataset, p=tunkrank_p)

    # Scorers are temporaries: one c's TIR factorisations are freed before
    # the next c's are built.
    per_model = [(model, c, q_by_tag(model, build_scorer(model, c)))
                 for model in models for c in (c_grid if model == "tir" else (None,))]
    return [ScenarioResult(tag, m, c, qs[tag]) for tag in tags for m, c, qs in per_model]
