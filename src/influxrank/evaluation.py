"""Ranking comparison (Kendall tau) and the friend-recommendation protocol."""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .features import FeatureContext, MinMaxScaler, js_divergence_rows
from .logistic import LogisticModel
from .model import Dataset, FollowGraph
from .ranking import (
    DEFAULT_GAMMA,
    DEFAULT_P,
    RankVector,
    TransitionMatrix,
    _edge_weights_all_hours,
    _edge_weights_all_topics,
    check_params,
    check_tir_model,
    check_tunkrank_fixed_point,
    hourly_matrices,
    normalise_weights,
    personal_topic_weights,
    personal_weights,
    tunkrank_matrix,
    twitterrank_matrices,
)

SCENARIO_TAGS = ("L_fh", "L_fl", "L_th", "L_tl", "L_dh", "L_dl", "L_rr", "L_ur")
MODELS = ("tir", "tunkrank", "twitterrank")


def _inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], for a permutation seq of range(n):
    a bottom-up merge sort, one numpy pass per level of runs."""
    n = len(seq)
    pos = np.arange(n, dtype=np.int64)
    keys = seq.astype(np.int64)
    total, width = 0, 1
    while width < n:
        # runs of width are sorted; tagging each with its pair of runs keeps
        # the left runs in one sorted array
        pair = pos // (2 * width)
        tagged = pair * n + keys
        right = (pos // width) % 2 == 1
        # left-run elements of its own pair below each right-run element
        below = np.searchsorted(tagged[~right], tagged[right]) - pair[right] * width
        total += int((width - below).sum())
        keys = np.sort(tagged) - pair * n
        width *= 2
    return total


def _scores(rank: RankVector | dict) -> tuple[np.ndarray, np.ndarray]:
    """(user ids, scores) in id order."""
    if isinstance(rank, RankVector):
        ids, scores = np.array(rank.user_ids), np.asarray(rank.scores, dtype=float)
    else:
        ids, scores = np.array(list(rank)), np.array(list(rank.values()), dtype=float)
    order = np.argsort(ids, kind="stable")
    return ids[order], scores[order]


def kendall_tau(rank_a: RankVector | dict, rank_b: RankVector | dict) -> float:
    """tau-a over the tie-broken total orders: (C - D) / (n(n-1)/2).

    Score ties are broken by user id before pair counting; D is the number
    of inversions between the two orders.
    """
    ids, a = _scores(rank_a)
    ids_b, b = _scores(rank_b)
    if not np.array_equal(ids, ids_b):
        raise ValueError("rankings cover different user sets")
    n = len(ids)
    if n < 2:
        raise ValueError("need at least two users")
    place_b = np.empty(n, dtype=np.intp)
    place_b[np.lexsort((ids, -b))] = np.arange(n)
    inversions = _inversions(place_b[np.lexsort((ids, -a))])
    pairs = n * (n - 1) // 2
    return (pairs - 2 * inversions) / pairs


def _sub_seed(seed: int, *parts) -> int:
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") % 2**32


# the share of edges in each high or low pool of build_link_sets
POOL_FRACTION = 0.1


@dataclass
class LinkSet:
    tag: str
    links: list[tuple[str, str]]
    flagged: bool = False  # fewer eligible links than requested


def user_signature_distributions(ctx: FeatureContext) -> np.ndarray:
    """Per-user attribute vectors normalized into probability distributions.

    Components: listed count, favourites per tweet, verified flag, retweet
    ratio, tweet count, friend count, follower count - each min-max scaled
    over the user set, then shifted by a small epsilon and normalized to sum
    1 so Jensen-Shannon distances between users are well defined. This is an
    interpretive construction; only the relative distances matter.
    """
    n = len(ctx.user_ids)
    friend_deg = np.bincount(ctx.edge_src, minlength=n).astype(float)
    follower_deg = np.bincount(ctx.edge_dst, minlength=n).astype(float)
    cols = np.stack(
        [ctx.listed, ctx.fv, ctx.vr, ctx.rr, ctx.tweet_counts, friend_deg, follower_deg],
        axis=1,
    )
    scaled = MinMaxScaler(cols.min(axis=0), cols.max(axis=0)).transform(cols) + 1e-6
    return scaled / scaled.sum(axis=1, keepdims=True)


def edge_js_distances(ctx: FeatureContext) -> np.ndarray:
    """Jensen-Shannon distance, sqrt(JSD), between each edge's user signatures."""
    sig = user_signature_distributions(ctx)
    return np.sqrt(np.maximum(js_divergence_rows(sig[ctx.edge_src], sig[ctx.edge_dst]), 0.0))


def build_link_sets(
    dataset: Dataset,
    seed: int = 0,
    ctx: Optional[FeatureContext] = None,
    n_links: int = 30,
) -> dict[str, LinkSet]:
    """Eight evaluation link sets, by tag: the edges whose friend's follower
    count (L_fh, L_fl) or tweet count (L_th, L_tl), or whose pair's
    Jensen-Shannon distance (L_dh, L_dl), is in the high or low 10%
    (POOL_FRACTION); the edges whose users follow each other (L_rr); and
    the one-directional ones (L_ur)."""
    if ctx is None:
        ctx = FeatureContext(dataset)
    ids, src, dst, n = ctx.user_ids, ctx.edge_src, ctx.edge_dst, len(ctx.user_ids)
    follower_deg = np.bincount(dst, minlength=n)[dst].astype(float)
    tweet_count = ctx.tweet_counts[dst]
    js_dist = edge_js_distances(ctx)
    reciprocal = np.isin(src * n + dst, dst * n + src)

    def top_pool(values: np.ndarray, high: bool) -> list[int]:
        k = max(1, int(len(src) * POOL_FRACTION))
        order = np.argsort(-values if high else values, kind="stable")
        return list(order[:k])

    pools = {
        "L_fh": top_pool(follower_deg, True),
        "L_fl": top_pool(follower_deg, False),
        "L_th": top_pool(tweet_count, True),
        "L_tl": top_pool(tweet_count, False),
        "L_dh": top_pool(js_dist, True),
        "L_dl": top_pool(js_dist, False),
        "L_rr": list(np.flatnonzero(reciprocal)),
        "L_ur": list(np.flatnonzero(~reciprocal)),
    }
    out: dict[str, LinkSet] = {}
    for tag, pool in pools.items():
        if not pool:
            warnings.warn(f"scenario {tag}: empty pool, skipped")
            out[tag] = LinkSet(tag, [], flagged=True)
            continue
        rng = np.random.default_rng(_sub_seed(seed, "linkset", tag))
        take = min(n_links, len(pool))
        chosen = rng.choice(len(pool), size=take, replace=False)
        out[tag] = LinkSet(
            tag,
            [(ids[src[pool[i]]], ids[dst[pool[i]]]) for i in sorted(chosen)],
            flagged=take < n_links,
        )
    return out


# The bytes of one block's (n x links) float64 work array in
# ColumnUpdateSolver.solve_with_columns: a block takes BLOCK_BYTES // (8 n)
# links, at least one, which is 16 at 20,000 users and 160 at 2,000. With
# the shared elimination order, blocks of 32 links took recommend-2k's
# run_scenarios call from about 0.50 to 0.43 s at 2,000 users, but at 20,000
# users (8 links per scenario) they were no faster and their work arrays
# raised its peak RSS from 400 to 406 MB.
BLOCK_BYTES = 2_560_000


class ColumnUpdateSolver:
    """Direct solve of (I - s S) x = b, and of the same system after one
    column of S is replaced, for many such replacements at once.

    S is a column-normalised edge matrix: each column sums to 1 or is zero.
    The right-hand side b is either all ones or S 1. With ones and s = gamma,
    x normalised to sum 1 is PageRank with dangling mass spread uniformly,
    like the teleport vector (Del Corso, Gulli and Romani, "Fast PageRank
    Computation via a Sparse Linear System", 2005). With S 1 and s = p, x is
    TunkRank.

    I - s S is factored once with a sparse LU, in the given ``order`` of the
    users (``FollowGraph.elimination_order``, shared by every matrix
    on that graph): the factor is of P (I - s S) P^T, with P the permutation
    that puts user order[i] i-th (scipy's row and column indexing by
    ``order``), and SuperLU is told to keep that column order rather than
    compute its own. For s <= 1 the matrix is column diagonally dominant
    (diagonal 1, off-diagonal column sums s or 0), and each step of Gaussian
    elimination keeps it so, so partial pivoting would pick the diagonal in
    every column anyway; a pivot threshold of 0 takes it without comparing.
    ``solve`` permutes on the way in and out.

    Removing edge (u, v) replaces column u only: S' = S + d e_u^T with
    d = S'_u - S_u, and S' 1 = S 1 + d. By Sherman-Morrison the new solution
    is x + z (eta + s x_u) / (1 - s z_u), where z = (I - s S)^{-1} d and eta
    is 1 for the S 1 right-hand side, 0 for ones (Langville and Meyer,
    "Updating Markov Chains with an Eye on Google's PageRank", 2006). The
    differences d of a block of L removals form an (n x L) matrix, and one
    multi-column LU solve gives all L vectors z; ``solve_with_columns`` cuts
    its removals into blocks of at most BLOCK_BYTES of such work array. On
    the synthetic follow graphs that solve equals L single-column solves bit
    for bit; where the factors hold large dense supernodes, SuperLU's
    multi-column kernels may round differently.
    """

    def __init__(
        self,
        matrix: sparse.csc_matrix,
        s: float,
        order: np.ndarray,
        rhs_from_matrix: bool = False,
    ):
        # imported here: scipy.sparse.linalg adds about 10 MB of resident
        # libraries, which only link scoring needs
        from scipy.sparse.linalg import splu

        n = matrix.shape[0]
        self.matrix = matrix.tocsc()
        self.s = s
        self.eta = 1.0 if rhs_from_matrix else 0.0
        self.order = order
        self.position = np.empty(n, dtype=np.intp)
        self.position[order] = np.arange(n)
        system = (sparse.identity(n, format="csc") - s * self.matrix)[order][:, order]
        system.sort_indices()
        self.lu = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        rhs = self.matrix @ np.ones(n) if rhs_from_matrix else np.ones(n)
        self.x = self.solve(rhs)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(I - s S)^{-1} b for b of shape (n,) or (n, k), in user order."""
        return self.lu.solve(b[self.order])[self.position]

    def solve_with_columns(
        self, us: np.ndarray, rows: np.ndarray, columns: np.ndarray, link: np.ndarray
    ) -> np.ndarray:
        """(L, n) solutions, one per replaced column: in solution k, column
        us[k] of S holds the values ``columns[link == k]`` on rows
        ``rows[link == k]`` (each a column that sums to 1, or all zero) and
        nothing else. ``link`` is ascending. The L replacements are solved
        in blocks of BLOCK_BYTES // (8 n) consecutive ones, at least one."""
        n = len(self.x)
        size = max(1, BLOCK_BYTES // (8 * n))
        out = np.empty((len(us), n))
        for a in range(0, len(us), size):
            ra, rb = np.searchsorted(link, (a, a + size))
            out[a:a + size] = self._solve_block(us[a:a + size], rows[ra:rb], columns[ra:rb],
                                                link[ra:rb] - a).T
        return out

    def _solve_block(
        self, us: np.ndarray, rows: np.ndarray, columns: np.ndarray, link: np.ndarray
    ) -> np.ndarray:
        """``solve_with_columns`` of one block, as an (n, L) array."""
        n, cols, position = len(self.x), np.arange(len(us)), self.position
        # d is built in the factor's row order, so the solve needs no
        # permutation on the way in
        d = np.zeros((n, len(us)), order="F")
        d[position[rows], link] = columns
        starts, stops = self.matrix.indptr[us], self.matrix.indptr[us + 1]
        old = _concat_ranges(starts, stops)
        old_rows = position[self.matrix.indices[old]]
        d[old_rows, np.repeat(cols, stops - starts)] -= self.matrix.data[old]
        w = self.lu.solve(d)
        del d
        # back to user order; the gathered block is C-ordered, the layout
        # the sparse product below reads, so only two (n x L) blocks are
        # held at a time
        w = w[position]
        # z becomes x, then w, in place: IEEE + and * commute exactly, so
        # z f + x and x s + eta have the bits of self.x + z f and eta + s x
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
        y = self.matrix @ w
        del w
        y[rows, link] += columns * w_u[link]
        y += 1.0 - self.eta
        return y


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of range(starts[i], stops[i]) for each i, concatenated."""
    counts = stops - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _friend_rows(
    graph: FollowGraph, ius: np.ndarray, ivs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge rows of follower ius[k] that remain once it unfollows ivs[k], in
    ascending order, for each k in turn, and the k of each row."""
    starts, stops = graph.bounds[ius], graph.bounds[ius + 1]
    rows = _concat_ranges(starts, stops)
    link = np.repeat(np.arange(len(ius)), stops - starts)
    keep = graph.dst[rows] != ivs[link]
    return rows[keep], link[keep]


def _friend_shares_without(
    ctx: FeatureContext, ius: np.ndarray, ivs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_friend_rows of the context's edges, and each remaining friend's share
    of the tweets of u's friends once u unfollows v (feature pt_uv)."""
    rows, link = _friend_rows(ctx.dataset.graph, ius, ivs)
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


def _personal_scores_without_links(
    ctx: FeatureContext,
    order: np.ndarray,
    links: Sequence[tuple[str, str]],
    edge_weights: Callable[[np.ndarray, np.ndarray], np.ndarray],
    key_weights: Callable[[FeatureContext, np.ndarray], np.ndarray],
    matrices: Callable[[np.ndarray], Iterable[TransitionMatrix]],
) -> np.ndarray:
    """(len(links), n) personal scores of each link's follower u once u
    unfollows v, for TIR (hours) and TwitterRank (topics): u's raw key
    weights ``key_weights(ctx, ius)``, divided by their sum as in
    ``ranking._walk_sum``, times each key's walk. ``edge_weights(rows,
    shares)`` gives the (rows x keys) raw weights of u's remaining edges
    with their tweet shares, and ``matrices(keys)`` the matrices of the keys
    that some follower weighs, in ascending order. Each is factored in
    ``order`` when reached, solves every link of positive weight in one
    ``solve_with_columns`` call (which sizes its own blocks) and is freed
    before the next, so one factorisation is alive at a time. A skipped
    term would add 0 * y to a sum that starts at +0.0, so skipping changes
    no bit, and each link's terms are added in ascending key order."""
    ius, ivs = _link_indices(ctx.index, links)
    rows, link, shares = _friend_shares_without(ctx, ius, ivs)
    columns = _normalise_columns(edge_weights(rows, shares), link, len(links))
    dsts = ctx.edge_dst[rows]
    weights = normalise_weights(key_weights(ctx, ius))
    scores = np.zeros((len(links), len(order)))
    for tm in matrices(np.flatnonzero((weights > 0).any(axis=0))):
        t = tm.hour
        on = weights[:, t] > 0
        keep = on[link]
        renumber = np.cumsum(on) - 1
        # the solver is a temporary, so its factor is freed on return
        y = ColumnUpdateSolver(tm.matrix, tm.gamma, order).solve_with_columns(
            ius[on], dsts[keep], columns[t, keep], renumber[link[keep]])
        y /= y.sum(axis=1)[:, None]
        y *= weights[on, t, None]
        scores[on] += y
    return scores


class _LinkBlocks:
    """Single-link scores served from one ``scores_without_links`` call.

    ``expect(links)`` announces the links that will be asked for. The first
    request for an announced link scores every announced link in one
    ``scores_without_links`` call, and each row is then served from memory
    once. Any other link, or an announced link asked for again, is scored
    alone; for the TIR and TwitterRank scorers that factors every hour
    (topic) its follower weighs, so a caller that scores many links should
    announce them."""

    def expect(self, links: Sequence[tuple[str, str]]) -> None:
        self._queue = list(dict.fromkeys(links))
        self._rows: dict[tuple[str, str], np.ndarray] = {}

    def _scores(self, u: str, v: str) -> np.ndarray:
        link = (u, v)
        if link not in self._rows:
            block = [link]
            if link in self._queue:
                block, self._queue = self._queue, []
            self._rows.update(zip(block, self.scores_without_links(block)))
        return self._rows.pop(link)


class TirLinkScorer(_LinkBlocks):
    """Personal TIR rankings after single-edge removals.

    Removing edge (u, v) only changes column u of every hourly matrix: u
    loses a friend, which shifts the tweet-share feature and close-friend
    multiplier for u's remaining edges (``_personal_scores_without_links``).
    The scorer holds no factorisation between calls, only the follow graph's
    ``elimination_order``, which every hour's factor uses.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: LogisticModel,
        c: float,
        gamma: float = DEFAULT_GAMMA,
        ctx: Optional[FeatureContext] = None,
    ):
        check_tir_model(model, c)
        check_params(gamma=gamma)
        self.dataset = dataset
        self.model = model
        self.c = c
        self.gamma = gamma
        self.ctx = ctx if ctx is not None else FeatureContext(dataset)
        self.user_ids = tuple(self.ctx.user_ids)
        self.order = self.ctx.dataset.graph.elimination_order
        self.expect(())

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) personal TIR scores of each link's follower u once
        u unfollows v, aggregated over the hours with u's activity
        (``personal_weights``); an hour that no follower is active in is
        neither built nor factored."""
        ctx, model, c = self.ctx, self.model, self.c
        return _personal_scores_without_links(
            ctx, self.order, links,
            lambda rows, shares: _edge_weights_all_hours(ctx, model, c, rows=rows, shares=shares),
            personal_weights,
            lambda hours: hourly_matrices(self.dataset, model, hours, c, self.gamma, ctx))

    def personal_scores_without(self, u: str, v: str) -> RankVector:
        return RankVector(
            self.user_ids,
            self._scores(u, v),
            hour=None,
            model="tir",
            params={"c": self.c, "mode": "personal", "user": u},
        )


class TwitterRankLinkScorer(_LinkBlocks):
    """TwitterRank counterpart of TirLinkScorer. Each
    ``scores_without_links`` call builds and factors, one at a time, the
    topic matrices that some link's follower has a share of; between calls
    the scorer holds only the follow graph's ``elimination_order``."""

    def __init__(
        self,
        dataset: Dataset,
        gamma: float = DEFAULT_GAMMA,
        ctx: Optional[FeatureContext] = None,
    ):
        check_params(gamma=gamma)
        self.dataset = dataset
        self.gamma = gamma
        self.ctx = ctx if ctx is not None else FeatureContext(dataset)
        self.user_ids = tuple(self.ctx.user_ids)
        self.expect(())
        self.order = self.ctx.dataset.graph.elimination_order

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) personal TwitterRank scores of each link's follower
        u once u unfollows v: the topic rankings weighted by u's topic
        shares (``personal_topic_weights``); a topic no follower has a share
        of is not factored."""
        ctx = self.ctx
        return _personal_scores_without_links(
            ctx, self.order, links,
            lambda rows, shares: _edge_weights_all_topics(ctx, rows=rows, shares=shares),
            personal_topic_weights,
            lambda topics: twitterrank_matrices(self.dataset, self.gamma, ctx, topics))

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
    ``solve_with_columns`` call per ``scores_without_links`` call against
    one factorisation, which the scorer keeps, in the follow graph's
    ``elimination_order``: column u of the follower -> friend matrix holds
    1/deg(u) on each friend, and without (u, v) it holds 1/(deg(u) - 1) on
    the rest."""

    def __init__(self, dataset: Dataset, p: float = DEFAULT_P):
        self.p = p
        self.user_ids, a = tunkrank_matrix(dataset, p)
        self.graph = dataset.graph
        self.expect(())
        self.order = self.graph.elimination_order
        self.solver = ColumnUpdateSolver(a, p, self.order, rhs_from_matrix=True)

    def scores_without_links(self, links: Sequence[tuple[str, str]]) -> np.ndarray:
        """(len(links), n) global TunkRank scores, each once its link is
        removed. With p = 1, a removal that leaves a closed follow class
        raises ValueError."""
        graph = self.graph
        ius, ivs = _link_indices(graph.index, links)
        if self.p == 1.0:
            for iu, iv in zip(ius, ivs):
                keep = (graph.src != iu) | (graph.dst != iv)
                check_tunkrank_fixed_point(graph.src[keep], graph.dst[keep], len(self.user_ids))
        rows, link = _friend_rows(graph, ius, ivs)
        columns = 1.0 / np.bincount(link, minlength=len(links))[link]
        return self.solver.solve_with_columns(ius, graph.dst[rows], columns, link)

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
    with ``seed`` from those u does not follow, u excluded; ascending.
    Raises ValueError for an unknown u."""
    graph = dataset.graph
    if u not in graph.index:
        raise ValueError(f"unknown user {u!r}")
    row = graph.index[u]
    allowed = np.ones(len(graph.vertices), dtype=bool)
    allowed[row] = False
    allowed[graph.dst[graph.bounds[row]:graph.bounds[row + 1]]] = False
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
    candidates: Optional[np.ndarray] = None,
) -> int:
    """Q(l) for one removed link: sample 10 non-followed candidates, rank on
    the reduced graph with the given scorer of ``model``, count candidates
    ranked below the true friend.

    TIR and TwitterRank use personal-perspective aggregation, TunkRank its
    global ranking. A TIR or TwitterRank link the scorer was not told of by
    ``expect`` is scored alone, which factors every hour (topic) its
    follower weighs; callers that score many links announce them first.
    ``candidates`` are the candidates' rows in the sorted user ids when the
    caller has drawn them already, as run_scenarios does once per link for
    every model.
    """
    u, v = link
    if not dataset.graph.has_edge(u, v):
        raise ValueError(f"link ({u!r}, {v!r}) not in graph")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if scorer is None:
        raise ValueError(f"{model} evaluation requires a prepared scorer")
    score = scorer.scores_without if model == "tunkrank" else scorer.personal_scores_without
    if candidates is None:
        candidates = _candidate_rows(dataset, u, _sub_seed(seed, "candidates", u, v))
    return q_score(score(u, v).scores, dataset.graph.index[v], candidates)


def check_scenario_args(
    models: Sequence[str], c_grid: Sequence[float], scenarios: Optional[Sequence[str]]
) -> None:
    """Raise ValueError for a TIR penalty factor outside [0.5, 1], an
    unknown model or scenario tag, or a value repeated among the models,
    the scenarios or the c grid. ``scenarios`` None means all of them."""
    if "tir" in models and any(not 0.5 <= c <= 1.0 for c in c_grid):
        raise ValueError("penalty factor c must be in [0.5, 1]")
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        raise ValueError(f"unknown model {unknown[0]!r}")
    scenarios = SCENARIO_TAGS if scenarios is None else scenarios
    unknown = [t for t in scenarios if t not in SCENARIO_TAGS]
    if unknown:
        raise ValueError(f"unknown scenario {unknown[0]!r}")
    for name, values in (("models", models), ("scenarios", scenarios), ("c_grid", c_grid)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat a value")


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
    models: Sequence[str] = MODELS,
    c_grid: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0),
    gamma: float = DEFAULT_GAMMA,
    tunkrank_p: float = DEFAULT_P,
    scenarios: Optional[Sequence[str]] = None,
    n_links: int = 30,
    ctx: Optional[FeatureContext] = None,
) -> list[ScenarioResult]:
    """Mean Q per (scenario, model); TIR additionally swept over c_grid.

    Results come in the order scenario -> model -> c. Each link is
    evaluated once per (model, c) even when several scenarios hold it, and
    its candidates are drawn once for all of them. Each scorer is told the
    links in advance and scores them all in one call, matrix by matrix,
    with one ``solve_with_columns`` call per matrix, before the next scorer
    is built; Q is still taken link by link through evaluate_link. Bad
    parameters (``check_scenario_args``) raise ValueError before any scorer
    is built. ``scenarios`` None means all of them; when no requested
    scenario has a link, an empty selection included, the result is empty
    and no scorer is built.
    """
    check_scenario_args(models, c_grid, scenarios)
    if not 0.0 <= tunkrank_p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    check_params(gamma=gamma)
    if n_links < 1:
        raise ValueError("n_links must be at least 1")
    if ctx is None:
        ctx = FeatureContext(dataset)
    link_sets = build_link_sets(dataset, seed=seed, ctx=ctx, n_links=n_links)
    tags = [t for t in (SCENARIO_TAGS if scenarios is None else scenarios) if link_sets[t].links]
    if not tags:
        return []
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

    # Scorers are temporaries. The TIR and TwitterRank scorers factor one
    # hour (topic) at a time and free it before the next, so at most one of
    # their factorisations is alive; TunkRank's own factor lives while its
    # scorer does.
    per_model = [(model, c, q_by_tag(model, build_scorer(model, c)))
                 for model in models for c in (c_grid if model == "tir" else (None,))]
    return [ScenarioResult(tag, m, c, qs[tag]) for tag in tags for m, c, qs in per_model]
