"""Hourly/weekly activity profiles, K-SC shape clustering, delay/trace metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ORIGINAL, SECONDS_PER_DAY, Dataset


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Hourly profiles of every user: row (or entry) i is ``user_ids[i]``'s."""

    user_ids: np.ndarray  # sorted
    raw_counts: np.ndarray  # tweets per hour bin, integer counts
    n_t: np.ndarray  # raw_counts / available_days
    a_t: np.ndarray  # n_t normalized to sum 1 per row (zero row if no tweets)
    available_days: np.ndarray
    has_tweets: np.ndarray


@dataclass
class ClusterResult:
    k: int
    ids: np.ndarray  # the clustered ids, increasing
    labels: np.ndarray  # each id's cluster, in 0..k-1
    centroids: np.ndarray  # (k, 24), unit Euclidean norm each
    proportions: np.ndarray
    objective: float
    objective_history: list[float]


@dataclass(frozen=True, eq=False)
class ResponseColumns:
    """Delay and trace of responses, one entry per response in each column."""

    row: np.ndarray  # the response's tweet row
    kind: np.ndarray  # its kind code, an index into TWEET_KINDS
    delay: np.ndarray  # response time minus original time, uint64
    trace: np.ndarray  # friends' tweets strictly between the two, int64

    def __len__(self) -> int:
        return len(self.row)


def all_profiles(dataset: Dataset) -> ProfileTable:
    """Per-hour tweet rate and normalized activity of every user, by user id.

    The available-day span is the interval between the user's first and last
    tweet, floored at one day to avoid rate blow-up for single-burst users.
    """
    n = len(dataset.user_ids)
    authors, ts = dataset.tweets.author, dataset.tweets.ts
    counts = np.bincount(authors * 24 + dataset.hour_of(ts), minlength=n * 24)
    counts = counts.reshape(n, 24).astype(float)
    has_tweets = counts.any(axis=1)
    first = np.zeros(n, dtype=np.int64)
    first[authors] = ts  # one of the user's own times (which one is immaterial), or 0
    last = first.copy()
    np.minimum.at(first, authors, ts)
    np.maximum.at(last, authors, ts)
    days = np.maximum((last - first) / SECONDS_PER_DAY, 1.0)
    n_t = counts / days[:, None]
    a_t = np.divide(n_t, n_t.sum(axis=1, keepdims=True), out=np.zeros_like(n_t),
                    where=has_tweets[:, None])
    return ProfileTable(dataset.user_ids, counts, n_t, a_t, days, has_tweets)


def global_activity(dataset: Dataset) -> np.ndarray:
    """(7, 24) tweet counts by day of week (Monday first) and hour of day.
    Its column sums count by hour and its row sums by day, exactly: each is
    a sum of integers held as floats."""
    if not len(dataset.tweets):
        raise ValueError("empty dataset")
    ts = dataset.tweets.ts
    cells = dataset.weekday_of(ts) * 24 + dataset.hour_of(ts)
    return np.bincount(cells, minlength=7 * 24).reshape(7, 24).astype(float)


def _shift_set(max_shift: int) -> list[int]:
    if not 0 <= max_shift <= 23:
        raise ValueError("max_shift must be in [0, 23]")
    shifts = sorted({q % 24 for q in range(-max_shift, max_shift + 1)})
    return shifts


def _shape_distances(x: np.ndarray, centroid: np.ndarray, shifts: Sequence[int]):
    """Scale/shift-invariant distance of rows of x to one centroid.

    d(x, c) = min_q sqrt(1 - cos^2(x, shift(c, q))); also returns the best
    shift per row. Both arguments may be arbitrarily scaled.
    """
    xn = np.linalg.norm(x, axis=1)
    best = np.full(x.shape[0], np.inf)
    best_q = np.zeros(x.shape[0], dtype=int)
    cn = np.linalg.norm(centroid)
    for q in shifts:
        cq = np.roll(centroid, q)
        cos2 = (x @ cq) ** 2 / np.maximum(xn * cn, 1e-300) ** 2
        d = np.sqrt(np.maximum(0.0, 1.0 - cos2))
        better = d < best
        best[better] = d[better]
        best_q[better] = q
    return best, best_q


def _update_centroid(members: np.ndarray) -> np.ndarray:
    """Unit minimizer of the summed scaled residuals over aligned members."""
    norms = np.linalg.norm(members, axis=1, keepdims=True)
    unit = members / norms
    scatter = len(members) * np.eye(members.shape[1]) - unit.T @ unit
    vals, vecs = np.linalg.eigh(scatter)
    c = vecs[:, 0]
    if c.sum() < 0:
        c = -c
    return c


# rows of the shape-distance matrix per silhouette pass: a multiple of 48,
# so that blocks start on the row tiles of common BLAS GEMM kernels (4, 6, 8,
# 12 and 16 rows) and give the bits of one product over all rows
_SILHOUETTE_ROWS = 192


def _row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of ``size`` rows covering 0..n.

    No block holds one row unless n is 1: BLAS takes a one-row product as a
    matrix-vector product, whose sums round differently, so a last single
    row joins the block before it and a size below 2 counts as 2.
    """
    starts = list(range(0, n, max(size, 2)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _shape_distance_rows(unit: np.ndarray, lo: int, hi: int, shifts: Sequence[int]) -> np.ndarray:
    """Rows lo:hi of the pairwise shape-distance matrix of the unit-norm rows
    of ``unit``: min over the shifts q of sqrt(1 - cos^2(x_i, shift(x_j, q)))."""
    best = np.full((hi - lo, len(unit)), np.inf)
    for q in shifts:
        d = unit[lo:hi] @ np.roll(unit, q, axis=1).T
        np.square(d, out=d)
        np.subtract(1.0, d, out=d)
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        np.minimum(best, d, out=best)
    return best


def _silhouettes(distance_rows, labellings: dict[int, np.ndarray]) -> dict[int, float]:
    """Average silhouette of each labelling ``labellings[k]`` in 0..k-1 over
    an n×n distance matrix whose rows lo:hi ``distance_rows(lo, hi)``
    returns, in one pass over blocks of rows.

    a is a point's mean distance to the rest of its cluster (0 for a
    singleton), b its least mean distance to another nonempty cluster; a
    point scores 0 where there is no other cluster or max(a, b) = 0. Each
    mean is taken over one gathered row of the block, so it sums the same
    elements in the same order as the mean of that row of the whole matrix.
    """
    n = len(next(iter(labellings.values())))
    members = {k: [np.flatnonzero(labels == j) for j in range(k)]
               for k, labels in labellings.items()}
    a = {k: np.zeros(n) for k in labellings}
    b = {k: np.full(n, np.inf) for k in labellings}
    for lo, hi in _row_blocks(n, _SILHOUETTE_ROWS):
        dist = distance_rows(lo, hi)
        for k, labels in labellings.items():
            here = labels[lo:hi]
            b_k = b[k][lo:hi]
            for j, cols in enumerate(members[k]):
                if not cols.size:
                    continue
                to_j = dist.take(cols, axis=1)
                b_k[:] = np.where(here == j, b_k, np.minimum(b_k, to_j.mean(axis=1)))
                own = np.flatnonzero(here == j)
                if cols.size > 1 and own.size:
                    # each own row without its diagonal element
                    off_diagonal = np.ones((own.size, cols.size), dtype=bool)
                    off_diagonal[np.arange(own.size), np.searchsorted(cols, lo + own)] = False
                    a[k][lo + own] = to_j[own][off_diagonal].reshape(own.size, -1).mean(axis=1)
    asc = {}
    for k in labellings:
        denom = np.maximum(a[k], b[k])
        with np.errstate(invalid="ignore"):
            scores = np.where(np.isfinite(b[k]) & (denom > 0), (b[k] - a[k]) / denom, 0.0)
        asc[k] = float(scores.mean())
    return asc


def _profile_rows(ids, profiles) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of ``profiles`` and their ``ids``, as arrays, once checked
    to be one (24,) row per id of one or more strictly increasing ids."""
    ids, profiles = np.asarray(ids), np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != 24 or len(ids) != len(profiles):
        raise ValueError(f"need one (24,) row per id, not {len(ids)} ids for {profiles.shape}")
    if not len(ids):
        raise ValueError("no profile has tweets")
    if not (ids[1:] > ids[:-1]).all():
        raise ValueError("profile ids must be strictly increasing")
    nonzero = np.linalg.norm(profiles, axis=1) > 0
    if not nonzero.all():
        warnings.warn(f"excluding {int((~nonzero).sum())} all-zero profiles")
    return ids[nonzero], profiles[nonzero]


def ksc_cluster(
    ids: Sequence[str] | np.ndarray,
    profiles: np.ndarray,
    k: int,
    max_shift: int = 0,
    seed: int = 0,
    max_iters: int = 100,
) -> ClusterResult:
    """Shape-based k-means with a scale-invariant (optionally cyclic-shift-
    invariant) distance; centroids solve a minimum-eigenvector problem.

    ``profiles`` holds one (24,) row per id of ``ids``, which must increase;
    all-zero rows are excluded with a warning. Initialization is seeded
    farthest-point sampling, so results are deterministic given the seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    shifts = _shift_set(max_shift)
    ids, mat = _profile_rows(ids, profiles)
    if k > len(ids):
        raise ValueError(f"k={k} exceeds {len(ids)} nonzero profiles")

    rng = np.random.default_rng(seed)
    centroid_idx = [int(rng.integers(len(ids)))]
    min_d = np.full(len(ids), np.inf)
    while len(centroid_idx) < k:
        d, _ = _shape_distances(mat, mat[centroid_idx[-1]], shifts)
        np.minimum(min_d, d, out=min_d)
        centroid_idx.append(int(np.argmax(min_d)))
    centroids = mat[centroid_idx] / np.linalg.norm(mat[centroid_idx], axis=1, keepdims=True)

    labels = np.full(len(ids), -1)
    history: list[float] = []
    for _ in range(max_iters):
        dists = np.empty((len(ids), k))
        qs = np.empty((len(ids), k), dtype=int)
        for j in range(k):
            dists[:, j], qs[:, j] = _shape_distances(mat, centroids[j], shifts)
        new_labels = dists.argmin(axis=1)
        # keep clusters nonempty: move the farthest point into an empty
        # cluster, taking only from clusters that can spare a member
        for j in range(k):
            if not (new_labels == j).any():
                counts = np.bincount(new_labels, minlength=k)
                cand = np.flatnonzero(counts[new_labels] > 1)
                far = int(cand[np.argmax(dists[cand, new_labels[cand]])])
                new_labels[far] = j
        history.append(float((dists[np.arange(len(ids)), new_labels] ** 2).sum()))
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            members = mat[labels == j]
            q = qs[labels == j, j]
            # row i rolled back by its best shift q[i]
            aligned = members[np.arange(len(q))[:, None], (np.arange(24) + q[:, None]) % 24]
            centroids[j] = _update_centroid(aligned)

    proportions = np.bincount(labels, minlength=k) / len(ids)
    return ClusterResult(
        k=k,
        ids=ids,
        labels=labels,
        centroids=centroids,
        proportions=proportions,
        objective=history[-1],
        objective_history=history,
    )


def select_k(
    ids: Sequence[str] | np.ndarray,
    profiles: np.ndarray,
    k_range: Sequence[int],
    seed: int = 0,
    max_shift: int = 0,
    max_iters: int = 100,
) -> tuple[ClusterResult, dict[int, float]]:
    """Cluster for every k and return the clustering whose cluster count
    maximizes the average silhouette coefficient (ASC), with the ASC per k.
    ``ids`` and ``profiles`` are as ``ksc_cluster`` takes them.

    Every k is scored in one pass over blocks of rows of the shape-distance
    matrix of the nonzero profiles that the clusterings cover; the whole
    matrix is never held.
    """
    ks = sorted(set(k_range))
    if not ks or ks[0] < 2 or ks[-1] > 10:
        raise ValueError("k_range must lie within [2, 10]")
    ids, mat = _profile_rows(ids, profiles)
    results = {
        k: ksc_cluster(ids, mat, k, max_shift=max_shift, seed=seed, max_iters=max_iters)
        for k in ks
    }
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    shifts = _shift_set(max_shift)
    asc_per_k = _silhouettes(
        lambda lo, hi: _shape_distance_rows(unit, lo, hi, shifts),
        {k: r.labels for k, r in results.items()},
    )
    best_k = max(ks, key=lambda k: (asc_per_k[k], -k))
    return results[best_k], asc_per_k


# (follower, tweet) pairs expanded per pass of _received_keys
_PAIRS_PER_PASS = 1 << 18


def _received_keys(dataset: Dataset, rank: np.ndarray, n_ranks: int) -> np.ndarray:
    """Every tweet as each follower of its author receives it, as one sorted
    key per (follower, tweet): follower * n_ranks + the tweet's time rank.
    Follower u's keys are then one run, in time order."""
    rows, bounds = dataset.author_groups
    times = rank[rows]  # user i's tweet time ranks, in order, at bounds[i]:bounds[i + 1]
    graph = dataset.graph
    count = np.diff(bounds)[graph.dst]  # per edge, the friend's tweets
    end = np.cumsum(count)
    first = end - count  # each edge's first pair
    keys = np.empty(int(end[-1]) if len(end) else 0, dtype=np.int64)
    lo = 0
    while lo < len(count):
        # the most edges whose pairs fit one pass, and at least one
        hi = max(int(np.searchsorted(end, first[lo] + _PAIRS_PER_PASS, "right")), lo + 1)
        edge = np.repeat(np.arange(lo, hi), count[lo:hi])
        pairs = np.arange(first[lo], end[hi - 1])
        at = bounds[graph.dst[edge]] + pairs - first[edge]
        keys[pairs] = graph.src[edge] * n_ranks + times[at]
        lo = hi
    # edges come by follower, so each follower's keys are already together;
    # the sort merges their friends' runs
    keys.sort(kind="stable")
    return keys


def response_metrics(dataset: Dataset) -> tuple[ResponseColumns, int]:
    """Delay and trace for every resolvable response, plus the excluded count.

    Delay is the response-minus-original time gap. Trace counts the tweets the
    responder received (posted by any of their friends) strictly between the
    original and the response. A response is excluded when its original is
    not in the dataset or is later than the response. The responses come in
    tweet-row order.
    """
    tweets = dataset.tweets
    responses = np.flatnonzero(tweets.kind != ORIGINAL)
    originals = tweets.to_tweet[responses]
    resolved = originals >= 0
    resolved[resolved] = tweets.ts[originals[resolved]] <= tweets.ts[responses[resolved]]
    responses, originals = responses[resolved], originals[resolved]
    # keys hold each timestamp's rank among the distinct ones (tweets are in
    # time order), not the timestamp: no int64 timestamp can overflow them
    ts = tweets.ts
    rank = np.zeros(len(ts), dtype=np.int64)
    np.cumsum(ts[1:] != ts[:-1], out=rank[1:])
    n_ranks = int(rank[-1]) + 1 if len(ts) else 0
    received = _received_keys(dataset, rank, n_ranks)
    # the responder's received tweets before t_j, less those at or before
    # t_i; for a response in the same second as its original (t_i = t_j)
    # that difference is minus the tweets of that second, and nothing lies
    # strictly between, so it is clipped to 0
    responder = tweets.author[responses].astype(np.int64) * n_ranks
    trace = (np.searchsorted(received, responder + rank[responses], "left")
             - np.searchsorted(received, responder + rank[originals], "right"))
    np.maximum(trace, 0, out=trace)
    columns = ResponseColumns(
        row=responses,
        kind=tweets.kind[responses],
        # t_j - t_i >= 0 for any two int64 times, so it is exact in uint64
        delay=ts[responses].astype(np.uint64) - ts[originals].astype(np.uint64),
        trace=trace.astype(np.int64),
    )
    return columns, int((~resolved).sum())


def cdf_table(values: Sequence[float] | np.ndarray) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs over the distinct sorted values."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return []
    uniq, counts = np.unique(values, return_counts=True)
    return list(zip(uniq.tolist(), (np.cumsum(counts) / values.size).tolist()))
