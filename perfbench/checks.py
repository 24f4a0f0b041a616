"""Output checks, run after the timed region.

Each check compares an output with a value the benchmark computes apart from
the program (from the raw JSONL records, with hashlib, NumPy or SciPy), or
with a property the method must have. A check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9  # a probability vector sums to 1 within this
SOLVE_TOL = 1e-8  # L1 distance allowed between a power iteration and a direct solve
NEAR_TIE = 1e-7  # score gap below the link scorers' tolerance (L1 1e-8), with margin


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_edges(raw_dir: Path) -> list[tuple[str, str]]:
    return [(str(r["follower"]), str(r["friend"]))
            for r in read_jsonl(Path(raw_dir) / "edges.jsonl")]


class RawInputs:
    """The generated JSONL records, parsed by the benchmark itself."""

    def __init__(self, raw_dir: Path):
        raw_dir = Path(raw_dir)
        self.users = sorted(str(r["id"]) for r in read_jsonl(raw_dir / "users.jsonl"))
        self.edges = read_edges(raw_dir)
        tweets = read_jsonl(raw_dir / "tweets.jsonl")
        self.n_tweets = len(tweets)
        self.authors = [str(t["author"]) for t in tweets]
        self.timestamps = np.array([int(t["ts"]) for t in tweets], dtype=np.int64)
        self.n_responses = sum(t["kind"] in ("retweet", "reply") for t in tweets)
        self.followers = {u: 0 for u in self.users}
        self.friends = {u: 0 for u in self.users}
        for follower, friend in self.edges:
            self.friends[follower] += 1
            self.followers[friend] += 1


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out_dir: Path) -> list[str]:
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())["artifacts"]
    present = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    fails = []
    if set(manifest) != present:
        fails.append(f"{out_dir.name}: manifest lists {sorted(manifest)}, dir has {sorted(present)}")
    for name, digest in manifest.items():
        if name in present and sha256(out_dir / name) != digest:
            fails.append(f"{out_dir.name}/{name}: sha256 differs from manifest")
    return fails


def tie_broken_order(user_ids, scores) -> list[str]:
    """Best first; equal scores by ascending user id."""
    ids = np.asarray(user_ids)
    return list(ids[np.lexsort((ids, -np.asarray(scores, dtype=float)))])


def tunkrank_matrix(user_ids, edges):
    """Sparse A with A[friend, follower] = 1 / (friends of follower)."""
    from scipy import sparse

    index = {u: i for i, u in enumerate(user_ids)}
    out_deg = np.zeros(len(user_ids))
    for follower, _ in edges:
        out_deg[index[follower]] += 1
    rows = [index[v] for _, v in edges]
    cols = [index[u] for u, _ in edges]
    data = [1.0 / out_deg[index[u]] for u, _ in edges]
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(user_ids),) * 2)


def check_tunkrank_fixed_point(a, scores, p: float, label: str) -> list[str]:
    x = np.asarray(scores, dtype=float)
    residual = np.abs(x - a @ (1.0 + p * x)).max()
    if not residual <= 1e-8 * max(1.0, np.abs(x).max()):
        return [f"{label}: TunkRank x != A(1 + p x), max residual {residual:.3e}"]
    return []


def check_probability(scores, label: str) -> list[str]:
    s = np.asarray(scores, dtype=float)
    if not (np.isfinite(s).all() and (s >= 0).all() and abs(s.sum() - 1.0) <= SUM_TOL):
        return [f"{label}: scores are not a probability vector (sum {s.sum():.12g})"]
    return []


# ---------------------------------------------------------------- pipeline

def _hist_sums(rows) -> tuple[int, int]:
    count = sum(int(r["count"]) for r in rows)
    weighted = sum(int(r["value"]) * int(r["count"]) for r in rows)
    return count, weighted


def check_pipeline(work: Path, raw: RawInputs, reference: dict) -> list[str]:
    """Checks on every stage directory of one pipeline pass.

    ``reference`` maps each compare ranking name (``tir_c0.5`` ... ``tunkrank``)
    to a full-precision RankVector computed after the timed region, so that
    orders can be rebuilt without the 12-digit rounding of the CSV files.
    """
    work = Path(work)
    fails: list[str] = []
    n_users, n_edges = len(raw.users), len(raw.edges)
    for stage_dir in sorted(p for p in work.iterdir() if p.is_dir() and p.name != "raw"):
        fails += check_manifest(stage_dir)

    summary = json.loads((work / "data" / "summary.json").read_text())
    if (summary["n_users"], summary["n_edges"]) != (n_users, n_edges):
        fails.append(f"ingest: summary users/edges {summary['n_users']}/{summary['n_edges']}"
                     f" != raw {n_users}/{n_edges}")
    if summary["n_tweets"] + summary["dropped_tweets"] != raw.n_tweets:
        fails.append(f"ingest: {summary['n_tweets']} kept + {summary['dropped_tweets']} dropped"
                     f" != {raw.n_tweets} raw tweets")

    for name in ("followers", "friends"):
        got = _hist_sums(read_csv(work / "stats" / f"{name}.csv"))
        if got != (n_users, n_edges):
            fails.append(f"stats: {name} histogram sums to {got}, want ({n_users}, {n_edges})")

    hourly = [float(r["count"]) for r in read_csv(work / "activity" / "activity_hourly.csv")]
    weekly = [float(r["count"]) for r in read_csv(work / "activity" / "activity_weekly.csv")]
    heat = np.array([[float(r[f"h{h}"]) for h in range(24)]
                     for r in read_csv(work / "activity" / "activity_heatmap.csv")])
    want_hourly = np.bincount((raw.timestamps // 3600) % 24, minlength=24)
    want_weekly = np.bincount((raw.timestamps // 86400 + 3) % 7, minlength=7)
    if not np.array_equal(hourly, want_hourly) or not np.array_equal(weekly, want_weekly):
        fails.append("activity: hourly/weekly tables differ from counts of the raw timestamps")
    if not (np.array_equal(heat.sum(axis=0), hourly) and np.array_equal(heat.sum(axis=1), weekly)):
        fails.append("activity: heat-map margins differ from the hourly and weekly tables")

    clusters = read_csv(work / "cluster" / "clusters.csv")
    assignments = read_csv(work / "cluster" / "assignments.csv")
    proportions = np.array([float(r["proportion"]) for r in clusters])
    if abs(proportions.sum() - 1.0) > SUM_TOL:
        fails.append(f"cluster: proportions sum to {proportions.sum():.12g}")
    sizes = np.bincount([int(r["cluster"]) for r in assignments], minlength=len(clusters))
    if not np.allclose(sizes / max(len(assignments), 1), proportions, rtol=0, atol=1e-11):
        fails.append("cluster: proportions differ from the assignment shares")
    if len(assignments) != len(set(raw.authors)):
        fails.append(f"cluster: {len(assignments)} assignments, {len(set(raw.authors))} active users")

    resp = json.loads((work / "resp" / "respstats_summary.json").read_text())
    if resp["n_responses"] + resp["excluded"] != raw.n_responses:
        fails.append(f"respstats: {resp['n_responses']} + {resp['excluded']} excluded"
                     f" != {raw.n_responses} retweet/reply records")

    with (work / "features" / "instances.csv").open() as fh:
        n_rows = sum(1 for _ in fh) - 1
    want_rows = sum(raw.followers[a] for a in raw.authors)
    if n_rows != want_rows:
        fails.append(f"features: {n_rows} instance rows, want {want_rows}")

    cv_mean = [float(r["accuracy"]) for r in read_csv(work / "train" / "cv_report.csv")
               if r["fold"] == "mean"]
    if not cv_mean or not cv_mean[0] > 0.5:
        fails.append(f"train: mean cross-validated accuracy {cv_mean} not above 0.5")

    a = tunkrank_matrix(raw.users, raw.edges)
    for stage, ref_name in (("rank_tir", "tir_c0.85"), ("rank_twitterrank", "twitterrank"),
                            ("rank_tunkrank", "tunkrank")):
        fails += check_ranks_csv(work / stage / "ranks.csv", reference[ref_name], raw.users, stage)
        printed = [float(r["score"]) for r in read_csv(work / stage / "ranks.csv")]
        if stage == "rank_tunkrank":
            ref = reference[ref_name]
            fails += check_tunkrank_fixed_point(a, ref.scores, ref.params["p"], stage)
        else:  # TIR and TwitterRank are stationary distributions
            fails += check_probability(reference[ref_name].scores, stage)
            if abs(sum(printed) - 1.0) > 1e-6:
                fails.append(f"{stage}: printed scores sum to {sum(printed):.12g}")

    fails += check_compare(work / "compare", reference)
    return fails


def check_ranks_csv(path: Path, reference, users, label: str) -> list[str]:
    """ranks.csv is a best-first permutation of every user, ties by user id."""
    rows = read_csv(path)
    ids = [r["user_id"] for r in rows]
    fails = []
    if sorted(ids) != list(users):
        return [f"{label}: ranks.csv does not list every user exactly once"]
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        fails.append(f"{label}: rank column is not 1..n")
    if ids != tie_broken_order(reference.user_ids, reference.scores):
        fails.append(f"{label}: order is not best-first with ties by user id")
    ref = reference.as_dict()
    worst = max(abs(float(r["score"]) - ref[r["user_id"]]) / max(abs(ref[r["user_id"]]), 1e-300)
                for r in rows)
    if worst > 1e-9:
        fails.append(f"{label}: printed scores differ from the ranking by {worst:.3e} (relative)")
    return fails


def check_compare(out_dir: Path, reference: dict) -> list[str]:
    from scipy.stats import kendalltau

    orders = {name: tie_broken_order(rv.user_ids, rv.scores) for name, rv in reference.items()}
    fails = []
    rows = read_csv(Path(out_dir) / "tau_matrix.csv")
    names = list(reference)
    want_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    if [(r["model_a"], r["model_b"]) for r in rows] != want_pairs:
        fails.append("compare: tau_matrix.csv does not hold every model pair once")
    for r in rows:
        pos_b = {u: i for i, u in enumerate(orders[r["model_b"]])}
        seq_b = [pos_b[u] for u in orders[r["model_a"]]]
        tau = kendalltau(np.arange(len(seq_b)), seq_b).statistic
        if abs(float(r["tau"]) - tau) > 1e-9:
            fails.append(f"compare: tau({r['model_a']}, {r['model_b']}) = {r['tau']},"
                         f" scipy gives {tau:.12g}")
    top = read_csv(Path(out_dir) / "top_k.csv")
    for name, order in orders.items():
        got = [r["user_id"] for r in top if r["model"] == name]
        if got != order[: len(got)] or not got:
            fails.append(f"compare: top_k.csv for {name} differs from the ranking's head")
    return fails


# ---------------------------------------------------------------- recommend

def reduced_dataset(dataset, u: str, v: str):
    """The dataset with the single follow edge (u, v) removed."""
    from influxrank import model

    edges = [e for e in dataset.graph.edges() if e != (u, v)]
    return model.Dataset(
        users=dataset.users,
        graph=model.FollowGraph(dataset.users.keys(), edges),
        tweets=list(dataset.tweets),
        observation_window=dataset.observation_window,
        tz_offset=dataset.tz_offset,
    )


def q_from_scores(scores: dict, v: str, candidates) -> tuple[int, int]:
    """(Q, near ties): candidates v outranks, ties by user id, and how many
    candidates sit within NEAR_TIE of v."""
    q = sum(1 for c in candidates if (-scores[v], v) < (-scores[c], c))
    near = sum(1 for c in candidates if abs(scores[v] - scores[c]) <= NEAR_TIE * max(1.0, abs(scores[v])))
    return q, near


def scenario_pools(dataset, tags) -> dict[str, int]:
    """Candidate links per scenario: a tenth of the edges for the six
    high/low scenarios, the reciprocal edges for L_rr, the rest for L_ur."""
    edges = list(dataset.graph.edges())
    edge_set = set(edges)
    reciprocal = sum((v, u) in edge_set for u, v in edges)
    pools = {t: max(1, int(len(edges) * 0.1)) for t in tags}
    pools["L_rr"], pools["L_ur"] = reciprocal, len(edges) - reciprocal
    return pools


def check_recommend(dataset, lm, results, *, seed: int, tags, c_grid, gamma: float,
                    p: float, n_links: int, sample: int, rng) -> tuple[list[str], list[str]]:
    """Checks on run_scenarios output. Returns (failures, near-tie notes).

    For ``sample`` seeded links per model, Q is recomputed from a full rebuild:
    a reduced Dataset ranked with tir_rank, twitterrank or tunkrank.
    """
    from influxrank import evaluation, ranking

    fails, notes = [], []
    pools = scenario_pools(dataset, tags)
    expect = []
    for t in tags:
        if pools[t] == 0:
            continue
        expect += [(t, "tir", c) for c in c_grid] + [(t, "tunkrank", None), (t, "twitterrank", None)]
    got = [(r.tag, r.model, r.c) for r in results]
    if sorted(got, key=repr) != sorted(expect, key=repr):
        fails.append(f"recommend: results cover {len(got)} (scenario, model, c), want {len(expect)}")
    for r in results:
        if r.n_links != min(n_links, pools.get(r.tag, 0)):
            fails.append(f"recommend: {r.tag}/{r.model}/{r.c} has {r.n_links} links")
        if any(not (isinstance(q, int) and 0 <= q <= 10) for q in r.q_values):
            fails.append(f"recommend: {r.tag}/{r.model}/{r.c} has a Q outside [0, 10]")
    if fails:
        return fails, notes

    link_sets = evaluation.build_link_sets(dataset, seed=seed, n_links=n_links)
    by_model: dict[str, list] = {"tir": [], "twitterrank": [], "tunkrank": []}
    for r in results:
        for link, q in zip(link_sets[r.tag].links, r.q_values):
            by_model[r.model].append((r.tag, r.c, link, q))
    for name, entries in by_model.items():
        picks = rng.choice(len(entries), size=min(sample, len(entries)), replace=False)
        for i in sorted(picks):
            tag, c, (u, v), q = entries[i]
            reduced = reduced_dataset(dataset, u, v)
            if name == "tir":
                rv = ranking.tir_rank(reduced, lm, c, gamma, mode="personal", user=u)
            elif name == "twitterrank":
                rv = ranking.twitterrank(reduced, gamma, mode="personal", user=u)
            else:
                rv = ranking.tunkrank(reduced, p=p)
            candidates = evaluation.sample_candidates(
                dataset, u, evaluation._sub_seed(seed, "candidates", u, v))
            q_ref, near = q_from_scores(rv.as_dict(), v, candidates)
            label = f"{tag}/{name}/c={c} link ({u}, {v})"
            if q == q_ref:
                continue
            if abs(q - q_ref) <= near:
                notes.append(f"{label}: Q {q} vs rebuild {q_ref}, {near} near-tie candidates")
            else:
                fails.append(f"{label}: Q {q} != {q_ref} from a full rebuild")
    return fails, notes


# ---------------------------------------------------------------- rank

def direct_pagerank(tm) -> np.ndarray:
    """Stationary vector of gamma*(M + uniform dangling columns) + (1-gamma)/n,
    from the sparse system (I - gamma*M_e) y = 1, normalised (Del Corso,
    Gulli and Romani, 2005)."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    n = tm.n
    y = spsolve((sparse.identity(n, format="csc") - tm.gamma * tm.matrix).tocsc(), np.ones(n))
    return y / y.sum()


def check_stochastic(tm, label: str) -> list[str]:
    sums = np.asarray(tm.matrix.sum(axis=0)).ravel()
    ok = np.where(tm.dangling, np.abs(sums) <= 1e-12, np.abs(sums - 1.0) <= 1e-12)
    if not ok.all() or (tm.matrix.data < 0).any():
        return [f"{label}: hour/topic {tm.hour} matrix is not column-stochastic"]
    return []


def hour_weights(dataset, user=None) -> np.ndarray:
    tweets = dataset.tweets_by_author[user] if user is not None else dataset.tweets
    ts = np.array([tw.timestamp for tw in tweets], dtype=np.int64)
    counts = np.bincount(((ts + dataset.tz_offset) // 3600) % 24, minlength=24).astype(float)
    return counts / counts.sum() if counts.sum() > 0 else np.full(24, 1.0 / 24)


class DirectRanker:
    """Reference values for full-ranking requests: every hourly or topic
    matrix is solved directly with SciPy once and then aggregated with weights
    counted here, so each request is checked at the cost of a weighted sum."""

    def __init__(self, dataset, ctx, lm, gamma, tunkrank_a, iterate_hours=(0, 12)):
        self.dataset, self.ctx, self.lm, self.gamma = dataset, ctx, lm, gamma
        self.tunkrank_a = tunkrank_a
        self.iterate_hours = iterate_hours
        self.fails: list[str] = []
        self._solved: dict = {}

    def _solve(self, key, mats) -> list[np.ndarray]:
        from influxrank import ranking

        out = []
        for t, tm in enumerate(mats):
            self.fails += check_stochastic(tm, f"{key}")
            x = direct_pagerank(tm)
            if key[0] == "tir" and t in self.iterate_hours:
                it = ranking.power_iterate(tm, self.ctx.user_ids).scores
                if np.abs(it - x).sum() > SOLVE_TOL:
                    self.fails.append(f"{key}: hour {t} power iteration differs from the direct solve")
            out.append(x)
        return out

    def vectors(self, kind: str, c=None) -> list[np.ndarray]:
        from influxrank import ranking

        key = (kind, c)
        if key not in self._solved:
            if kind == "tir":
                mats = [ranking.build_matrix(self.dataset, self.lm, t, c, self.gamma, ctx=self.ctx)
                        for t in range(24)]
            else:
                mats = ranking.twitterrank_matrices(self.dataset, self.gamma, ctx=self.ctx)
            self._solved[key] = self._solve(key, mats)
        return self._solved[key]

    def check(self, request, rv) -> list[str]:
        kind, params = request
        label = f"rank {kind} {params}"
        if rv is None:
            return [f"{label}: no result"]
        if kind == "tunkrank":
            return check_tunkrank_fixed_point(self.tunkrank_a, rv.scores, params["p"], label)
        ctx, user = self.ctx, params.get("user")
        fails = check_probability(rv.scores, label)
        if list(rv.user_ids) != list(ctx.user_ids):
            fails.append(f"{label}: user ids are not the sorted user set")
        if kind == "tir":
            xs = self.vectors("tir", params["c"])
            weights = hour_weights(self.dataset, user)
        else:
            xs = self.vectors("twitterrank")
            topics = np.array([self.dataset.users[u].topic_distribution for u in ctx.user_ids])
            if user is None:
                counts = np.array([len(self.dataset.tweets_by_author[u]) for u in ctx.user_ids])
                shares = counts @ topics
            else:
                shares = topics[ctx.index[user]]
            weights = shares / shares.sum()
        expected = sum(w * x for w, x in zip(weights, xs))
        diff = np.abs(expected - rv.scores).sum()
        if diff > SOLVE_TOL:
            fails.append(f"{label}: scores differ from direct solves by {diff:.3e} (L1)")
        return fails
