"""The benchmark's workloads: set-up, the timed region and the output checks.

Each workload runs in a fresh worker process on the JSONL inputs that
``influxrank synth --users N --seed 3`` wrote; the benchmark's ``--seed``
picks the sampled parts of a workload. ``setup`` runs before the timer
starts, ``run`` is the timed region (a closed loop, one operation after
another on one thread), and ``check`` runs after it.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import checks

C_GRID = (0.5, 0.85, 0.95, 1.0)  # the recommend command's default --c-grid
GAMMA = 0.85
TUNKRANK_P = 0.05


class Workload:
    def __init__(self, raw: Path, work: Path, seed: int, seconds: int):
        self.raw, self.work, self.seed, self.seconds = Path(raw), Path(work), seed, seconds
        self.info: dict = {}
        self.errors: list[str] = []

    def setup(self) -> None:
        pass

    def run(self) -> tuple[int, int]:
        """Run the timed operations; return (attempted, failed)."""
        raise NotImplementedError

    def check(self) -> tuple[list[str], list[str]]:
        """Return (failures, notes) about the outputs of ``run``."""
        raise NotImplementedError


class Pipeline(Workload):
    """Every CLI stage from ingest through compare, in order; one op per stage.

    A stage is indivisible, so a run is one pass of eleven stages whatever
    ``--seconds`` is (about 30 s at 1,000 users). The seed goes to the
    stages that take one: cluster, features and train.
    """

    def stages(self) -> list[tuple[str, list[str]]]:
        w = self.work
        data, model_file = str(w / "data"), str(w / "train" / "model.json")
        seed = str(self.seed)
        rank = ["rank", "--in", data, "--model"]
        return [
            ("ingest", ["ingest", "--in", str(self.raw), "--out", data]),
            ("stats", ["stats", "--in", data, "--out", str(w / "stats")]),
            ("activity", ["activity", "--in", data, "--out", str(w / "activity")]),
            ("cluster", ["cluster", "--in", data, "--k-min", "2", "--k-max", "6",
                         "--seed", seed, "--out", str(w / "cluster")]),
            ("respstats", ["respstats", "--in", data, "--out", str(w / "resp")]),
            ("features", ["features", "--in", data, "--seed", seed,
                          "--out", str(w / "features")]),
            ("train", ["train", "--instances", str(w / "features" / "instances.csv"),
                       "--seed", seed, "--out", str(w / "train")]),
            ("rank_tir", rank + ["tir", "--model-file", model_file, "--out", str(w / "rank_tir")]),
            ("rank_tunkrank", rank + ["tunkrank", "--out", str(w / "rank_tunkrank")]),
            ("rank_twitterrank", rank + ["twitterrank", "--out", str(w / "rank_twitterrank")]),
            ("compare", ["compare", "--in", data, "--model-file", model_file,
                         "--out", str(w / "compare")]),
        ]

    def run(self):
        from influxrank import cli

        stage_s = self.info["stage_s"] = {}
        failed = 0
        stages = self.stages()
        for name, args in stages:
            t0 = time.perf_counter()
            try:
                cli.main(args, standalone_mode=False)
            except (Exception, SystemExit) as exc:  # a stage that raises or exits fails its op
                failed += 1
                self.errors.append(f"stage {name}: {type(exc).__name__}: {exc}")
            stage_s[name] = time.perf_counter() - t0
        return len(stages), failed

    def check(self):
        from influxrank import features, logistic, model, ranking

        raw = checks.RawInputs(self.raw)
        dataset = model.load_dataset(self.work / "data")
        ctx = features.FeatureContext(dataset)
        lm = logistic.LogisticModel.load(self.work / "train" / "model.json")
        reference = {
            "tir_c0.5": ranking.tir_rank(dataset, lm, 0.5, GAMMA, ctx=ctx),
            "tir_c0.85": ranking.tir_rank(dataset, lm, 0.85, GAMMA, ctx=ctx),
            "tir_c1.0": ranking.tir_rank(dataset, lm, 1.0, GAMMA, ctx=ctx),
            "twitterrank": ranking.twitterrank(dataset, gamma=GAMMA, ctx=ctx),
            "tunkrank": ranking.tunkrank(dataset, p=TUNKRANK_P),
        }
        self.info["inputs"] = {"users": len(raw.users), "edges": len(raw.edges),
                               "tweets": raw.n_tweets}
        return checks.check_pipeline(self.work, raw, reference), []


class _Trained(Workload):
    """Set-up shared by the in-memory workloads: load the dataset and train
    the logistic model the way the features and train stages do, without
    cross-validation."""

    def setup(self):
        from influxrank import cli, features, logistic, model

        self.dataset = model.load_dataset(self.raw)
        self.ctx = features.FeatureContext(self.dataset)
        instances = features.build_instances(self.dataset, self.ctx)
        sub = cli.stage_seed(self.seed, "train")
        balanced, scaler = features.balance_and_normalize(instances, seed=sub)
        self.lm = logistic.train(balanced.features, balanced.labels.astype(float),
                                 seed=sub, scaler=scaler)
        self.info["inputs"] = {"users": self.dataset.n_users,
                               "edges": self.dataset.graph.n_edges,
                               "tweets": len(self.dataset.tweets),
                               "instances": len(instances)}


class Recommend(_Trained):
    """evaluation.run_scenarios as the recommend stage calls it: all eight
    scenario tags, all three models, the default c grid. One op is one link
    evaluation, a single Q for one (model, c)."""

    # Links per scenario are sized to the run length from these costs,
    # measured at 2,000 users on a 2-core machine: a fixed part (context,
    # link sets, scorers) and one link in each of seven scenarios.
    FIXED_S = 1.7
    LINK_S = 2.33
    CHECK_SAMPLE = 2  # links per model recomputed from a full rebuild

    def setup(self):
        from influxrank import cli, evaluation

        super().setup()
        self.n_links = max(1, round((self.seconds - self.FIXED_S) / self.LINK_S))
        self.sub = cli.stage_seed(self.seed, "recommend")
        pools = checks.scenario_pools(self.dataset, evaluation.SCENARIO_TAGS).values()
        per_link = len(C_GRID) + 2  # TIR at each c, TunkRank, TwitterRank
        self.expected_ops = sum(min(self.n_links, pool) for pool in pools) * per_link
        self.info.update(n_links=self.n_links, empty_scenarios=list(pools).count(0))

    def run(self):
        from influxrank import evaluation

        self.results = []
        try:
            self.results = evaluation.run_scenarios(
                self.dataset, self.lm, seed=self.sub, c_grid=C_GRID, gamma=GAMMA,
                tunkrank_p=TUNKRANK_P, scenarios=evaluation.SCENARIO_TAGS,
                n_links=self.n_links,
            )
        except Exception as exc:  # the whole call failed: every op it owed fails
            self.errors.append(f"run_scenarios: {type(exc).__name__}: {exc}")
            return self.expected_ops, self.expected_ops
        done = sum(r.n_links for r in self.results)
        return self.expected_ops, max(0, self.expected_ops - done)

    def check(self):
        from influxrank import evaluation

        return checks.check_recommend(
            self.dataset, self.lm, self.results, seed=self.sub, tags=evaluation.SCENARIO_TAGS,
            c_grid=C_GRID, gamma=GAMMA, p=TUNKRANK_P, n_links=self.n_links,
            sample=self.CHECK_SAMPLE, rng=np.random.default_rng(self.seed),
        )


class Rank(_Trained):
    """Rounds of full-ranking requests against the dataset, context and
    model held in memory; one op is one ranking. A round is the global
    rankings (TIR at c = 0.5, 0.85, 1.0, TwitterRank, TunkRank) plus TIR and
    TwitterRank personal rankings for a seeded sample of users."""

    ROUND_S = 1.0  # one round at 2,000 users on a 2-core machine
    USERS_PER_ROUND = 4

    def setup(self):
        super().setup()
        rounds = max(1, round(self.seconds / self.ROUND_S))
        rng = np.random.default_rng(self.seed)
        ids = self.ctx.user_ids
        self.requests = []
        for _ in range(rounds):
            self.requests += [("tir", {"c": c}) for c in (0.5, 0.85, 1.0)]
            self.requests += [("twitterrank", {}), ("tunkrank", {"p": TUNKRANK_P})]
            for i in sorted(rng.choice(len(ids), size=min(self.USERS_PER_ROUND, len(ids)),
                                       replace=False)):
                self.requests += [("tir", {"c": 0.85, "user": ids[i]}),
                                  ("twitterrank", {"user": ids[i]})]
        self.info["rounds"] = rounds

    def call(self, kind: str, params: dict):
        from influxrank import ranking

        user = params.get("user")
        mode = "global" if user is None else "personal"
        if kind == "tir":
            return ranking.tir_rank(self.dataset, self.lm, params["c"], GAMMA, mode=mode,
                                    user=user, ctx=self.ctx)
        if kind == "twitterrank":
            return ranking.twitterrank(self.dataset, GAMMA, mode=mode, user=user, ctx=self.ctx)
        return ranking.tunkrank(self.dataset, p=params["p"])

    def run(self):
        self.outputs = []
        failed = 0
        for kind, params in self.requests:
            try:
                self.outputs.append(self.call(kind, params))
            except Exception as exc:  # a request that raises fails its op
                failed += 1
                self.outputs.append(None)
                self.errors.append(f"rank {kind} {params}: {type(exc).__name__}: {exc}")
        return len(self.requests), failed

    def check(self):
        a = checks.tunkrank_matrix(sorted(self.dataset.users), checks.read_edges(self.raw))
        ranker = checks.DirectRanker(self.dataset, self.ctx, self.lm, GAMMA, a)
        fails = []
        for request, rv in zip(self.requests, self.outputs):
            fails += ranker.check(request, rv)
        return fails + ranker.fails, []


WORKLOADS = {"recommend-2k": Recommend, "rank-2k": Rank, "pipeline-1k": Pipeline}
