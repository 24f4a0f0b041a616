"""Per-layer timers and counters for the benchmark's traced run.

The tracer wraps public functions and methods of the influxrank modules with
timers and counters that live here. A module-level function is replaced in
every influxrank module namespace that holds it, so a call is seen the way the
calling module makes it (``ranking`` calls ``global_activity`` through its own
import, ``cli`` calls it as ``temporal.global_activity``). Nothing under
``src/`` is edited, and ``Tracer.uninstall`` puts every original back.

A span records its inclusive time, its self time (inclusive time minus the
time of the wrapped calls made inside it) and its call count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

STAGES = (
    "ingest", "stats", "activity", "cluster", "respstats", "features", "train",
    "rank_tir", "rank_tunkrank", "rank_twitterrank", "compare",
)

# Every per-layer metric, in the order it is printed: (name, unit).
PER_LAYER = (
    [(f"cli.stage_s.{s}", "s") for s in STAGES]
    + [
        ("cli.write_csv_s", "s"),
        ("cli.csv_rows", "count"),
        ("cli.manifest_s", "s"),
        ("cli.artifact_mb", "MB"),
        ("cli.load_instances_csv_s", "s"),
        ("model.load_dataset_s", "s"),
        ("model.load_dataset_calls", "count"),
        ("model.ingest_s", "s"),
        ("model.window_scan_s", "s"),
        ("model.serialize_s", "s"),
        ("model.dataset_builds", "count"),
        ("model.dataset_build_s", "s"),
        ("temporal.all_profiles_s", "s"),
        ("temporal.select_k_s", "s"),
        ("temporal.ksc_cluster_s", "s"),
        ("temporal.ksc_cluster_calls", "count"),
        ("temporal.response_metrics_s", "s"),
        ("temporal.global_activity_s", "s"),
        ("features.context_s", "s"),
        ("features.context_builds", "count"),
        ("features.build_instances_s", "s"),
        ("features.instances", "count"),
        ("features.balance_s", "s"),
        ("logistic.cross_validate_s", "s"),
        ("logistic.train_s", "s"),
        ("logistic.train_calls", "count"),
        ("logistic.log_loss_s", "s"),
        ("logistic.log_loss_calls", "count"),
        ("ranking.power_iterate_s", "s"),
        ("ranking.power_iterate_calls", "count"),
        ("ranking.power_iterations", "count"),
        ("ranking.tir_rank_s", "s"),
        ("ranking.twitterrank_s", "s"),
        ("ranking.tunkrank_s", "s"),
        ("ranking.tunkrank_calls", "count"),
        ("ranking.order_s", "s"),
        ("ranking.order_calls", "count"),
        ("ranking.as_dict_calls", "count"),
        ("evaluation.link_evals", "count"),
        ("evaluation.evaluate_link_s.tir", "s"),
        ("evaluation.evaluate_link_s.twitterrank", "s"),
        ("evaluation.evaluate_link_s.tunkrank", "s"),
        ("evaluation.scorer_init_s", "s"),
        ("evaluation.scorer_self_s", "s"),
        ("evaluation.build_link_sets_s", "s"),
        ("evaluation.q_score_s", "s"),
        ("evaluation.scenarios_run", "count"),
        ("evaluation.kendall_tau_s", "s"),
        ("synth.generate_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.wrapped_calls", "count"),
        ("trace.overhead_est_s", "s"),
    ]
)

LINK_MODELS = ("tir", "twitterrank", "tunkrank")


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name, fn, after=None):
        """Wrap fn in a timed span. ``name`` is a string or a function of
        (args, kwargs); ``after(result, args, kwargs)`` runs on success."""
        stack, total, self_time, calls = self._stack, self.total, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                total[key] += dt
                self_time[key] += dt - children[0]
                calls[key] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn with a call counter and no timer."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_iter(self, name, iterable):
        counts = self.counts
        for item in iterable:
            counts[name] += 1
            yield item

    def patch_function(self, module, attr, make):
        """Replace module.attr in every influxrank namespace that holds it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "influxrank" or mod_name.startswith("influxrank.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @property
    def wrapped_calls(self) -> int:
        return sum(self.calls.values())


def _link_model(args, kwargs):
    model = kwargs.get("model", args[3] if len(args) > 3 else "tunkrank")
    return f"evaluation.evaluate_link.{model}"


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; call after importing influxrank."""
    from influxrank import cli, evaluation, features, logistic, model, ranking, temporal

    span, fn, meth = tracer.span, tracer.patch_function, tracer.patch_method
    counts = tracer.counts

    def write_csv(original):
        timed = span("cli.write_csv", original)

        def wrapper(self, name, header, rows):
            return timed(self, name, header, tracer.count_iter("cli.csv_rows", rows))

        return wrapper

    def artifact_bytes(manifest, args, kwargs):
        session = args[0]
        paths = [p for p in session.paths if p.exists()] + [manifest]
        counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in paths)

    meth(cli.ArtifactSession, "write_csv", write_csv)
    meth(cli.ArtifactSession, "finish", lambda f: span("cli.manifest", f, artifact_bytes))
    fn(cli, "load_instances_csv", lambda f: span("cli.load_instances_csv", f))

    fn(model, "load_dataset", lambda f: span("model.load_dataset", f))
    fn(model, "ingest", lambda f: span("model.ingest", f))
    fn(model, "serialize", lambda f: span("model.serialize", f))
    meth(model.Dataset, "__init__", lambda f: span("model.dataset_build", f))
    meth(model.FollowGraph, "__init__", lambda f: span("model.graph_build", f))

    for name in ("all_profiles", "select_k", "ksc_cluster", "response_metrics",
                 "global_activity"):
        fn(temporal, name, lambda f, n=name: span(f"temporal.{n}", f))

    def instances(result, args, kwargs):
        counts["features.instances"] += len(result)

    meth(features.FeatureContext, "__init__", lambda f: span("features.context", f))
    fn(features, "build_instances", lambda f: span("features.build_instances", f, instances))
    fn(features, "balance_and_normalize", lambda f: span("features.balance", f))

    fn(logistic, "cross_validate", lambda f: span("logistic.cross_validate", f))
    fn(logistic, "train", lambda f: span("logistic.train", f))
    fn(logistic, "log_loss", lambda f: span("logistic.log_loss", f))

    def iterations(result, args, kwargs):
        counts["ranking.power_iterations"] += result.params["iterations"]

    fn(ranking, "power_iterate", lambda f: span("ranking.power_iterate", f, iterations))
    for name in ("tir_rank", "twitterrank", "tunkrank"):
        fn(ranking, name, lambda f, n=name: span(f"ranking.{n}", f))
    meth(ranking.RankVector, "order", lambda f: span("ranking.order", f))
    meth(ranking.RankVector, "as_dict", lambda f: tracer.counter("ranking.as_dict", f))

    def scenarios(result, args, kwargs):
        counts["evaluation.scenarios_run"] += len({r.tag for r in result})

    fn(evaluation, "evaluate_link", lambda f: span(_link_model, f))
    for cls in (evaluation.TirLinkScorer, evaluation.TwitterRankLinkScorer):
        meth(cls, "__init__", lambda f: span("evaluation.scorer_init", f))
        meth(cls, "personal_scores_without", lambda f: span("evaluation.scorer", f))
    fn(evaluation, "build_link_sets", lambda f: span("evaluation.build_link_sets", f))
    fn(evaluation, "q_score", lambda f: span("evaluation.q_score", f))
    fn(evaluation, "run_scenarios", lambda f: span("evaluation.run_scenarios", f, scenarios))
    fn(evaluation, "kendall_tau", lambda f: span("evaluation.kendall_tau", f))


def wrapper_cost(n: int = 200_000) -> float:
    """Seconds one timed span adds to a call, measured on a no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe.span("probe", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / n)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the worker's spans and counters; the caller adds
    the stage times, ``synth.generate_s`` and the ``trace.*`` figures."""
    t, st, c, k = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    out = {
        "cli.write_csv_s": t["cli.write_csv"],
        "cli.csv_rows": k["cli.csv_rows"],
        "cli.manifest_s": t["cli.manifest"],
        "cli.artifact_mb": k["cli.artifact_bytes"] / 1e6,
        "cli.load_instances_csv_s": t["cli.load_instances_csv"],
        "model.load_dataset_s": t["model.load_dataset"],
        "model.load_dataset_calls": c["model.load_dataset"],
        "model.ingest_s": t["model.ingest"],
        "model.window_scan_s": st["model.load_dataset"],
        "model.serialize_s": t["model.serialize"],
        "model.dataset_builds": c["model.dataset_build"],
        "model.dataset_build_s": t["model.dataset_build"] + t["model.graph_build"],
        "temporal.all_profiles_s": t["temporal.all_profiles"],
        "temporal.select_k_s": t["temporal.select_k"],
        "temporal.ksc_cluster_s": t["temporal.ksc_cluster"],
        "temporal.ksc_cluster_calls": c["temporal.ksc_cluster"],
        "temporal.response_metrics_s": t["temporal.response_metrics"],
        "temporal.global_activity_s": t["temporal.global_activity"],
        "features.context_s": t["features.context"],
        "features.context_builds": c["features.context"],
        "features.build_instances_s": t["features.build_instances"],
        "features.instances": k["features.instances"],
        "features.balance_s": t["features.balance"],
        "logistic.cross_validate_s": t["logistic.cross_validate"],
        "logistic.train_s": t["logistic.train"],
        "logistic.train_calls": c["logistic.train"],
        "logistic.log_loss_s": t["logistic.log_loss"],
        "logistic.log_loss_calls": c["logistic.log_loss"],
        "ranking.power_iterate_s": t["ranking.power_iterate"],
        "ranking.power_iterate_calls": c["ranking.power_iterate"],
        "ranking.power_iterations": k["ranking.power_iterations"],
        "ranking.tir_rank_s": t["ranking.tir_rank"],
        "ranking.twitterrank_s": t["ranking.twitterrank"],
        "ranking.tunkrank_s": t["ranking.tunkrank"],
        "ranking.tunkrank_calls": c["ranking.tunkrank"],
        "ranking.order_s": t["ranking.order"],
        "ranking.order_calls": c["ranking.order"],
        "ranking.as_dict_calls": c["ranking.as_dict"],
        "evaluation.link_evals": sum(c[f"evaluation.evaluate_link.{m}"] for m in LINK_MODELS),
        "evaluation.scorer_init_s": t["evaluation.scorer_init"],
        "evaluation.scorer_self_s": st["evaluation.scorer"],
        "evaluation.build_link_sets_s": t["evaluation.build_link_sets"],
        "evaluation.q_score_s": t["evaluation.q_score"],
        "evaluation.scenarios_run": k["evaluation.scenarios_run"],
        "evaluation.kendall_tau_s": t["evaluation.kendall_tau"],
    }
    for m in LINK_MODELS:
        out[f"evaluation.evaluate_link_s.{m}"] = t[f"evaluation.evaluate_link.{m}"]
    return out
