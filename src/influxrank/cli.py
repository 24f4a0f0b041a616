"""Command-line pipeline: synth -> ingest -> stats -> ... -> recommend.

Every subcommand writes its artifacts plus a manifest.json with content
hashes; identical inputs, flags and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
import zipfile
from array import array
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import evaluation, features, logistic, model, ranking, synth, temporal

FLOAT_FMT = "{:.12g}"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    return str(value)


def stage_seed(seed: int, stage: str) -> int:
    """Named sub-seed so stages are reproducible independently."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**32


class ArtifactSession:
    """Tracks files written by one subcommand; removes them all on failure
    and writes manifest.json with sha256 content hashes on success."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        return p

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        p = self.path(name)
        with p.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        return p

    def abort(self) -> None:
        for p in self.paths:
            if p.exists():
                p.unlink()

    def finish(self) -> Path:
        manifest = {}
        for p in self.paths:
            manifest[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        mpath = self.out_dir / "manifest.json"
        mpath.write_text(json.dumps({"artifacts": manifest}, sort_keys=True, indent=2))
        return mpath


def run_stage(out_dir: Path, body) -> None:
    session = ArtifactSession(out_dir)
    try:
        body(session)
    except click.ClickException:
        session.abort()
        raise
    except Exception as exc:
        session.abort()
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    session.finish()


def _load(in_dir: str, min_tweets: int = 0) -> model.Dataset:
    try:
        return model.load_dataset(in_dir, min_tweets=min_tweets)
    except FileNotFoundError as exc:
        raise click.ClickException(str(exc)) from exc


@click.group()
def main():
    """Temporal influence ranking toolkit."""


@main.command("synth")
@click.option("--users", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--days", type=int, default=28, show_default=True)
@click.option("--topics", type=int, default=4, show_default=True)
@click.option("--follower-exponent", type=float, default=2.5, show_default=True)
@click.option("--close-fraction", type=float, default=0.1, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def synth_cmd(users, seed, days, topics, follower_exponent, close_fraction, out):
    """Generate a synthetic dataset with planted ground truth."""
    if users < 0:
        raise click.BadParameter("--users must be >= 0")

    def body(session: ArtifactSession):
        config = synth.GeneratorConfig(
            n_users=users,
            seed=stage_seed(seed, "synth"),
            observation_days=days,
            n_topics=topics,
            follower_exponent=follower_exponent,
            close_fraction=close_fraction,
        )
        dataset, truth = synth.generate(config)
        for p in model.serialize(dataset, session.out_dir).values():
            session.paths.append(p)
        synth.truth_report(truth, session.path("truth.csv"))

    run_stage(Path(out), body)


@main.command("ingest")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--min-tweets", type=int, default=0, show_default=True)
def ingest_cmd(in_dir, out, min_tweets):
    """Validate raw JSONL files and emit a normalized dataset copy, plus
    the parse cache that later stages read in its place."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir, min_tweets=min_tweets)
        for p in model.serialize(dataset, session.out_dir).values():
            session.paths.append(p)
        session.paths.append(model.write_cache(dataset, session.out_dir))
        summary = {
            "n_users": dataset.n_users,
            "n_edges": dataset.graph.n_edges,
            "n_tweets": len(dataset.tweets),
            "dropped_tweets": dataset.dropped_tweets,
            "window": list(dataset.observation_window),
        }
        session.path("summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2)
        )

    run_stage(Path(out), body)


@main.command("stats")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def stats_cmd(in_dir, out):
    """Degree and tweet-count distributions plus follower/friend correlation."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        report = model.degree_stats(dataset)
        for name, hist in (
            ("followers.csv", report.follower_hist),
            ("friends.csv", report.friend_hist),
            ("tweets.csv", report.tweet_hist),
        ):
            session.write_csv(name, ["value", "count"], sorted(hist.items()))
        corr = report.follower_friend_corr
        session.path("correlation.json").write_text(
            json.dumps(
                {"follower_friend_corr": None if corr is None else float(corr)},
                sort_keys=True,
            )
        )

    run_stage(Path(out), body)


@main.command("activity")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def activity_cmd(in_dir, out):
    """Global hourly/weekly activity vectors and the 7x24 heat map."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        hourly = temporal.global_activity(dataset, "hour_of_day")
        weekly = temporal.global_activity(dataset, "day_of_week")
        heat = temporal.global_activity(dataset, "hour_x_day")
        session.write_csv(
            "activity_hourly.csv", ["hour", "count"], list(enumerate(hourly))
        )
        session.write_csv(
            "activity_weekly.csv", ["weekday", "count"], list(enumerate(weekly))
        )
        session.write_csv(
            "activity_heatmap.csv",
            ["weekday"] + [f"h{h}" for h in range(24)],
            [[d] + list(heat[d]) for d in range(7)],
        )

    run_stage(Path(out), body)


@main.command("cluster")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--k", type=int, default=None, help="Fixed cluster count.")
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max", type=int, default=6, show_default=True)
@click.option("--max-shift", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cluster_cmd(in_dir, out, k, k_min, k_max, max_shift, seed):
    """K-SC clustering of per-user hourly activity shapes."""
    if not 0 <= max_shift <= 23:
        raise click.BadParameter("--max-shift must be in [0, 23]")
    if k is not None and k < 1:
        raise click.BadParameter("--k must be >= 1")
    if k is None and not 2 <= k_min <= k_max <= 10:
        raise click.BadParameter("need 2 <= --k-min <= --k-max <= 10")

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        profiles = {
            uid: prof.a_t
            for uid, prof in temporal.all_profiles(dataset).items()
            if prof.has_tweets
        }
        sub = stage_seed(seed, "cluster")
        asc_rows = []
        if k is None:
            result, asc_per_k = temporal.select_k(
                profiles, range(k_min, k_max + 1), seed=sub, max_shift=max_shift
            )
            asc_rows = sorted(asc_per_k.items())
        else:
            result = temporal.ksc_cluster(profiles, k, max_shift=max_shift, seed=sub)
        session.write_csv(
            "clusters.csv",
            ["cluster", "proportion"] + [f"h{h}" for h in range(24)],
            [
                [j, result.proportions[j]] + list(result.centroids[j])
                for j in range(result.k)
            ],
        )
        session.write_csv(
            "assignments.csv",
            ["user_id", "cluster"],
            sorted(result.assignment.items()),
        )
        if asc_rows:
            session.write_csv("asc_curve.csv", ["k", "asc"], asc_rows)

    run_stage(Path(out), body)


@main.command("respstats")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def respstats_cmd(in_dir, out):
    """Delay and trace cumulative distributions, split by retweet/reply."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        metrics, excluded = temporal.response_metrics(dataset)
        for field in ("delay", "trace"):
            rows = []
            for kind in ("retweet", "reply"):
                values = [getattr(m, field) for m in metrics if m.kind == kind]
                for v, frac in temporal.cdf_table(values):
                    rows.append([kind, v, frac])
            session.write_csv(f"{field}_cdf.csv", ["kind", "value", "cum_frac"], rows)
        session.path("respstats_summary.json").write_text(
            json.dumps(
                {"n_responses": len(metrics), "excluded": excluded}, sort_keys=True
            )
        )

    run_stage(Path(out), body)


@main.command("features")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def features_cmd(in_dir, out, seed):
    """Materialize labeled response instances and the min-max scaler, plus
    the parsed copy of the instances that train reads in their place."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        instances = features.build_instances(dataset)
        _, scaler = features.balance_and_normalize(
            instances, seed=stage_seed(seed, "features")
        )
        write_instances(session, instances)
        scaler.save(session.path("scaler.json"))

    run_stage(Path(out), body)


INSTANCE_HEADER = ["tweet_id", "follower", "friend", "hour", *features.FEATURE_NAMES, "label"]
# ids made of these characters alone are printed as they are by csv.writer
_PLAIN_FIELD = re.compile(r"[\w.-]+", re.ASCII)
# instance rows per pass: bounds the text and the row copies held at once
_BLOCK_ROWS = 1 << 12
# odd 64-bit multiplier (2^64 / golden ratio) of the row hash
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _csv_fields(values: list[str]) -> list[str]:
    """Each value as csv.writer prints it as a field of a longer row."""
    if all(values) and _PLAIN_FIELD.fullmatch("".join(values)):
        return values
    buf = io.StringIO()
    writer = csv.writer(buf)
    # a row's one empty field prints as "", so each value gets a second field
    tail = "," + writer.dialect.lineterminator
    out = []
    for v in values:
        if _PLAIN_FIELD.fullmatch(v):
            out.append(v)
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerow((v, ""))
        out.append(buf.getvalue()[: -len(tail)])
    return out


def _equal_row_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group): a row of each group and the group of each row, where
    a group holds rows with equal bits, so equal text; -0.0 and each NaN
    keep their own.

    Rows are sorted by a hash of their bits and a group starts wherever a
    row differs from the one before it. A group so never holds unequal
    rows; a hash collision can only split equal rows into two groups, which
    print alike. Unlike np.unique over the rows, this makes no sorted copy
    of the matrix.
    """
    bits = x.view(np.uint64)
    h = np.zeros(len(x), dtype=np.uint64)
    for column in bits.T:
        h ^= column
        h *= _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    order = np.argsort(h, kind="stable")
    starts = np.ones(len(x), dtype=bool)
    for lo in range(1, len(x), _BLOCK_ROWS):
        rows = order[lo : lo + _BLOCK_ROWS]
        before = order[lo - 1 : lo - 1 + len(rows)]
        starts[lo : lo + len(rows)] = (bits[rows] != bits[before]).any(axis=1)
    group = np.empty(len(x), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def write_instances(session: ArtifactSession, instances: features.InstanceSet) -> None:
    """Write instances.csv, with the bytes write_csv would give it, and
    instances.npz: the columns that parsing that CSV gives, and its sha256.

    Every feature is a function of (edge, hour), so rows repeat: each
    distinct value is formatted once, each distinct row joined once, and
    each id encoded once.
    """
    x = np.ascontiguousarray(instances.features, dtype=float)
    first, row_of = _equal_row_groups(x)
    # values are told apart by their bits, as rows are
    bits, value_of = np.unique(x[first].view(np.int64).ravel(), return_inverse=True)
    value_of = value_of.reshape(len(first), x.shape[1])
    text = np.array([FLOAT_FMT.format(v) for v in bits.view(float).tolist()], dtype=object)
    fragments = [",".join(row) for row in text[value_of].tolist()]
    tweets = _csv_fields(instances.tweet_ids.tolist())
    users = _csv_fields(instances.user_ids.tolist())
    labels = instances.labels.astype(np.int64)

    csv_path = session.path("instances.csv")
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerow(INSTANCE_HEADER)
        for lo in range(0, len(labels), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            t, u, v, h = instances.keys[block].T.tolist()
            fh.write("".join([
                f"{tweets[a]},{users[b]},{users[c]},{d},{fragments[r]},{y}\r\n"
                for a, b, c, d, r, y in zip(t, u, v, h, row_of[block].tolist(),
                                            labels[block].tolist())
            ]))
    np.savez(
        session.path(csv_path.with_suffix(".npz").name),
        sha256_csv=np.array(model.sha256_file(csv_path)),
        keys=instances.keys,
        # the features as parsing the CSV gives them back, stored as the
        # distinct rows and each instance's row
        feature_rows=np.array([float(t) for t in text.tolist()], dtype=float)[value_of],
        feature_row_of=row_of,
        labels=labels,
        tweet_ids=instances.tweet_ids,
        user_ids=instances.user_ids,
    )


def _instance_set(keys, values, labels, tweet_ids, user_ids) -> features.InstanceSet:
    """The InstanceSet of parsed or cached columns, checked for shape."""
    n = len(labels)
    if keys.shape != (n, 4) or values.shape != (n, len(features.FEATURE_NAMES)):
        raise ValueError(f"instance columns of shapes {keys.shape}, {values.shape}, ({n},)")
    return features.InstanceSet(keys=keys, features=values, labels=labels,
                                tweet_ids=tweet_ids, user_ids=user_ids)


def _parse_instances_csv(path: Path) -> features.InstanceSet:
    """The instances of an instance CSV, checked line by line."""
    source, width, n_feat = path.name, len(INSTANCE_HEADER), len(features.FEATURE_NAMES)
    tweet, follower, friend = [], [], []
    hours, labels = array("q"), array("q")
    # packed doubles, not one float object per value
    values = array("d")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != INSTANCE_HEADER:
            raise model.ParseError(source, 1, "header is not " + ",".join(INSTANCE_HEADER))
        for rec in reader:
            if len(rec) != width:
                raise model.ParseError(source, reader.line_num,
                                       f"{len(rec)} fields, want {width}")
            try:
                hour, label = int(rec[3]), int(rec[-1])
                values.extend(map(float, rec[4:-1]))
            except ValueError as exc:
                raise model.ParseError(source, reader.line_num, str(exc)) from None
            if label not in (0, 1):
                raise model.ParseError(source, reader.line_num, f"label {rec[-1]!r} is not 0 or 1")
            tweet.append(rec[0])
            follower.append(rec[1])
            friend.append(rec[2])
            hours.append(hour)
            labels.append(label)
    tweet_ids, tweet_code = np.unique(np.array(tweet, dtype=str), return_inverse=True)
    user_ids, user_code = np.unique(np.array(follower + friend, dtype=str), return_inverse=True)
    n = len(labels)
    return _instance_set(
        np.column_stack([tweet_code, user_code[:n], user_code[n:],
                         np.frombuffer(hours, dtype=np.int64)]).astype(np.int64),
        np.frombuffer(values, dtype=float).reshape(n, n_feat),
        np.frombuffer(labels, dtype=np.int64).astype(int),
        tweet_ids,
        user_ids,
    )


def _read_instances_npz(path: Path) -> Optional[features.InstanceSet]:
    """The instances held in the npz that features wrote beside path (same
    name, .npz); None when there is none, it cannot be read, or path has
    changed since."""
    try:
        with np.load(path.with_suffix(".npz"), allow_pickle=False) as npz:
            if str(npz["sha256_csv"]) != model.sha256_file(path):
                return None
            return _instance_set(npz["keys"], npz["feature_rows"][npz["feature_row_of"]],
                                 npz["labels"], npz["tweet_ids"], npz["user_ids"])
    except (OSError, ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile):
        return None


def load_instances_csv(path: str | Path) -> features.InstanceSet:
    """The instances of an instances.csv that features wrote: from the
    instances.npz beside it while that holds the file's sha256, parsed from
    the CSV otherwise. Both give the same columns."""
    path = Path(path)
    cached = _read_instances_npz(path)
    return cached if cached is not None else _parse_instances_csv(path)


@main.command("train")
@click.option("--instances", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lr", type=float, default=0.1, show_default=True)
@click.option("--epochs", type=int, default=500, show_default=True)
def train_cmd(instances, out, folds, seed, lr, epochs):
    """Balance, normalize, cross-validate and fit the logistic response model."""
    if folds < 2:
        raise click.BadParameter("--folds must be >= 2")
    if epochs < 1:
        raise click.BadParameter("--epochs must be >= 1")
    if not lr > 0:
        raise click.BadParameter("--lr must be > 0")

    def body(session: ArtifactSession):
        inst = load_instances_csv(instances)
        sub = stage_seed(seed, "train")
        balanced, scaler = features.balance_and_normalize(inst, seed=sub)
        per_fold, mean_acc = logistic.cross_validate(
            balanced.features,
            balanced.labels.astype(float),
            folds=folds,
            seed=sub,
            learning_rate=lr,
            epochs=epochs,
            keys=balanced.keys,
        )
        fitted = logistic.train(
            balanced.features,
            balanced.labels.astype(float),
            learning_rate=lr,
            epochs=epochs,
            seed=sub,
            scaler=scaler,
        )
        fitted.metadata.update({"folds": folds, "cv_mean_accuracy": mean_acc})
        fitted.save(session.path("model.json"))
        session.write_csv(
            "cv_report.csv",
            ["fold", "accuracy"],
            [[i, a] for i, a in enumerate(per_fold)] + [["mean", mean_acc]],
        )
        session.write_csv(
            "feature_weights.csv",
            ["feature", "weight"],
            logistic.rank_features(fitted),
        )

    run_stage(Path(out), body)


def _parse_aggregate(value: str):
    if value == "global":
        return "global", None
    if value.startswith("personal:"):
        return "personal", value.split(":", 1)[1]
    raise click.BadParameter("--aggregate must be global or personal:<user_id>")


@main.command("rank")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--model", "model_name",
              type=click.Choice(["tir", "tunkrank", "twitterrank"]), required=True)
@click.option("--model-file", type=click.Path(exists=True), default=None,
              help="Trained logistic model (required for tir).")
@click.option("--c", type=float, default=0.85, show_default=True)
@click.option("--gamma", type=float, default=0.85, show_default=True)
@click.option("--p", type=float, default=0.05, show_default=True)
@click.option("--aggregate", "aggregate_spec", default="global", show_default=True)
@click.option("--hour", default="all", show_default=True,
              help="all, or a single hour 0..23 (tir only).")
@click.option("--dump-matrix", is_flag=True, default=False)
def rank_cmd(in_dir, out, model_name, model_file, c, gamma, p, aggregate_spec,
             hour, dump_matrix):
    """Compute an influence ranking and write ranks.csv."""
    if not 0.5 <= c <= 1.0:
        raise click.BadParameter("--c must be in [0.5, 1]")
    if not 0.0 < gamma < 1.0:
        raise click.BadParameter("--gamma must be in (0, 1)")
    if not 0.0 <= p <= 1.0:
        raise click.BadParameter("--p must be in [0, 1]")
    mode, user = _parse_aggregate(aggregate_spec)
    if hour != "all":
        try:
            hour_val = int(hour)
        except ValueError:
            raise click.BadParameter("--hour must be all or an integer 0..23")
        if not 0 <= hour_val <= 23:
            raise click.BadParameter("--hour must be in [0, 23]")
    if model_name == "tir" and model_file is None:
        raise click.BadParameter("--model-file is required for tir")

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        if model_name == "tunkrank":
            rv = ranking.tunkrank(dataset, p=p)
        elif model_name == "tir":
            ctx = features.FeatureContext(dataset)
            lm = logistic.LogisticModel.load(model_file)
            if hour != "all":
                tm = ranking.build_matrix(dataset, lm, int(hour), c, gamma, ctx=ctx)
                rv = ranking.power_iterate(tm, ctx.user_ids)
                if dump_matrix:
                    coo = tm.matrix.tocoo()
                    session.write_csv(
                        "matrix.csv",
                        ["row", "col", "value"],
                        zip(coo.row, coo.col, coo.data),
                    )
            else:
                rv = ranking.tir_rank(dataset, lm, c, gamma, mode=mode, user=user,
                                      ctx=ctx)
        else:
            rv = ranking.twitterrank(dataset, gamma=gamma, mode=mode, user=user,
                                     ctx=features.FeatureContext(dataset))
        params = json.dumps(rv.params, sort_keys=True)
        scores = rv.as_dict()
        rows = [
            [uid, scores[uid], i + 1, rv.model, params]
            for i, uid in enumerate(rv.order())
        ]
        session.write_csv(
            "ranks.csv", ["user_id", "score", "rank", "model", "params"], rows
        )

    run_stage(Path(out), body)


@main.command("compare")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--model-file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--gamma", type=float, default=0.85, show_default=True)
@click.option("--p", type=float, default=0.05, show_default=True)
@click.option("--top", type=int, default=10, show_default=True)
def compare_cmd(in_dir, model_file, out, gamma, p, top):
    """Global rankings for all models plus the pairwise Kendall tau table."""

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        ctx = features.FeatureContext(dataset)
        lm = logistic.LogisticModel.load(model_file)
        rankings = {
            "tir_c0.5": ranking.tir_rank(dataset, lm, 0.5, gamma, ctx=ctx),
            "tir_c0.85": ranking.tir_rank(dataset, lm, 0.85, gamma, ctx=ctx),
            "tir_c1.0": ranking.tir_rank(dataset, lm, 1.0, gamma, ctx=ctx),
            "twitterrank": ranking.twitterrank(dataset, gamma=gamma, ctx=ctx),
            "tunkrank": ranking.tunkrank(dataset, p=p),
        }
        names = list(rankings)
        tau_rows = []
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                tau_rows.append([a, b, evaluation.kendall_tau(rankings[a], rankings[b])])
        session.write_csv("tau_matrix.csv", ["model_a", "model_b", "tau"], tau_rows)
        top_rows = []
        for name, rv in rankings.items():
            scores = rv.as_dict()
            for i, uid in enumerate(rv.order()[:top]):
                top_rows.append([name, i + 1, uid, scores[uid]])
        session.write_csv("top_k.csv", ["model", "rank", "user_id", "score"], top_rows)

    run_stage(Path(out), body)


@main.command("recommend")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--model-file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--gamma", type=float, default=0.85, show_default=True)
@click.option("--p", type=float, default=0.05, show_default=True)
@click.option("--c-grid", default="0.5,0.85,0.95,1.0", show_default=True)
@click.option("--n-links", type=int, default=30, show_default=True)
@click.option("--scenarios", default=None,
              help="Comma-separated subset of scenario tags.")
def recommend_cmd(in_dir, model_file, out, seed, gamma, p, c_grid, n_links, scenarios):
    """Run the link-removal friend-recommendation benchmark."""
    try:
        grid = tuple(float(v) for v in c_grid.split(","))
    except ValueError:
        raise click.BadParameter("--c-grid must be comma-separated floats")
    if any(not 0.5 <= c <= 1.0 for c in grid):
        raise click.BadParameter("--c-grid values must be in [0.5, 1]")
    if not 0.0 < gamma < 1.0:
        raise click.BadParameter("--gamma must be in (0, 1)")
    if not 0.0 <= p <= 1.0:
        raise click.BadParameter("--p must be in [0, 1]")
    if n_links < 1:
        raise click.BadParameter("--n-links must be >= 1")
    tags = tuple(scenarios.split(",")) if scenarios else None
    if tags and any(t not in evaluation.SCENARIO_TAGS for t in tags):
        raise click.BadParameter(f"scenarios must be among {evaluation.SCENARIO_TAGS}")

    def body(session: ArtifactSession):
        dataset = _load(in_dir)
        lm = logistic.LogisticModel.load(model_file)
        results = evaluation.run_scenarios(
            dataset,
            lm,
            seed=stage_seed(seed, "recommend"),
            c_grid=grid,
            gamma=gamma,
            tunkrank_p=p,
            scenarios=tags,
            n_links=n_links,
        )
        session.write_csv(
            "scenarios.csv",
            ["scenario", "model", "c", "mean_q", "n_links"],
            [
                [r.tag, r.model, "" if r.c is None else r.c, r.mean_q, r.n_links]
                for r in results
            ],
        )

    run_stage(Path(out), body)


if __name__ == "__main__":
    main()
