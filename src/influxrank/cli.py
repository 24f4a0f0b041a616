"""Command-line pipeline: synth -> ingest -> stats -> ... -> recommend.

Every subcommand writes its artifacts plus a manifest.json with content
hashes; identical inputs, flags and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
from array import array
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Optional

import click
import numpy as np
from click.core import ParameterSource

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
    and writes manifest.json with sha256 content hashes on success. A hash
    already computed for a finished file can be left in ``digests``, by
    path, for the manifest to reuse."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []
        self.digests: dict[Path, str] = {}

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
            manifest[p.name] = self.digests.get(p) or model.sha256_file(p)
        mpath = self.out_dir / "manifest.json"
        mpath.write_text(json.dumps({"artifacts": manifest}, sort_keys=True, indent=2))
        return mpath


@contextmanager
def run_stage(out_dir: str | Path):
    """The ArtifactSession of one stage: its manifest is written when the
    block ends, and on an error its files are removed and the command exits
    1 with ``error: <message>``."""
    session = ArtifactSession(out_dir)
    try:
        yield session
    except Exception as exc:
        session.abort()
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    session.finish()


class FloatRange(click.FloatRange):
    """click.FloatRange that also rejects NaN, which no bound comparison
    rejects."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


# the ranges of the damping factor gamma and of TunkRank's p
GAMMA_RANGE = FloatRange(0.0, 1.0, min_open=True, max_open=True)
P_RANGE = FloatRange(0.0, 1.0)


def _refuse_given(ctx: click.Context, names, where: str) -> None:
    """Usage error "<option> does not apply <where>" for the first of the
    parameters ``names`` given at all, as ``get_parameter_source`` tells."""
    for param in ctx.command.params:
        source = ctx.get_parameter_source(param.name)
        if param.name in names and source is not ParameterSource.DEFAULT:
            raise click.UsageError(f"{param.opts[0]} does not apply {where}")


@click.group()
def main():
    """Temporal influence ranking toolkit."""


@main.command("synth")
@click.option("--users", type=click.IntRange(min=0), default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--days", type=click.IntRange(min=1), default=28, show_default=True)
@click.option("--topics", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--follower-exponent", type=FloatRange(min=1.0, min_open=True), default=2.5,
              show_default=True)
@click.option("--close-fraction", type=FloatRange(0.0, 1.0), default=0.1, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def synth_cmd(users, seed, days, topics, follower_exponent, close_fraction, out):
    """Generate a synthetic dataset with planted ground truth."""
    with run_stage(out) as session:
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


@main.command("ingest")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--min-tweets", type=click.IntRange(min=0), default=0, show_default=True)
def ingest_cmd(in_dir, out, min_tweets):
    """Validate raw JSONL files and emit a normalized dataset copy, plus
    the parse cache that later stages read in its place."""
    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir, min_tweets=min_tweets)
        for p in model.serialize(dataset, session.out_dir).values():
            session.paths.append(p)
        cache, digests = model.write_cache(dataset, session.out_dir)
        session.paths.append(cache)
        session.digests.update(digests)
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


@main.command("stats")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def stats_cmd(in_dir, out):
    """Degree and tweet-count distributions plus follower/friend correlation."""
    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
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


@main.command("activity")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def activity_cmd(in_dir, out):
    """The 7x24 activity heat map and its hourly and weekly sums."""
    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
        heat = temporal.global_activity(dataset)
        session.write_csv(
            "activity_hourly.csv", ["hour", "count"], list(enumerate(heat.sum(axis=0)))
        )
        session.write_csv(
            "activity_weekly.csv", ["weekday", "count"], list(enumerate(heat.sum(axis=1)))
        )
        session.write_csv(
            "activity_heatmap.csv",
            ["weekday"] + [f"h{h}" for h in range(24)],
            [[d] + list(heat[d]) for d in range(7)],
        )


@main.command("cluster")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--k", type=click.IntRange(min=1), default=None,
              help="Fixed cluster count; --k-min and --k-max are an error with it.")
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max", type=int, default=6, show_default=True)
@click.option("--max-shift", type=click.IntRange(0, 23), default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def cluster_cmd(ctx, in_dir, out, k, k_min, k_max, max_shift, seed):
    """K-SC clustering of per-user hourly activity shapes."""
    if k is not None:
        _refuse_given(ctx, {"k_min", "k_max"}, "with --k")
    elif not 2 <= k_min <= k_max <= 10:
        raise click.BadParameter("need 2 <= --k-min <= --k-max <= 10")

    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
        table = temporal.all_profiles(dataset)
        ids, profiles = table.user_ids[table.has_tweets], table.a_t[table.has_tweets]
        sub = stage_seed(seed, "cluster")
        asc_rows = []
        if k is None:
            result, asc_per_k = temporal.select_k(
                ids, profiles, range(k_min, k_max + 1), seed=sub, max_shift=max_shift
            )
            asc_rows = sorted(asc_per_k.items())
        else:
            result = temporal.ksc_cluster(ids, profiles, k, max_shift=max_shift, seed=sub)
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
            zip(result.ids.tolist(), result.labels.tolist()),
        )
        if asc_rows:
            session.write_csv("asc_curve.csv", ["k", "asc"], asc_rows)


@main.command("respstats")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def respstats_cmd(in_dir, out):
    """Delay and trace cumulative distributions, split by retweet/reply."""
    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
        metrics, excluded = temporal.response_metrics(dataset)
        for field in ("delay", "trace"):
            rows = []
            for kind in (model.RETWEET, model.REPLY):
                values = getattr(metrics, field)[metrics.kind == kind]
                for v, frac in temporal.cdf_table(values):
                    rows.append([model.TWEET_KINDS[kind], v, frac])
            session.write_csv(f"{field}_cdf.csv", ["kind", "value", "cum_frac"], rows)
        session.path("respstats_summary.json").write_text(
            json.dumps(
                {"n_responses": len(metrics), "excluded": excluded}, sort_keys=True
            )
        )


@main.command("features")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def features_cmd(in_dir, out, seed):
    """Materialize labeled response instances and the min-max scaler, plus
    the parsed copy of the instances that train reads in their place."""
    with run_stage(out) as session:
        instances = features.build_instances(model.load_dataset(in_dir))
        # the dataset is freed here, all but the tweet-id column that the
        # instances refer to, and the balanced set before the write
        scaler = features.balance_and_normalize(
            instances, seed=stage_seed(seed, "features")
        )[1]
        write_instances(session, instances)
        scaler.save(session.path("scaler.json"))


INSTANCE_HEADER = ["tweet_id", "follower", "friend", "hour", *features.FEATURE_NAMES, "label"]
# ids made of these characters alone are printed as they are by csv.writer
_PLAIN_FIELD = re.compile(r"[\w.-]+", re.ASCII)
# instance rows per pass, and lines per write
_BLOCK_ROWS = 1 << 12
_WRITE_LINES = 1 << 8
# hours and labels as text, so that no line formats an int
_HOUR_TEXT = np.array([str(h) for h in range(24)], dtype=object)
_LABEL_TEXT = np.array(["0", "1"], dtype=object)


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


def write_instances(session: ArtifactSession, instances: features.InstanceSet) -> None:
    """Write instances.csv, with the bytes write_csv would give it, and
    instances.npz: what parsing that CSV gives but the id tables, which
    train does not read (their lengths instead), and the CSV's sha256.

    Each distinct value of a column is formatted once, one column at a time,
    and each feature row joined once, a block of rows at a time, into one
    string per block; user ids are encoded once, and tweet ids once per
    block of instances. Lines are written a few at a time, so that no
    block's text is held twice.
    """
    rows = np.ascontiguousarray(instances.rows, dtype=float)
    # each value's index among its column's distinct values, told apart by
    # their bits as rows are, and those values as text
    value_of = np.empty(rows.shape, dtype=np.int32)
    texts = []
    # the rows as parsing the CSV gives them back
    parsed_rows = np.empty_like(rows)
    for j, column in enumerate(rows.T):
        bits, value_of[:, j] = np.unique(column.view(np.int64), return_inverse=True)
        text = [FLOAT_FMT.format(v) for v in bits.view(float).tolist()]
        parsed_rows[:, j] = np.array([float(t) for t in text], dtype=float)[value_of[:, j]]
        texts.append(np.array(text, dtype=object))
    # each row's values as text, joined by commas: row r's text is
    # chunks[r // _BLOCK_ROWS][start[r]:end[r]], one string per block of
    # rows rather than one per row
    chunks = np.empty(-(-len(rows) // _BLOCK_ROWS), dtype=object)
    start, end = np.empty((2, len(rows)), dtype=np.int32)
    for k, lo in enumerate(range(0, len(rows), _BLOCK_ROWS)):
        block = value_of[lo : lo + _BLOCK_ROWS].T
        joined = list(map(",".join, zip(*[t[v].tolist() for t, v in zip(texts, block)])))
        chunks[k] = "".join(joined)
        at = slice(lo, lo + len(joined))
        lengths = np.fromiter(map(len, joined), np.int32, len(joined))
        end[at] = np.cumsum(lengths)
        start[at] = end[at] - lengths
    del value_of, texts
    users = _csv_fields(instances.user_ids.tolist())
    labels = instances.labels

    csv_path = session.path("instances.csv")
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerow(INSTANCE_HEADER)
        for lo in range(0, len(labels), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            used, t = np.unique(instances.keys[block, 0], return_inverse=True)
            tweets = _csv_fields(instances.tweet_ids_of(used).tolist())
            u, v = instances.keys[block, 1:3].T.tolist()
            r = instances.row_of[block]
            lines = (
                f"{tweets[a]},{users[b]},{users[c]},{d},{chunk[i:j]},{y}\r\n"
                for a, b, c, d, chunk, i, j, y in zip(
                    t.tolist(), u, v, _HOUR_TEXT[instances.keys[block, 3]].tolist(),
                    chunks[r // _BLOCK_ROWS].tolist(), start[r].tolist(), end[r].tolist(),
                    _LABEL_TEXT[labels[block]].tolist())
            )
            # joined a few lines at a time: the block's text is never held
            # twice, and a write per line would cost more than the join
            while text := "".join(islice(lines, _WRITE_LINES)):
                fh.write(text)
    del chunks, start, end, users
    # the manifest reuses the CSV's digest
    session.digests.update(model.write_npz(
        session.path("instances.npz"), [csv_path], keys=instances.keys,
        feature_rows=parsed_rows, feature_row_of=instances.row_of, labels=labels,
        id_table_sizes=np.array([instances.n_tweets, len(instances.user_ids)])))


def _instance_set(keys, x, row_of, labels, sizes, tweet_ids=None,
                  user_ids=None) -> features.InstanceSet:
    """The InstanceSet of parsed or cached columns, where instance i has the
    features x[row_of[i]] and ``sizes`` holds the lengths of the tweet-id and
    user-id tables (held too when given): checked for shape, for int32 key
    and row indices in range and for int8 labels of 0 or 1, with the rows of
    x grouped by their bits, so that the same instances give the same rows,
    in the same order, whether parsed or cached."""
    n = len(labels)
    if (keys.shape != (n, 4) or x.dtype != float
            or x.shape[1:] != (len(features.FEATURE_NAMES),) or row_of.shape != (n,)
            or sizes.shape != (2,) or sizes.dtype != np.int64):
        raise ValueError(f"instance columns of shapes {keys.shape}, {x.shape}, "
                         f"{row_of.shape}, ({n},)")
    model.index_column(row_of, len(x))
    # the tweet, follower, friend and hour columns index tables of these sizes
    n_tweets, n_users = sizes
    for column, high in zip(keys.T, (n_tweets, n_users, n_users, 24)):
        model.index_column(column, high)
    if labels.dtype != np.int8 or not np.isin(labels, (0, 1)).all():
        raise ValueError("instance labels are not int8 0 or 1")
    first, group = features.equal_row_groups(len(x), x.__getitem__)
    return features.InstanceSet(keys=keys, rows=x[first], row_of=group[row_of], labels=labels,
                                tweet_table=tweet_ids, user_ids=user_ids)


def _parse_instances_csv(path: Path) -> features.InstanceSet:
    """The instances of an instance CSV, checked line by line."""
    source, width, n_feat = path.name, len(INSTANCE_HEADER), len(features.FEATURE_NAMES)
    tweet, follower, friend = [], [], []
    hours, labels = array("b"), array("b")
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
            if not 0 <= hour < 24:
                raise model.ParseError(source, reader.line_num, f"hour {rec[3]!r} is not 0..23")
            tweet.append(rec[0])
            follower.append(rec[1])
            friend.append(rec[2])
            hours.append(hour)
            labels.append(label)
    tweet_ids, tweet_code = np.unique(np.array(tweet, dtype=str), return_inverse=True)
    user_ids, user_code = np.unique(np.array(follower + friend, dtype=str), return_inverse=True)
    n = len(labels)
    # every code and hour is in range, so no value wraps round
    return _instance_set(
        np.column_stack([tweet_code, user_code[:n], user_code[n:],
                         np.frombuffer(hours, dtype=np.int8)]).astype(np.int32),
        np.frombuffer(values, dtype=float).reshape(n, n_feat),
        np.arange(n, dtype=np.int32),
        np.frombuffer(labels, dtype=np.int8),
        np.array([len(tweet_ids), len(user_ids)]),
        tweet_ids,
        user_ids,
    )


def _read_instances_npz(path: Path) -> Optional[features.InstanceSet]:
    """The instances held in the npz that features wrote beside path (same
    name, .npz), which holds no id table; None when there is none, it cannot
    be read, or path has changed since."""
    return model.read_npz(path.with_suffix(".npz"), [path], lambda a: _instance_set(
        a["keys"], a["feature_rows"], a["feature_row_of"], a["labels"], a["id_table_sizes"]))


def load_instances_csv(path: str | Path) -> features.InstanceSet:
    """The instances of an instances.csv that features wrote, without their
    id tables, which nothing that reads them uses: from the instances.npz
    beside it while that holds the file's sha256, parsed from the CSV
    otherwise. Both give the same columns."""
    path = Path(path)
    cached = _read_instances_npz(path)
    if cached is not None:
        return cached
    return dataclasses.replace(_parse_instances_csv(path), tweet_table=None, user_ids=None)


@main.command("train")
@click.option("--instances", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--folds", type=click.IntRange(min=2), default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lr", type=FloatRange(min=0.0, min_open=True), default=0.1, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=500, show_default=True)
def train_cmd(instances, out, folds, seed, lr, epochs):
    """Balance, normalize, cross-validate and fit the logistic response model."""
    with run_stage(out) as session:
        inst = load_instances_csv(instances)
        sub = stage_seed(seed, "train")
        balanced, scaler = features.balance_and_normalize(inst, seed=sub)
        # fits run on the distinct feature rows, weighted by instance counts
        x, y = balanced.rows, balanced.labels.astype(float)
        per_fold, mean_acc = logistic.cross_validate(
            x,
            y,
            folds=folds,
            seed=sub,
            learning_rate=lr,
            epochs=epochs,
            keys=balanced.keys,
            row_of=balanced.row_of,
        )
        counts, positives = logistic.grouped_counts(balanced.row_of, y, len(x))
        fitted = logistic.train(
            x,
            positives,
            learning_rate=lr,
            epochs=epochs,
            seed=sub,
            scaler=scaler,
            counts=counts,
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


def _parse_aggregate(value: str):
    if value == "global":
        return "global", None
    if value.startswith("personal:"):
        return "personal", value.split(":", 1)[1]
    raise click.BadParameter("--aggregate must be global or personal:<user_id>")


# the rank options that each model reads, besides --in, --out and --model
RANK_OPTIONS = {
    "tir": {"model_file", "c", "gamma", "aggregate_spec", "hour", "dump_matrix"},
    "twitterrank": {"gamma", "aggregate_spec"},
    "tunkrank": {"p"},
}


@main.command("rank")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--model", "model_name",
              type=click.Choice(["tir", "tunkrank", "twitterrank"]), required=True)
@click.option("--model-file", type=click.Path(exists=True), default=None,
              help="Trained logistic model (tir only, and required for it).")
@click.option("--c", type=FloatRange(0.5, 1.0), default=0.85, show_default=True,
              help="tir only.")
@click.option("--gamma", type=GAMMA_RANGE, default=ranking.DEFAULT_GAMMA, show_default=True,
              help="tir and twitterrank only.")
@click.option("--p", type=P_RANGE, default=ranking.DEFAULT_P, show_default=True,
              help="tunkrank only.")
@click.option("--aggregate", "aggregate_spec", default="global", show_default=True,
              help="global or personal:<user_id> (tir and twitterrank only).")
@click.option("--hour", default="all", show_default=True,
              help="all, or a single hour 0..23 (tir only).")
@click.option("--dump-matrix", is_flag=True, default=False,
              help="Write the hour's matrix.csv (tir with --hour only).")
@click.pass_context
def rank_cmd(ctx, in_dir, out, model_name, model_file, c, gamma, p, aggregate_spec,
             hour, dump_matrix):
    """Compute an influence ranking and write ranks.csv.

    An option that the model does not read is an error, not ignored."""
    read = RANK_OPTIONS[model_name] | {"in_dir", "out", "model_name"}
    unread = {param.name for param in ctx.command.params} - read
    _refuse_given(ctx, unread, f"to --model {model_name}")
    mode, user = _parse_aggregate(aggregate_spec)
    if hour != "all":
        try:
            hour_val = int(hour)
        except ValueError:
            raise click.BadParameter("--hour must be all or an integer 0..23")
        if not 0 <= hour_val <= 23:
            raise click.BadParameter("--hour must be in [0, 23]")
        _refuse_given(ctx, {"aggregate_spec"}, "with --hour")
    elif dump_matrix:
        raise click.UsageError("--dump-matrix needs --hour")
    if model_name == "tir" and model_file is None:
        raise click.BadParameter("--model-file is required for tir")

    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
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


@main.command("compare")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--model-file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--gamma", type=GAMMA_RANGE, default=ranking.DEFAULT_GAMMA, show_default=True)
@click.option("--p", type=P_RANGE, default=ranking.DEFAULT_P, show_default=True)
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True)
def compare_cmd(in_dir, model_file, out, gamma, p, top):
    """Global rankings for all models plus the pairwise Kendall tau table."""
    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
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


@main.command("recommend")
@click.option("--in", "in_dir", type=click.Path(exists=True), required=True)
@click.option("--model-file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--gamma", type=GAMMA_RANGE, default=ranking.DEFAULT_GAMMA, show_default=True)
@click.option("--p", type=P_RANGE, default=ranking.DEFAULT_P, show_default=True)
@click.option("--c-grid", default="0.5,0.85,0.95,1.0", show_default=True)
@click.option("--n-links", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--scenarios", default=None,
              help="Comma-separated subset of scenario tags.")
def recommend_cmd(in_dir, model_file, out, seed, gamma, p, c_grid, n_links, scenarios):
    """Run the link-removal friend-recommendation benchmark."""
    try:
        grid = tuple(float(v) for v in c_grid.split(","))
    except ValueError:
        raise click.BadParameter("--c-grid must be comma-separated floats")
    tags = None if scenarios is None else tuple(scenarios.split(","))
    try:
        evaluation.check_scenario_args(evaluation.MODELS, grid, tags)
    except ValueError as exc:
        raise click.BadParameter(str(exc))

    with run_stage(out) as session:
        dataset = model.load_dataset(in_dir)
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


if __name__ == "__main__":
    main()
