"""The columnar Dataset and the dataset.npz parse cache.

Random small datasets check that a cached load equals a JSONL parse, that
serialize and load_dataset round-trip byte for byte, and that the column
code in temporal and features equals the per-tweet loops in oracles.py.
"""

import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank import model
from influxrank.cli import main
from influxrank.features import FeatureContext, build_instances
from influxrank.model import (
    CACHE_NAME,
    TWEET_KINDS,
    Tweet,
    TweetTable,
    ValidationError,
    ingest,
    load_dataset,
    serialize,
    write_cache,
)
from influxrank.temporal import all_profiles, global_activity, response_metrics

from conftest import make_dataset, make_user
from oracles import (
    assert_activity_matches_loop,
    build_instances_loop,
    edge_close_loop,
    hourly_profile_loop,
    instance_id_keys,
    response_metrics_loop,
    response_records,
    serialize_loop,
)

USER_POOL = ("a", "b", "c", "d", "e")


@st.composite
def raw_inputs(draw):
    """users/edges/tweets JSONL records: ties in timestamps, responses to
    unknown users, unknown or empty tweet ids, later tweets and other
    responses, tweets by an unknown author, and users without tweets."""
    users = draw(st.lists(st.sampled_from(USER_POOL), min_size=1, max_size=5, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ids = draw(st.lists(st.sampled_from([f"t{i}" for i in range(12)] + [""]),
                        max_size=12, unique=True))
    tweets = []
    for tweet_id in ids:
        kind = draw(st.sampled_from(("original", "original", "retweet", "reply")))
        rec = {
            "id": tweet_id,
            "author": draw(st.sampled_from(users + ["zz"])),
            "kind": kind,
            # a few seconds, hours and days apart, so timestamps tie
            "ts": draw(st.sampled_from((0, 1, 3600, 7200, 86400, 90000, 3 * 86400))),
        }
        if kind != "original":
            rec["to_user"] = draw(st.sampled_from(users + ["ghost", ""]))
            target = draw(st.sampled_from(ids + ["gone", "", None]))
            if target is not None:
                rec["to_tweet"] = target
        tweets.append(rec)
    user_recs = [
        {"id": u, "listed": draw(st.integers(0, 3)), "favourites": draw(st.integers(0, 3)),
         "verified": draw(st.booleans()), "topics": [0.25, 0.75]}
        for u in users
    ]
    return user_recs, [{"follower": a, "friend": b} for a, b in edges], tweets


def _write(path: Path, users, edges, tweets) -> Path:
    path.mkdir(parents=True)
    for name, recs in (("users", users), ("edges", edges), ("tweets", tweets)):
        (path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    return path


def _parse(path: Path, **kwargs) -> model.Dataset:
    """load_dataset without the cache: ingest on the JSONL files."""
    with (path / "users.jsonl").open() as uf, (path / "edges.jsonl").open() as ef, (
        path / "tweets.jsonl"
    ).open() as tf:
        return ingest(uf, ef, tf, **kwargs)


def _ingested(root: Path, raw) -> Path:
    """What the ingest stage leaves: the JSONL files and the cache."""
    dataset = load_dataset(_write(root / "raw", *raw))
    serialize(dataset, root / "data")
    write_cache(dataset, root / "data")
    return root / "data"


def assert_same_dataset(a: model.Dataset, b: model.Dataset) -> None:
    assert list(a.users.items()) == list(b.users.items())
    assert list(a.graph.edges()) == list(b.graph.edges())
    assert a.observation_window == b.observation_window
    assert a.dropped_tweets == b.dropped_tweets
    assert a.tz_offset == b.tz_offset
    for name in ("tweet_id", "author", "kind", "ts", "to_user", "has_to_user",
                 "to_tweet", "has_to_tweet", "users", "other_users", "unknown_tweets"):
        x, y = getattr(a.tweets, name), getattr(b.tweets, name)
        assert x.dtype.kind == y.dtype.kind, name
        assert np.array_equal(x, y), name
    for name in ("user_ids", "id_order"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_as_constructed(dataset: model.Dataset) -> None:
    """A loaded dataset, whose user indices the load computed before the
    filter, equals the one the constructor builds from its parts."""
    assert_same_dataset(dataset, model.Dataset(
        dataset.users, dataset.graph, list(dataset.tweets), dataset.observation_window,
        dataset.tz_offset, dataset.dropped_tweets,
    ))


def assert_matches_oracles(dataset: model.Dataset) -> None:
    table = all_profiles(dataset)
    assert table.user_ids.tolist() == sorted(dataset.users)
    for i, uid in enumerate(table.user_ids.tolist()):
        want = hourly_profile_loop(dataset, uid)
        assert np.array_equal(table.raw_counts[i], want.raw_counts)
        assert np.array_equal(table.n_t[i], want.n_t)
        assert np.array_equal(table.a_t[i], want.a_t)
        assert (table.available_days[i], table.has_tweets[i]) == (want.available_days,
                                                                  want.has_tweets)
    if len(dataset.tweets):
        assert_activity_matches_loop(dataset, global_activity(dataset))
    else:
        with pytest.raises(ValueError, match="empty dataset"):
            global_activity(dataset)
    metrics, excluded = response_metrics(dataset)
    assert (response_records(dataset, metrics), excluded) == response_metrics_loop(dataset)

    ctx = FeatureContext(dataset)
    assert np.array_equal(ctx.edge_close, edge_close_loop(dataset))
    counts = {u: 0 for u in ctx.user_ids}
    for tw in dataset.tweets:
        counts[tw.author] += 1
    assert ctx.tweet_counts.tolist() == [counts[u] for u in ctx.user_ids]
    got, want = build_instances(dataset, ctx), build_instances_loop(dataset, ctx)
    assert instance_id_keys(got) == instance_id_keys(want)
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.tweet_ids, want.tweet_ids)
    assert np.array_equal(got.user_ids, want.user_ids)
    # bit for bit, and grouped into the same rows as the per-instance oracle
    assert got.features.tobytes() == want.features.tobytes()
    assert got.rows.tobytes() == want.rows.tobytes()
    assert np.array_equal(got.row_of, want.row_of)
    assert np.array_equal(got.labels, want.labels)


@settings(max_examples=60, deadline=None)
@given(
    raw=raw_inputs(),
    window=st.sampled_from((None, (0, 0), (1, 90000), (3600, 3 * 86400))),
    min_tweets=st.sampled_from((0, 0, 1, 2)),
    tz_offset=st.sampled_from((0, -3600, 5400)),
)
def test_cached_load_equals_parse_and_columns_match_oracles(raw, window, min_tweets,
                                                            tz_offset):
    with tempfile.TemporaryDirectory() as tmp:
        data = _ingested(Path(tmp), raw)
        kwargs = dict(window=window, min_tweets=min_tweets, tz_offset=tz_offset)
        try:
            parsed = _parse(data, **kwargs)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                load_dataset(data, **kwargs)
            return
        cached = load_dataset(data, **kwargs)
        assert_same_dataset(cached, parsed)
        assert_as_constructed(cached)
        assert_matches_oracles(cached)

        # serialize -> load_dataset -> serialize is byte-identical, cached or not
        serialize(cached, Path(tmp) / "once")
        write_cache(cached, Path(tmp) / "once")
        # every kept tweet is written as it was read: a target that is not a
        # user, an unknown or empty parent, and a parent that the window or
        # min_tweets dropped keep their ids
        read = {rec["id"]: rec for rec in raw[2]}
        for line in (Path(tmp) / "once" / "tweets.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec == read[rec["id"]]
        for again in (load_dataset(Path(tmp) / "once", window=window),
                      _parse(Path(tmp) / "once", window=window)):
            serialize(again, Path(tmp) / "twice")
            for name in ("users.jsonl", "edges.jsonl", "tweets.jsonl"):
                assert (Path(tmp) / "once" / name).read_bytes() == (
                    Path(tmp) / "twice" / name).read_bytes()
        # every record is written with sorted keys
        for name in ("users.jsonl", "edges.jsonl", "tweets.jsonl"):
            for line in (Path(tmp) / "once" / name).read_text().splitlines():
                assert line == json.dumps(json.loads(line), sort_keys=True)


def test_synth_table_is_as_constructed_and_as_parsed(small_synth, tmp_path):
    """synth builds its tweet table from index columns: it equals the table
    built from its records, and the parse of its own files."""
    dataset, _ = small_synth
    assert_as_constructed(dataset)
    serialize(dataset, tmp_path)
    assert_same_dataset(dataset, _parse(tmp_path, window=dataset.observation_window))


def _user_record(uid: str) -> dict:
    return {"id": uid, "listed": 1, "favourites": 2, "verified": False, "topics": [0.25, 0.75]}


# b's one tweet is p2; p1 is before the window (50, 1000)
TARGETS = [
    {"id": "p1", "author": "a", "kind": "original", "ts": 10},
    {"id": "p2", "author": "b", "kind": "original", "ts": 20},
    {"id": "r1", "author": "a", "kind": "reply", "ts": 100, "to_user": "b", "to_tweet": "p2"},
    {"id": "r2", "author": "a", "kind": "retweet", "ts": 200, "to_user": "ghost",
     "to_tweet": "gone"},
    {"id": "r3", "author": "a", "kind": "reply", "ts": 300, "to_user": "", "to_tweet": ""},
    {"id": "r4", "author": "a", "kind": "retweet", "ts": 400, "to_user": "a", "to_tweet": "p1"},
    {"id": "r5", "author": "a", "kind": "reply", "ts": 500, "to_user": "a"},
]


@pytest.mark.parametrize("window, min_tweets", [(None, 0), ((50, 1000), 0), (None, 2),
                                                ((50, 1000), 2)])
def test_targets_that_name_no_row_round_trip(tmp_path, monkeypatch, window, min_tweets):
    raw = _write(tmp_path / "raw", [_user_record("a"), _user_record("b")], [], TARGETS)
    dataset = load_dataset(raw, window=window, min_tweets=min_tweets)
    tweets = dataset.tweets
    row = {tid: i for i, tid in enumerate(tweets.tweet_id.tolist())}
    unknown, others = tweets.unknown_tweets.tolist(), tweets.other_users.tolist()
    # "ghost" and "" are no users, and "gone" and "" no tweets, either way
    assert tweets.to_user[row["r2"]] == -1 - others.index("ghost")
    assert tweets.to_user[row["r3"]] == -1 - others.index("")
    assert tweets.to_tweet[row["r2"]] == -1 - unknown.index("gone")
    assert tweets.to_tweet[row["r3"]] == -1 - unknown.index("")
    assert (tweets.to_tweet[row["r5"]], tweets.has_to_tweet[row["r5"]]) == (-1, False)
    # a parent that the window or min_tweets drops becomes an unknown id,
    # and a user that min_tweets drops a name that is not a user
    if window is None:
        assert tweets.to_tweet[row["r4"]] == row["p1"]
    else:
        assert tweets.to_tweet[row["r4"]] == -1 - unknown.index("p1")
    if min_tweets or window:
        assert tweets.to_tweet[row["r1"]] == -1 - unknown.index("p2")
    else:
        assert tweets.to_tweet[row["r1"]] == row["p2"]
    if min_tweets:
        assert tweets.to_user[row["r1"]] == -1 - others.index("b")
        assert dataset.user_ids.tolist() == ["a"]
    else:
        assert tweets.to_user[row["r1"]] == 1
    # every kept tweet is written as it was read, and serialize -> parse ->
    # serialize and serialize -> cache -> serialize keep every byte
    once = tmp_path / "once"
    serialize(dataset, once)
    write_cache(dataset, once)
    written = [json.loads(line) for line in (once / "tweets.jsonl").read_text().splitlines()]
    assert written == [rec for rec in TARGETS if rec["id"] in row]
    for name, again in (("parsed", _parse(once)), ("cached", _cache_is_used(monkeypatch, once))):
        assert_same_dataset(again, _parse(once))
        serialize(again, tmp_path / name)
        for jsonl in ("users.jsonl", "edges.jsonl", "tweets.jsonl"):
            assert (tmp_path / name / jsonl).read_bytes() == (once / jsonl).read_bytes()


def test_tweet_ids_are_the_only_per_tweet_strings(tmp_path, small_synth):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    write_cache(dataset, tmp_path)
    n = len(dataset.tweets)
    for loaded in (_parse(tmp_path), load_dataset(tmp_path)):
        loaded.id_order, loaded.author_groups  # built on first use
        columns = {f"tweets.{name}": value for name, value in vars(loaded.tweets).items()}
        columns |= {name: value for name, value in vars(loaded).items()}
        strings = [name for name, value in columns.items()
                   if isinstance(value, np.ndarray) and value.dtype.kind == "U"
                   and len(value) == n]
        assert strings == ["tweets.tweet_id"]
    with np.load(tmp_path / CACHE_NAME) as npz:
        strings = [key for key in npz.files if npz[key].dtype.kind == "U"
                   and npz[key].shape == (n,)]
    assert strings == ["tweet_tweet_id"]


@settings(max_examples=30, deadline=None)
@given(raw=raw_inputs(), tz_offset=st.sampled_from((0, -3600, 5400)))
def test_raw_parse_matches_oracles(raw, tz_offset):
    with tempfile.TemporaryDirectory() as tmp:
        dataset = load_dataset(_write(Path(tmp) / "raw", *raw), tz_offset=tz_offset)
    assert_as_constructed(dataset)
    assert_matches_oracles(dataset)


# JSON's hard cases: quotes, backslashes, control characters, non-ASCII
# text (astral too) and the empty string; ids may not end in a NUL
ODD_TEXT = st.one_of(
    st.sampled_from(("", '"', "\\", 'a"b\\c', "\x00x", "\x1f\n\t\x7f", "é", "\u2028",
                     "\U0001f600", "ü\"")),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=5).filter(
        lambda s: not s.endswith("\x00")),
)


@st.composite
def odd_datasets(draw):
    """Datasets whose ids and targets are ODD_TEXT: originals with or
    without targets, responses with a target user and maybe a target tweet,
    and timestamps over the whole int64 range."""
    users = draw(st.lists(ODD_TEXT, min_size=1, max_size=4, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tweets = []
    for tweet_id in draw(st.lists(ODD_TEXT, max_size=10, unique=True)):
        kind = draw(st.sampled_from(TWEET_KINDS))
        to_user = draw(ODD_TEXT if kind != "original" else st.none() | ODD_TEXT)
        tweets.append(Tweet(tweet_id, draw(st.sampled_from(users)), kind,
                            draw(st.integers(-2**63, 2**63 - 1)), to_user,
                            draw(st.none() | ODD_TEXT)))
    return make_dataset([make_user(u) for u in users], edges, tweets)


@settings(max_examples=150, deadline=None)
@given(dataset=odd_datasets(), rows=st.sampled_from((1, 3, 1 << 14)))
def test_serialize_writes_the_json_dumps_bytes(dataset, rows):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(model, "_WRITE_ROWS", rows):
        got = serialize(dataset, Path(tmp) / "got")
        want = serialize_loop(dataset, Path(tmp) / "want")
        assert list(got) == list(want)
        for name in want:
            assert got[name].read_bytes() == want[name].read_bytes(), name


def _cache_is_used(monkeypatch, data: Path) -> model.Dataset:
    with monkeypatch.context() as m:
        m.setattr(model, "_parse_tweets", lambda *args: pytest.fail("parsed JSONL"))
        return load_dataset(data)


def test_cache_read_in_place_of_jsonl(tmp_path, small_synth, monkeypatch):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    write_cache(dataset, tmp_path)
    assert_same_dataset(_cache_is_used(monkeypatch, tmp_path), _parse(tmp_path))


def test_each_load_constructs_once_and_maps_authors_once(tmp_path, small_synth, monkeypatch):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    write_cache(dataset, tmp_path)
    init, calls = model.Dataset.__init__, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    codes, mapped = model._TableBuilder._codes, []

    def counted_codes(self, names, what):
        mapped.append(what)
        return codes(self, names, what)

    monkeypatch.setattr(model.Dataset, "__init__", counted)
    monkeypatch.setattr(model._TableBuilder, "_codes", counted_codes)
    cached = _cache_is_used(monkeypatch, tmp_path)
    assert (len(calls), mapped) == (1, [])
    parsed = _parse(tmp_path, min_tweets=1)
    # one constructor call per load; only the parse looks names up, once per
    # block and column, and the cached load reads their indices from the cache
    blocks = -(-len(dataset.tweets) // model._PARSE_ROWS) + 1
    assert (len(calls), sorted(mapped)) == (2, sorted(["authors", "to_user"] * blocks))
    assert_same_dataset(load_dataset(tmp_path, min_tweets=1), parsed)
    assert_same_dataset(cached, _parse(tmp_path))


def test_tweet_ids_are_sorted_once_per_load(tmp_path, small_synth, monkeypatch):
    """A parse keeps the order in which its builder sorted the tweet ids
    through the window and --min-tweets filter and the (ts, id) sort, so
    id_order sorts nothing; a cached load sorts them once, for id_order."""
    dataset, _ = small_synth
    serialize(dataset, tmp_path / "data")
    write_cache(dataset, tmp_path / "data")
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in ("users.jsonl", "edges.jsonl"):
        (shuffled / name).write_bytes((tmp_path / "data" / name).read_bytes())
    lines = (tmp_path / "data" / "tweets.jsonl").read_text().splitlines(keepends=True)
    (shuffled / "tweets.jsonl").write_text("".join(lines[::-1]))
    start, end = dataset.observation_window
    window = (start + (end - start) // 4, end - (end - start) // 4)
    argsort, sorts = np.argsort, []

    def counted(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "U":
            sorts.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    for load in (lambda: _parse(tmp_path / "data"),
                 lambda: _parse(tmp_path / "data", window=window, min_tweets=5),
                 lambda: _parse(shuffled),
                 lambda: load_dataset(tmp_path / "data")):
        sorts.clear()
        loaded = load()
        assert np.array_equal(loaded.id_order, argsort(loaded.tweets.tweet_id, kind="stable"))
        assert len(sorts) == 1


def test_edited_jsonl_falls_back_to_parse(tmp_path, small_synth):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    write_cache(dataset, tmp_path)
    with (tmp_path / "tweets.jsonl").open("a") as fh:
        fh.write(json.dumps({"id": "extra", "author": "u0000", "kind": "original",
                             "ts": 5}) + "\n")
    loaded = load_dataset(tmp_path)
    assert len(loaded.tweets) == len(dataset.tweets) + 1
    assert_same_dataset(loaded, _parse(tmp_path))


def _string_layout(arrays: dict) -> None:
    """The cache as written when it held each tweet's author as a string."""
    arrays["tweet_author"] = arrays["user_id"][arrays["tweet_author"]]
    del arrays["tweet_other_users"], arrays["tweet_unknown_tweets"]


def _author_out_of_range(arrays: dict) -> None:
    arrays["tweet_author"][0] = -1


def _target_out_of_range(arrays: dict) -> None:
    arrays["tweet_to_user"][-1] = len(arrays["user_id"])


def _parent_out_of_range(arrays: dict) -> None:
    arrays["tweet_to_tweet"][0] = len(arrays["tweet_ts"])


def _int64_index(arrays: dict) -> None:
    arrays["tweet_to_tweet"] = arrays["tweet_to_tweet"].astype(np.int64)


def _truncate(cache: Path) -> None:
    cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])


def _garbage(cache: Path) -> None:
    cache.write_bytes(b"not a zip file")


def _delete(cache: Path) -> None:
    cache.unlink()


def _edit_arrays(edit):
    def damage(cache: Path) -> None:
        with np.load(cache) as npz:
            arrays = {key: npz[key] for key in npz.files}
        edit(arrays)
        np.savez(cache, **arrays)
    return damage


@pytest.mark.parametrize("damage", [
    _truncate, _garbage, _delete, _edit_arrays(_string_layout),
    _edit_arrays(_author_out_of_range), _edit_arrays(_target_out_of_range),
    _edit_arrays(_parent_out_of_range), _edit_arrays(_int64_index),
], ids=["truncate", "garbage", "delete", "old_layout", "author_out_of_range",
        "target_out_of_range", "parent_out_of_range", "int64_index"])
def test_unreadable_cache_falls_back_to_parse(tmp_path, small_synth, damage, monkeypatch):
    dataset, _ = small_synth
    serialize(dataset, tmp_path)
    damage(write_cache(dataset, tmp_path)[0])
    parsed, parse = [], model._parse_tweets
    monkeypatch.setattr(model, "_parse_tweets", lambda *args: parsed.append(1) or parse(*args))
    loaded = load_dataset(tmp_path)
    assert parsed == [1]
    assert_same_dataset(loaded, _parse(tmp_path))


def test_cache_bytes_are_deterministic(tmp_path, small_synth):
    dataset, _ = small_synth
    for name in ("a", "b"):
        serialize(dataset, tmp_path / name)
        write_cache(dataset, tmp_path / name)
    assert (tmp_path / "a" / CACHE_NAME).read_bytes() == (tmp_path / "b" / CACHE_NAME).read_bytes()


def test_cli_stages_build_no_tweet_records(tmp_path, monkeypatch):
    def run(*args):
        res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == 0, res.output

    d = {name: tmp_path / name for name in ("raw", "data", "features", "train")}
    run("synth", "--users", 30, "--seed", 2, "--days", 4, "--out", d["raw"])

    def no_tweets(self, *args, **kwargs):
        raise AssertionError("a Tweet record was built")

    monkeypatch.setattr(Tweet, "__init__", no_tweets)
    run("ingest", "--in", d["raw"], "--out", d["data"])
    manifest = json.loads((d["data"] / "manifest.json").read_text())["artifacts"]
    assert CACHE_NAME in manifest
    data, model_file = d["data"], d["train"] / "model.json"
    run("stats", "--in", data, "--out", tmp_path / "stats")
    run("activity", "--in", data, "--out", tmp_path / "activity")
    run("cluster", "--in", data, "--k", 2, "--out", tmp_path / "cluster")
    run("respstats", "--in", data, "--out", tmp_path / "resp")
    run("features", "--in", data, "--out", d["features"])
    run("train", "--instances", d["features"] / "instances.csv", "--epochs", 50,
        "--out", d["train"])
    run("rank", "--in", data, "--model", "tir", "--model-file", model_file,
        "--out", tmp_path / "rank_tir")
    for name in ("tunkrank", "twitterrank"):
        run("rank", "--in", data, "--model", name, "--out", tmp_path / f"rank_{name}")
    run("compare", "--in", data, "--model-file", model_file, "--out", tmp_path / "compare")
    run("recommend", "--in", data, "--model-file", model_file, "--c-grid", "0.85",
        "--n-links", 2, "--scenarios", "L_ur", "--out", tmp_path / "recommend")


class TestTweetTable:
    TWEETS = [
        Tweet("b", "x", "original", 5),
        Tweet("a", "y", "reply", 5, responds_to_user="x", responds_to_tweet="b"),
        Tweet("c", "x", "retweet", 1, responds_to_user="", responds_to_tweet=""),
    ]

    def test_sequence_of_tweets_in_time_then_id_order(self):
        ds = make_dataset([make_user("x"), make_user("y")], [], self.TWEETS)
        want = [self.TWEETS[2], self.TWEETS[1], self.TWEETS[0]]
        assert len(ds.tweets) == 3
        assert list(ds.tweets) == want
        assert [ds.tweets[i] for i in (0, 1, 2)] == want
        assert ds.tweets[-1] == want[-1]
        assert ds.tweets[1:] == want[1:]
        assert list(ds.tweets_by_author["x"]) == [want[0], want[2]]
        assert list(ds.tweets_by_author["y"]) == [want[1]]
        # the empty-string target names no tweet but is kept verbatim
        # rows where >= 0; c's "" targets are codes into the side tables
        assert ds.tweets.to_tweet.tolist() == [-1, 2, -1]
        assert ds.tweets.unknown_tweets.tolist() == [""]
        assert ds.tweets.to_user.tolist() == [-1, 0, -1]
        assert ds.tweets.other_users.tolist() == [""]

    def test_caller_list_is_not_reordered(self):
        tweets = list(self.TWEETS)
        make_dataset([make_user("x"), make_user("y")], [], tweets)
        assert tweets == self.TWEETS

    def test_duplicate_tweet_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate tweet_id 'b'"):
            make_dataset([make_user("x")], [], [Tweet("b", "x", "original", 1),
                                                Tweet("b", "x", "original", 2)])

    def test_unknown_author_rejected(self):
        with pytest.raises(ValidationError, match="unknown author 'q'"):
            make_dataset([make_user("x")], [], [Tweet("b", "q", "original", 1)])

    def test_trailing_nul_in_id_rejected(self):
        with pytest.raises(ValidationError, match="NUL"):
            TweetTable.from_tweets([Tweet("b\x00", "x", "original", 1)])
