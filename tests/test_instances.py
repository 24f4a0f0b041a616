"""The features -> train hand-off: instances.csv and instances.npz.

``cli.write_instances`` must print the bytes of the value-at-a-time writer in
oracles.py, also for ids that need quoting and for an empty instance set.
The npz it leaves must hold exactly what parsing the CSV gives, grouped
into the same distinct rows, and the lengths of the id tables in place of
the tables; a built set must read its tweet ids off the dataset's table,
not a copy; and ``load_instances_csv`` must fall back to that parse when
the npz is missing, damaged, of the previous layout or older than the CSV.
The integer keys must deal folds as the id tuples they stand for did.
Building and writing in blocks of any size must change no instance and no
byte.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank import cli, features
from influxrank.features import N_FEATURES, FeatureContext, build_instances, equal_row_groups
from influxrank.logistic import _stratified_folds
from influxrank.model import Tweet

from conftest import make_dataset, make_user
from oracles import (
    build_instances_loop,
    equal_row_groups_whole,
    instance_id_keys,
    instance_set_of_ids,
    stratified_folds_loop,
    write_instances_loop,
)

# ids with a delimiter, a quote, spaces, line breaks, non-ASCII and nothing
USER_POOL = ("a", "b,c", 'q"x', "sp ace", " lead", "", "n\nl", "r\rq", "é")
TWEET_POOL = ("t0", "t,1", 't"2"', "t 3", "", "t\r\n4", "ü5", "6", "t.7")
TOPICS = ((1.0, 0.0), (0.5, 0.5), (0.25, 0.75))
# repeated, signed-zero, non-finite, subnormal and long values, so that rows
# repeat and bit patterns that print alike or not are both present
VALUES = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1 / 3, -2.5,
          123456789012345.0, 0.1 + 0.2)


@st.composite
def datasets(draw):
    users = draw(st.lists(st.sampled_from(USER_POOL), min_size=1, max_size=6, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ids = draw(st.lists(st.sampled_from(TWEET_POOL), max_size=9, unique=True))
    tweets = []
    for tweet_id in ids:
        kind = draw(st.sampled_from(("original", "original", "retweet", "reply")))
        to_user = to_tweet = None
        if kind != "original":
            to_user, to_tweet = draw(st.sampled_from(users)), draw(st.sampled_from(ids))
        ts = draw(st.sampled_from((0, 1, 3600, 7200, 86400, 90000)))
        tweets.append(Tweet(tweet_id, draw(st.sampled_from(users)), kind, ts,
                            to_user, to_tweet))
    records = [
        make_user(u, listed=draw(st.integers(0, 3)), favourites=draw(st.integers(0, 3)),
                  verified=draw(st.booleans()), topics=draw(st.sampled_from(TOPICS)))
        for u in users
    ]
    return make_dataset(records, edges, tweets, window=(0, 2 * 86400))


@st.composite
def feature_matrices(draw, n):
    """n feature rows of any values; few distinct rows, so rows repeat."""
    rows = draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=N_FEATURES,
                                  max_size=N_FEATURES), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    return np.array([rows[i] for i in picks], dtype=float).reshape(n, N_FEATURES)


@st.composite
def instance_sets(draw):
    """Instances with any feature values, as feature_matrices draws them."""
    n = draw(st.integers(0, 30))
    x = draw(feature_matrices(n))
    pairs = draw(st.lists(st.tuples(st.sampled_from(TWEET_POOL), st.sampled_from(USER_POOL),
                                    st.sampled_from(USER_POOL), st.integers(0, 23)),
                          min_size=n, max_size=n, unique_by=lambda k: k[:2]))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    order = sorted(range(n), key=lambda i: pairs[i])
    return instance_set_of_ids(
        [pairs[i] for i in order],
        x[order],
        np.array([labels[i] for i in order], dtype=int),
    )


def assert_same_instances(a, b, ids: bool = True) -> None:
    """a and b hold the same instances; with ids False, a loaded set's, so
    that their id tables are not compared."""
    for name in ("keys", "row_of", "labels") + (("tweet_ids", "user_ids") if ids else ()):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # bit for bit, so NaN and -0.0 count
    assert a.rows.shape == b.rows.shape
    assert a.rows.tobytes() == b.rows.tobytes()


def check_hand_off(instances, root: Path) -> Path:
    """Write instances both ways under root and check the CSV bytes and the
    npz; return the CSV path."""
    cli.write_instances(cli.ArtifactSession(root / "new"), instances)
    write_instances_loop(root / "oracle.csv", instances)
    path = root / "new" / "instances.csv"
    assert path.read_bytes() == (root / "oracle.csv").read_bytes()
    cached, parsed = cli._read_instances_npz(path), cli._parse_instances_csv(path)
    assert cached is not None
    assert_same_instances(cached, parsed, ids=False)
    with np.load(path.with_suffix(".npz")) as npz:
        assert npz["id_table_sizes"].tolist() == [len(parsed.tweet_ids), len(parsed.user_ids)]
    assert instance_id_keys(parsed) == instance_id_keys(instances)
    assert np.array_equal(parsed.labels, instances.labels)
    return path


@settings(max_examples=60, deadline=None)
@given(dataset=datasets(), seed=st.integers(0, 2**32 - 1))
def test_instances_of_datasets_match_oracles(dataset, seed):
    instances = build_instances(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        check_hand_off(instances, Path(tmp))
    y = instances.labels.astype(float)
    assert np.array_equal(_stratified_folds(y, 3, seed, instances.keys),
                          stratified_folds_loop(y, 3, seed, instance_id_keys(instances)))


@settings(max_examples=60, deadline=None)
@given(instances=instance_sets())
def test_repeated_and_special_rows_match_oracle(instances):
    with tempfile.TemporaryDirectory() as tmp:
        check_hand_off(instances, Path(tmp))


def _groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return equal_row_groups(len(x), x.__getitem__)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 30))
def test_grouped_rows_give_back_every_instance_row(data, n):
    x = data.draw(feature_matrices(n))
    again = x[np.array(data.draw(st.permutations(range(n))), dtype=int)]
    # a zero multiplier hashes every row alike, so that rows are grouped by
    # their bits alone
    for multiplier in (features._HASH_MULTIPLIER, np.uint64(0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_HASH_MULTIPLIER", multiplier)
            first, group = _groups(x)
            rows = x[first]
            # bit for bit, -0.0 and NaN included, and each distinct row once
            assert rows[group].tobytes() == x.tobytes()
            assert len({r.tobytes() for r in rows}) == len(rows)
            # the same distinct rows in another order and number group alike
            assert rows.tobytes() == again[_groups(again)[0]].tobytes()
            assert rows.tobytes() == rows[_groups(rows)[0]].tobytes()


# a zero multiplier hashes every row alike, so that unequal rows collide
@pytest.mark.parametrize("multiplier", [features._HASH_MULTIPLIER, np.uint64(0)])
@pytest.mark.parametrize("block", [1, 3, features._BLOCK_ROWS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 40))
def test_blocked_grouping_equals_whole_matrix_grouping(multiplier, block, data, n):
    x = data.draw(feature_matrices(n))
    asked = []

    def rows_of(index):
        asked.append(len(index))
        return x[index]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_HASH_MULTIPLIER", multiplier)
        mp.setattr(features, "_BLOCK_ROWS", block)
        first, group = equal_row_groups(n, rows_of)
        want_first, want_group = equal_row_groups_whole(x)
    assert np.array_equal(first, want_first)
    assert np.array_equal(group, want_group)
    assert group.dtype == want_group.dtype == np.int32
    # a block and the row before it, unless unequal rows share a hash and
    # every row is sorted by its bits
    if multiplier or len({r.tobytes() for r in x}) < 2:
        assert max(asked, default=0) <= block + 1


@pytest.mark.parametrize("multiplier", [features._HASH_MULTIPLIER, np.uint64(0)])
def test_rows_that_differ_only_in_the_sign_of_zero(tmp_path, monkeypatch, multiplier):
    # a zero multiplier hashes every row alike: rows are then grouped by
    # their bits alone
    monkeypatch.setattr(features, "_HASH_MULTIPLIER", multiplier)
    zero, negative = np.zeros(N_FEATURES), np.zeros(N_FEATURES)
    negative[[0, 5]] = -0.0
    nan = np.full(N_FEATURES, np.nan)
    rows = [zero, negative, nan, negative, zero]
    keys = [(f"t{i}", "a", "b,c", i) for i in range(len(rows))]
    instances = instance_set_of_ids(keys, np.array(rows), np.array([0, 1, 0, 1, 0]))
    check_hand_off(instances, tmp_path)


def test_empty_instance_set(tmp_path):
    dataset = make_dataset([make_user("a"), make_user("b,c")], [("a", "b,c")], [])
    instances = build_instances(dataset)
    assert len(instances) == 0
    path = check_hand_off(instances, tmp_path)
    assert path.read_bytes() == (",".join(cli.INSTANCE_HEADER) + "\r\n").encode()
    assert len(cli.load_instances_csv(path)) == 0


def _written(instances, out: Path) -> tuple[bytes, bytes]:
    cli.write_instances(cli.ArtifactSession(out), instances)
    return (out / "instances.csv").read_bytes(), (out / "instances.npz").read_bytes()


# (tweets per build_instances block, rows per equal_row_groups and
# write_instances block and lines per write): one, two, and sizes that leave
# a short last block
# (the 60-user synthetic set has 3,267 tweets, 4,388 instances and 668
# distinct rows)
BLOCKS = [(1, 1), (2, 2), (4, 5), (97, 1000)]


@pytest.mark.parametrize("tweets, rows", BLOCKS[:3])
@settings(max_examples=30, deadline=None)
@given(dataset=datasets())
def test_blocks_of_datasets_change_nothing(tweets, rows, dataset):
    whole = build_instances(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        want = _written(whole, Path(tmp) / "whole")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_INSTANCE_TWEETS", tweets)
            mp.setattr(features, "_BLOCK_ROWS", rows)
            mp.setattr(cli, "_BLOCK_ROWS", rows)
            mp.setattr(cli, "_WRITE_LINES", rows)
            blocked = build_instances(dataset)
            assert _written(blocked, Path(tmp) / "blocked") == want
            write_instances_loop(Path(tmp) / "oracle.csv", blocked)
            assert (Path(tmp) / "oracle.csv").read_bytes() == want[0]
    assert_same_instances(blocked, whole)
    assert_same_instances(blocked, build_instances_loop(dataset, FeatureContext(dataset)))


@pytest.mark.parametrize("tweets, rows", BLOCKS)
def test_blocks_of_synthetic_set_change_nothing(tmp_path, monkeypatch, small_synth, tweets, rows):
    dataset, _ = small_synth
    whole = build_instances(dataset)
    want = _written(whole, tmp_path / "whole")
    monkeypatch.setattr(features, "_INSTANCE_TWEETS", tweets)
    monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(cli, "_WRITE_LINES", rows)
    blocked = build_instances(dataset)
    assert_same_instances(blocked, whole)
    assert_same_instances(blocked, build_instances_loop(dataset, FeatureContext(dataset)))
    assert _written(blocked, tmp_path / "blocked") == want
    write_instances_loop(tmp_path / "oracle.csv", blocked)
    assert (tmp_path / "oracle.csv").read_bytes() == want[0]


def test_built_parsed_and_cached_sets_share_one_label_dtype(tmp_path, small_synth):
    dataset, _ = small_synth
    built = build_instances(dataset)
    path = check_hand_off(built, tmp_path)
    parsed, cached = cli._parse_instances_csv(path), cli._read_instances_npz(path)
    assert [(s.keys.dtype, s.row_of.dtype, s.labels.dtype) for s in (built, parsed, cached)] \
        == [(np.dtype(np.int32), np.dtype(np.int32), np.dtype(np.int8))] * 3
    assert np.array_equal(parsed.tweet_ids, built.tweet_ids)
    assert np.array_equal(parsed.user_ids, built.user_ids)
    # the cached set holds no id table
    assert cached.tweet_table is cached.user_ids is None
    with pytest.raises(ValueError, match="no id tables"):
        cached.tweet_ids


def test_built_set_holds_no_copy_of_the_tweet_ids(small_synth):
    dataset, _ = small_synth
    built = build_instances(dataset)
    assert built.tweet_table is dataset.tweets.tweet_id
    assert built.tweet_rows.dtype == np.int32
    # no other array of the set holds strings per tweet
    strings = [name for name, value in vars(built).items()
               if isinstance(value, np.ndarray) and value.dtype.kind in "USO"]
    assert sorted(strings) == ["tweet_table", "user_ids"]
    assert len(built.user_ids) <= dataset.n_users
    # the tweets whose author has a follower
    followers = np.bincount(dataset.graph.dst, minlength=dataset.n_users)
    tweets = dataset.tweets
    used = sorted(tweets.tweet_id[followers[tweets.author] > 0].tolist())
    assert built.tweet_ids.tolist() == used
    assert built.n_tweets == len(used)


# traced peaks (bytes) over the 60-user synthetic set, measured with numpy
# 2.4 on Python 3.11: 517,900 for build_instances and 1,486,218 with
# write_instances after it, whose peak is one block of instances' column
# lists; grouping the whole (codes x 12) matrix and formatting through an
# (R x 12) object array took 707,420 and 2,355,096, and joining each
# block's lines into one string before writing it 521,938 and 2,292,022
BUILD_PEAK_BYTES = 600_000
BUILD_AND_WRITE_PEAK_BYTES = 1_600_000


def test_build_and_write_hold_no_whole_matrix_copies(tmp_path, small_synth):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    # a first call fills the caches that each stage fills once
    cli.write_instances(cli.ArtifactSession(tmp_path / "warm"), build_instances(dataset, ctx))
    tracemalloc.start()
    try:
        instances = build_instances(dataset, ctx)
        build_peak = tracemalloc.get_traced_memory()[1]
        cli.write_instances(cli.ArtifactSession(tmp_path / "traced"), instances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < BUILD_PEAK_BYTES
    assert peak < BUILD_AND_WRITE_PEAK_BYTES


def _rewrite_npz(npz: Path, name: str, edit) -> None:
    """Replace one column of the npz by edit(column), keeping the rest (its
    sha256 too)."""
    with np.load(npz) as old:
        columns = {k: old[k] for k in old.files}
    columns[name] = edit(columns[name])
    np.savez(npz, **columns)


@pytest.mark.parametrize("damage", ["edit_csv", "truncate", "garbage", "missing",
                                    "negative_row", "float_row_of", "short_rows",
                                    "wide_label"])
def test_load_falls_back_to_parse(tmp_path, small_synth, damage):
    dataset, _ = small_synth
    path = check_hand_off(build_instances(dataset), tmp_path)
    npz = path.with_suffix(".npz")
    if damage == "edit_csv":
        # the first instance's label flips; the npz still holds the old one
        lines = path.read_bytes().split(b"\r\n")
        lines[1] = lines[1][:-1] + (b"1" if lines[1].endswith(b"0") else b"0")
        path.write_bytes(b"\r\n".join(lines))
    elif damage == "truncate":
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
    elif damage == "garbage":
        npz.write_bytes(b"not a zip file")
    elif damage == "negative_row":
        # a gather would wrap -1 round to the last row without an error
        _rewrite_npz(npz, "feature_row_of", lambda r: np.concatenate(([-1], r[1:])))
    elif damage == "float_row_of":
        _rewrite_npz(npz, "feature_row_of", lambda r: r.astype(float))
    elif damage == "short_rows":
        _rewrite_npz(npz, "feature_rows", lambda r: r[:, :-1])
    elif damage == "wide_label":
        # a cast to int8 would wrap 257 round to 1 without an error
        _rewrite_npz(npz, "labels", lambda y: np.where(y == 1, 257, y.astype(np.int16)))
    else:
        npz.unlink()
    assert cli._read_instances_npz(path) is None
    loaded = cli.load_instances_csv(path)
    # parsed or cached, a loaded set holds no id table
    assert loaded.tweet_table is loaded.user_ids is None
    assert_same_instances(loaded, cli._parse_instances_csv(path), ids=False)
    if damage == "edit_csv":
        assert loaded.labels[0] != build_instances(dataset).labels[0]


def test_previous_npz_layout_falls_back_to_parse(tmp_path, small_synth):
    """An npz as written while it held the id tables (``tweet_ids`` and
    ``user_ids``, no ``id_table_sizes``, the CSV's digest as ``sha256_csv``
    and int64 labels) is not read."""
    dataset, _ = small_synth
    built = build_instances(dataset)
    path = check_hand_off(built, tmp_path)
    npz = path.with_suffix(".npz")
    with np.load(npz) as new:
        arrays = {key: new[key] for key in new.files}
    np.savez(npz, sha256_csv=arrays["sha256_instances"], keys=arrays["keys"],
             feature_rows=arrays["feature_rows"], feature_row_of=arrays["feature_row_of"],
             labels=arrays["labels"].astype(np.int64), tweet_ids=built.tweet_ids,
             user_ids=built.user_ids)
    assert cli._read_instances_npz(path) is None
    assert_same_instances(cli.load_instances_csv(path), cli._parse_instances_csv(path),
                          ids=False)


@pytest.mark.parametrize("column", [0, 1, 3])
def test_npz_keys_out_of_range_fall_back_to_parse(tmp_path, small_synth, column):
    dataset, _ = small_synth
    path = check_hand_off(build_instances(dataset), tmp_path)

    def damage(keys):
        keys = keys.astype(np.int64)
        keys[0, column] = 2**31 + 24
        return keys

    _rewrite_npz(path.with_suffix(".npz"), "keys", damage)
    assert cli._read_instances_npz(path) is None
    assert_same_instances(cli.load_instances_csv(path), cli._parse_instances_csv(path),
                          ids=False)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_npz_keys_past_a_table_fail_without_reading_it(tmp_path, small_synth, column):
    dataset, _ = small_synth
    path = check_hand_off(build_instances(dataset), tmp_path)
    assert cli._read_instances_npz(path) is not None
    with np.load(path.with_suffix(".npz")) as npz:
        size = npz["id_table_sizes"][min(column, 1)]

    def damage(keys):
        keys = keys.copy()
        keys[-1, column] = size
        return keys

    _rewrite_npz(path.with_suffix(".npz"), "keys", damage)
    assert cli._read_instances_npz(path) is None
    assert_same_instances(cli.load_instances_csv(path), cli._parse_instances_csv(path),
                          ids=False)


def test_integer_key_folds_equal_id_tuple_folds(small_synth):
    dataset, _ = small_synth
    instances = build_instances(dataset)
    y = instances.labels.astype(float)
    for seed in (0, 7):
        assert np.array_equal(_stratified_folds(y, 5, seed, instances.keys),
                              stratified_folds_loop(y, 5, seed, instance_id_keys(instances)))
