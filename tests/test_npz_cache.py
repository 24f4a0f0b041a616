"""The two parse caches, ``dataset.npz`` and ``instances.npz``.

Both are written by ``model.write_npz`` and read by ``model.read_npz``, and
their index columns are checked by ``model.index_column``. So the same
damage to either cache must make its load parse the files that the cache
mirrors, and give what that parse gives: a changed source file, a cache cut
short, garbage, no cache, a missing member and an index out of range.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from influxrank import cli, model
from influxrank.features import build_instances


class DatasetCache:
    """dataset.npz, beside the JSONL files it mirrors."""

    parse = (model, "_parse_tweets")
    member = "tweet_to_tweet"

    def __init__(self, root, dataset):
        model.serialize(dataset, root)
        self.root, self.npz = root, model.write_cache(dataset, root)[0]

    def change_source(self):
        with (self.root / "tweets.jsonl").open("a") as fh:
            fh.write(json.dumps({"id": "extra", "author": "u0000", "kind": "original",
                                 "ts": 5}) + "\n")

    @staticmethod
    def index_out_of_range(arrays):
        arrays["tweet_author"][0] = len(arrays["user_id"])

    def load(self):
        return model.load_dataset(self.root)

    @staticmethod
    def columns(dataset):
        return [getattr(dataset.tweets, f.name) for f in fields(model.TweetTable)]


class InstanceCache:
    """instances.npz, beside the instances.csv it mirrors."""

    parse = (cli, "_parse_instances_csv")
    member = "feature_row_of"

    def __init__(self, root, dataset):
        cli.write_instances(cli.ArtifactSession(root), build_instances(dataset))
        self.csv, self.npz = root / "instances.csv", root / "instances.npz"

    def change_source(self):
        # the first instance's label flips
        lines = self.csv.read_bytes().split(b"\r\n")
        lines[1] = lines[1][:-1] + (b"1" if lines[1].endswith(b"0") else b"0")
        self.csv.write_bytes(b"\r\n".join(lines))

    @staticmethod
    def index_out_of_range(arrays):
        arrays["keys"][-1, 1] = arrays["id_table_sizes"][1]

    def load(self):
        return cli.load_instances_csv(self.csv)

    @staticmethod
    def columns(instances):
        return [instances.keys, instances.row_of, instances.labels, instances.rows]


def _edit_arrays(npz, edit) -> None:
    """Rewrite the npz with edit(arrays) applied to its members, digests
    included."""
    with np.load(npz) as old:
        arrays = {key: old[key] for key in old.files}
    edit(arrays)
    np.savez(npz, **arrays)


DAMAGES = {
    "changed_source": lambda cache: cache.change_source(),
    "truncate": lambda cache: cache.npz.write_bytes(
        cache.npz.read_bytes()[: cache.npz.stat().st_size // 2]),
    "garbage": lambda cache: cache.npz.write_bytes(b"not a zip file"),
    "missing_file": lambda cache: cache.npz.unlink(),
    "missing_member": lambda cache: _edit_arrays(cache.npz, lambda a: a.pop(cache.member)),
    "index_out_of_range": lambda cache: _edit_arrays(cache.npz, cache.index_out_of_range),
}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("kind", [DatasetCache, InstanceCache],
                         ids=["dataset.npz", "instances.npz"])
def test_damaged_cache_falls_back_to_parse(tmp_path, small_synth, monkeypatch, kind, damage):
    cache = kind(tmp_path, small_synth[0])
    module, name = kind.parse
    parse, parsed = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: parsed.append(1) or parse(*args))
    cache.load()
    assert parsed == []
    DAMAGES[damage](cache)
    loaded = cache.load()
    assert parsed == [1]
    cache.npz.unlink(missing_ok=True)
    for got, want in zip(kind.columns(loaded), kind.columns(cache.load())):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("values, present, low, high", [
    (np.array([0, 4], dtype=np.int64), None, 0, 5),
    (np.array([0, 5], dtype=np.int32), None, 0, 5),
    (np.array([-1, 0], dtype=np.int32), None, 0, 5),
    (np.array([-3, 0], dtype=np.int32), np.array([True, True]), -2, 5),
    (np.array([-2, 0], dtype=np.int32), np.array([False, True]), -2, 5),
    (np.array([-1, 0], dtype=np.int32), np.array([True]), -2, 5),
    (np.array([-1, 0], dtype=np.int32), np.array([1, 1]), -2, 5),
])
def test_index_column_rejects(values, present, low, high):
    with pytest.raises(ValueError, match="index column"):
        model.index_column(values, high, low, present)
