"""Benchmarks of ``load_dataset`` and ``serialize`` on the seed-3 1,000-user
synthetic dataset (67,351 tweets), as ``influxrank synth --users 1000 --seed
3`` writes it:

- loading it by parsing the JSONL files, where every block of
  ``tweets.jsonl`` lines matches the one regex of the line form that
  ``serialize`` writes;
- the same parse when no block matches (each tweet line has one extra
  space), so every line goes through ``json.loads``: the fallback's cost;
- loading the ``dataset.npz`` cache that ``influxrank ingest`` leaves next
  to the files, whose tweets hold every reference as an int32 index;
- writing the three JSONL files of the loaded dataset.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_model.py

(pytest-benchmark prints min/mean/median per case; add
``--benchmark-json FILE`` to keep the figures). Set-up runs ``synth`` and
``ingest`` once, in about 5 s.
"""

import shutil

import pytest
from click.testing import CliRunner

from influxrank.cli import main
from influxrank.model import CACHE_NAME, load_dataset, serialize


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_model")
    for args in (["synth", "--users", "1000", "--seed", "3", "--out", root / "raw"],
                 ["ingest", "--in", root / "raw", "--out", root / "data"]):
        res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == 0, res.output
    assert not (root / "raw" / CACHE_NAME).exists()
    return root / "raw", root / "data"


@pytest.fixture(scope="module")
def spaced(dirs, tmp_path_factory):
    """The raw files, with one extra space in every tweet line."""
    raw, _ = dirs
    out = tmp_path_factory.mktemp("bench_model_spaced")
    for name in ("users", "edges"):
        shutil.copy(raw / f"{name}.jsonl", out)
    with (raw / "tweets.jsonl").open() as src, (out / "tweets.jsonl").open("w") as dst:
        dst.writelines(line.replace(": ", ":  ", 1) for line in src)
    return out


def test_load_dataset_jsonl_parse(benchmark, dirs):
    raw, _ = dirs
    dataset = benchmark(load_dataset, raw)
    assert len(dataset.tweets) == 67_351


def test_load_dataset_jsonl_parse_line_by_line(benchmark, spaced):
    dataset = benchmark(load_dataset, spaced)
    assert len(dataset.tweets) == 67_351


def test_load_dataset_cached(benchmark, dirs):
    _, data = dirs
    dataset = benchmark(load_dataset, data)
    assert len(dataset.tweets) == 67_351


def test_serialize(benchmark, dirs, tmp_path):
    raw, _ = dirs
    dataset = load_dataset(raw)
    paths = benchmark(serialize, dataset, tmp_path)
    for name in ("users", "edges", "tweets"):
        assert paths[name].read_bytes() == (raw / f"{name}.jsonl").read_bytes()
