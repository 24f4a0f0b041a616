"""Benchmarks on the seed-3 1,000-user synthetic dataset, as ``influxrank
synth --users 1000 --seed 3`` and ``influxrank ingest`` write it: ``select_k``
on its hourly profiles for k = 2..6 with the sub-seed that ``influxrank
cluster --seed 3`` uses, and ``response_metrics`` (16,173 responses).

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_temporal.py

(pytest-benchmark prints min/mean/median; add ``--benchmark-json FILE`` to
keep the figures). Set-up runs ``synth`` and ``ingest`` once, in about 5 s.
"""

import pytest
from click.testing import CliRunner

from influxrank.cli import main, stage_seed
from influxrank.model import load_dataset
from influxrank.temporal import all_profiles, response_metrics, select_k


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_temporal")
    for args in (["synth", "--users", "1000", "--seed", "3", "--out", root / "raw"],
                 ["ingest", "--in", root / "raw", "--out", root / "data"]):
        res = CliRunner().invoke(main, [str(a) for a in args])
        assert res.exit_code == 0, res.output
    return load_dataset(root / "data")


@pytest.fixture(scope="module")
def profiles(dataset):
    """The ids and rows the cluster stage passes: users with tweets."""
    table = all_profiles(dataset)
    return table.user_ids[table.has_tweets], table.a_t[table.has_tweets]


def test_select_k(benchmark, profiles):
    best, asc = benchmark(select_k, *profiles, range(2, 7), seed=stage_seed(3, "cluster"))
    assert sorted(asc) == [2, 3, 4, 5, 6]
    assert len(best.ids) == len(profiles[0])


def test_response_metrics(benchmark, dataset):
    metrics, excluded = benchmark(response_metrics, dataset)
    assert (len(metrics), excluded) == (16_173, 0)
