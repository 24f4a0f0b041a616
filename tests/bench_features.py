"""Benchmarks of the ``features`` -> ``train`` hand-off on the seed-3
1,000-user synthetic dataset (127,594 instances), as ``influxrank synth
--users 1000 --seed 3``, ``ingest`` and ``features`` write it: the
``instances.csv`` and ``instances.npz`` write, the same CSV written one value
at a time (the oracle), and ``load_instances_csv`` reading the npz and
parsing the CSV. The train stage's fits (five folds, then all instances) on
the balanced set (32,346 instances, 10,749 distinct rows, as ``train --seed
3`` balances it) run on the grouped rows and, as the oracle, row by row. One
more case builds a ``FeatureContext`` on the seed-3 2,000-user dataset (3,807
edges), each round on a freshly built graph and dataset, as a stage that has
just loaded them does.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_features.py

(pytest-benchmark prints min/mean/median per case; add
``--benchmark-json FILE`` to keep the figures). Set-up runs ``synth``,
``ingest`` and ``features`` once, in about 7 s, and ``synth`` and ``ingest``
at 2,000 users once more.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from influxrank import cli, logistic
from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.model import Dataset, FollowGraph, load_dataset

from oracles import cross_validate_per_row, write_instances_loop

N_INSTANCES = 127_594
N_BALANCED, N_BALANCED_ROWS = 32_346, 10_749
N_EDGES_2K = 3_807


def _run(*commands):
    for args in commands:
        res = CliRunner().invoke(cli.main, [str(a) for a in args])
        assert res.exit_code == 0, res.output


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_features")
    _run(["synth", "--users", "1000", "--seed", "3", "--out", root / "raw"],
         ["ingest", "--in", root / "raw", "--out", root / "data"],
         ["features", "--in", root / "data", "--seed", "3", "--out", root / "features"])
    return root


@pytest.fixture(scope="module")
def dataset_2k(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_context")
    _run(["synth", "--users", "2000", "--seed", "3", "--out", root / "raw"],
         ["ingest", "--in", root / "raw", "--out", root / "data"])
    return load_dataset(root / "data")


@pytest.fixture(scope="module")
def instances(root):
    return build_instances(load_dataset(root / "data"))


def test_write_instances(benchmark, root, instances):
    out = root / "write"
    benchmark(lambda: cli.write_instances(cli.ArtifactSession(out), instances))
    assert (out / "instances.csv").read_bytes() == (
        root / "features" / "instances.csv").read_bytes()


def test_write_instances_value_at_a_time(benchmark, root, instances):
    out = root / "oracle.csv"
    benchmark(write_instances_loop, out, instances)
    assert out.read_bytes() == (root / "features" / "instances.csv").read_bytes()


def test_load_instances_npz(benchmark, root):
    path = root / "features" / "instances.csv"
    assert cli._read_instances_npz(path) is not None
    assert len(benchmark(cli.load_instances_csv, path)) == N_INSTANCES


def test_load_instances_csv_parse(benchmark, root):
    path = root / "features" / "instances.csv"
    assert len(benchmark(cli._parse_instances_csv, path)) == N_INSTANCES


@pytest.fixture(scope="module")
def balanced(root):
    instances = cli.load_instances_csv(root / "features" / "instances.csv")
    return balance_and_normalize(instances, seed=cli.stage_seed(3, "train"))[0]


def _grouped_fits(x, y, keys, row_of):
    """The train stage's fits, five folds and then all instances, on grouped
    rows."""
    accuracies, _ = logistic.cross_validate(x, y, keys=keys, row_of=row_of)
    counts, positives = logistic.grouped_counts(row_of, y, len(x))
    return accuracies, logistic.train(x, positives, counts=counts)


def _per_row_fits(x, y, keys):
    """The same fits with one row of x per instance (the oracle)."""
    accuracies, _ = cross_validate_per_row(x, y, keys=keys)
    return accuracies, logistic.train(x, y)


@pytest.fixture(scope="module")
def per_row_fits(balanced):
    return _per_row_fits(balanced.features, balanced.labels.astype(float), balanced.keys)


def test_train_grouped(benchmark, balanced, per_row_fits):
    assert (len(balanced), len(balanced.rows)) == (N_BALANCED, N_BALANCED_ROWS)
    accuracies, fitted = benchmark.pedantic(
        _grouped_fits, args=(balanced.rows, balanced.labels.astype(float),
                             balanced.keys, balanced.row_of), rounds=3)
    want_accuracies, want = per_row_fits
    assert accuracies == want_accuracies
    np.testing.assert_allclose(fitted.w, want.w, rtol=1e-12)


def test_train_per_row(benchmark, balanced):
    benchmark.pedantic(_per_row_fits, args=(balanced.features, balanced.labels.astype(float),
                                            balanced.keys), rounds=1)


def test_feature_context(benchmark, dataset_2k):
    def fresh():
        ds = dataset_2k
        graph = FollowGraph(ds.users, ds.graph.edges())
        return (Dataset(ds.users, graph, ds.tweets, ds.observation_window),), {}

    ctx = benchmark.pedantic(FeatureContext, setup=fresh, rounds=20)
    assert ctx.dataset.graph.n_edges == N_EDGES_2K
