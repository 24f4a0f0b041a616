"""Kernel benchmarks of the TIR ranking path on the seed-3 2,000-user
synthetic dataset (3,807 edges): the 24-hour weight kernel, the 24 hourly
matrix assemblies, one global ``tir_rank`` call, and personal ``tir_rank``
calls for the four users that ``rank-2k`` draws with ``--seed 3`` (those
iterate only the hours their user is active in).

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_ranking.py

(pytest-benchmark prints min/mean/median per kernel; add
``--benchmark-json FILE`` to keep the figures). Set-up generates the dataset
and trains the response model the way the ``train`` stage does, without
cross-validation, and takes about 10 s.
"""

import numpy as np
import pytest

from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.logistic import train
from influxrank.ranking import _assemble, _edge_weights_all_hours, tir_rank
from influxrank.synth import GeneratorConfig, generate

C = 0.85
GAMMA = 0.85


@pytest.fixture(scope="module")
def trained():
    dataset, _ = generate(GeneratorConfig(n_users=2000, seed=3))
    ctx = FeatureContext(dataset)
    balanced, scaler = balance_and_normalize(build_instances(dataset, ctx), seed=3)
    model = train(balanced.features, balanced.labels.astype(float), seed=3, scaler=scaler)
    return dataset, ctx, model


def test_edge_weights_all_hours(benchmark, trained):
    _, ctx, model = trained
    weights = benchmark(_edge_weights_all_hours, ctx, model, C)
    assert weights.shape == (ctx.dataset.graph.n_edges, 24)


def test_assemble_24_hours(benchmark, trained):
    _, ctx, model = trained
    weights = _edge_weights_all_hours(ctx, model, C)
    n = len(ctx.user_ids)

    def assemble_all():
        return [_assemble(ctx.edge_src, ctx.edge_dst, weights[:, t], n, t, GAMMA)
                for t in range(24)]

    assert len(benchmark(assemble_all)) == 24


def test_tir_rank_global(benchmark, trained):
    dataset, ctx, model = trained
    rv = benchmark(tir_rank, dataset, model, C, GAMMA, ctx=ctx)
    assert abs(rv.scores.sum() - 1.0) < 1e-9


def test_tir_rank_personal(benchmark, trained):
    dataset, ctx, model = trained
    rng = np.random.default_rng(3)
    users = [ctx.user_ids[i] for i in sorted(rng.choice(len(ctx.user_ids), 4, replace=False))]

    def personal():
        return [tir_rank(dataset, model, C, GAMMA, mode="personal", user=u, ctx=ctx)
                for u in users]

    for rv in benchmark(personal):
        assert abs(rv.scores.sum() - 1.0) < 1e-9
