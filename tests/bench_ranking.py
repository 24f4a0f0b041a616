"""Kernel benchmarks of the TIR ranking path on the seed-3 2,000-user
synthetic dataset (3,807 edges): the 24-hour weight kernel, the 24 hourly
matrix assemblies, one global ``tir_rank`` call, and personal ``tir_rank``
calls for the four users that ``rank-2k`` draws with ``--seed 3`` (those
iterate only the hours their user is active in).

A context keeps the hourly walks that its rankings iterate, so a repeated
ranking on one context only aggregates. The global and personal ``tir_rank``
benchmarks therefore empty the context's walk store before each round and
time cold calls (the four personal calls of a round still share the hours
they have in common); ``test_tir_rank_personal_warm`` times the same
personal calls once the global ranking has stored every hour they read.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_ranking.py

(pytest-benchmark prints min/mean/median per kernel; add
``--benchmark-json FILE`` to keep the figures). Set-up generates the dataset
and trains the response model the way the ``train`` stage does, without
cross-validation, and takes a few seconds.
"""

import numpy as np
import pytest

from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.logistic import train
from influxrank.ranking import _assemble, _edge_weights_all_hours, tir_rank
from influxrank.synth import GeneratorConfig, generate

C = 0.85
GAMMA = 0.85
ROUNDS = 20  # rounds of each cold benchmark, each on an empty walk store


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

    def assemble_all():
        return [_assemble(ctx, weights[:, t], t, GAMMA) for t in range(24)]

    assert len(benchmark(assemble_all)) == 24


def personal_users(ctx):
    rng = np.random.default_rng(3)
    return [ctx.user_ids[i] for i in sorted(rng.choice(len(ctx.user_ids), 4, replace=False))]


def test_tir_rank_global(benchmark, trained):
    dataset, ctx, model = trained

    def cold():
        ctx.walks.clear()
        return (dataset, model, C, GAMMA), {"ctx": ctx}

    rv = benchmark.pedantic(tir_rank, setup=cold, rounds=ROUNDS)
    assert abs(rv.scores.sum() - 1.0) < 1e-9


def personal_rankings(dataset, ctx, model, users):
    return [tir_rank(dataset, model, C, GAMMA, mode="personal", user=u, ctx=ctx)
            for u in users]


def test_tir_rank_personal(benchmark, trained):
    dataset, ctx, model = trained

    def cold():
        ctx.walks.clear()
        return (dataset, ctx, model, personal_users(ctx)), {}

    for rv in benchmark.pedantic(personal_rankings, setup=cold, rounds=ROUNDS):
        assert abs(rv.scores.sum() - 1.0) < 1e-9


def test_tir_rank_personal_warm(benchmark, trained):
    dataset, ctx, model = trained
    ctx.walks.clear()
    tir_rank(dataset, model, C, GAMMA, ctx=ctx)
    for rv in benchmark(personal_rankings, dataset, ctx, model, personal_users(ctx)):
        assert abs(rv.scores.sum() - 1.0) < 1e-9
