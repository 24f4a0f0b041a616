"""Benchmark of one ``TirLinkScorer`` on the links of the ``recommend-2k``
benchmark workload: the seed-3 2,000-user synthetic dataset, eight links per
scenario drawn with the sub-seed that ``influxrank recommend --seed 3`` uses
(56 links; the seven non-empty scenarios share two), at c = 0.85. It times
the scorer's batched path, one ``scores_without_links`` call over all 56
links as ``run_scenarios`` makes it (each hour that some follower weighs is
built, factored, solved in one ``solve_with_columns`` call, which cuts the
links into blocks of at most ``BLOCK_BYTES`` of (users x links) work array,
then freed), against the per-link oracle of ``tests/oracles.py``, whose 24
hourly factorisations are built once, outside the timing. Two more cases
time one call on one full block of links, ``BLOCK_BYTES // (8 n)`` (160 at
2,000 users), one per follower, from the followers active in the fewest and
in the most hours of the day (a tweetless follower weighs all 24 hours):
only the hours some follower is active in are factored, so the first call
factors fewer hours than the second.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_evaluation.py

(pytest-benchmark prints min/mean/median; add ``--benchmark-json FILE`` to
keep the figures). Set-up generates the dataset and trains the response
model the way the ``train`` stage does, without cross-validation, and takes
about 10 s.
"""

import warnings

import numpy as np
import pytest

from influxrank.cli import stage_seed
from influxrank.evaluation import BLOCK_BYTES, SCENARIO_TAGS, TirLinkScorer, build_link_sets
from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.logistic import train
from influxrank.ranking import personal_weights
from influxrank.synth import GeneratorConfig, generate

from oracles import link_solvers, tir_scores_without_loop

C = 0.85
LINKS_PER_SCENARIO = 8


@pytest.fixture(scope="module")
def scored():
    dataset, _ = generate(GeneratorConfig(n_users=2000, seed=3))
    ctx = FeatureContext(dataset)
    balanced, scaler = balance_and_normalize(build_instances(dataset, ctx), seed=3)
    model = train(balanced.features, balanced.labels.astype(float), seed=3, scaler=scaler)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reciprocal scenario is empty at this seed
        sets = build_link_sets(dataset, seed=stage_seed(3, "recommend"), ctx=ctx,
                               n_links=LINKS_PER_SCENARIO)
    links = [link for tag in SCENARIO_TAGS for link in sets[tag].links]
    return TirLinkScorer(dataset, model, C, ctx=ctx), links


def test_tir_links_batched(benchmark, scored):
    scorer, links = scored
    scores = benchmark(scorer.scores_without_links, links)
    assert scores.shape == (len(links), len(scorer.ctx.user_ids))


def test_tir_links_per_link_oracle(benchmark, scored):
    scorer, links = scored
    solvers = link_solvers(scorer)
    rows = benchmark(lambda: [tir_scores_without_loop(scorer, u, v, solvers) for u, v in links])
    assert np.array_equal(np.array(rows), scorer.scores_without_links(links))


@pytest.mark.parametrize("active", ["fewest", "most"])
def test_tir_links_block_by_active_hours(benchmark, scored, active):
    scorer, _ = scored
    ctx = scorer.ctx
    hours = (personal_weights(ctx, np.arange(len(ctx.user_ids))) > 0).sum(axis=1)
    first_edge = {}
    for row, u in enumerate(ctx.edge_src.tolist()):
        first_edge.setdefault(u, row)
    followers = sorted(first_edge, key=lambda u: (hours[u], u))
    if active == "most":
        followers.reverse()
    block = BLOCK_BYTES // (8 * len(ctx.user_ids))
    rows = [first_edge[u] for u in followers[:block]]
    links = [(ctx.user_ids[ctx.edge_src[r]], ctx.user_ids[ctx.edge_dst[r]]) for r in rows]
    scores = benchmark(scorer.scores_without_links, links)
    assert scores.shape == (block, len(ctx.user_ids))
