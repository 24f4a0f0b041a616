"""Benchmark of one ``TirLinkScorer`` on the links of the ``recommend-2k``
benchmark workload: the seed-3 2,000-user synthetic dataset, eight links per
scenario drawn with the sub-seed that ``influxrank recommend --seed 3`` uses
(56 links; the seven non-empty scenarios share two), at c = 0.85. It times
the scorer's batched path, in blocks of ``BLOCK_LINKS`` as ``run_scenarios``
scores them, against the per-link oracle of ``tests/oracles.py``; the
factorisations are built once, outside the timing.

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
from influxrank.evaluation import BLOCK_LINKS, SCENARIO_TAGS, TirLinkScorer, build_link_sets
from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.logistic import train
from influxrank.synth import GeneratorConfig, generate

from oracles import tir_scores_without_loop

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

    def blocks():
        return [scorer.scores_without_links(links[i:i + BLOCK_LINKS])
                for i in range(0, len(links), BLOCK_LINKS)]

    scores = np.concatenate(benchmark(blocks))
    assert scores.shape == (len(links), len(scorer.ctx.user_ids))


def test_tir_links_per_link_oracle(benchmark, scored):
    scorer, links = scored
    rows = benchmark(lambda: [tir_scores_without_loop(scorer, u, v) for u, v in links])
    assert np.array_equal(np.array(rows), scorer.scores_without_links(links))
