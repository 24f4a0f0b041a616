"""Temporal influence ranking on social graphs.

Hourly response-probability PageRank (with a trainable logistic response
model), TunkRank and TwitterRank baselines, activity-pattern analysis, and a
link-removal recommendation benchmark, all runnable on reproducible
synthetic data.
"""

from .model import Dataset, FollowGraph, Tweet, UserRecord, degree_stats, ingest
from .features import FEATURE_NAMES, FeatureContext, build_instances
from .logistic import LogisticModel, cross_validate, train
from .ranking import RankVector, build_matrix, power_iterate, tir_rank, tunkrank, twitterrank
from .evaluation import kendall_tau, run_scenarios
from .synth import GeneratorConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FollowGraph",
    "Tweet",
    "UserRecord",
    "degree_stats",
    "ingest",
    "FEATURE_NAMES",
    "FeatureContext",
    "build_instances",
    "LogisticModel",
    "cross_validate",
    "train",
    "RankVector",
    "build_matrix",
    "power_iterate",
    "tir_rank",
    "tunkrank",
    "twitterrank",
    "kendall_tau",
    "run_scenarios",
    "GeneratorConfig",
    "generate",
    "__version__",
]
