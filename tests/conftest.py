import numpy as np
import pytest

from influxrank.features import FeatureContext, balance_and_normalize, build_instances
from influxrank.logistic import train
from influxrank.model import Dataset, FollowGraph, Tweet, UserRecord
from influxrank.synth import GeneratorConfig, generate


def make_user(uid, listed=0, favourites=0, verified=False, topics=(1.0,)):
    return UserRecord(
        user_id=uid,
        listed_count=listed,
        favourites_received=favourites,
        verified=verified,
        topic_distribution=tuple(topics),
    )


def make_dataset(users, edges, tweets, window=(0, 30 * 86400)):
    return Dataset(
        users={u.user_id: u for u in users},
        graph=FollowGraph([u.user_id for u in users], edges),
        tweets=list(tweets),
        observation_window=window,
    )


def _remove_edge_dataset(dataset: Dataset, u: str, v: str) -> Dataset:
    """Full rebuild of the dataset without follow edge (u, v): the oracle the
    single-edge-removal scorers are checked against."""
    edges = [(a, b) for a, b in dataset.graph.edges() if (a, b) != (u, v)]
    reduced = Dataset(
        users=dataset.users,
        graph=FollowGraph(dataset.users.keys(), edges),
        tweets=list(dataset.tweets),
        observation_window=dataset.observation_window,
        tz_offset=dataset.tz_offset,
    )
    return reduced


@pytest.fixture
def tiny_dataset():
    """Three users with hand-computable features.

    A follows B and C; B follows A. B has 2 originals (hour 1) and one
    retweet of A (hour 17); A has one original (hour 10) and one reply to
    B's first tweet (hour 2); C has one original (hour 17).
    """
    users = [
        make_user("A", listed=5, favourites=10, verified=True, topics=(1.0, 0.0)),
        make_user("B", listed=2, favourites=4, verified=False, topics=(0.5, 0.5)),
        make_user("C", listed=0, favourites=0, verified=False, topics=(0.0, 1.0)),
    ]
    edges = [("A", "B"), ("A", "C"), ("B", "A")]
    tweets = [
        Tweet("b1", "B", "original", 3600),
        Tweet("a2", "A", "reply", 7200, responds_to_user="B", responds_to_tweet="b1"),
        Tweet("a1", "A", "original", 36000),
        Tweet("b3", "B", "retweet", 61200, responds_to_user="A", responds_to_tweet="a1"),
        Tweet("c1", "C", "original", 61200),
        Tweet("b2", "B", "original", 90000),
    ]
    return make_dataset(users, edges, tweets, window=(0, 2 * 86400))


@pytest.fixture(scope="session")
def small_synth():
    cfg = GeneratorConfig(n_users=60, seed=1, observation_days=14)
    dataset, truth = generate(cfg)
    return dataset, truth


@pytest.fixture(scope="session")
def small_model(small_synth):
    dataset, _ = small_synth
    ctx = FeatureContext(dataset)
    instances = build_instances(dataset, ctx)
    balanced, scaler = balance_and_normalize(instances, seed=2)
    model = train(balanced.features, balanced.labels.astype(float), epochs=200)
    model.scaler = scaler
    return model


@pytest.fixture(scope="session")
def small_ctx(small_synth):
    dataset, _ = small_synth
    return FeatureContext(dataset)
