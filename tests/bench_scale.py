"""Scale check at 20,000 users on the seed-3 synthetic set, as ``influxrank
synth --users 20000 --seed 3`` and ``influxrank ingest`` write it.

``build_instances`` and ``select_k`` (k = 2..6) run in one process. The test
asserts the memory gates of the row-blocked stages: a process peak
(``ru_maxrss``) under 1.5 GB, which a whole n×n distance matrix would exceed
more than twice over (3.2 GB), and a traced ``build_instances`` peak under
180 MB. On a 2-core machine that peak was 152 MB, against 194-198 MB while
the instance set held a sorted copy of the tweet ids and 285-289 MB while
``build_instances`` grouped one whole (codes × 12) feature matrix.

One ``FeatureContext`` build, as each stage makes one after its load, is
timed untraced, and its peak is traced in a second build on a fresh load. On
a 2-core machine it took 0.15-0.25 s with a traced peak of 37.1 MB (0.63-0.71 s
and 62.1 MB with one profile record per user, stacked back into matrices). It
asserts a wall time under 0.5 s and a traced peak under 45 MB.

``ingest`` of the raw 20k files runs again in a process of its own, which
reads its own high-water mark (``VmHWM``), and its manifest must equal the
set-up ingest's. One cached ``load_dataset`` of what it wrote is then timed
in the test process, and the bytes of its tweet table's arrays (the
columns and the id tables) are counted. In three runs on a 2-core machine
the ingest took 6.1-7.5 s with a peak of 366-374 MB (643 MB while the
table held every reference as a string), the cached load 0.30-0.40 s, and
the tweet arrays took 86.1 MB (190.1 MB with string references), 52.7 MB of
it the tweet ids. It asserts an ingest under 12 s and 450 MB, a cached load under
0.8 s and tweet arrays under 95 MB.

``run_scenarios`` (a fixed response model, c = 0.5 and 0.85, 4 links per
scenario, 53 factorisations) runs in a process of its own and reads that
process's own high-water mark (``VmHWM``), so that its peak is its own: a
child's ``ru_maxrss`` starts from the peak of the process that forked it. In
five runs on a 2-core machine it took 2.5-3.6 s with a process peak of
243-250 MB (185 MB after loading the dataset and building its
``FeatureContext``); factoring each matrix in scipy's default COLAMD order
once took 25.9-26.1 s and peaked at 460 MB. It asserts a wall time under
10 s and a peak under 275 MB. The figures are printed.

The ``features`` stage runs on the 20k set (``--seed 3``) in a process of
its own, which reads its own high-water mark (``VmHWM``), and its
``instances.csv``, ``instances.npz`` and ``scaler.json`` must equal the
digests recorded here: the CSV and the scaler as the stage wrote them while
it grouped one whole (codes × 12) feature matrix and formatted through an
(R × 12) object array, and the npz (98.1 MB) as it is written since it holds
no id table (171.6 MB with the tables).
In four runs on a 2-core machine it took 6.8-7.5 s with a peak of 342 MB,
the same as while the npz held the id tables (341.6-342.4 MB in three
runs). It peaked at 385-392 MB (6.4-8.8 s, five runs) while the instance
set held a sorted copy of the tweet ids and the write one string per
feature row, and at 466-471 MB (9.8-11.4 s) with the whole matrix. It
asserts a stage under 14 s and 375 MB.

The ``train`` stage then runs on what ``features`` wrote, in a process of
its own, and its ``model.json`` must equal the digest recorded here. In
four runs on a 2-core machine (three with ``--seed 3``) it took 15.7-18.9 s
with a peak of 249-250 MB (259 MB while the npz held int64 labels, and
310.5 MB while the stage read the npz's id tables as well). It asserts a
stage under 25 s and 275 MB.

``synth`` runs in a process of its own, which reads its own high-water mark
(``VmHWM``), and its four files must equal the digests recorded here, which
synth wrote when it built its tweet table from id strings. In six runs on a
2-core machine it took 6.1-9.4 s with a peak of 905-906 MB (9.2-13.7 s and
1,038 MB from id strings, with one string tuple kept per (original,
follower) pair). It asserts a synth under 12 s and 960 MB.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest -s tests/bench_scale.py

Set-up runs ``synth`` and ``ingest`` in processes of their own, so that their
peaks do not count toward the other tests'. The whole run took about 70 s on
a 2-core machine.
"""

import hashlib
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields

import pytest

from influxrank.cli import stage_seed
from influxrank.features import FeatureContext, build_instances
from influxrank.model import load_dataset, sha256_file
from influxrank.temporal import all_profiles, select_k

USERS = 20_000
PROCESS_PEAK_MB = 1_500
BUILD_INSTANCES_PEAK_MB = 180
RUN_SCENARIOS_WALL_S = 10
CONTEXT_WALL_S = 0.5
CONTEXT_PEAK_MB = 45
RUN_SCENARIOS_PEAK_MB = 275
INGEST_WALL_S = 12
INGEST_PEAK_MB = 450
CACHED_LOAD_WALL_S = 0.8
TWEET_ARRAYS_MB = 95
SYNTH_WALL_S = 12
SYNTH_PEAK_MB = 960
FEATURES_WALL_S = 14
FEATURES_PEAK_MB = 375
TRAIN_WALL_S = 25
TRAIN_PEAK_MB = 275
# sha256 of the features files: the CSV and scaler as the stage wrote them
# when it grouped the whole feature matrix, the npz as it is written since it
# holds no id table
FEATURES_SHA256 = {
    "instances.csv": "25d2846a573e5feab8e6979add264c1ec53317173a1343b89e8d1d9384b093f9",
    "instances.npz": "26aeffc3fc9f02e5cbdeca4af074b621cd77841ade4026ad9aa7cafc908f4d5e",
    "scaler.json": "e62cc3a21f38fa68304596eaf8eaccb50ee41782b7e325fbfdce8cba42c5dea2",
}
# sha256 of the model that train fits to those instances
TRAIN_MODEL_SHA256 = "9b5abdf7af5013f489a29cb3323b708e50dc20289bca863e93fa5695a2559a0b"
# sha256 of the synth files, as synth wrote them when it built its tweet
# table from id strings
SYNTH_SHA256 = {
    "users.jsonl": "20352de17d8490d96af49fbce475c8083103747b5c8c1f38e00a24af9430ee3e",
    "edges.jsonl": "ac0b32e15753d60477165ef5c8fb4fbab601a3cda12918526f6cbe949dd361ac",
    "tweets.jsonl": "84515012cf037301d530e91d17da3c1b60348f310c72fc8f6ca7cd3a4207ce02",
    "truth.csv": "82577e3811cc6a2b413d6ffdfd4c36f328e1c296b66006d3429cc7a9cc09562f",
}

PEAK_MB = """
def peak_mb():
    # this process's own high-water mark (kB); ru_maxrss would start from
    # the peak of the process that forked it
    with open("/proc/self/status") as status:
        return next(int(l.split()[1]) for l in status if l.startswith("VmHWM:")) / 1e3
"""

# a CLI stage in a fresh interpreter: prints wall time and peak as JSON
STAGE = PEAK_MB + """
import json, sys, time
from influxrank.cli import main

started = time.perf_counter()
main(sys.argv[1:], standalone_mode=False)
print(json.dumps({"wall_s": time.perf_counter() - started, "peak_mb": peak_mb()}))
"""

# run_scenarios in a fresh interpreter: prints wall time and peaks as JSON
RUN_SCENARIOS = PEAK_MB + """
import json, sys, time, warnings
import numpy as np
from influxrank.evaluation import run_scenarios
from influxrank.features import FeatureContext, MinMaxScaler
from influxrank.logistic import LogisticModel
from influxrank.model import load_dataset


model = LogisticModel(w0=0.3, w=np.linspace(-0.6, 0.4, 12), scaler=MinMaxScaler(
    mins=np.zeros(12), maxs=np.array([2, 4, 1, 1, 1, 1, 1, 3, 0.5, 0.5, 0.2, 1.0])))
dataset = load_dataset(sys.argv[1])
ctx = FeatureContext(dataset)
setup_mb = peak_mb()
started = time.perf_counter()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # a scenario may have an empty pool
    results = run_scenarios(dataset, model, seed=3, c_grid=(0.5, 0.85), n_links=4, ctx=ctx)
wall_s = time.perf_counter() - started
print(json.dumps({"wall_s": wall_s, "setup_mb": setup_mb, "links": sum(r.n_links for r in results),
                  "peak_mb": peak_mb()}))
"""


def _stage(*args) -> dict:
    """Runs a CLI stage in a fresh interpreter: its wall time and peak."""
    out = subprocess.run([sys.executable, "-c", STAGE, *map(str, args)], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    """The synth files, and the synth stage's wall time and peak."""
    root = tmp_path_factory.mktemp("bench_scale")
    return root / "raw", _stage("synth", "--users", USERS, "--seed", 3, "--out", root / "raw")


@pytest.fixture(scope="module")
def data(raw):
    path = raw[0].parent / "data"
    _stage("ingest", "--in", raw[0], "--out", path)
    return path


def test_synth_at_20k(raw):
    path, got = raw
    digests = {name: hashlib.sha256((path / name).read_bytes()).hexdigest()
               for name in SYNTH_SHA256}
    print(f"\nsynth: {got['wall_s']:.1f} s, peak {got['peak_mb']:.0f} MB")
    assert digests == SYNTH_SHA256
    assert got["wall_s"] < SYNTH_WALL_S
    assert got["peak_mb"] < SYNTH_PEAK_MB


def test_blocked_stages_at_20k(data):
    dataset = load_dataset(data)
    ctx = FeatureContext(dataset)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        instances = build_instances(dataset, ctx)
        build_s = time.perf_counter() - started
        traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    n_instances = len(instances)
    del instances

    table = all_profiles(dataset)
    ids, profiles = table.user_ids[table.has_tweets], table.a_t[table.has_tweets]
    started = time.perf_counter()
    best, asc = select_k(ids, profiles, range(2, 7), seed=stage_seed(3, "cluster"))
    select_s = time.perf_counter() - started
    # kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3

    print(f"\nbuild_instances: {n_instances} instances, {build_s:.2f} s "
          f"(traced), traced peak {traced_mb:.0f} MB")
    print(f"select_k k=2..6: {len(profiles)} profiles, {select_s:.1f} s, best k {best.k}, "
          f"ASC {', '.join(f'{k}: {v:.4f}' for k, v in sorted(asc.items()))}")
    print(f"process peak: {peak_mb:.0f} MB")
    assert sorted(asc) == [2, 3, 4, 5, 6]
    assert traced_mb < BUILD_INSTANCES_PEAK_MB
    assert peak_mb < PROCESS_PEAK_MB


def test_feature_context_at_20k(data):
    dataset = load_dataset(data)
    started = time.perf_counter()
    FeatureContext(dataset)
    context_s = time.perf_counter() - started
    # a fresh load, so that the traced build is a first one too
    dataset = load_dataset(data)
    tracemalloc.start()
    try:
        ctx = FeatureContext(dataset)
        traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    print(f"\nFeatureContext: {len(ctx.user_ids)} users, {context_s:.2f} s, "
          f"traced peak {traced_mb:.1f} MB")
    assert ctx.n_t.shape == ctx.a_t.shape == (len(ctx.user_ids), 24)
    assert context_s < CONTEXT_WALL_S
    assert traced_mb < CONTEXT_PEAK_MB


def test_ingest_and_cached_load_at_20k(data, tmp_path):
    got = _stage("ingest", "--in", data.parent / "raw", "--out", tmp_path)
    started = time.perf_counter()
    dataset = load_dataset(tmp_path)
    load_s = time.perf_counter() - started
    tweets = dataset.tweets
    tweets_mb = sum(getattr(tweets, f.name).nbytes for f in fields(tweets)) / 1e6
    print(f"\ningest: {got['wall_s']:.1f} s, peak {got['peak_mb']:.0f} MB; cached load: "
          f"{len(tweets)} tweets, {load_s:.2f} s, tweet arrays {tweets_mb:.1f} MB")
    assert (tmp_path / "manifest.json").read_bytes() == (data / "manifest.json").read_bytes()
    assert got["wall_s"] < INGEST_WALL_S
    assert got["peak_mb"] < INGEST_PEAK_MB
    assert load_s < CACHED_LOAD_WALL_S
    assert tweets_mb < TWEET_ARRAYS_MB


@pytest.fixture(scope="module")
def features_out(data):
    """The features stage's output directory, and its wall time and peak."""
    path = data.parent / "features"
    return path, _stage("features", "--in", data, "--out", path, "--seed", 3)


def test_features_at_20k(features_out):
    path, got = features_out
    digests = {name: sha256_file(path / name) for name in FEATURES_SHA256}
    print(f"\nfeatures: {got['wall_s']:.1f} s, peak {got['peak_mb']:.0f} MB")
    assert digests == FEATURES_SHA256
    assert got["wall_s"] < FEATURES_WALL_S
    assert got["peak_mb"] < FEATURES_PEAK_MB


def test_train_at_20k(features_out, tmp_path):
    got = _stage("train", "--instances", features_out[0] / "instances.csv", "--out", tmp_path)
    print(f"\ntrain: {got['wall_s']:.1f} s, peak {got['peak_mb']:.0f} MB")
    assert sha256_file(tmp_path / "model.json") == TRAIN_MODEL_SHA256
    assert got["wall_s"] < TRAIN_WALL_S
    assert got["peak_mb"] < TRAIN_PEAK_MB


def test_run_scenarios_at_20k(data):
    out = subprocess.run([sys.executable, "-c", RUN_SCENARIOS, str(data)], check=True,
                         capture_output=True, text=True).stdout
    got = json.loads(out.splitlines()[-1])
    print(f"\nrun_scenarios: {got['links']} link evaluations, {got['wall_s']:.1f} s, "
          f"peak {got['peak_mb']:.0f} MB ({got['setup_mb']:.0f} MB after set-up)")
    assert got["links"] > 0
    assert got["wall_s"] < RUN_SCENARIOS_WALL_S
    assert got["peak_mb"] < RUN_SCENARIOS_PEAK_MB
