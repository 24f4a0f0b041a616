"""Scale check at 20,000 users: ``build_instances`` and ``select_k`` (k =
2..6) on the seed-3 synthetic set, as ``influxrank synth --users 20000 --seed
3`` and ``influxrank ingest`` write it, in one process.

It asserts the memory gates of the row-blocked stages: a process peak
(``ru_maxrss``) under 1.5 GB, which a whole n×n distance matrix would exceed
more than twice over (3.2 GB), and a traced ``build_instances`` peak under
400 MB. The figures are printed.

The file name keeps it out of the default test run. Run it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest -s tests/bench_scale.py

Set-up runs ``synth`` and ``ingest`` in processes of their own, so that their
peaks do not count. The whole run took about a minute on a 2-core machine.
"""

import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from influxrank.cli import stage_seed
from influxrank.features import FeatureContext, build_instances
from influxrank.model import load_dataset
from influxrank.temporal import all_profiles, select_k

USERS = 20_000
PROCESS_PEAK_MB = 1_500
BUILD_INSTANCES_PEAK_MB = 400


def _cli(*args):
    code = "import sys; from influxrank.cli import main; main(sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, *map(str, args)], check=True)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_scale")
    _cli("synth", "--users", USERS, "--seed", 3, "--out", root / "raw")
    _cli("ingest", "--in", root / "raw", "--out", root / "data")
    return root / "data"


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

    profiles = {u: p.a_t for u, p in all_profiles(dataset).items() if p.has_tweets}
    started = time.perf_counter()
    best, asc = select_k(profiles, range(2, 7), seed=stage_seed(3, "cluster"))
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
