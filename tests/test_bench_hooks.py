"""The benchmark's traced run wraps package functions and methods by name.

Installing and removing its tracer here makes a rename that would break that
run fail the test suite first. Only files under perfbench/ are read.
"""

import importlib.util
from pathlib import Path

from influxrank import ranking

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = ranking.RankVector.__dict__["order"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert ranking.RankVector.__dict__["order"] is not original
    finally:
        tracer.uninstall()
    assert ranking.RankVector.__dict__["order"] is original
