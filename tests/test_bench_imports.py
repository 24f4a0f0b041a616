"""Every opt-in ``tests/bench_*.py`` module imports.

The default test run collects none of them, so a package name that a bench
reads and the package no longer has would otherwise go unseen until the
bench is run."""

import importlib
from pathlib import Path

import pytest

BENCHES = sorted(path.stem for path in Path(__file__).parent.glob("bench_*.py"))


@pytest.mark.parametrize("name", BENCHES)
def test_bench_module_imports(name):
    importlib.import_module(name)
