"""The benchmark's pipeline workload runs each CLI stage with fixed arguments.

Parsing every one of them here makes a renamed, removed or re-typed option
that the benchmark passes fail the test suite first. No stage runs, and only
files under perfbench/ are read.
"""

import importlib.util
from pathlib import Path

from influxrank import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_pipeline_stage_arguments_parse(tmp_path, monkeypatch):
    # workloads.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    raw, work = tmp_path / "raw", tmp_path / "work"
    stages = workloads.Pipeline(raw, work, seed=3, seconds=1).stages()
    # placeholders for the inputs that click.Path(exists=True) looks for
    for d in (raw, work / "data", work / "features", work / "train"):
        d.mkdir(parents=True)
    for f in (work / "features" / "instances.csv", work / "train" / "model.json"):
        f.touch()
    before = sorted(tmp_path.rglob("*"))

    assert stages
    for _, args in stages:
        # raises click.UsageError for an unknown option or a bad value
        cli.main.commands[args[0]].make_context(args[0], list(args[1:]))
    assert sorted(tmp_path.rglob("*")) == before
