"""Tests of the benchmark itself, at 200 users.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run, which collects
only ``test_*.py``. Every workload runs once end to end with its checks, and
each kind of check is shown to fail on a corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from worker import import_package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
USERS = 200

import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import Pipeline, Rank, Recommend  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["recommend-2k", "rank-2k", "pipeline-1k"])
def test_small_run_passes_its_checks(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0",
                     "--users", str(USERS))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "recommend-2k", "--seed", "3", "--seconds", "2",
                     "--trace", "1", "--users", str(USERS))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["metrics"]["evaluation.link_evals"]["value"] == out["attempted"]


def test_benchmark_json_matches_the_code():
    s = spec()
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in s["workloads"]] == ["recommend-2k", "rank-2k", "pipeline-1k"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = run_bench("--workload", "rank-2k", "--seed", "3", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------ checks on corrupted output

@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    from influxrank import cli

    out = tmp_path_factory.mktemp("raw")
    cli.main(["synth", "--users", str(USERS), "--seed", "3", "--out", str(out)],
             standalone_mode=False)
    return out


@pytest.fixture(scope="module")
def pipeline_dir(raw, tmp_path_factory):
    wl = Pipeline(raw, tmp_path_factory.mktemp("pipeline"), 3, 2)
    assert wl.run() == (11, 0), wl.errors
    assert wl.check() == ([], [])
    return wl.work


def corrupted_pipeline(raw, pipeline_dir, tmp_path, edit, rehash=True):
    """Copy the pipeline outputs, apply edit(work) -> edited file, and
    update that file's manifest entry so only the targeted check can fail."""
    work = tmp_path / "work"
    shutil.copytree(pipeline_dir, work)
    path = edit(work)
    if rehash:
        manifest_path = path.parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["artifacts"][path.name] = checks.sha256(path)
        manifest_path.write_text(json.dumps(manifest))
    fails, _ = Pipeline(raw, work, 3, 2).check()
    return fails


def edit_lines(path: Path, change) -> Path:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(change(lines)))
    return path


def swap_ranks(work):
    def change(lines):
        i = next(i for i in range(1, len(lines) - 1)
                 if lines[i].split(",")[1] != lines[i + 1].split(",")[1])
        a, b = lines[i].split(","), lines[i + 1].split(",")
        a[0], b[0] = b[0], a[0]
        a[1], b[1] = b[1], a[1]
        lines[i], lines[i + 1] = ",".join(a), ",".join(b)
        return lines
    return edit_lines(work / "rank_tir" / "ranks.csv", change)


def flip_hash(work):
    path = work / "stats" / "manifest.json"
    manifest = json.loads(path.read_text())
    name = sorted(manifest["artifacts"])[0]
    digest = manifest["artifacts"][name]
    manifest["artifacts"][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(manifest))
    return path


def drop_instance(work):
    return edit_lines(work / "features" / "instances.csv", lambda lines: lines[:-1])


def shift_tau(work):
    def change(lines):
        parts = lines[1].rstrip("\n").split(",")
        parts[2] = repr(float(parts[2]) + 1e-3)
        lines[1] = ",".join(parts) + "\n"
        return lines
    return edit_lines(work / "compare" / "tau_matrix.csv", change)


def bump_heat_cell(work):
    def change(lines):
        parts = lines[1].rstrip("\n").split(",")
        parts[1] = repr(float(parts[1]) + 1)
        lines[1] = ",".join(parts) + "\n"
        return lines
    return edit_lines(work / "activity" / "activity_heatmap.csv", change)


def bump_proportion(work):
    def change(lines):
        parts = lines[1].split(",")
        parts[1] = repr(float(parts[1]) + 0.01)
        lines[1] = ",".join(parts)
        return lines
    return edit_lines(work / "cluster" / "clusters.csv", change)


def scale_tunkrank(work):
    def change(lines):
        out = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",", 2)
            parts[1] = repr(float(parts[1]) * 1.001)
            out.append(",".join(parts))
        return out
    return edit_lines(work / "rank_tunkrank" / "ranks.csv", change)


@pytest.mark.parametrize("edit, expect, rehash", [
    (swap_ranks, "rank_tir: order", True),
    (flip_hash, "sha256 differs", False),
    (drop_instance, "features:", True),
    (shift_tau, "compare: tau", True),
    (bump_heat_cell, "activity: heat-map margins", True),
    (bump_proportion, "cluster: proportions", True),
    (scale_tunkrank, "rank_tunkrank: printed scores differ", True),
])
def test_pipeline_check_catches(raw, pipeline_dir, tmp_path, edit, expect, rehash):
    fails = corrupted_pipeline(raw, pipeline_dir, tmp_path, edit, rehash)
    assert any(expect in f for f in fails), fails


@pytest.fixture(scope="module")
def recommend(raw, tmp_path_factory):
    wl = Recommend(raw, tmp_path_factory.mktemp("recommend"), 3, 2)
    wl.setup()
    attempted, failed = wl.run()
    assert failed == 0 and attempted == sum(r.n_links for r in wl.results)
    assert wl.check() == ([], [])
    return wl


def test_recommend_check_catches_q_off_by_one(recommend):
    good = recommend.results
    for model in ("tir", "twitterrank", "tunkrank"):
        recommend.results = copy.deepcopy(good)
        for r in recommend.results:
            if r.model == model:
                r.q_values = [q + 1 if q < 10 else q - 1 for q in r.q_values]
        try:
            fails, _ = recommend.check()
        finally:
            recommend.results = good
        assert any("from a full rebuild" in f for f in fails), (model, fails)


def test_recommend_check_catches_q_out_of_range_and_missing_scenario(recommend):
    good = recommend.results
    try:
        recommend.results = copy.deepcopy(good)
        recommend.results[0].q_values[0] = 11
        assert any("outside [0, 10]" in f for f in recommend.check()[0])
        recommend.results = copy.deepcopy(good)[1:]
        assert any("results cover" in f for f in recommend.check()[0])
    finally:
        recommend.results = good


@pytest.fixture(scope="module")
def rank(raw, tmp_path_factory):
    wl = Rank(raw, tmp_path_factory.mktemp("rank"), 3, 1)
    wl.setup()
    assert wl.run() == (len(wl.requests), 0)
    assert wl.check() == ([], [])
    return wl


@pytest.mark.parametrize("kind", ["tir", "twitterrank", "tunkrank"])
def test_rank_check_catches_a_wrong_vector(rank, kind):
    good = rank.outputs
    i = next(i for i, (k, _) in enumerate(rank.requests) if k == kind)
    rank.outputs = copy.deepcopy(good)
    order = np.argsort(rank.outputs[i].scores)
    lo, hi = order[0], order[-1]
    s = rank.outputs[i].scores
    s[lo], s[hi] = s[hi], s[lo]
    try:
        fails, _ = rank.check()
    finally:
        rank.outputs = good
    assert fails and all(kind in f for f in fails), fails
