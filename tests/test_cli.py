import csv
import hashlib
import json
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from influxrank import cli
from influxrank.cli import main, stage_seed
from influxrank.logistic import LogisticModel
from influxrank.model import Tweet, serialize

from conftest import make_dataset, make_user


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def ok(result):
    assert result.exit_code == 0, result.output
    return result


def read_csv(path):
    with Path(path).open() as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full chain over a small synthetic dataset, run once per session."""
    root = tmp_path_factory.mktemp("pipeline")
    d = {name: root / name for name in (
        "raw", "data", "stats", "activity", "cluster", "resp", "features",
        "train", "rank", "compare", "recommend",
    )}
    ok(run_cli("synth", "--users", 50, "--seed", 7, "--days", 7,
               "--out", d["raw"]))
    ok(run_cli("ingest", "--in", d["raw"], "--out", d["data"]))
    ok(run_cli("stats", "--in", d["data"], "--out", d["stats"]))
    ok(run_cli("activity", "--in", d["data"], "--out", d["activity"]))
    ok(run_cli("cluster", "--in", d["data"], "--k", 3, "--out", d["cluster"]))
    ok(run_cli("respstats", "--in", d["data"], "--out", d["resp"]))
    ok(run_cli("features", "--in", d["data"], "--out", d["features"]))
    ok(run_cli("train", "--instances", d["features"] / "instances.csv",
               "--epochs", 150, "--out", d["train"]))
    ok(run_cli("rank", "--in", d["data"], "--model", "tir",
               "--model-file", d["train"] / "model.json", "--out", d["rank"]))
    ok(run_cli("compare", "--in", d["data"],
               "--model-file", d["train"] / "model.json", "--out", d["compare"]))
    ok(run_cli("recommend", "--in", d["data"],
               "--model-file", d["train"] / "model.json",
               "--seed", 1, "--c-grid", "0.5,0.95", "--n-links", 3,
               "--scenarios", "L_ur", "--out", d["recommend"]))
    return d


def test_manifest_hashes_without_reading_whole_files(tmp_path):
    session = cli.ArtifactSession(tmp_path)
    big = session.path("big.bin")
    big.write_bytes(np.random.default_rng(0).bytes(24 << 20))
    session.path("small.txt").write_text("x")
    tracemalloc.start()
    try:
        session.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    manifest = json.loads((tmp_path / "manifest.json").read_text())["artifacts"]
    assert manifest == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (big, tmp_path / "small.txt")}
    # the hashing buffer, not the 24 MiB file
    assert peak < 4 << 20


def test_ingest_hashes_each_file_once(pipeline, tmp_path, monkeypatch):
    # write_cache digests the JSONL files and the manifest reuses them
    hashed, sha256_file = [], cli.model.sha256_file

    def spy(path):
        hashed.append(path.name)
        return sha256_file(path)

    monkeypatch.setattr(cli.model, "sha256_file", spy)
    ok(run_cli("ingest", "--in", pipeline["raw"], "--out", tmp_path))
    assert sorted(hashed) == sorted(
        ["users.jsonl", "edges.jsonl", "tweets.jsonl", "dataset.npz", "summary.json"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())["artifacts"]
    assert manifest == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in hashed}
    assert (tmp_path / "manifest.json").read_bytes() == (
        pipeline["data"] / "manifest.json").read_bytes()


def test_features_hashes_each_file_once(pipeline, tmp_path, monkeypatch):
    # the cached load digests each JSONL file; write_instances digests
    # instances.csv for the npz and the manifest reuses that digest
    hashed, sha256_file = [], cli.model.sha256_file

    def spy(path):
        hashed.append(path.name)
        return sha256_file(path)

    monkeypatch.setattr(cli.model, "sha256_file", spy)
    ok(run_cli("features", "--in", pipeline["data"], "--out", tmp_path))
    artifacts = ["instances.csv", "instances.npz", "scaler.json"]
    assert sorted(hashed) == sorted(["users.jsonl", "edges.jsonl", "tweets.jsonl", *artifacts])
    manifest = json.loads((tmp_path / "manifest.json").read_text())["artifacts"]
    assert manifest == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in artifacts}
    assert (tmp_path / "manifest.json").read_bytes() == (
        pipeline["features"] / "manifest.json").read_bytes()


class TestPipelineArtifacts:
    def test_every_stage_writes_a_manifest(self, pipeline):
        for name, path in pipeline.items():
            if name == "raw":
                continue
            manifest = json.loads((path / "manifest.json").read_text())
            assert manifest["artifacts"], name
            for fname, digest in manifest["artifacts"].items():
                assert (path / fname).exists()
                assert len(digest) == 64

    def test_ingest_summary(self, pipeline):
        summary = json.loads((pipeline["data"] / "summary.json").read_text())
        assert summary["n_users"] == 50
        assert summary["n_edges"] > 0
        assert summary["dropped_tweets"] == 0

    def test_stats_histograms_cover_all_users(self, pipeline):
        rows = read_csv(pipeline["stats"] / "followers.csv")
        assert rows[0] == ["value", "count"]
        assert sum(int(r[1]) for r in rows[1:]) == 50
        corr = json.loads((pipeline["stats"] / "correlation.json").read_text())
        assert "follower_friend_corr" in corr

    def test_activity_tables_are_consistent(self, pipeline):
        hourly = read_csv(pipeline["activity"] / "activity_hourly.csv")
        weekly = read_csv(pipeline["activity"] / "activity_weekly.csv")
        heat = read_csv(pipeline["activity"] / "activity_heatmap.csv")
        total_h = sum(float(r[1]) for r in hourly[1:])
        total_w = sum(float(r[1]) for r in weekly[1:])
        total_heat = sum(float(v) for r in heat[1:] for v in r[1:])
        assert total_h == total_w == total_heat > 0

    def test_activity_vectors_are_the_heat_map_sums(self, pipeline):
        # the hourly file holds the heat map's column sums, the weekly file
        # its row sums, each count formatted as the heat map's cells are
        hourly = read_csv(pipeline["activity"] / "activity_hourly.csv")
        weekly = read_csv(pipeline["activity"] / "activity_weekly.csv")
        heat = read_csv(pipeline["activity"] / "activity_heatmap.csv")
        cells = np.array([[int(v) for v in r[1:]] for r in heat[1:]])
        assert [r[0] for r in heat[1:]] == [str(d) for d in range(7)]
        assert hourly[1:] == [[str(h), str(c)] for h, c in enumerate(cells.sum(axis=0))]
        assert weekly[1:] == [[str(d), str(c)] for d, c in enumerate(cells.sum(axis=1))]

    def test_cluster_outputs(self, pipeline):
        clusters = read_csv(pipeline["cluster"] / "clusters.csv")
        assert len(clusters) == 1 + 3
        props = [float(r[1]) for r in clusters[1:]]
        assert sum(props) == pytest.approx(1.0)
        assignments = read_csv(pipeline["cluster"] / "assignments.csv")
        assert {r[1] for r in assignments[1:]} <= {"0", "1", "2"}

    def test_respstats_cdfs(self, pipeline):
        rows = read_csv(pipeline["resp"] / "delay_cdf.csv")
        assert rows[0] == ["kind", "value", "cum_frac"]
        for kind in ("retweet", "reply"):
            fracs = [float(r[2]) for r in rows[1:] if r[0] == kind]
            if fracs:
                assert fracs == sorted(fracs)
                assert fracs[-1] == pytest.approx(1.0)

    def test_features_and_scaler(self, pipeline):
        rows = read_csv(pipeline["features"] / "instances.csv")
        assert rows[0][:4] == ["tweet_id", "follower", "friend", "hour"]
        assert rows[0][-1] == "label"
        assert len(rows) > 1
        labels = {r[-1] for r in rows[1:]}
        assert labels == {"0", "1"}
        scaler = json.loads((pipeline["features"] / "scaler.json").read_text())
        assert len(scaler["mins"]) == 12

    def test_train_outputs(self, pipeline):
        model = LogisticModel.load(pipeline["train"] / "model.json")
        assert len(model.w) == 12
        assert model.scaler is not None
        cv = read_csv(pipeline["train"] / "cv_report.csv")
        assert cv[-1][0] == "mean"
        assert 0.0 <= float(cv[-1][1]) <= 1.0
        weights = read_csv(pipeline["train"] / "feature_weights.csv")
        mags = [abs(float(r[1])) for r in weights[1:]]
        assert mags == sorted(mags, reverse=True)

    def test_rank_output_is_a_distribution(self, pipeline):
        rows = read_csv(pipeline["rank"] / "ranks.csv")
        scores = [float(r[1]) for r in rows[1:]]
        assert len(scores) == 50
        assert sum(scores) == pytest.approx(1.0)
        ranks = [int(r[2]) for r in rows[1:]]
        assert ranks == list(range(1, 51))
        assert scores == sorted(scores, reverse=True)

    def test_compare_tau_table(self, pipeline):
        rows = read_csv(pipeline["compare"] / "tau_matrix.csv")
        assert len(rows) == 1 + 10  # 5 models -> 10 pairs
        for r in rows[1:]:
            assert -1.0 <= float(r[2]) <= 1.0
        top = read_csv(pipeline["compare"] / "top_k.csv")
        assert len(top) == 1 + 5 * 10

    def test_recommend_output(self, pipeline):
        rows = read_csv(pipeline["recommend"] / "scenarios.csv")
        assert rows[0] == ["scenario", "model", "c", "mean_q", "n_links"]
        body = rows[1:]
        # L_ur only: 2 c values for tir + tunkrank + twitterrank
        assert len(body) == 4
        for r in body:
            assert r[0] == "L_ur"
            assert 0.0 <= float(r[3]) <= 10.0

    def test_recommend_without_a_requested_link_writes_the_header(self, tmp_path):
        # nobody follows back, so L_rr has no link and no row
        users = [make_user(u) for u in "abc"]
        tweets = [Tweet(f"t{u}", u, "original", 3600 * i) for i, u in enumerate("abc")]
        serialize(make_dataset(users, [("a", "b"), ("a", "c"), ("b", "c")], tweets),
                  tmp_path / "in")
        LogisticModel(w0=0.0, w=np.zeros(12)).save(tmp_path / "model.json")
        ok(run_cli("recommend", "--in", tmp_path / "in", "--model-file", tmp_path / "model.json",
                   "--scenarios", "L_rr", "--out", tmp_path / "out"))
        assert (tmp_path / "out" / "scenarios.csv").read_bytes() == \
            b"scenario,model,c,mean_q,n_links\r\n"


class TestDeterminism:
    def test_stage_seed_is_stable(self):
        assert stage_seed(3, "synth") == stage_seed(3, "synth")
        assert stage_seed(3, "synth") != stage_seed(3, "train")
        assert stage_seed(3, "synth") != stage_seed(4, "synth")

    def test_synth_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            ok(run_cli("synth", "--users", 30, "--seed", 2, "--days", 7,
                       "--out", out))
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma == mb

    def test_different_seed_changes_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ok(run_cli("synth", "--users", 30, "--seed", 2, "--days", 7, "--out", a))
        ok(run_cli("synth", "--users", 30, "--seed", 3, "--days", 7, "--out", b))
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma != mb


class TestErrorHandling:
    def test_usage_error_exits_2(self, pipeline, tmp_path):
        res = run_cli("rank", "--in", pipeline["data"], "--model", "tir",
                      "--model-file", pipeline["train"] / "model.json",
                      "--c", 0.3, "--out", tmp_path / "x")
        assert res.exit_code == 2
        assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())

    def test_ingest_has_no_tz_offset_option(self, pipeline, tmp_path):
        res = run_cli("ingest", "--in", pipeline["raw"], "--tz-offset", 3600,
                      "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_tir_requires_model_file(self, pipeline, tmp_path):
        res = run_cli("rank", "--in", pipeline["data"], "--model", "tir",
                      "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_bad_aggregate_spec(self, pipeline, tmp_path):
        res = run_cli("rank", "--in", pipeline["data"], "--model", "tunkrank",
                      "--aggregate", "median", "--out", tmp_path / "x")
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--k", 0],
        ["--k-min", 5, "--k-max", 3],
        ["--k-min", 1],
        ["--k-max", 11],
        ["--max-shift", 24],
    ])
    def test_bad_cluster_counts_fail_before_loading(self, tmp_path, args):
        # the input directory holds no dataset, so a load would exit 1
        res = run_cli("cluster", "--in", tmp_path, "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["--k", 3, "--k-min", 7, "--k-max", 9],
        ["--k", 3, "--k-min", 2],
        ["--k", 3, "--k-max", 6],
    ])
    def test_cluster_search_bounds_do_not_apply_with_k(self, tmp_path, args):
        # given even at their defaults; no dataset, so a load would exit 1
        res = run_cli("cluster", "--in", tmp_path, "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert "does not apply with --k" in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["--p", 2],
        ["--p", -0.1],
        ["--gamma", 0],
        ["--gamma", 1],
        ["--n-links", 0],
        ["--n-links", -1],
        ["--gamma", "nan"],
        ["--p", "nan"],
        ["--c-grid", "0.5,nan"],
        # a repeat would write its scenario rows twice
        ["--c-grid", "0.85,0.5,0.850"],
        ["--scenarios", "L_fh,L_fh"],
        # an empty tag, not the absent option that selects all eight
        ["--scenarios", ""],
    ])
    def test_bad_recommend_parameters_fail_before_loading(self, tmp_path, args):
        # neither input holds a dataset or a model, so a load would exit 1
        res = run_cli("recommend", "--in", tmp_path, "--model-file", tmp_path,
                      "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["--gamma", 0],
        ["--gamma", 1],
        ["--p", 1.5],
        ["--p", -0.1],
        ["--top", 0],
        ["--top", -1],
        ["--gamma", "nan"],
        ["--p", "nan"],
    ])
    def test_bad_compare_parameters_fail_before_loading(self, tmp_path, args):
        # neither input holds a dataset or a model, so a load would exit 1
        res = run_cli("compare", "--in", tmp_path, "--model-file", tmp_path,
                      "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [["--c", "nan"], ["--gamma", "nan"]])
    def test_bad_rank_parameters_fail_before_loading(self, tmp_path, args):
        # the input directory holds no dataset, so a load would exit 1
        res = run_cli("rank", "--in", tmp_path, "--model", "tunkrank",
                      "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("model, args", [
        ("tir", ["--model-file", ".", "--dump-matrix"]),
        ("tir", ["--model-file", ".", "--hour", "all", "--dump-matrix"]),
        ("tir", ["--model-file", ".", "--hour", 3, "--aggregate", "personal:u1"]),
        ("tir", ["--model-file", ".", "--p", 0.5]),
        ("tunkrank", ["--hour", 5]),
        ("tunkrank", ["--dump-matrix"]),
        # the default value, but given
        ("tunkrank", ["--c", 0.85]),
        ("tunkrank", ["--aggregate", "personal:u1"]),
        ("tunkrank", ["--gamma", 0.5]),
        ("tunkrank", ["--model-file", "."]),
        ("twitterrank", ["--hour", 5]),
        ("twitterrank", ["--dump-matrix"]),
        ("twitterrank", ["--c", 0.5]),
        ("twitterrank", ["--p", 0.5]),
        ("twitterrank", ["--model-file", "."]),
    ])
    def test_rank_options_that_do_not_apply_fail_before_loading(self, tmp_path, model, args):
        # the input directory holds no dataset, so a load would exit 1
        args = [tmp_path if a == "." else a for a in args]
        res = run_cli("rank", "--in", tmp_path, "--model", model, "--out", tmp_path / "x",
                      *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["--days", 0],
        ["--days", -3],
        ["--topics", 0],
        ["--close-fraction", 2],
        ["--close-fraction", -0.1],
        ["--close-fraction", "nan"],
        ["--follower-exponent", 1],
        ["--follower-exponent", 0.5],
        ["--follower-exponent", "nan"],
    ])
    def test_bad_synth_parameters_fail_before_writing(self, tmp_path, args):
        res = run_cli("synth", "--users", 30, "--seed", 1, "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    def test_missing_input_file_exits_1(self, tmp_path):
        out = tmp_path / "x"
        res = run_cli("stats", "--in", tmp_path, "--out", out)
        assert res.exit_code == 1
        assert "error: " in res.output and "users.jsonl" in res.output
        assert not (out / "manifest.json").exists()

    def test_negative_min_tweets_fails_before_loading(self, tmp_path):
        # the input directory holds no dataset, so a load would exit 1
        res = run_cli("ingest", "--in", tmp_path, "--out", tmp_path / "x",
                      "--min-tweets", -1)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()

    def test_runtime_error_exits_1_and_cleans_up(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "users.jsonl").write_text("{not json\n")
        (bad / "edges.jsonl").write_text("")
        (bad / "tweets.jsonl").write_text("")
        (bad / "window.json").write_text('{"start": 0, "end": 86400}')
        out = tmp_path / "out"
        res = run_cli("ingest", "--in", bad, "--out", out)
        assert res.exit_code == 1
        assert "error:" in res.output
        assert not (out / "manifest.json").exists()
        leftovers = [p for p in out.iterdir()] if out.exists() else []
        assert leftovers == []

    def test_cluster_without_tweets_fails_cleanly(self, tmp_path):
        users = [make_user(u) for u in "ab"]
        serialize(make_dataset(users, [("a", "b")], []), tmp_path / "raw")
        assert (tmp_path / "raw" / "tweets.jsonl").read_text() == ""
        ok(run_cli("ingest", "--in", tmp_path / "raw", "--out", tmp_path / "data"))
        out = tmp_path / "out"
        res = run_cli("cluster", "--in", tmp_path / "data", "--out", out)
        assert res.exit_code == 1
        assert "error: no profile has tweets" in res.output
        assert not (out / "manifest.json").exists()

    def test_tunkrank_p1_with_closed_class_fails_fast(self, tmp_path):
        users = [make_user(u) for u in "ab"]
        serialize(make_dataset(users, [("a", "b"), ("b", "a")], []), tmp_path / "in")
        out = tmp_path / "out"
        # the check imports csgraph lazily; keep that one-off import out of
        # the time budget, which bounds the check itself
        import scipy.sparse.csgraph  # noqa: F401

        started = time.perf_counter()
        res = run_cli("rank", "--in", tmp_path / "in", "--model", "tunkrank",
                      "--p", 1, "--out", out)
        assert time.perf_counter() - started < 0.1
        assert res.exit_code == 1
        assert "2 users form a closed follow class" in res.output
        assert not (out / "manifest.json").exists()

    def test_bad_c_grid(self, pipeline, tmp_path):
        res = run_cli("recommend", "--in", pipeline["data"],
                      "--model-file", pipeline["train"] / "model.json",
                      "--c-grid", "0.2,0.9", "--out", tmp_path / "x")
        assert res.exit_code == 2

    def test_unknown_scenario_tag(self, pipeline, tmp_path):
        res = run_cli("recommend", "--in", pipeline["data"],
                      "--model-file", pipeline["train"] / "model.json",
                      "--scenarios", "L_zz", "--out", tmp_path / "x")
        assert res.exit_code == 2


class TestInstanceHandOff:
    """features leaves instances.npz beside instances.csv; train reads it
    while it holds the CSV's sha256, and parses the CSV otherwise."""

    def test_features_manifest_lists_the_npz(self, pipeline):
        manifest = json.loads((pipeline["features"] / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == ["instances.csv", "instances.npz",
                                                 "scaler.json"]

    def test_train_reads_the_npz(self, pipeline, tmp_path, monkeypatch):
        def no_parse(path):
            raise AssertionError("instances.csv was parsed")

        monkeypatch.setattr(cli, "_parse_instances_csv", no_parse)
        ok(run_cli("train", "--instances", pipeline["features"] / "instances.csv",
                   "--epochs", 150, "--out", tmp_path / "train"))
        assert ((tmp_path / "train" / "model.json").read_bytes()
                == (pipeline["train"] / "model.json").read_bytes())

    def test_train_reads_no_id_table(self, pipeline, tmp_path, monkeypatch):
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def spy(npz, key):
            read.append(key)
            return getitem(npz, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
        ok(run_cli("train", "--instances", pipeline["features"] / "instances.csv",
                   "--epochs", 150, "--out", tmp_path / "train"))
        assert sorted(read) == ["feature_row_of", "feature_rows", "id_table_sizes", "keys",
                                "labels", "sha256_instances"]
        assert ((tmp_path / "train" / "model.json").read_bytes()
                == (pipeline["train"] / "model.json").read_bytes())

    def test_model_from_the_csv_alone_is_byte_identical(self, pipeline, tmp_path):
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(pipeline["features"] / "instances.csv", alone)
        ok(run_cli("train", "--instances", alone / "instances.csv",
                   "--epochs", 150, "--out", tmp_path / "train"))
        for name in ("model.json", "cv_report.csv", "feature_weights.csv", "manifest.json"):
            assert ((tmp_path / "train" / name).read_bytes()
                    == (pipeline["train"] / name).read_bytes()), name

    @pytest.mark.parametrize("edit, line", [
        (lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:], 3),  # a short row
        (lambda rows: [r[:-1] for r in rows], 1),  # no label column
        (lambda rows: rows[:3] + [rows[3][:-1] + ["2"]] + rows[4:], 4),  # label 2
        (lambda rows: rows[:2] + [rows[2][:3] + ["noon"] + rows[2][4:]] + rows[3:], 3),
        (lambda rows: rows[:5] + [rows[5][:3] + ["24"] + rows[5][4:]] + rows[6:], 6),  # hour 24
    ])
    def test_malformed_csv_names_the_line(self, pipeline, tmp_path, edit, line):
        rows = read_csv(pipeline["features"] / "instances.csv")
        path = tmp_path / "instances.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        res = run_cli("train", "--instances", path, "--out", tmp_path / "train")
        assert res.exit_code == 1, res.output
        assert f"instances.csv, line {line}:" in res.output
        assert not (tmp_path / "train" / "manifest.json").exists()

    @pytest.mark.parametrize("args", [["--epochs", 0], ["--lr", 0], ["--lr", -5],
                                      ["--lr", "nan"]])
    def test_bad_training_parameters_fail_before_reading(self, tmp_path, args):
        # the instances file is not a CSV of instances, so a read would exit 1
        bad = tmp_path / "instances.csv"
        bad.write_text("not instances\n")
        res = run_cli("train", "--instances", bad, "--out", tmp_path / "x", *args)
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()


class TestSingleHourRank:
    def test_hourly_matrix_dump(self, pipeline, tmp_path):
        out = tmp_path / "hour"
        ok(run_cli("rank", "--in", pipeline["data"], "--model", "tir",
                   "--model-file", pipeline["train"] / "model.json",
                   "--hour", 17, "--dump-matrix", "--out", out))
        rows = read_csv(out / "matrix.csv")
        assert rows[0] == ["row", "col", "value"]
        # column sums of the sparse part are 1 (stochastic) or 0 (dangling)
        col_sums = {}
        for r in rows[1:]:
            col_sums[r[1]] = col_sums.get(r[1], 0.0) + float(r[2])
        for s in col_sums.values():
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_personal_aggregate(self, pipeline, tmp_path):
        ranks = read_csv(pipeline["rank"] / "ranks.csv")
        uid = ranks[1][0]
        out = tmp_path / "personal"
        ok(run_cli("rank", "--in", pipeline["data"], "--model", "tir",
                   "--model-file", pipeline["train"] / "model.json",
                   "--aggregate", f"personal:{uid}", "--out", out))
        rows = read_csv(out / "ranks.csv")
        assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0)

    def test_personal_aggregate_of_unknown_user(self, pipeline, tmp_path):
        out = tmp_path / "nobody"
        res = run_cli("rank", "--in", pipeline["data"], "--model", "twitterrank",
                      "--aggregate", "personal:nobody", "--out", out)
        assert res.exit_code == 1
        assert "error: unknown user 'nobody'" in res.output
        assert not (out / "manifest.json").exists()
