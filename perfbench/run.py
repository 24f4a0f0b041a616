"""Benchmark of influxrank: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload recommend-2k --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. A run generates its inputs with
``influxrank synth --users N --seed 3`` in one process, then runs the
workload in a fresh worker process (see worker.py), checks the outputs, and
prints one JSON object as the last line of standard output: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
README.md in this directory for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Users in each workload's dataset. Every run generates its dataset with
# ``influxrank synth --users N --seed 3``, whatever ``--seed`` is: the graph
# sets how many power iterations a ranking needs, and that count moves by
# about a fifth between synth seeds, more than the bounds allow. ``--seed``
# picks the sampled parts instead (links, personal users, stage seeds).
WORKLOADS = {"recommend-2k": 2000, "rank-2k": 2000, "pipeline-1k": 1000}
INPUT_SEED = 3
BLAS_THREADS = 1  # fixed, and no higher than the 2 cores of the reference machine
DEADLINE_S = 170  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--users", type=int, default=None,
                    help="dataset size instead of the workload's; for the benchmark's own tests")
    args = ap.parse_args(argv)
    users = args.users or WORKLOADS[args.workload]

    if not (ROOT / "src" / "influxrank" / "__init__.py").is_file():
        return fail(f"no influxrank sources under {ROOT / 'src'}; run from a full checkout", 2)

    start = time.monotonic()
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    raw = work / "raw"
    work.mkdir(parents=True)
    env = child_env()
    py = sys.executable

    def run_child(cmd, what):
        left = DEADLINE_S - (time.monotonic() - start)
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=left)
        if proc.returncode != 0:
            raise RuntimeError(f"{what} exited with code {proc.returncode}")
        return t0, time.monotonic()

    gen_trace = work / "generate_trace.json"
    result_path = work / "result.json"
    try:
        g0, g1 = run_child(
            [py, str(HERE / "generate.py"), "--users", str(users), "--seed", str(INPUT_SEED),
             "--out", str(raw)] + (["--trace-out", str(gen_trace)] if args.trace else []),
            "input generation")
        w0, _ = run_child(
            [py, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--raw", str(raw),
             "--work", str(work), "--result", str(result_path)],
            "worker")
        res = json.loads(result_path.read_text())
        layers = res["layers"]
        if args.trace:
            layers.update(json.loads(gen_trace.read_text()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if HERE.joinpath(".work").is_dir() and not any(HERE.joinpath(".work").iterdir()):
            HERE.joinpath(".work").rmdir()

    setup_s = (g1 - g0) + (res["ready_monotonic"] - w0)
    wall = res["wall_s"]
    if args.trace:
        import tracing

        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": (res["attempted"] - res["failed"]) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    info = res["info"]
    print(f"workload={args.workload} seed={args.seed} users={users} "
          f"blas_threads={BLAS_THREADS} trace={args.trace} inputs={json.dumps(info.get('inputs'))}")
    for key in ("n_links", "empty_scenarios", "rounds"):
        if key in info:
            print(f"{key}={info[key]}")
    if "stage_s" in info:
        print("stage_s " + " ".join(f"{k}={v:.2f}" for k, v in info["stage_s"].items()))
    print(f"ops attempted={res['attempted']} failed={res['failed']} "
          f"setup_s={setup_s:.3f} wall_s={wall:.3f} peak_rss_mb={res['peak_rss_mb']:.1f}")
    for line in res["errors"]:
        print(f"error: {line}")
    for line in res["notes"]:
        print(f"note: {line}")
    for line in res["failures"]:
        print(f"CHECK FAILED: {line}")
    correct = not res["failures"]
    print(f"checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
