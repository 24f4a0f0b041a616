"""One benchmark run in a fresh process: set-up, timed region, checks.

Started by run.py, never by hand. Imports the package from ``src/`` of the
checkout this file sits in, runs the workload's set-up, stamps the moment it
is ready (``time.monotonic``, which run.py compares with the moment it started
this process), times the workload, reads the peak RSS before the checks run,
and writes everything to the ``--result`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import influxrank from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import influxrank

    if Path(influxrank.__file__).resolve().parent != (src / "influxrank").resolve():
        raise ImportError(f"influxrank imported from {influxrank.__file__}, not {src}")
    from influxrank import cli  # noqa: F401  (imports every module of the package)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import_package()
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](Path(args.raw), Path(args.work), args.seed, args.seconds)
    workload.setup()
    ready = time.monotonic()

    t0 = time.perf_counter()
    attempted, failed = workload.run()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers.update({f"cli.stage_s.{s}": workload.info.get("stage_s", {}).get(s, 0.0)
                       for s in tracing.STAGES})
        calls = tracer.wrapped_calls
        layers.update({"trace.wall_s": wall, "trace.wrapped_calls": calls,
                       "trace.overhead_est_s": calls * tracing.wrapper_cost()})

    try:
        failures, notes = workload.check()
    except Exception:  # a check that cannot run fails the run
        failures, notes = [f"check raised:\n{traceback.format_exc()}"], []

    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "notes": notes,
        "errors": workload.errors,
        "info": workload.info,
        "layers": layers,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
