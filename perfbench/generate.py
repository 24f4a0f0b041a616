"""Write a run's inputs: ``influxrank synth --users N --seed S --out DIR``.

Started by run.py in a process of its own, so that generating the inputs
does not set the worker's peak RSS. With ``--trace-out`` it also records the
time spent in ``synth.generate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from worker import import_package


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import_package()
    from influxrank import cli, synth

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.patch_function(synth, "generate", lambda f: tracer.span("synth.generate", f))
    cli.main(["synth", "--users", str(args.users), "--seed", str(args.seed), "--out", args.out],
             standalone_mode=False)
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(
            json.dumps({"synth.generate_s": tracer.total["synth.generate"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
