"""One benchmark child: a fresh interpreter that sets up one workload, runs
its body once and prints one JSON line with its figures.

Run from the root of a checkout by ``run.py``; polyharm is imported from
``src/`` of the current directory and from nowhere else.  With ``--trace 1``
the tracer is installed before set-up and the spans of the body are written
to ``--trace-file``; without it the tracer module is never imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def import_polyharm(root: str):
    """Import polyharm from ``<root>/src``; fail if it would come from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import polyharm

    if not os.path.abspath(polyharm.__file__).startswith(os.path.join(src, "polyharm") + os.sep):
        raise ImportError(f"polyharm imported from {polyharm.__file__}, not from {src}")
    return polyharm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    import_polyharm(os.getcwd())
    sys.path.insert(0, HERE)
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer(f"{args.workload}:{args.seed}:{args.index}")
        tracer.install()
    inputs = workloads.prepare(args.workload, args.seed, args.index)
    body = workloads.WORKLOADS[args.workload][1]
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy
    import sympy

    checks = workloads.Checks()
    error = None
    try:
        if tracer is None:
            start = time.perf_counter()
            body(inputs, checks)
            wall_s = time.perf_counter() - start
        else:
            wall_s = tracer.run_body(body, inputs, checks)
    except Exception:  # a failed operation is counted, not fatal to the run
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        wall_s = float("nan")
    out.update({
        "wall_s": wall_s,
        "checks": checks.records,
        "attempted": checks.attempted + (error is not None),
        "failed": checks.failed + (error is not None),
        "error": error,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "sympy": sympy.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
    })
    if tracer is not None and error is None:
        metrics, absent = tracer.report(wall_s)
        out.update({"layers": metrics, "absent": absent, "missing": tracer.missing,
                    "lambdify_s_by_caller": tracer.by_caller()})
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
