"""Benchmark driver for polyharm.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every measurement is a fresh child
interpreter (``child.py``), one at a time, with BLAS and OpenMP pinned to
one thread, so sympy's caches and polyharm's ``lru_cache`` start cold as in
a CLI call.

``--trace 0`` runs full children (set-up plus one workload body each) until
``--seconds`` have passed, then set-up-only children until there are
``SETUP_SAMPLES`` set-up times, and reports the medians of ``wall_s``,
``cpu_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1`` runs one traced child for the per-layer metrics, then untraced
children until ``--seconds`` have passed; ``trace.overhead_s`` is the traced
wall time minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment and every correctness check as (name, measured,
tolerance); the full record goes to ``perfbench/out/``.  The exit code is 1
if any check or operation failed, 2 if the checkout holds no polyharm.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("jet_tau4", "jet_many_maps", "fd_flow", "latitude_scan")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# a run stops starting children that could end after this many seconds
RUN_BUDGET_S = 160.0

# the per-layer metrics and their units; tracer.py fills them
PER_LAYER_UNITS = {
    "engine.tower_s": "s", "engine.tower_ops.u0": "count", "engine.tower_ops.u1": "count",
    "engine.tower_ops.u2": "count", "engine.tower_ops.u3": "count", "engine.symbolic_s": "s",
    "engine.engines_built": "count", "engine.eval_s": "s", "engine.eval_calls": "count",
    "engine.lambdify_hit_ratio": "ratio", "codegen.lambdify_s": "s", "codegen.lambdify_calls": "count",
    "geometry.model_build_s": "s", "geometry.node_eval_s": "s", "geometry.node_eval_calls": "count",
    "fields.gridmap_build_s": "s", "fields.operator_s": "s", "fields.operator_calls": "count",
    "fields.nodes": "count", "stencils.s": "s", "stencils.calls": "count",
    "stencils.bytes_computed": "bytes", "polytension.tower_s": "s", "polytension.tau_s": "s",
    "polytension.kernel_s": "s", "polytension.kernel_calls": "count", "numpy.einsum_s": "s",
    "numpy.einsum_calls": "count", "reduction.witness_s": "s", "reduction.masked_fraction": "ratio",
    "variational.latitude_evals": "count", "variational.latitude_eval_s": "s",
    "variational.energy_s": "s", "variational.energy_calls": "count",
    "variational.flow_halvings": "count", "variational.flow_accept_ratio": "ratio",
    "variational.variation_check_s": "s", "cli.run_s": "s", "serialize.render_s": "s",
    "trace.unattributed_s": "s", "trace.self_sum_s": "s", "trace.wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, seed: int, index: int, *, setup_only=False, trace=False, trace_file=None) -> dict:
    """Run one child to completion; its JSON line plus its resource usage."""
    t0 = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--index", str(index),
           "--t0", repr(t0), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - t0
    lines = stdout.decode().strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"child exited with {proc.returncode} and no result"}
    out["exit_code"] = proc.returncode
    out["elapsed_s"] = elapsed
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 and not out.get("error"):
        out["error"] = f"child exited with {proc.returncode}"
    return out


def _failures(children: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for c in children:
        attempted += max(int(c.get("attempted", 0)), 1)
        failed += int(c.get("failed", 0))
        if c.get("error") and not c.get("failed"):
            failed += 1
    return attempted, failed


def _worst_checks(children: list[dict]) -> list[list]:
    """Per check name, the record that came closest to (or past) its bound."""
    worst: dict[str, list] = {}

    def closeness(rec):
        name, measured, tol, ok = rec
        if not ok:
            return float("inf")
        if isinstance(tol, (int, float)) and tol > 0:
            return measured / tol
        return 0.0

    for c in children:
        for rec in c.get("checks", []):
            if rec[0] not in worst or closeness(rec) > closeness(worst[rec[0]]):
                worst[rec[0]] = rec
    return [worst[k] for k in sorted(worst)]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    full = []
    while True:
        full.append(spawn(workload, seed, len(full)))
        now = time.monotonic() - start
        longest = max(c["elapsed_s"] for c in full)
        if full[-1].get("error") or now >= seconds or now + longest > RUN_BUDGET_S:
            break
    setups = [c["setup_s"] for c in full if "setup_s" in c]
    while len(setups) < SETUP_SAMPLES and not full[-1].get("error"):
        probe = spawn(workload, seed, len(full), setup_only=True)
        if probe.get("error"):
            full.append(probe)
            break
        setups.append(probe["setup_s"])
    ok = [c for c in full if not c.get("error") and "wall_s" in c]
    metrics = {}
    if ok and setups:
        samples = {
            "wall_s": [c["wall_s"] for c in ok],
            "cpu_s": [c["cpu_s"] for c in ok],
            "setup_s": setups,
            "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
        }
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}
    attempted, failed = _failures(full)
    return {"children": full, "setups": setups, "metrics": metrics,
            "attempted": attempted, "failed": failed}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    traced = spawn(workload, seed, 0, trace=True, trace_file=trace_file)
    plain = []
    while not traced.get("error"):
        plain.append(spawn(workload, seed, 0))
        now = time.monotonic() - start
        if plain[-1].get("error") or now >= seconds or now + plain[-1]["elapsed_s"] > RUN_BUDGET_S:
            break
    children = [traced] + plain
    attempted, failed = _failures(children)
    metrics = {}
    if not failed:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(c["wall_s"] for c in plain)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return {"children": children, "metrics": metrics, "absent": traced.get("absent", []),
            "missing": traced.get("missing", []), "trace_file": os.path.relpath(trace_file),
            "lambdify_s_by_caller": traced.get("lambdify_s_by_caller", {}),
            "attempted": attempted, "failed": failed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = (run_traced if trace else run_untraced)(workload, seed, seconds)
    result["checks"] = _worst_checks(result["children"])
    env = next((c["env"] for c in result["children"] if "env" in c), {})
    result["env"] = env
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, **result}, fh, indent=1)
    return result


def _print_human(workload: str, result: dict) -> None:
    print(f"# {workload}: env {json.dumps(result['env'], sort_keys=True)}")
    for name, measured, tol, ok in result["checks"]:
        print(f"# {workload}: check {name} measured={measured!r} tolerance={tol} {'ok' if ok else 'FAILED'}")
    for c in result["children"]:
        if c.get("error"):
            print(f"# {workload}: error {c['error'].strip().splitlines()[-1]}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"# {workload}: fail_ratio = {fail_ratio!r} ratio ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"# {workload}: {name} = {m['value']!r} {m['unit']}")
    if result.get("absent"):
        print(f"# {workload}: absent layers {', '.join(result['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(os.getcwd(), "src", "polyharm", "__init__.py")):
        print("run.py: no src/polyharm in the current directory; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_human(name, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
