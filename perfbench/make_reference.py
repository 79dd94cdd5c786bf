"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root.  It writes ``perfbench/reference/*.json`` from
the current code, so run it only on code whose outputs are trusted (the
references in the repository come from the seed).  The latitude roots are
also checked against their closed forms before they are written.
"""
from __future__ import annotations

import json
import math
import os
import sys

from child import HERE, import_polyharm


def main() -> int:
    import_polyharm(os.getcwd())
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    refs = {}

    tau4, literal = workloads.outputs_jet_tau4(workloads.setup_jet_tau4(0, 0))
    refs["jet_tau4"] = {"map": "circle -> S^2, (x1, pi/2 + 2 sin(x1)/5), 64 nodes, analytic_jet",
                        "tau4": tau4.tolist()}

    flow = workloads.outputs_fd_flow(workloads.setup_fd_flow(0, 0))
    refs["fd_flow"] = {"map": "T^2 -> S^2, (2 x1 + cos(x2)/5, pi/2 + sin(x1+x2)/4), 128x128, grid_fd order 4",
                       "dt": workloads.FLOW_DT, "steps": workloads.FLOW_STEPS, **flow}

    closed = {(2, 2): math.pi / 4, (2, 3): math.asin(math.sqrt(1 / 3)), (2, 4): math.pi / 6,
              (2, "es4"): math.pi / 6, (3, 2): math.pi / 4}
    roots = workloads.outputs_latitude_scan(workloads.setup_latitude_scan(0, 0))
    for case, found in zip(workloads.LATITUDE_CASES, roots):
        if len(found) != 1 or abs(found[0] - closed[case]) > 1e-8:
            raise SystemExit(f"latitude roots {found} for {case} miss the closed form {closed[case]}")
    refs["latitude_scan"] = {"cases": [list(c) for c in workloads.LATITUDE_CASES], "roots": roots}

    for name, doc in refs.items():
        with open(os.path.join(workloads.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
