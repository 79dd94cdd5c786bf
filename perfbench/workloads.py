"""The four benchmark workloads: inputs, timed body and correctness checks.

Each workload is a pair of functions:

* ``setup(seed, index)`` builds the inputs.  It runs before the timed
  region; its cost is part of ``setup_s``.
* ``body(inputs, checks)`` does the timed work through the public functions
  of polyharm and records every correctness check in ``checks``.

Only ``jet_many_maps`` draws its inputs from the seed; the other three
workloads run fixed inputs whatever the seed, so their figures compare
across seeds.  ``index`` numbers the child processes of one run, so
successive children of ``jet_many_maps`` see different maps.

``outputs_<name>`` functions return the values the references hold;
``make_reference.py`` writes them from the current code.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
import sympy as sp

from polyharm import cli, config, fields, polytension, reduction, variational

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# jet_many_maps: maps per child process and their grid
MANY_MAPS_PER_CHILD = 3
MANY_MAPS_GRID = (16, 16)

# fd_flow: biharmonic flow from a start dt above the stability limit
FLOW_GRID = (128, 128)
FLOW_DT = 1e-6
FLOW_STEPS = 100

# the criterion-4 golden set of the latitude search
LATITUDE_CASES = [(2, 2), (2, 3), (2, 4), (2, "es4"), (3, 2)]


class Checks:
    """Correctness checks of one child, each kept as (name, measured, tolerance).

    A check passes when ``measured`` is finite and at most ``tolerance``;
    ``positive`` checks pass when ``measured`` is finite and above zero, and
    carry the tolerance ``"finite>0"``.  ``operations`` counts the calls into
    polyharm the body made, so that ``attempted`` covers work and checks.
    """

    def __init__(self):
        self.records: list[tuple[str, float, object, bool]] = []
        self.operations = 0

    def within(self, name: str, measured: float, tolerance: float) -> None:
        measured = float(measured)
        self.records.append((name, measured, tolerance, math.isfinite(measured) and measured <= tolerance))

    def positive(self, name: str, measured: float) -> None:
        measured = float(measured)
        self.records.append((name, measured, "finite>0", math.isfinite(measured) and measured > 0.0))

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[3])

    @property
    def attempted(self) -> int:
        return len(self.records) + self.operations


def prepare(name: str, seed: int, index: int) -> dict:
    """The inputs of one child: the workload's set-up plus its reference
    outputs (under ``"ref"``), where the workload has them."""
    setup, _ = WORKLOADS[name]
    inputs = setup(seed, index)
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if os.path.exists(path):
        with open(path) as fh:
            inputs["ref"] = json.load(fh)
    return inputs


def _sup(a) -> float:
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# jet_tau4: the deep symbolic tower on the tau4_circle_sphere map
# ---------------------------------------------------------------------------


def setup_jet_tau4(seed: int, index: int) -> dict:
    dom = config.build_domain({"kind": "flat_torus", "dim": 1})
    tgt = config.build_target({"kind": "round_sphere_polar", "dim": 2, "collar": 0.001})
    x1 = dom.coords[0]
    gm = fields.GridMap.from_exprs(dom, tgt, (64,), (x1, sp.pi / 2 + 2 * sp.sin(x1) / 5),
                                   eval_mode="analytic_jet")
    return {"gm": gm}


def outputs_jet_tau4(inputs: dict) -> tuple[np.ndarray, np.ndarray]:
    gm = inputs["gm"]
    return polytension.tau_k(gm, 4).values, polytension.tau4_explicit(gm).values


def body_jet_tau4(inputs: dict, checks: Checks) -> None:
    tau4, literal = outputs_jet_tau4(inputs)
    checks.operations += 2
    ref = np.asarray(inputs["ref"]["tau4"])
    checks.within("tau4_two_route_gap", _sup(tau4 - literal), 1e-9)
    checks.within("tau4_vs_reference_rel", _sup(tau4 - ref) / max(1.0, _sup(ref)), 1e-9)


# ---------------------------------------------------------------------------
# jet_many_maps: many shallow symbolic builds on small torus -> S^2 maps
# ---------------------------------------------------------------------------


def many_maps_params(seed: int, index: int) -> list[tuple[float, float, float, float]]:
    """(a1, a2, p1, p2) per map, drawn as in the criterion-9 map family."""
    rng = np.random.default_rng([seed, index])
    out = []
    for _ in range(MANY_MAPS_PER_CHILD):
        a1, a2 = rng.uniform(-0.25, 0.25, 2)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        out.append((float(a1), float(a2), float(p1), float(p2)))
    return out


def setup_jet_many_maps(seed: int, index: int) -> dict:
    dom = config.build_domain({"kind": "flat_torus", "dim": 2})
    tgt = config.build_target({"kind": "round_sphere_polar", "dim": 2})
    x1, x2 = dom.coords
    maps = [(x1 + sp.Float(a1) * sp.sin(x2 + sp.Float(p1)), sp.pi / 2 + sp.Float(a2) * sp.cos(x1 + sp.Float(p2)))
            for a1, a2, p1, p2 in many_maps_params(seed, index)]
    variation = (sp.sin(x1 + x2 / 2), sp.cos(x2 + sp.Rational(1, 10)) / 4)
    return {"dom": dom, "tgt": tgt, "maps": maps, "variation": variation}


def body_jet_many_maps(inputs: dict, checks: Checks) -> None:
    dom, tgt = inputs["dom"], inputs["tgt"]
    for exprs in inputs["maps"]:
        gm = fields.GridMap.from_exprs(dom, tgt, MANY_MAPS_GRID, exprs)
        bitension = polytension.tau_even(gm, 1).values
        reference = polytension.bitension_reference(gm).values
        weitzenbock = fields.weitzenbock_residual(gm)
        variation = variational.first_variation_check(gm, inputs["variation"], 2)
        witness = reduction.aronszajn_ratio(gm, 3).ratio
        checks.operations += 6
        checks.within("bitension_gap", _sup(bitension - reference), 1e-9)
        checks.within("weitzenbock_residual", _sup(weitzenbock), 1e-6)
        checks.within("variation_discrepancy", variation, 1e-4)
        checks.positive("aronszajn_ratio", witness)


# ---------------------------------------------------------------------------
# fd_flow: the grid_fd path, biharmonic gradient flow plus witnesses
# ---------------------------------------------------------------------------


def setup_fd_flow(seed: int, index: int) -> dict:
    dom = config.build_domain({"kind": "flat_torus", "dim": 2})
    tgt = config.build_target({"kind": "round_sphere_polar", "dim": 2})
    x1, x2 = dom.coords
    gm = fields.GridMap.from_exprs(dom, tgt, FLOW_GRID,
                                   (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4),
                                   eval_mode="grid_fd", fd_order=4)
    return {"gm": gm}


def outputs_fd_flow(inputs: dict) -> dict:
    initial = inputs["gm"]
    flow = variational.gradient_flow(initial, 2, FLOW_DT, FLOW_STEPS)
    final = flow.final_map
    aronszajn = reduction.aronszajn_ratio(final, 3)
    pair = reduction.pair_difference_bound(initial, final, 3)
    return {
        "energies": flow.energies,
        "halvings": flow.halvings,
        "witnesses": {"aronszajn": aronszajn.ratio,
                      **{f"pair.{name}": rep.ratio for name, rep in pair.as_records()}},
    }


def body_fd_flow(inputs: dict, checks: Checks) -> None:
    out = outputs_fd_flow(inputs)
    checks.operations += 3
    ref = inputs["ref"]
    got = np.asarray(out["energies"])
    want = np.asarray(ref["energies"])
    if got.shape != want.shape:
        checks.within("energy_trajectory_length", abs(got.size - want.size), 0)
    else:
        checks.within("energy_trajectory_rel", float(np.max(np.abs(got - want) / np.abs(want))), 1e-9)
    for name in ref["witnesses"]:
        checks.positive(f"witness.{name}", out["witnesses"].get(name, float("nan")))


# ---------------------------------------------------------------------------
# latitude_scan: the criterion-4 latitude searches through the CLI
# ---------------------------------------------------------------------------


def setup_latitude_scan(seed: int, index: int) -> dict:
    cfgs = [config.ExperimentConfig.from_dict(
        {"schema_version": 1, "command": "latitude-search", "latitude": {"m": m, "order": order}})
        for m, order in LATITUDE_CASES]
    return {"cfgs": cfgs}


def outputs_latitude_scan(inputs: dict) -> list[list[float]]:
    roots = []
    for cfg in inputs["cfgs"]:
        artifact = cli.run(cfg)
        artifact.render()
        roots.append([float(rec[1]) for rec in artifact.records])
    return roots


def body_latitude_scan(inputs: dict, checks: Checks) -> None:
    found = outputs_latitude_scan(inputs)
    checks.operations += len(found)
    for (m, order), roots, golden in zip(LATITUDE_CASES, found, inputs["ref"]["roots"]):
        name = f"root.m{m}.{order}"
        if len(roots) != len(golden):
            checks.within(f"{name}.count", abs(len(roots) - len(golden)), 0)
            continue
        checks.within(name, max((abs(r - g) for r, g in zip(roots, golden)), default=0.0), 1e-8)


WORKLOADS = {
    "jet_tau4": (setup_jet_tau4, body_jet_tau4),
    "jet_many_maps": (setup_jet_many_maps, body_jet_many_maps),
    "fd_flow": (setup_fd_flow, body_fd_flow),
    "latitude_scan": (setup_latitude_scan, body_latitude_scan),
}
