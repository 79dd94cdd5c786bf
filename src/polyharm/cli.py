"""Batch command-line front end.

One command per process: parse the JSON configuration, validate statically,
dispatch, and emit a deterministic columnar artifact.  Exit codes partition
the failure modes:

    0  success
    2  configuration error (includes unknown commands and failed validation)
    3  capability error
    4  chart-domain exit
    5  numerical-contract failure
    6  degenerate input

On failure a machine-readable JSON error record goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import reduction as red
from . import variational as va
from .config import COMMANDS, ExperimentConfig, build_domain, build_map, build_target, check, parse_exprs
from .errors import (CapabilityError, ChartDomainError, ConfigurationError, DegenerateInputError,
                     NumericalContractError, PolyharmError)
from .fields import tension
from .polytension import build_tower, es4_terms, tau_k
from .serialize import ResultArtifact

EXIT_CODES = {ConfigurationError: 2, CapabilityError: 3, ChartDomainError: 4, NumericalContractError: 5,
              DegenerateInputError: 6}


def _node_records(gmap, values: np.ndarray):
    """(node index, component, value) rows in C order."""
    flat = values.reshape(values.shape[0], -1)
    return [(idx, comp, flat[comp, idx]) for idx in range(flat.shape[1]) for comp in range(flat.shape[0])]


def _require_finite(records: list[tuple], summary: dict) -> None:
    """No artifact carries a non-finite number: a NaN or an infinity in a
    record or in the summary is a numerical-contract failure."""
    for rec in records:
        for v in rec:
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalContractError(f"non-finite value {v} in artifact record {rec}")
    for key, v in summary.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise NumericalContractError(f"non-finite value {v} in artifact summary {key!r}")


def run(cfg: ExperimentConfig) -> ResultArtifact:
    """Dispatch one validated configuration and build its artifact."""
    diags, typed = check(cfg)
    if diags:
        error = CapabilityError if all(d.startswith("capability:") for d in diags) else ConfigurationError
        raise error("; ".join(diags))
    start = time.monotonic()
    command, order = cfg.command, typed["order"]

    if command == "latitude-search":
        m = typed["latitude"]["m"]
        roots = va.find_k_harmonic_latitude(m, order)
        columns = ["index", "alpha", "reduction_value"]
        records = [(i, r, va.latitude_reduction(m, order, r)) for i, r in enumerate(roots)]
        summary = {"roots_found": len(roots)}
        if roots:
            summary["alpha_first"] = roots[0]
    else:
        dom = build_domain(cfg.domain)
        tgt = build_target(cfg.target)
        gmap = build_map(cfg, dom, tgt)
        if command == "tension":
            tau = tension(gmap)
            columns = ["node", "component", "value"]
            records = _node_records(gmap, tau.values)
            summary = {"max_abs_tension": tau.max_norm()}
        elif command == "tower":
            tower = build_tower(gmap, order, richardson=gmap.eval_mode == "grid_fd")
            columns = ["level", "node", "component", "value"]
            records = [(i,) + rec for i, sec in enumerate(tower.u)
                       for rec in _node_records(gmap, sec.values)]
            summary = {"levels": len(tower.u)}
            summary.update((f"sup_norm_level_{i}", float(np.max(np.abs(sec.values))))
                           for i, sec in enumerate(tower.u))
            if tower.richardson_error is not None:
                summary["richardson_error"] = tower.richardson_error
        elif command == "tau-k":
            sec = tau_k(gmap, order)
            columns = ["node", "component", "value"]
            records = _node_records(gmap, sec.values)
            summary = {"max_abs": sec.max_norm(), "order": order}
        elif command == "tau-es4":
            terms = es4_terms(gmap)
            # tau4_es(gmap) would run es4_terms a second time for the same field
            vals = tau_k(gmap, 4).values + terms.hat_tau4.values
            columns = ["node", "component", "value"]
            records = _node_records(gmap, vals)
            summary = {"max_abs": float(np.max(np.abs(vals))), "max_abs_hat": terms.hat_tau4.max_norm(),
                       "max_abs_xi1": terms.xi1.max_norm()}
        elif command == "energy":
            rep = va.energy_es4(gmap) if order == "es4" else va.energy_k(gmap, order)
            columns = ["order", "value"]
            records = [(str(rep.k), rep.value)]
            summary = {"energy": rep.value, "quadrature": rep.quadrature}
        elif command == "variation-check":
            var = dict(typed["variation"])
            disc = va.first_variation_check(gmap, parse_exprs(var.pop("exprs"), dom.coords), order, **var)
            columns = ["order", "discrepancy"]
            records = [(str(order), disc)]
            summary = {"discrepancy": disc}
        elif command == "reduce-residual":
            res = red.residual(gmap, order, cfg.kind)
            columns = ["node", "value"]
            records = [(i, v) for i, v in enumerate(res.reshape(-1))]
            summary = {"sup_residual": float(np.max(res))}
        elif command == "aronszajn":
            mask = red.window_mask(gmap.grid_shape, cfg.window) if cfg.window else None
            rep = red.aronszajn_ratio(gmap, order, cfg.kind, mask)
            columns = ["lemma", "sup_ratio", "masked_fraction", "grid_shape"]
            records = [("aronszajn", rep.ratio, rep.masked_fraction, "x".join(map(str, gmap.grid_shape)))]
            summary = {"sup_ratio": rep.ratio, "masked_fraction": rep.masked_fraction}
        elif command == "pair-bound":
            gmap2 = build_map(cfg, dom, tgt, "map2")
            rep = red.pair_difference_bound(gmap, gmap2, order)
            columns = ["lemma", "sup_ratio", "masked_fraction", "grid_shape"]
            shape = "x".join(map(str, gmap.grid_shape))
            records = [(name, r.ratio, r.masked_fraction, shape) for name, r in rep.as_records()]
            summary = {"full_ratio": rep.full.ratio}
        elif command == "equator-check":
            rep = red.equator_bound(gmap, order, cfg.window)
            columns = ["block", "max_on_window"]
            records = [(name, v) for name, v in sorted(rep.block_max_on_window.items())]
            summary = {"max_y_on_window": rep.max_on_window, "off_window_ratio": rep.off_window.ratio,
                       "off_window_masked_fraction": rep.off_window.masked_fraction}
        elif command == "flow":
            res = va.gradient_flow(gmap, order, **typed["flow"])
            columns = ["step", "energy", "tau_norm"]
            records = list(res.records)
            summary = {"final_energy": res.records[-1][1], "final_tau_norm": res.records[-1][2],
                       "dt_final": res.dt_final, "halvings": res.halvings}

    _require_finite(records, summary)
    wall = time.monotonic() - start
    return ResultArtifact(command, cfg.to_canonical_json(), __version__, columns, records,
                          summary, wall_time=wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyharm", description="higher-order tension fields, reduction witnesses and latitude searches")
    parser.add_argument("command", choices=list(COMMANDS) + ["validate"])
    parser.add_argument("--config", required=True, help="path to a JSON experiment configuration")
    parser.add_argument("--out", default=None, help="artifact output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.load(args.config)
        if args.command != "validate" and cfg.command != args.command:
            raise ConfigurationError(
                f"command line says {args.command!r} but the config says {cfg.command!r}")
        if args.command == "validate":
            diags = check(cfg)[0]
            for d in diags:
                print(d)
            return 0 if not diags else 2
        artifact = run(cfg)
    except PolyharmError as exc:
        code = EXIT_CODES.get(type(exc), 2)
        record = {"error_type": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code

    out_path = args.out or cfg.out
    if out_path:
        artifact.write(out_path)
        print(f"wrote {out_path} ({len(artifact.records)} records) in {artifact.wall_time:.3f}s",
              file=sys.stderr)
    else:
        sys.stdout.write(artifact.render())
        print(f"completed in {artifact.wall_time:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
