"""Experiment configuration: schema, parsing, static validation, model building.

Configurations are JSON with an explicit ``schema_version``.  Parsing is
strict (unknown keys rejected) and the canonical emission is sorted-key JSON,
so ``parse -> emit -> parse`` is the identity and identical configurations
hash identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import sympy as sp

from . import geometry
from .errors import ConfigurationError
from .fields import GridMap
from .polytension import check_tower_resolution

SCHEMA_VERSION = 1

COMMANDS = ("tension", "tower", "tau-k", "tau-es4", "energy", "variation-check", "reduce-residual",
            "aronszajn", "pair-bound", "equator-check", "latitude-search", "flow")

@dataclass
class ExperimentConfig:
    command: str
    domain: dict | None = None
    target: dict | None = None
    map: dict | None = None
    map2: dict | None = None
    order: Any = None              # int or "es4"
    grid_shape: list[int] = field(default_factory=list)
    eval_mode: str = "analytic_jet"
    fd_order: int = 4
    window: list | None = None
    kind: str = "plain"
    latitude: dict | None = None
    flow: dict | None = None
    variation: dict | None = None
    out: str | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {raw.get('schema_version')}")
        if "command" not in raw:
            raise ConfigurationError("config needs a 'command'")
        return cls(**{k: v for k, v in raw.items()})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def to_canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# model building
# ---------------------------------------------------------------------------


def _user_metric(spec: dict, prefix: str):
    dim = int(spec["dim"])
    coords = tuple(sp.symbols(f"{prefix}1:{dim + 1}", real=True))
    return [parse_exprs(spec["metric"][i][:dim], coords) for i in range(dim)], coords


def parse_exprs(strings, coords):
    local = {str(c): c for c in coords}
    local["pi"] = sp.pi
    out = []
    for s in strings:
        try:
            e = sp.sympify(s, locals=local)
        except (sp.SympifyError, SyntaxError) as exc:
            raise ConfigurationError(f"cannot parse expression {s!r}: {exc}") from exc
        if isinstance(e, sp.Basic) and e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise ConfigurationError(f"expression {s!r} is not finite: it parses to {e}")
        out.append(e)
    return out


# the keys each builder reads of a nested block (per kind for domain and
# target) and ``cli.run`` of the others; validate rejects any other key
BLOCK_KEYS = {
    "domain": {"flat_torus": "dim period", "sphere_cap": "dim alpha",
               "user_metric": "dim metric lo hi periodic name"},
    "target": {"euclidean": "dim", "round_sphere_polar": "dim collar", "space_form": "dim curvature collar",
               "user_metric": "dim metric name jet_order"},
    "map": "exprs grid_file", "map2": "exprs grid_file", "flow": "dt steps", "variation": "exprs t",
    "latitude": "m order",
}


def build_domain(spec: dict) -> geometry.DomainModel:
    if not spec or "kind" not in spec:
        raise ConfigurationError("domain spec needs a 'kind'")
    kind = spec["kind"]
    if kind == "flat_torus":
        return geometry.flat_torus(int(spec["dim"]), spec.get("period", 2 * 3.141592653589793))
    if kind == "sphere_cap":
        return geometry.sphere_cap_domain(int(spec["dim"]), float(spec["alpha"]))
    if kind == "user_metric":
        metric, coords = _user_metric(spec, "x")
        box = geometry.ChartBox(
            lo=tuple(float(v) for v in spec.get("lo", [0.0] * len(coords))),
            hi=tuple(float(v) for v in spec.get("hi", [2 * 3.141592653589793] * len(coords))),
            periodic=bool(spec.get("periodic", True)),
        )
        return geometry.domain_from_metric(metric, coords, box, spec.get("name", "user_domain"))
    raise ConfigurationError(f"unknown domain kind {kind!r}")


def build_target(spec: dict) -> geometry.TargetModel:
    if not spec or "kind" not in spec:
        raise ConfigurationError("target spec needs a 'kind'")
    kind = spec["kind"]
    if kind == "euclidean":
        return geometry.euclidean(int(spec["dim"]))
    if kind == "round_sphere_polar":
        return geometry.round_sphere_polar(int(spec["dim"]), float(spec.get("collar", 1e-3)))
    if kind == "space_form":
        return geometry.space_form(int(spec["dim"]), float(spec["curvature"]),
                                   float(spec.get("collar", 1e-3)))
    if kind == "user_metric":
        metric, coords = _user_metric(spec, "y")
        return geometry.target_from_metric(metric, coords, spec.get("name", "user_target"),
                                           jet_order=int(spec.get("jet_order", 6)))
    raise ConfigurationError(f"unknown target kind {kind!r}")


def build_map(cfg: ExperimentConfig, dom, tgt, which: str = "map") -> GridMap:
    spec = getattr(cfg, which)
    if spec is None:
        raise ConfigurationError(f"command {cfg.command!r} needs a {which!r} spec")
    if "grid_file" in spec:
        from .serialize import load_gridmap

        return load_gridmap(spec["grid_file"], dom, tgt)
    if "exprs" not in spec:
        raise ConfigurationError(f"{which} spec needs 'exprs' or 'grid_file'")
    exprs = parse_exprs(spec["exprs"], dom.coords)
    if len(exprs) != tgt.dim:
        raise ConfigurationError(
            f"{which} has {len(exprs)} components but the target has dimension {tgt.dim}")
    if not cfg.grid_shape:
        raise ConfigurationError("config needs a nonempty grid_shape")
    return GridMap.from_exprs(dom, tgt, cfg.grid_shape, exprs,
                              eval_mode=cfg.eval_mode, fd_order=cfg.fd_order)


# ---------------------------------------------------------------------------
# static validation
# ---------------------------------------------------------------------------

_NEEDS_MAP = set(COMMANDS) - {"latitude-search"}
_NEEDS_ORDER = {"tower", "tau-k", "energy", "variation-check", "reduce-residual",
                "aronszajn", "pair-bound", "equator-check", "flow", "latitude-search"}
_INT_ORDER = {"tower", "tau-k", "reduce-residual", "aronszajn", "pair-bound", "equator-check"}


def tower_depth(command: str, k: int) -> int | None:
    """The tower depth above tau that ``command`` builds for order k ("es4":
    k = 4); None for a command that builds no tower."""
    if command == "energy":
        return k // 2 - 1
    if command in ("aronszajn", "pair-bound", "equator-check"):
        return k - 2
    return k - 1 if command in ("tower", "tau-k", "tau-es4", "reduce-residual", "flow") else None


def _unknown_keys(block: str, spec) -> list[str]:
    if not isinstance(spec, dict):
        return [f"{block} spec must be an object"]
    keys = BLOCK_KEYS[block]
    if isinstance(keys, dict):
        kind = spec.get("kind")
        if not (isinstance(kind, str) and kind in keys):
            return []  # the builder reports a missing or unknown kind
        keys = "kind " + keys[kind]
    unknown = set(spec) - set(keys.split())
    return [f"unknown {block} keys: {sorted(unknown)}"] if unknown else []


def validate(cfg: ExperimentConfig) -> list[str]:
    """Static diagnostics (no computation).  An empty list means runnable."""
    diags: list[str] = []
    if cfg.command not in COMMANDS:
        diags.append(f"unknown command {cfg.command!r}")
        return diags
    if cfg.eval_mode not in ("analytic_jet", "grid_fd"):
        diags.append(f"unknown eval_mode {cfg.eval_mode!r}")
    for block in BLOCK_KEYS:
        if getattr(cfg, block) is not None:
            diags += _unknown_keys(block, getattr(cfg, block))
    if cfg.command in _NEEDS_MAP:
        if cfg.map is None:
            diags.append(f"command {cfg.command!r} needs a map spec")
        if cfg.domain is None or cfg.target is None:
            diags.append(f"command {cfg.command!r} needs domain and target specs")
    order = cfg.order
    if cfg.command == "latitude-search" and isinstance(cfg.latitude, dict):
        order = cfg.latitude.get("order", order)
    if cfg.command in _NEEDS_ORDER and order is None:
        diags.append(f"command {cfg.command!r} needs an order")
    k_numeric = None
    if order == "es4" and cfg.command in _INT_ORDER:
        diags.append(f"command {cfg.command!r} needs an integer order, got 'es4'")
    elif order is not None and order != "es4":
        try:
            k_numeric = int(order)
        except (TypeError, ValueError):
            diags.append(f"order must be an integer or 'es4', got {order!r}")
    # capability diagnostics
    es4_requested = cfg.command == "tau-es4" or order == "es4"
    if es4_requested and cfg.target and cfg.target.get("kind") == "user_metric":
        if int(cfg.target.get("jet_order", 6)) < 2:
            diags.append("capability: ES-4 operations need target Christoffel jets of order >= 2 "
                         f"(configured jet_order={cfg.target.get('jet_order')})")
    if cfg.command == "variation-check" and cfg.eval_mode == "grid_fd":
        diags.append("capability: variation-check needs analytic_jet mode")
    # resolution policy, at the depth the command builds (a flow always runs on stencils)
    k = 4 if es4_requested else k_numeric
    depth = None if k is None else tower_depth(cfg.command, k)
    if depth is not None and cfg.grid_shape:
        try:
            check_tower_resolution("grid_fd" if cfg.command == "flow" else cfg.eval_mode, cfg.grid_shape, depth)
        except ConfigurationError as exc:
            diags.append(f"resolution policy: {exc}")
    # window bounds
    if cfg.window is not None and cfg.grid_shape:
        if len(cfg.window) != len(cfg.grid_shape):
            diags.append("window must give one index range per axis")
        else:
            for (lo, hi), nn in zip(cfg.window, cfg.grid_shape):
                if not (0 <= lo < hi <= nn):
                    diags.append(f"window range [{lo}, {hi}) outside axis of {nn} nodes")
    if cfg.command == "pair-bound" and cfg.map2 is None:
        diags.append("pair-bound needs a map2 spec")
    if cfg.command == "equator-check" and cfg.window is None:
        diags.append("equator-check needs a window")
    if cfg.command == "variation-check":
        t = cfg.variation.get("t", 1e-5) if isinstance(cfg.variation, dict) else None
        if not (cfg.variation and cfg.variation.get("exprs")):
            diags.append("variation-check needs variation exprs")
        elif not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
            diags.append(f"variation.t must be a finite number > 0, got {t!r}")
    if cfg.command == "flow" and not (cfg.flow and "dt" in cfg.flow and "steps" in cfg.flow):
        diags.append("flow needs flow.dt and flow.steps")
    if cfg.command == "latitude-search" and not (cfg.latitude and "m" in cfg.latitude):
        diags.append("latitude-search needs latitude.m (and latitude.order or order)")
    return diags
