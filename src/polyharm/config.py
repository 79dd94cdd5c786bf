"""Experiment configuration: schema, parsing, static validation, model building.

Configurations are JSON with an explicit ``schema_version``.  Parsing is
strict (unknown keys rejected) and the canonical emission is sorted-key JSON,
so ``parse -> emit -> parse`` is the identity and identical configurations
hash identically.  One schema (``COMMANDS``, ``TOP``, ``BLOCKS``) types every
key for ``validate``, the builders and ``cli.run``; it never rewrites a config.
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
from .reduction import KINDS
from .serialize import load_gridmap
from .stencils import SUPPORTED_ORDERS

SCHEMA_VERSION = 1


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
# the schema: a type is (what a value must be, a function that returns the
# typed value and raises TypeError or ValueError on any other value)
# ---------------------------------------------------------------------------


def _ok(cond, value):
    if not cond:
        raise ValueError
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


def _one_of(*values) -> tuple:
    return f"one of {list(values)}", lambda v: _ok(any(v == c and type(v) is type(c) for c in values), v)


COUNT = ("an integer >= 1", lambda v: _ok(_is_int(v) and v >= 1, v))
ORDER = ("an integer >= 1 or 'es4'", lambda v: _ok(v == "es4" or COUNT[1](v), v))
NUMBER = ("a finite number", lambda v: _ok(_is_num(v), float(v)))
POSITIVE = ("a finite number > 0", lambda v: _ok(_is_num(v) and v > 0, float(v)))
NUMBERS = ("a list of finite numbers", lambda v: _ok(isinstance(v, list), [NUMBER[1](x) for x in v]))
TEXT = ("a string", lambda v: _ok(isinstance(v, str), v))
FLAG = ("true or false", lambda v: _ok(isinstance(v, bool), v))
EXPRS = ("a list of expressions", lambda v: _ok(isinstance(v, list) and all(isinstance(e, str) or _is_num(e)
                                                                          for e in v), v))
METRIC = ("a square matrix of expressions",
          lambda v: _ok(isinstance(v, list) and all(len(EXPRS[1](r)) == len(v) for r in v), v))
SHAPE = ("a list of integers >= 1", lambda v: _ok(isinstance(v, list), [COUNT[1](n) for n in v]))
WINDOW = ("a list of [lo, hi] integer pairs",
          lambda v: _ok(isinstance(v, list) and all(isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
                                                    for p in v), v))


# per command: the keys it needs besides order, the type of its order ("es4"
# for tau-es4, None for none) and the tower depth above tau that it builds for
# order k (k = 4 for "es4"; None: no tower)
_MAPPED = ("domain", "target", "map")
COMMANDS = {
    "tension": (_MAPPED, None, None),
    "tower": (_MAPPED, COUNT, lambda k: k - 1),
    "tau-k": (_MAPPED, COUNT, lambda k: k - 1),
    "tau-es4": (_MAPPED, "es4", lambda k: k - 1),
    "energy": (_MAPPED, ORDER, lambda k: k // 2 - 1),
    "variation-check": (_MAPPED + ("variation",), ORDER, None),
    "reduce-residual": (_MAPPED, COUNT, lambda k: k - 1),
    "aronszajn": (_MAPPED, COUNT, lambda k: k - 2),
    "pair-bound": (_MAPPED + ("map2",), COUNT, lambda k: k - 2),
    "equator-check": (_MAPPED + ("window",), COUNT, lambda k: k - 2),
    "latitude-search": (("latitude",), ORDER, None),
    "flow": (_MAPPED + ("flow",), ORDER, lambda k: k - 1),
}

# each nested block (per kind for domain and target): (required keys, optional
# keys), each with its type; an absent optional key takes the default of the
# function the block is passed to
_METRIC_MODEL = {"dim": COUNT, "metric": METRIC}
_MAP = ({}, {"exprs": EXPRS, "grid_file": TEXT})
BLOCKS = {
    "domain": {"flat_torus": ({"dim": COUNT}, {"period": NUMBER}),
               "sphere_cap": ({"dim": COUNT, "alpha": NUMBER}, {}),
               "user_metric": (_METRIC_MODEL, {"lo": NUMBERS, "hi": NUMBERS, "periodic": FLAG, "name": TEXT})},
    "target": {"euclidean": ({"dim": COUNT}, {}),
               "round_sphere_polar": ({"dim": COUNT}, {"collar": NUMBER}),
               "space_form": ({"dim": COUNT, "curvature": NUMBER}, {"collar": NUMBER}),
               "user_metric": (_METRIC_MODEL, {"name": TEXT, "jet_order": COUNT})},
    "map": _MAP, "map2": _MAP,
    "flow": ({"dt": POSITIVE, "steps": COUNT}, {}),
    "variation": ({"exprs": EXPRS}, {"t": POSITIVE}),
    "latitude": ({"m": COUNT}, {"order": ORDER}),
}

# the top-level keys besides command and order; a block's type is ``typed``
TOP = {"grid_shape": SHAPE, "eval_mode": _one_of("analytic_jet", "grid_fd"), "fd_order": _one_of(*SUPPORTED_ORDERS),
       "window": WINDOW, "kind": _one_of(*KINDS), "out": TEXT,
       **{k: ("an object", lambda spec, k=k: typed(k, spec)) for k in BLOCKS}}


def _read(path: str, typ: tuple, value, diags: list[str]):
    try:
        return typ[1](value)
    except ConfigurationError as exc:  # a block names its own defects
        diags.append(str(exc))
    except (TypeError, ValueError, OverflowError):
        diags.append(f"{path} must be {typ[0]}, got {value!r}")


def typed(name: str, spec) -> dict:
    """The typed keys of a nested block, its ``kind`` included (an absent
    optional key stays absent); a ConfigurationError names every defect."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name} spec must be an object")
    rows, out, diags = BLOCKS[name], {}, []
    if isinstance(rows, dict):
        out["kind"] = kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in rows:
            raise ConfigurationError(f"{name} spec needs a 'kind'" if kind is None else f"unknown {name} kind {kind!r}")
        rows = rows[kind]
    required, optional = rows
    if unknown := set(spec) - set(out) - set(required) - set(optional):
        diags.append(f"unknown {name} keys: {sorted(unknown)}")
    if missing := set(required) - set(spec):
        diags.append(f"missing {name} keys: {sorted(missing)}")
    if rows is _MAP and ("exprs" in spec) == ("grid_file" in spec):
        diags.append(f"{name} spec needs one of 'exprs' and 'grid_file'")
    out.update((k, _read(f"{name}.{k}", t, spec[k], diags)) for k, t in {**required, **optional}.items() if k in spec)
    for k in ("metric", "lo", "hi"):
        if isinstance(out.get(k), list) and _is_int(out.get("dim")) and len(out[k]) != out["dim"]:
            diags.append(f"{name}.{k} needs one entry per coordinate ({out['dim']}), got {len(out[k])}")
    if diags:
        raise ConfigurationError("; ".join(diags))
    return out


# ---------------------------------------------------------------------------
# model building
# ---------------------------------------------------------------------------


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


def _metric_model(build, prefix: str, dim: int, metric, *args, **kwargs):
    coords = tuple(sp.symbols(f"{prefix}1:{dim + 1}", real=True))
    return build([parse_exprs(row, coords) for row in metric], coords, *args, **kwargs)


def _user_domain(dim, metric, lo=None, hi=None, periodic=True, **name) -> geometry.DomainModel:
    box = geometry.ChartBox(tuple(lo or [0.0] * dim), tuple(hi or [2 * math.pi] * dim), periodic)
    return _metric_model(geometry.domain_from_metric, "x", dim, metric, box, **name)


def build_domain(spec: dict) -> geometry.DomainModel:
    s = typed("domain", spec)
    return {"flat_torus": geometry.flat_torus, "user_metric": _user_domain,
            "sphere_cap": lambda dim, alpha: geometry.sphere_cap_domain(dim, alpha)}[s.pop("kind")](**s)


def build_target(spec: dict) -> geometry.TargetModel:
    s = typed("target", spec)
    return {"euclidean": geometry.euclidean, "round_sphere_polar": geometry.round_sphere_polar,
            "space_form": geometry.space_form,
            "user_metric": lambda **kw: _metric_model(geometry.target_from_metric, "y", **kw)}[s.pop("kind")](**s)


def build_map(cfg: ExperimentConfig, dom, tgt, which: str = "map") -> GridMap:
    s = typed(which, getattr(cfg, which))
    if "grid_file" in s:
        return load_gridmap(s["grid_file"], dom, tgt)
    return GridMap.from_exprs(dom, tgt, cfg.grid_shape, parse_exprs(s["exprs"], dom.coords),
                              eval_mode=cfg.eval_mode, fd_order=cfg.fd_order)


# ---------------------------------------------------------------------------
# static validation
# ---------------------------------------------------------------------------


def check(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    """Static diagnostics (no computation) and the typed value of every
    top-level key and block, with ``order`` the order the command reads."""
    if not isinstance(cfg.command, str) or cfg.command not in COMMANDS:
        return [f"unknown command {cfg.command!r}"], {}
    (needs, order_type, depth), diags = COMMANDS[cfg.command], []
    v = {k: None if getattr(cfg, k) is None else _read(k, t, getattr(cfg, k), diags) for k, t in TOP.items()}
    diags += [f"command {cfg.command!r} needs a {k!r} spec" for k in needs if getattr(cfg, k) is None]
    order = order_type
    if isinstance(order_type, tuple):
        raw = (v["latitude"] or {}).get("order", cfg.order) if cfg.command == "latitude-search" else cfg.order
        if raw is None:
            diags.append(f"command {cfg.command!r} needs an order")
        order = None if raw is None else _read("order", order_type, raw, diags)
    v["order"] = order
    tgt, grid = v["target"] or {}, v["grid_shape"]
    if v["domain"] and grid and len(grid) != v["domain"]["dim"]:
        diags.append(f"grid_shape has {len(grid)} axes but the domain has dimension {v['domain']['dim']}")
    for k in ("map", "map2", "variation"):
        s = v[k] or {}
        if tgt and "exprs" in s and len(s["exprs"]) != tgt["dim"]:
            diags.append(f"{k}.exprs has {len(s['exprs'])} components but the target has dimension {tgt['dim']}")
    if "exprs" in (v["map"] or {}) and not cfg.grid_shape:
        diags.append("config needs a nonempty grid_shape")
    # capability diagnostics
    if order == "es4" and tgt.get("jet_order", geometry.DEFAULT_JET_ORDER) < 2:  # user_metric targets only
        diags.append("capability: ES-4 operations need target Christoffel jets of order >= 2 "
                     f"(configured jet_order={tgt['jet_order']})")
    if cfg.command == "variation-check" and cfg.eval_mode == "grid_fd":
        diags.append("capability: variation-check needs analytic_jet mode")
    # resolution policy, at the depth the command builds (a flow always runs on stencils)
    if order is not None and depth is not None and grid:
        try:
            check_tower_resolution("grid_fd" if cfg.command == "flow" else cfg.eval_mode, grid,
                                   depth(4 if order == "es4" else order))
        except ConfigurationError as exc:
            diags.append(f"resolution policy: {exc}")
    # window bounds
    if v["window"] is not None and grid:
        if len(v["window"]) != len(grid):
            diags.append("window must give one index range per axis")
        diags += [f"window range [{lo}, {hi}) outside axis of {nn} nodes"
                  for (lo, hi), nn in zip(v["window"], grid) if not 0 <= lo < hi <= nn]
    return diags, v


def validate(cfg: ExperimentConfig) -> list[str]:
    """Static diagnostics (no computation).  An empty list means runnable."""
    return check(cfg)[0]
