"""Outside-in tracer for the benchmark's traced runs.

The tracer wraps polyharm from outside: no library source knows about it.
Only a traced child imports this module, so untraced runs pay nothing.

* Every public function of the listed modules is wrapped, and the wrapper is
  bound wherever the function is bound: ``variational.tau_k`` and
  ``cli.tau_k`` get the same wrapper as ``polytension.tau_k``.
* Public methods, properties and cached properties of the listed classes are
  wrapped in the class.
* ``sympy.lambdify`` and ``numpy.einsum`` are replaced as module attributes,
  which is how polyharm looks them up; a lambdify span is named after the
  module that called it.
* The callables ``geometry.lambdify_tensor`` returns (the model evaluators on
  nodes) are wrapped as they are made.
* Inside ``MapEngine.tower`` the other engine methods record no span: the
  tower's helpers are part of the tower's own time.

A module or class that does not exist is recorded as missing, and a layer
metric that no installed wrapper feeds is reported absent, so removing or
renaming library code never crashes a traced run.

Spans are kept in memory as (id, parent, name, start, end); a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np
import sympy as sp

MODULES = ("geometry", "engine", "fields", "stencils", "polytension", "reduction",
           "variational", "config", "serialize", "cli")
CLASSES = (("geometry", "DomainModel"), ("geometry", "TargetModel"), ("engine", "MapEngine"),
           ("fields", "GridMap"), ("serialize", "ResultArtifact"), ("config", "ExperimentConfig"))

KERNELS = {"a_term_values", "tau_k_from_tower", "fk_literal_values", "covd_values",
           "curv_apply_num", "trace_R_sec_dphi", "trace_R_frame_sec", "trace_R_sec_frame"}
GRIDMAP_BUILD = {"from_exprs", "from_values", "replace_values", "resample", "mesh", "axes",
                 "periodic_values"}
NODE_EVAL = "geometry.node_eval"
ROOT = "bench.body"

# the self-time metrics; layer_of says which one a span counts toward
SELF_TIME = (
    "engine.tower_s", "engine.symbolic_s", "engine.eval_s", "codegen.lambdify_s",
    "geometry.model_build_s", "geometry.node_eval_s", "fields.gridmap_build_s",
    "fields.operator_s", "stencils.s", "polytension.tower_s", "polytension.tau_s",
    "polytension.kernel_s", "numpy.einsum_s", "reduction.witness_s",
    "variational.latitude_eval_s", "variational.energy_s", "serialize.render_s",
    "trace.unattributed_s",
)
# inclusive times of orchestration layers, whose self time is near zero
INCLUSIVE = {"variational.variation_check_s": "variational.first_variation_check",
             "cli.run_s": "cli.run"}
TOWER_LEVELS = 4


def layer_of(name: str) -> str:
    """The self-time metric a span's self time counts toward."""
    mod, _, rest = name.partition(".")
    leaf = name.rsplit(".", 1)[-1]
    if name == "engine.MapEngine.tower":
        return "engine.tower_s"
    if name in ("engine.MapEngine.eval_on", "fields.GridMap.eval_exprs"):
        return "engine.eval_s"
    if mod == "engine" or name == "fields.GridMap.engine":
        return "engine.symbolic_s"
    if mod == "sympy" or name == "geometry.lambdify_tensor":
        return "codegen.lambdify_s"
    if name == NODE_EVAL or leaf in ("check_chart", "chart_violations"):
        return "geometry.node_eval_s"
    if name in ("geometry.grid_axes", "geometry.grid_mesh"):
        return "fields.gridmap_build_s"
    if mod == "geometry":
        return "geometry.model_build_s"
    if rest.startswith("GridMap.") and leaf in GRIDMAP_BUILD:
        return "fields.gridmap_build_s"
    if mod == "fields":
        return "fields.operator_s"
    if mod == "stencils":
        return "stencils.s"
    if name == "polytension.build_tower":
        return "polytension.tower_s"
    if mod == "polytension":
        return "polytension.kernel_s" if leaf in KERNELS else "polytension.tau_s"
    if name == "numpy.einsum":
        return "numpy.einsum_s"
    if mod == "reduction":
        return "reduction.witness_s"
    if name == "variational.latitude_reduction":
        return "variational.latitude_eval_s"
    if name in ("variational.energy_k", "variational.energy_es4", "variational.integrate"):
        return "variational.energy_s"
    if name == "serialize.ResultArtifact.render":
        return "serialize.render_s"
    return "trace.unattributed_s"


def _rebind(modules, original, wrapper) -> None:
    """Bind ``wrapper`` wherever ``original`` is bound in ``modules``."""
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Spans and counters of one traced child; ``install`` patches polyharm."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack = [0]
        self._next = 1
        self._fold = 0
        self._origin = 0.0
        self.reset()

    def reset(self) -> None:
        """Drop what set-up recorded; the body starts from zero."""
        self.spans.clear()
        self.engines: list = []
        self.nodes = 0
        self.stencil_bytes = 0
        self.eval_hits = 0
        self.lambdify_calls = 0
        self.masked_nodes = 0.0
        self.witness_nodes = 0
        self.flow_accepted = 0
        self.flow_halvings = 0

    # -- spans ------------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, folds: bool = False):
        sid = self._next
        self._next = sid + 1
        stack = self._stack
        stack.append(sid)
        if folds:
            self._fold += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if folds:
                self._fold -= 1
            stack.pop()
            self.spans.append((sid, stack[-1], name, start, end))

    def wrap(self, name: str, fn, *, foldable: bool = False, folds: bool = False, after=None):
        tracer = self
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if foldable and tracer._fold:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, args, kwargs, folds)
            return after(args, kwargs, result) if after is not None else result

        traced.__perfbench_original__ = fn
        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"polyharm.{short}")
            except ImportError:
                self.missing.append(f"polyharm.{short}")
        bound = [m for name, m in sys.modules.items()
                 if name.startswith("polyharm") and isinstance(m, types.ModuleType)]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                _rebind(bound, obj, self.wrap(f"{short}.{attr}", obj, after=self._after_hook(f"{short}.{attr}", obj)))
        for short, cls_name in CLASSES:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is None:
                self.missing.append(f"{short}.{cls_name}")
                continue
            self._install_class(short, cls)
        self._install_external(bound)

    def _install_class(self, short: str, cls) -> None:
        prefix = f"{short}.{cls.__name__}"
        engine = prefix == "engine.MapEngine"
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and engine:
                setattr(cls, attr, self._counting_init(member))
                continue
            if attr == "__post_init__" and prefix == "fields.GridMap":
                setattr(cls, attr, self._counting_post_init(member))
                continue
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            kw = {"foldable": engine and attr != "tower", "folds": engine and attr == "tower"}
            if isinstance(member, functools.cached_property):
                member.func = self.wrap(name, member.func, **kw)
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, attr, property(self.wrap(name, member.fget, **kw), member.fset,
                                            member.fdel, member.__doc__))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__, **kw)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__, **kw)))
            elif isinstance(member, types.FunctionType):
                if attr == "eval_on" and engine:
                    setattr(cls, attr, self._eval_on(name, member))
                else:
                    setattr(cls, attr, self.wrap(name, member, **kw))

    def _install_external(self, bound) -> None:
        original_lambdify = sp.lambdify
        tracer = self

        @functools.wraps(original_lambdify)
        def lambdify(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?").rpartition(".")[2]
            tracer.lambdify_calls += 1
            return tracer.call(f"sympy.lambdify@{caller}", original_lambdify, args, kwargs)

        sp.lambdify = lambdify
        self.installed.add("sympy.lambdify")
        _rebind(bound, original_lambdify, lambdify)
        np.einsum = self.wrap("numpy.einsum", np.einsum)

    # -- hooks on particular functions ---------------------------------------------

    def _after_hook(self, name: str, fn):
        if name == "geometry.lambdify_tensor":
            return lambda args, kwargs, result: self.wrap(NODE_EVAL, result)
        if name in ("stencils.diff1", "stencils.diff2"):
            return self._stencil_bytes(name, fn)
        if name == "variational.gradient_flow":
            return self._flow_counts
        if name in ("reduction.aronszajn_ratio", "reduction.pair_difference_bound"):
            return self._masked_counts
        return None

    def _stencil_bytes(self, name: str, fn):
        """Computed bytes of a 1-D stencil: ``taps`` reads of the input and one
        write of the output, each the size of the input array."""
        stencils = sys.modules["polyharm.stencils"]
        width = getattr(stencils, "stencil_width", None)
        width = getattr(width, "__perfbench_original__", width)
        default_order = fn.__defaults__[-1] if fn.__defaults__ else 4
        second = name.endswith("diff2")

        def after(args, kwargs, result):
            if width is None:
                return result
            order = args[3] if len(args) > 3 else kwargs.get("order", default_order)
            taps = width(order) - (0 if second else 1)
            self.stencil_bytes += (taps + 1) * np.asarray(args[0]).nbytes
            return result

        return after

    def _flow_counts(self, args, kwargs, result):
        accepted = getattr(result, "accepted_steps", None)
        halvings = getattr(result, "halvings", None)
        if accepted is not None and halvings is not None:
            self.flow_accepted += int(accepted)
            self.flow_halvings += int(halvings)
        return result

    def _masked_counts(self, args, kwargs, result):
        reports = [rep for _, rep in result.as_records()] if hasattr(result, "as_records") else [result]
        for rep in reports:
            if hasattr(rep, "masked_fraction") and getattr(rep, "grid_shape", None):
                nodes = int(np.prod(rep.grid_shape))
                self.masked_nodes += float(rep.masked_fraction) * nodes
                self.witness_nodes += nodes
        return result

    def _counting_init(self, init):
        tracer = self

        @functools.wraps(init)
        def __init__(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            tracer.engines.append(engine)

        self.installed.add("engine.MapEngine.__init__")
        return __init__

    def _counting_post_init(self, post_init):
        tracer = self

        @functools.wraps(post_init)
        def __post_init__(gmap):
            post_init(gmap)
            tracer.nodes += int(np.prod(gmap.grid_shape))

        return __post_init__

    def _eval_on(self, name: str, fn):
        """eval_on with a lambdify cache hit counted when it made no lambdify call."""
        tracer = self
        self.installed.add(name)

        @functools.wraps(fn)
        def eval_on(*args, **kwargs):
            before = tracer.lambdify_calls
            result = tracer.call(name, fn, args, kwargs)
            tracer.eval_hits += tracer.lambdify_calls == before
            return result

        return eval_on

    # -- the traced body -------------------------------------------------------------

    def run_body(self, body, *args) -> float:
        """Run the workload body as the root span; returns its wall time."""
        self.reset()
        self._origin = time.perf_counter()
        self.call(ROOT, body, args, {})
        return self.spans[-1][4] - self.spans[-1][3]

    def tower_ops(self) -> list[int] | None:
        """Sum over the engines built of ``sp.count_ops`` per tower level."""
        if not all(hasattr(e, "_tower_u") for e in self.engines):
            return None
        ops = [0] * TOWER_LEVELS
        for eng in self.engines:
            for i, level in enumerate(eng._tower_u[:TOWER_LEVELS]):
                ops[i] += int(sum(sp.count_ops(e) for e in level))
        return ops

    def report(self, wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names of those that are absent."""
        dur = {}
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            dur[sid] = end - start
            child[parent] += end - start
        self_time = dict.fromkeys(SELF_TIME, 0.0)
        calls = defaultdict(int)
        inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        by_name = {v: k for k, v in INCLUSIVE.items()}
        for sid, parent, name, start, end in self.spans:
            self_time[layer_of(name)] += dur[sid] - child[sid]
            calls[name.split("@")[0]] += 1
            if name in by_name:
                inclusive[by_name[name]] += dur[sid]
        layer_calls = defaultdict(int)
        for name, n in calls.items():
            layer_calls[layer_of(name)] += n

        present = {layer_of(n) for n in self.installed} | {"trace.unattributed_s"}
        metrics: dict[str, float] = {}
        absent: list[str] = []

        def put(key, value, available=True):
            metrics[key] = float(value) if available else 0.0
            if not available:
                absent.append(key)

        for key in SELF_TIME:
            put(key, self_time[key], key in present)
        for key, span in INCLUSIVE.items():
            put(key, inclusive[key], span in self.installed)
        ops = self.tower_ops()
        for i in range(TOWER_LEVELS):
            put(f"engine.tower_ops.u{i}", ops[i] if ops else 0, ops is not None)
        engine_init = "engine.MapEngine.__init__" in self.installed
        eval_on = "engine.MapEngine.eval_on" in self.installed
        put("engine.engines_built", len(self.engines), engine_init)
        put("engine.eval_calls", calls["engine.MapEngine.eval_on"], eval_on)
        put("engine.lambdify_hit_ratio",
            self.eval_hits / calls["engine.MapEngine.eval_on"] if calls["engine.MapEngine.eval_on"] else 0.0,
            eval_on)
        put("codegen.lambdify_calls", self.lambdify_calls)
        put("geometry.node_eval_calls", calls[NODE_EVAL], "geometry.lambdify_tensor" in self.installed)
        put("fields.operator_calls", layer_calls["fields.operator_s"], "fields.operator_s" in present)
        put("fields.nodes", self.nodes, "fields.GridMap" not in self.missing)
        stencil_leaf = {"stencils.diff1", "stencils.diff2"} & self.installed
        put("stencils.calls", sum(calls[n] for n in stencil_leaf), bool(stencil_leaf))
        put("stencils.bytes_computed", self.stencil_bytes, bool(stencil_leaf))
        put("polytension.kernel_calls", layer_calls["polytension.kernel_s"], "polytension.kernel_s" in present)
        put("numpy.einsum_calls", calls["numpy.einsum"])
        witness = {"reduction.aronszajn_ratio", "reduction.pair_difference_bound"} & self.installed
        put("reduction.masked_fraction",
            self.masked_nodes / self.witness_nodes if self.witness_nodes else 0.0, bool(witness))
        put("variational.latitude_evals", calls["variational.latitude_reduction"],
            "variational.latitude_reduction" in self.installed)
        energy = {"variational.energy_k", "variational.energy_es4"} & self.installed
        put("variational.energy_calls", sum(calls[n] for n in energy), bool(energy))
        flow = "variational.gradient_flow" in self.installed
        attempted = self.flow_accepted + self.flow_halvings
        put("variational.flow_halvings", self.flow_halvings, flow)
        put("variational.flow_accept_ratio", self.flow_accepted / attempted if attempted else 0.0, flow)
        put("trace.wall_s", wall_s)
        put("trace.self_sum_s", sum(self_time.values()))
        put("trace.spans", len(self.spans))
        return metrics, absent

    def by_caller(self) -> dict[str, float]:
        """lambdify time per calling module, for the trace file."""
        out = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if name.startswith("sympy.lambdify@"):
                out[name.partition("@")[2]] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span of the body, times relative to its start."""
        names: dict[str, int] = {}
        rows = [[sid, parent, names.setdefault(name, len(names)), start - self._origin, end - self._origin]
                for sid, parent, name, start, end in self.spans]
        doc = {"run_id": self.run_id, "columns": ["id", "parent", "name", "start_s", "end_s"],
               "names": list(names), "spans": rows, "missing": self.missing}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
