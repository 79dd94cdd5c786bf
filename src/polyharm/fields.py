"""Discretized maps, pullback-bundle sections and first-order operators.

A :class:`GridMap` stores the chart expression of a map on a periodic grid
(the grid is plain sample points in ``analytic_jet`` mode, the actual
unknown in ``grid_fd`` mode).  Components may wind around periodic target
directions; the linear winding part is stored separately so stencils only
ever touch periodic data.

The two evaluation modes differ only in the derivative primitives
(``section_partials``, ``section_laplacians``, ``dphi_values``,
``map_second_partials``, ``map_laplacian`` and the partials of lap phi and
of the second fundamental form): ``analytic_jet`` differentiates closed forms
and evaluates them on the grid, ``grid_fd`` applies stencils.  Every operator
above them has one body over the node-wise kernels; only ``tension`` keeps
its closed form in ``analytic_jet`` mode, because the tower differentiates
it again.  On the engine's sympy leaves the kernels build the other closed
forms differentiated again (the second fundamental form, Omega_0).

Every operation is node-wise (up to a stencil halo).  What does not change
is evaluated once and kept read-only: a :class:`GridPlan` holds the domain
data of one grid (``grid_plan`` caches one per domain and grid shape), and
each map keeps dphi, lap phi, Gamma at phi, tau and the arrays of its
deepest tension tower (``polytension.build_tower``) on its instance, as it
keeps ``periodic_values``.  Every other result is a fresh container.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import sympy as sp

from . import stencils
from .engine import MapEngine
from .errors import CapabilityError, ConfigurationError
from .geometry import DomainModel, TargetModel, _map_nested, lambdify_tensor

__all__ = [
    "GridMap",
    "GridPlan",
    "grid_plan",
    "BundleSection",
    "VGrid",
    "differential",
    "second_fundamental_form",
    "tension",
    "target_christoffel",
    "covariant_derivative",
    "rough_laplacian",
    "codifferential",
    "weitzenbock_residual",
]


@dataclass
class GridMap:
    """A map between chart models sampled on a structured grid.

    ``values`` has shape ``(n,) + grid_shape``.  In ``analytic_jet`` mode the
    closed-form expressions in ``exprs`` are authoritative and all derivatives
    are symbolic; in ``grid_fd`` mode derivatives come from periodic centered
    stencils of order ``fd_order`` applied to ``values`` minus the winding.
    ``winding[a][i]`` is the slope of the non-periodic linear part of
    component ``a`` along axis ``i``.  ``values`` is a read-only private copy,
    so no write can leave the per-map memo or ``periodic_values`` stale.
    """

    dom: DomainModel
    tgt: TargetModel
    grid_shape: tuple[int, ...]
    values: np.ndarray
    eval_mode: str = "analytic_jet"
    exprs: tuple | None = None
    winding: np.ndarray | None = None
    fd_order: int = 4

    def __post_init__(self):
        self.grid_shape = tuple(int(s) for s in self.grid_shape)
        self.values = _read_only(np.array(self.values, dtype=float))
        if self.values.shape != (self.tgt.dim,) + self.grid_shape:
            raise ConfigurationError(
                f"values shape {self.values.shape} != {(self.tgt.dim,) + self.grid_shape}"
            )
        if self.eval_mode not in ("analytic_jet", "grid_fd"):
            raise ConfigurationError(f"unknown eval_mode {self.eval_mode!r}")
        if self.eval_mode == "analytic_jet" and self.exprs is None:
            raise ConfigurationError("analytic_jet mode needs closed-form map expressions")
        if self.winding is None:
            self.winding = np.zeros((self.tgt.dim, self.dom.dim))
        self.winding = np.asarray(self.winding, dtype=float)
        self.tgt.check_chart(self.values, what="grid map")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_exprs(cls, dom: DomainModel, tgt: TargetModel, grid_shape: Sequence[int], exprs,
                   eval_mode: str = "analytic_jet", winding=None, fd_order: int = 4) -> "GridMap":
        grid_shape = tuple(int(s) for s in grid_shape)
        exprs = tuple(sp.sympify(e) for e in exprs)
        values = lambdify_tensor(dom.coords, exprs)(*_mesh(dom, grid_shape))
        if winding is None and dom.chart.periodic:
            winding = _detect_winding(dom, exprs)
        return cls(dom, tgt, grid_shape, values, eval_mode, exprs if eval_mode == "analytic_jet" else None,
                   winding, fd_order)

    @classmethod
    def from_values(cls, dom: DomainModel, tgt: TargetModel, values, winding=None, fd_order: int = 4) -> "GridMap":
        values = np.asarray(values, dtype=float)
        return cls(dom, tgt, values.shape[1:], values, "grid_fd", None, winding, fd_order)

    # -- geometry of the grid ---------------------------------------------------

    @functools.cached_property
    def plan(self) -> "GridPlan":
        """The domain data of this map's grid, shared by every map on it."""
        return grid_plan(self.dom, self.grid_shape)

    @property
    def mesh(self):
        return self.plan.mesh

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for lo, hi, n in zip(self.dom.chart.lo, self.dom.chart.hi, self.grid_shape))

    @functools.cached_property
    def engine(self) -> MapEngine:
        if self.eval_mode != "analytic_jet":
            raise CapabilityError("symbolic engine is only available in analytic_jet mode")
        return MapEngine(self.dom, self.tgt, self.exprs)

    @property
    def is_periodic(self) -> bool:
        return self.dom.chart.periodic

    @functools.cached_property
    def periodic_values(self) -> np.ndarray:
        """Stored values minus the linear winding part (read-only)."""
        out = self.values.copy()
        for a in range(self.tgt.dim):
            for i in range(self.dom.dim):
                if self.winding[a, i] != 0.0:
                    out[a] -= self.winding[a, i] * self.mesh[i]
        return _read_only(out)

    def eval_exprs(self, exprs) -> np.ndarray:
        """Evaluate nested symbolic expressions on this map's grid."""
        return self.engine.eval_on(exprs, self.mesh)

    def replace_values(self, values: np.ndarray) -> "GridMap":
        """A new grid_fd map with the same charts and updated node values
        (the grid may be a subsample)."""
        return GridMap.from_values(self.dom, self.tgt, values, self.winding.copy(), self.fd_order)

    def resample(self, grid_shape: Sequence[int]) -> "GridMap":
        """The same closed-form map on a different grid; analytic maps share
        this map's symbolic engine, so refinement studies reuse every cached
        expression."""
        if self.exprs is None:
            raise CapabilityError("resample needs a closed-form map")
        new = GridMap.from_exprs(self.dom, self.tgt, grid_shape, self.exprs,
                                 self.eval_mode, self.winding.copy(), self.fd_order)
        if self.eval_mode == "analytic_jet":
            new.__dict__["engine"] = self.engine
        return new

    def require_fd_grid(self) -> None:
        if not self.is_periodic:
            raise ConfigurationError(
                f"domain '{self.dom.name}' is a non-periodic box chart; stencil "
                "differentiation needs a torus grid (use analytic_jet mode)"
            )
        stencils.check_resolution(self.grid_shape, self.fd_order)


def _mesh(dom: DomainModel, shape):
    return np.meshgrid(*dom.axes(shape), indexing="ij")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GridPlan:
    """The domain data on the nodes of one grid, each array evaluated on
    first use and read-only: the mesh, g^{-1}, the domain Christoffels
    Gamma^k_{ij}, the Laplace coefficients g^{ij} Gamma^k_{ij}, the Ricci
    tensor, the jets of g^{-1} and Gamma, and the torus volume weights.  A
    flow never changes its domain grid, so all its maps share one plan."""

    dom: DomainModel
    grid_shape: tuple[int, ...]

    @functools.cached_property
    def mesh(self):
        return tuple(_read_only(x) for x in _mesh(self.dom, self.grid_shape))

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        return _read_only(self.dom.metric_inv(*self.mesh))

    @functools.cached_property
    def christoffel(self) -> np.ndarray:
        return _read_only(self.dom.christoffel(*self.mesh))

    @functools.cached_property
    def laplace_coefs(self) -> np.ndarray:
        """g^{ij} Gamma^k_{ij}, the first-order coefficients of the
        Laplace-Beltrami operator: shape (m,) + grid."""
        return _read_only(np.stack([np.einsum("ij...,ij...->...", self.ginv, self.christoffel[k])
                                    for k in range(self.dom.dim)]))

    @functools.cached_property
    def ricci(self) -> np.ndarray:
        return _read_only(self.dom.ricci(*self.mesh))

    @functools.cached_property
    def ginv_jet(self) -> np.ndarray:
        """d g^{kj} / dx^i: shape (m, m, m) + grid."""
        return _read_only(self.dom.metric_inv_jet(*self.mesh))

    @functools.cached_property
    def christoffel_jet(self) -> np.ndarray:
        """d Gamma^p_{lj} / dx^i: shape (m, m, m, m) + grid."""
        return _read_only(self.dom.christoffel_jet(*self.mesh))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """sqrt(det g) times the cell volume at the nodes of a periodic grid."""
        dom, grid_shape = self.dom, self.grid_shape
        g = dom.metric(*self.mesh)
        gmat = np.moveaxis(g.reshape((dom.dim, dom.dim, -1)), -1, 0)
        det = np.linalg.det(gmat).reshape(grid_shape)
        cell = float(np.prod([(hi - lo) / n for lo, hi, n in zip(dom.chart.lo, dom.chart.hi, grid_shape)]))
        return _read_only(np.sqrt(det) * cell)


@functools.lru_cache(maxsize=8)
def grid_plan(dom: DomainModel, grid_shape: tuple[int, ...]) -> GridPlan:
    """The one plan of a (domain, grid shape) pair; the eight most recently
    used pairs are kept, and a map keeps the plan it first read."""
    return GridPlan(dom, grid_shape)


def _per_map(compute):
    """Run ``compute(gmap)`` once per map and keep its array read-only on the
    instance: the operators read dphi, lap phi, Gamma at phi and tau many
    times on a map whose values never change."""
    slot = "_memo_" + compute.__name__

    @functools.wraps(compute)
    def memoised(gmap: "GridMap") -> np.ndarray:
        memo = gmap.__dict__
        if slot not in memo:
            memo[slot] = _read_only(compute(gmap))
        return memo[slot]

    return memoised


# chart-coordinate offsets of the winding probes from the first probe point
WINDING_PROBE_OFFSETS = (0.0, 0.7, 1.4, 2.1)


def _exact_period(L: float):
    """The chart period as an exact sympy number when one rounds back to the
    float ``L`` (2*pi for the float 6.283185307179586), else ``L`` itself.
    Shifting by the exact period lets sympy reduce sin(x + c + 2*pi) to
    sin(x + c), so a periodic component has a shift difference of exactly 0
    instead of float junk near 1e-17."""
    exact = sp.nsimplify(L, [sp.pi])
    return exact if float(exact) == L else L


def _detect_winding(dom: DomainModel, exprs) -> np.ndarray:
    """Per-axis slope (phi(x + L e_i) - phi(x)) / L of each component.  A
    shift difference that sympy does not reduce to 0 is read at every probe
    point and must agree there to 1e-9 relative, or the map is rejected: a
    non-constant difference is not a winding, so the expressions do not
    define a map on the torus."""
    n, m = len(exprs), dom.dim
    out = np.zeros((n, m))
    probes = [{c: 0.1 + 0.05 * k + off for k, c in enumerate(dom.coords)} for off in WINDING_PROBE_OFFSETS]
    periods = [hi - lo for lo, hi in zip(dom.chart.lo, dom.chart.hi)]
    shifts = [_exact_period(L) for L in periods]
    for a, e in enumerate(exprs):
        for i, c in enumerate(dom.coords):
            diff = e.subs(c, c + shifts[i]) - e
            if diff == 0:
                continue
            seen = [float(diff.subs(p)) for p in probes]
            if not max(seen) - min(seen) <= 1e-9 * max(1.0, max(map(abs, seen))):
                raise ConfigurationError(
                    f"map component {a} has no constant winding along axis {i}: its shift by the "
                    f"period {periods[i]:.6g} reads {', '.join(f'{v:.6g}' for v in seen)} at the probe points")
            out[a, i] = seen[0] / periods[i]
    return out


@dataclass
class BundleSection:
    """Grid of fibers of the pullback bundle: shape (n,) + grid_shape."""

    base: GridMap
    values: np.ndarray
    exprs: list | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.base.tgt.dim,) + self.base.grid_shape
        if self.values.shape != expected:
            raise ConfigurationError(f"section shape {self.values.shape} != {expected}")

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __sub__(self, other: "BundleSection") -> "BundleSection":
        exprs = None
        if self.exprs is not None and other.exprs is not None:
            exprs = [p - q for p, q in zip(self.exprs, other.exprs)]
        return BundleSection(self.base, self.values - other.values, exprs)


@dataclass
class VGrid:
    """First partials of a section's components, or the map's differential
    dphi^a_i: shape (n, m) + grid_shape."""

    base: GridMap
    values: np.ndarray
    exprs: list | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# stencil building blocks (grid_fd path)
# ---------------------------------------------------------------------------


def grid_partials(gmap: GridMap, arr: np.ndarray) -> np.ndarray:
    """First partials of every component of a periodic array: shape
    ``F + grid`` to ``F + (m,) + grid``."""
    gmap.require_fd_grid()
    lead = arr.ndim - gmap.dom.dim
    out = np.empty(arr.shape[:lead] + (gmap.dom.dim,) + arr.shape[lead:])
    for i, h in enumerate(gmap.spacings):
        out[(Ellipsis, i) + (slice(None),) * gmap.dom.dim] = stencils.diff1(arr, lead + i, h, gmap.fd_order)
    return out


def grid_laplacians(gmap: GridMap, arr: np.ndarray, slope: np.ndarray | None = None) -> np.ndarray:
    """Domain Laplace-Beltrami (geometer's sign) of every component of a
    periodic array of shape ``F + grid``; g^{-1} and the first-order
    coefficients g^{ij} Gamma^k_{ij} come from the grid's plan.
    ``slope`` (shape ``F + (m,)``) adds the Laplacian of a linear part with
    those constant partials, which only the first-order term sees."""
    gmap.require_fd_grid()
    hs = gmap.spacings
    m = gmap.dom.dim
    lead = arr.ndim - m
    ginv = gmap.plan.ginv
    coefs = gmap.plan.laplace_coefs
    out = np.zeros_like(arr)
    for i in range(m):
        for j in range(m):
            gij = ginv[i, j]
            if np.all(gij == 0):
                continue
            out -= gij * stencils.partial2(arr, lead + i, lead + j, hs[i], hs[j], gmap.fd_order)
    for k, coef in enumerate(coefs):
        if np.any(coef != 0):
            out += coef * stencils.diff1(arr, lead + k, hs[k], gmap.fd_order)
    if slope is not None and np.any(slope != 0.0):
        for k, coef in enumerate(coefs):
            if np.any(coef != 0):
                out += coef * slope[..., k][(...,) + (None,) * m]
    return out


# ---------------------------------------------------------------------------
# derivative primitives: the only place where the two modes differ
# (analytic_jet differentiates closed forms, grid_fd applies stencils)
# ---------------------------------------------------------------------------


def _require_exprs(exprs, what: str):
    if exprs is None:
        raise CapabilityError(f"{what} of an analytic_jet section needs its closed-form expressions")
    return exprs


def section_partials(gmap: GridMap, values: np.ndarray, exprs=None) -> np.ndarray:
    """First partials of every component of a section: shape ``F + grid``
    to ``F + (m,) + grid``.  analytic_jet differentiates the nested
    closed-form ``exprs`` (required); grid_fd applies stencils to ``values``."""
    if gmap.eval_mode == "analytic_jet":
        xs = gmap.engine.xs
        return gmap.eval_exprs(_map_nested(lambda e: [sp.diff(e, x) for x in xs],
                                           _require_exprs(exprs, "partials")))
    return grid_partials(gmap, values)


def section_laplacians(gmap: GridMap, values: np.ndarray, exprs=None) -> np.ndarray:
    """Domain Laplace-Beltrami of every component of a section, shape
    ``F + grid``; closed forms in analytic_jet mode, stencils in grid_fd."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(_map_nested(gmap.engine.lap, _require_exprs(exprs, "Laplacian")))
    return grid_laplacians(gmap, values)


@_per_map
def dphi_values(gmap: GridMap) -> np.ndarray:
    """dphi^a_i per node: shape (n, m) + grid (read-only, once per map)."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.dphi)
    return map_partials(gmap)


def differential(gmap: GridMap) -> VGrid:
    """dphi per node, with its closed form in analytic_jet mode."""
    exprs = gmap.engine.dphi if gmap.eval_mode == "analytic_jet" else None
    return VGrid(gmap, dphi_values(gmap), exprs=exprs)


def map_partials(gmap: GridMap) -> np.ndarray:
    """Stencil dphi^a_i including the winding slope: shape (n, m) + grid."""
    return grid_partials(gmap, gmap.periodic_values) + gmap.winding[(...,) + (None,) * gmap.dom.dim]


def map_second_partials(gmap: GridMap) -> np.ndarray:
    """d2 phi^a_{ij}: shape (n, m, m) + grid; the winding part is linear and
    drops out of the stencils."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.d2phi)
    n, m = gmap.tgt.dim, gmap.dom.dim
    per = gmap.periodic_values
    hs = gmap.spacings
    out = np.empty((n, m, m) + gmap.grid_shape)
    for a in range(n):
        for i in range(m):
            for j in range(i, m):
                d = stencils.partial2(per[a], i, j, hs[i], hs[j], gmap.fd_order)
                out[a, i, j] = d
                out[a, j, i] = d
    return out


@_per_map
def map_laplacian(gmap: GridMap) -> np.ndarray:
    """lap phi^a: shape (n,) + grid (read-only, once per map); on stencils
    the winding contributes only through the first-order term."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.lap_phi)
    return grid_laplacians(gmap, gmap.periodic_values, gmap.winding)


def map_laplacian_partials(gmap: GridMap, lap_phi: np.ndarray) -> np.ndarray:
    """d_i lap phi^a: shape (n, m) + grid; the closed-form lap phi in
    analytic_jet mode, stencils of the node values ``lap_phi`` in grid_fd."""
    exprs = gmap.engine.lap_phi if gmap.eval_mode == "analytic_jet" else None
    return section_partials(gmap, lap_phi, exprs)


def second_ff_partials(gmap: GridMap, sff: np.ndarray) -> np.ndarray:
    """d_k nabla dphi^a_{ij}: shape (n, m, m, m) + grid with the derivative
    index last; the closed-form second fundamental form in analytic_jet
    mode, stencils of the node values ``sff`` in grid_fd."""
    exprs = second_ff_exprs(gmap.engine).tolist() if gmap.eval_mode == "analytic_jet" else None
    return section_partials(gmap, sff, exprs)


# ---------------------------------------------------------------------------
# closed forms: the node-wise kernels applied to the engine's sympy leaves as
# object arrays (node shape ()), whose entries np.einsum multiplies and adds
# with their own operators
# ---------------------------------------------------------------------------


def normalised(eng: MapEngine, arr: np.ndarray) -> np.ndarray:
    """The entries of a kernel-built object array, each normalised as the
    engine normalises its leaves."""
    return np.vectorize(eng._norm, otypes=[object])(arr)


def second_ff_exprs(eng: MapEngine) -> np.ndarray:
    """The closed-form nabla dphi^a_{ij} of the engine's map as an object array."""
    leaves = (eng.d2phi, eng.gam_dom, eng.gamma_c, eng.dphi)
    return normalised(eng, second_ff_values(*(np.array(t, dtype=object) for t in leaves)))


# ---------------------------------------------------------------------------
# node-wise kernels (any trailing node shape)
# ---------------------------------------------------------------------------


def frame_trace(ginv, x, y) -> np.ndarray:
    """g^{ij} x^b_i y^c_j for two frame-indexed arrays of shape (n_x, m) +
    node and (n_y, m) + node: shape (n_x, n_y) + node.  The g-traced
    kernels contract their two frame slots here first, so none of their
    contractions carries more than three operands."""
    return np.einsum("ij...,bi...,cj...->bc...", ginv, x, y)


def gamma_trace(ginv, gam, d1) -> np.ndarray:
    """g^{ij} Gamma^a_{tb} dphi^t_i dphi^b_j."""
    return np.einsum("atb...,tb...->a...", gam, frame_trace(ginv, d1, d1))


def covd_values(v_vals, gam, d1, u_vals) -> np.ndarray:
    """(covd_i u)^a = v^a_i + Gamma^a_{bg} dphi^b_i u^g."""
    return v_vals + np.einsum("abg...,bi...,g...->ai...", gam, d1, u_vals)


def a_term_values(eta, xi, ginv, d1, lap_phi, gam, s_t) -> np.ndarray:
    """Numeric A^a(eta, xi):  -2 g^{ij} xi^t_i dphi^b_j Gamma^a_{bt}
    + eta^t [ lap(phi^b) Gamma^a_{bt} - g^{ij} dphi^b_j dphi^w_i S^a_{bwt} ]."""
    out = -2.0 * np.einsum("abt...,tb...->a...", gam, frame_trace(ginv, xi, d1))
    out += np.einsum("t...,b...,abt...->a...", eta, lap_phi, gam)
    out -= np.einsum("t...,wb...,abwt...->a...", eta, frame_trace(ginv, d1, d1), s_t)
    return out


def second_ff_values(d2, gam_dom, gam, d1) -> np.ndarray:
    """nabla dphi^a_{ij} = d2 phi^a_{ij} - Gamma_dom^k_{ij} dphi^a_k + Gamma^a_{bc} dphi^b_i dphi^c_j."""
    out = d2 - np.einsum("kij...,ak...->aij...", gam_dom, d1)
    return out + np.einsum("abc...,bi...,cj...->aij...", gam, d1, d1)


def trace_R_dphi_frame(ginv, riem, d1) -> np.ndarray:
    """Sum_k R(dphi_k, dphi_i) dphi_k for every frame index i: shape (n, m) + node."""
    return np.einsum("adbc...,bd...,ci...->ai...", riem, frame_trace(ginv, d1, d1), d1)


def a_term_data(gmap: GridMap) -> tuple:
    """The node arrays the A-term reads after its two slots: g^{-1}, dphi,
    lap phi, Gamma, S."""
    return (gmap.plan.ginv, dphi_values(gmap), map_laplacian(gmap),
            target_christoffel(gmap), gmap.tgt.s_tensor(*gmap.values))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def second_fundamental_form(gmap: GridMap) -> np.ndarray:
    """nabla dphi^a_{ij} per node: shape (n, m, m) + grid."""
    return second_ff_values(map_second_partials(gmap), gmap.plan.christoffel, target_christoffel(gmap),
                            dphi_values(gmap))


@_per_map
def target_christoffel(gmap: GridMap) -> np.ndarray:
    """Gamma^a_{bc} of the target at the node values: shape (n, n, n) + grid
    (read-only, once per map)."""
    return gmap.tgt.christoffel(*gmap.values)


@_per_map
def _tension_values(gmap: GridMap) -> np.ndarray:
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.tension)
    return -map_laplacian(gmap) + gamma_trace(gmap.plan.ginv, target_christoffel(gmap), dphi_values(gmap))


def tension(gmap: GridMap) -> BundleSection:
    """tau^a = -lap phi^a + g^{ij} Gamma^a_{tb} phi^t_i phi^b_j, its values
    read-only and evaluated once per map; in analytic_jet mode the closed
    form is kept, because the tower differentiates it again."""
    exprs = gmap.engine.tension if gmap.eval_mode == "analytic_jet" else None
    return BundleSection(gmap, _tension_values(gmap), exprs=exprs)


def covariant_derivative(sigma: BundleSection) -> VGrid:
    """(covd sigma)^a_i = d_i sigma^a + Gamma^a_{bg} phi^b_i sigma^g."""
    gmap = sigma.base
    vals = covd_values(section_partials(gmap, sigma.values, sigma.exprs),
                       target_christoffel(gmap), dphi_values(gmap), sigma.values)
    return VGrid(gmap, vals)


def rough_laplacian(sigma: BundleSection) -> BundleSection:
    """Connection Laplacian on the pullback bundle (geometer's sign):

    (lapbar sigma)^a = lap sigma^a - 2 g^{ij} d_j sigma^t phi^b_i Gamma^a_{bt}
        + sigma^t [ (lap phi^b) Gamma^a_{bt} - g^{ij} phi^b_j phi^w_i S^a_{bwt} ].
    """
    gmap = sigma.base
    xi = section_partials(gmap, sigma.values, sigma.exprs)
    a_vals = a_term_values(sigma.values, xi, *a_term_data(gmap))
    return BundleSection(gmap, section_laplacians(gmap, sigma.values, sigma.exprs) + a_vals)


def codifferential(gmap: GridMap, w: np.ndarray, w_exprs=None) -> np.ndarray:
    """Codifferential of a pullback-bundle-valued 1-form w, shape (m, n) +
    grid with the form index first (``w_exprs`` its nesting of closed forms
    in analytic_jet mode):

    (d* w)^a = -g^{kl} (d_k w_l^a + Gamma^a_{bc} phi^b_k w_l^c - Gamma^p_{kl} w_p^a).
    """
    cov = np.moveaxis(section_partials(gmap, w, w_exprs), 2, 0)  # [k, l, a] = d_k w_l^a
    cov += np.einsum("abc...,bk...,lc...->kla...", target_christoffel(gmap), dphi_values(gmap), w)
    cov -= np.einsum("pkl...,pa...->kla...", gmap.plan.christoffel, w)
    return -np.einsum("kl...,kla...->a...", gmap.plan.ginv, cov)


def weitzenbock_residual(gmap: GridMap) -> np.ndarray:
    """Max-norm per node of the commutation defect

    Tr covd^2 dphi(e_i) - R(dphi_k, dphi_i) dphi_k - dphi(Ric^M(e_i)) - covd_i tau.

    Exact (up to roundoff) in analytic_jet mode; in grid_fd mode stencil
    truncation dominates and a capability warning is emitted.
    """
    if gmap.eval_mode == "grid_fd":
        warnings.warn("weitzenbock_residual in grid_fd mode is stencil-limited; expect looser tolerances")
    ginv = gmap.plan.ginv
    gam_dom = gmap.plan.christoffel
    ric = gmap.plan.ricci
    gam = target_christoffel(gmap)
    riem = gmap.tgt.riemann(*gmap.values)
    d1 = dphi_values(gmap)
    P = second_fundamental_form(gmap)
    covP = np.moveaxis(second_ff_partials(gmap, P), 3, 1)  # [a, k, l, i] = D_k P[a, l, i]
    covP = covP + np.einsum("abc...,bk...,cli...->akli...", gam, d1, P)
    covP -= np.einsum("pkl...,api...->akli...", gam_dom, P)
    covP -= np.einsum("pki...,alp...->akli...", gam_dom, P)
    trace = np.einsum("kl...,akli...->ai...", ginv, covP)
    curv = trace_R_dphi_frame(ginv, riem, d1)
    ric_mixed = np.einsum("jk...,ki...->ji...", ginv, ric)
    dric = np.einsum("aj...,ji...->ai...", d1, ric_mixed)
    tau = tension(gmap)
    cd_tau = covariant_derivative(tau).values
    defect = trace - curv - dric - cd_tau
    return np.max(np.abs(defect), axis=(0, 1))
