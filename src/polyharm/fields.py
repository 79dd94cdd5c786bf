"""Discretized maps, pullback-bundle sections and first-order operators.

A :class:`GridMap` stores the chart expression of a map on a periodic grid
(the grid is plain sample points in ``analytic_jet`` mode, the actual
unknown in ``grid_fd`` mode).  Components may wind around periodic target
directions; the linear winding part is stored separately so stencils only
ever touch periodic data.

Every operation is node-wise (up to a stencil halo) and returns fresh
containers; nothing here mutates shared state.
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
from .geometry import DomainModel, TargetModel, grid_axes

__all__ = [
    "GridMap",
    "BundleSection",
    "MapDifferential",
    "VGrid",
    "differential",
    "second_fundamental_form",
    "tension",
    "covariant_derivative",
    "rough_laplacian",
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
    component ``a`` along axis ``i``.
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
        self.values = np.asarray(self.values, dtype=float)
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
        mesh = _mesh_any(dom, grid_shape)
        fns = sp.lambdify(list(dom.coords), list(exprs), modules="numpy")
        with np.errstate(all="ignore"):
            vals = fns(*mesh)
        values = np.stack([np.broadcast_to(np.asarray(v, dtype=float), grid_shape) for v in vals])
        if winding is None and dom.chart.periodic:
            winding = _detect_winding(dom, exprs, require_constant=eval_mode == "grid_fd")
        return cls(dom, tgt, grid_shape, values, eval_mode, exprs if eval_mode == "analytic_jet" else None,
                   winding, fd_order)

    @classmethod
    def from_values(cls, dom: DomainModel, tgt: TargetModel, values, winding=None, fd_order: int = 4) -> "GridMap":
        values = np.asarray(values, dtype=float)
        return cls(dom, tgt, values.shape[1:], values, "grid_fd", None, winding, fd_order)

    # -- geometry of the grid ---------------------------------------------------

    @functools.cached_property
    def axes(self):
        return _axes_any(self.dom, self.grid_shape)

    @functools.cached_property
    def mesh(self):
        return _mesh_any(self.dom, self.grid_shape)

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
        """Stored values minus the linear winding part."""
        out = self.values.copy()
        for a in range(self.tgt.dim):
            for i in range(self.dom.dim):
                if self.winding[a, i] != 0.0:
                    out[a] -= self.winding[a, i] * self.mesh[i]
        return out

    def eval_exprs(self, exprs) -> np.ndarray:
        """Evaluate nested symbolic expressions on this map's grid."""
        return self.engine.eval_on(exprs, self.mesh)

    def replace_values(self, values: np.ndarray) -> "GridMap":
        """A new grid_fd map with the same charts and updated node values
        (the grid may be a subsample)."""
        values = np.asarray(values, dtype=float)
        return GridMap(self.dom, self.tgt, values.shape[1:], values, "grid_fd", None,
                       self.winding.copy(), self.fd_order)

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


def _axes_any(dom: DomainModel, shape):
    if dom.chart.periodic:
        return grid_axes(dom, shape)
    return [np.linspace(lo, hi, n) for lo, hi, n in zip(dom.chart.lo, dom.chart.hi, shape)]


def _mesh_any(dom: DomainModel, shape):
    return np.meshgrid(*_axes_any(dom, shape), indexing="ij")


# chart-coordinate offsets of the winding probes from the first probe point
WINDING_PROBE_OFFSETS = (0.0, 0.7, 1.4, 2.1)


def _detect_winding(dom: DomainModel, exprs, require_constant: bool = False) -> np.ndarray:
    """Per-axis slope (phi(x + L e_i) - phi(x)) / L of each component, read
    at the first probe point.  With ``require_constant`` (``grid_fd`` maps,
    whose stencils only see ``values`` minus the linear winding part) the
    shift difference must agree at every probe to 1e-9 relative, or the map
    is rejected: a non-constant difference is not a winding."""
    n, m = len(exprs), dom.dim
    out = np.zeros((n, m))
    probes = [{c: 0.1 + 0.05 * k + off for k, c in enumerate(dom.coords)} for off in WINDING_PROBE_OFFSETS]
    for a, e in enumerate(exprs):
        for i, c in enumerate(dom.coords):
            L = dom.chart.hi[i] - dom.chart.lo[i]
            shifted = e.subs(c, c + L)
            diff = sp.simplify(shifted - e)
            if diff == 0:
                continue
            seen = [float(diff.subs(p)) for p in (probes if require_constant else probes[:1])]
            out[a, i] = seen[0] / L
            spread = max(seen) - min(seen)
            if require_constant and not spread <= 1e-9 * max(1.0, max(map(abs, seen))):
                raise ConfigurationError(
                    f"grid_fd map component {a} has no constant winding along axis {i}: "
                    f"its shift by the period {L:.6g} reads {', '.join(f'{v:.6g}' for v in seen)} "
                    "at the probe points")
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


@dataclass
class MapDifferential:
    """Components phi^a_i per node: shape (n, m) + grid_shape."""

    base: GridMap
    values: np.ndarray
    exprs: list | None = field(default=None, repr=False)


@dataclass
class VGrid:
    """First partials of a section's components: shape (n, m) + grid_shape."""

    base: GridMap
    values: np.ndarray
    exprs: list | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# stencil building blocks (grid_fd path)
# ---------------------------------------------------------------------------


def grid_partial(gmap: GridMap, arr: np.ndarray, axis: int) -> np.ndarray:
    gmap.require_fd_grid()
    return stencils.diff1(arr, axis, gmap.spacings[axis], gmap.fd_order)


def grid_partials(gmap: GridMap, arr: np.ndarray) -> np.ndarray:
    """First partials of every component of a periodic array: shape
    ``F + grid`` to ``F + (m,) + grid``."""
    gmap.require_fd_grid()
    lead = arr.ndim - gmap.dom.dim
    out = np.empty(arr.shape[:lead] + (gmap.dom.dim,) + arr.shape[lead:])
    for i, h in enumerate(gmap.spacings):
        out[(Ellipsis, i) + (slice(None),) * gmap.dom.dim] = stencils.diff1(arr, lead + i, h, gmap.fd_order)
    return out


def grid_laplacians(gmap: GridMap, arr: np.ndarray) -> np.ndarray:
    """Domain Laplace-Beltrami (geometer's sign) of every component of a
    periodic array of shape ``F + grid``; g^{-1} and the domain Christoffels
    are evaluated once for all components."""
    gmap.require_fd_grid()
    mesh = gmap.mesh
    hs = gmap.spacings
    m = gmap.dom.dim
    lead = arr.ndim - m
    ginv = gmap.dom.metric_inv(*mesh)
    gam = gmap.dom.christoffel(*mesh)
    out = np.zeros_like(arr)
    for i in range(m):
        for j in range(m):
            gij = ginv[i, j]
            if np.all(gij == 0):
                continue
            out -= gij * stencils.partial2(arr, lead + i, lead + j, hs[i], hs[j], gmap.fd_order)
    for k in range(m):
        coef = np.einsum("ij...,ij...->...", ginv, gam[k])
        if np.any(coef != 0):
            out += coef * stencils.diff1(arr, lead + k, hs[k], gmap.fd_order)
    return out


def scalar_laplacian(gmap: GridMap, arr: np.ndarray) -> np.ndarray:
    """Domain Laplace-Beltrami of one periodic scalar grid, geometer's sign."""
    return grid_laplacians(gmap, arr)


def dphi_values(gmap: GridMap) -> np.ndarray:
    """dphi per node through the mode-appropriate route."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.dphi)
    return map_partials(gmap)


def map_partials(gmap: GridMap) -> np.ndarray:
    """dphi^a_i including the winding slope: shape (n, m) + grid."""
    return grid_partials(gmap, gmap.periodic_values) + gmap.winding[(...,) + (None,) * gmap.dom.dim]


def map_second_partials(gmap: GridMap) -> np.ndarray:
    """d2 phi^a_{ij}: the winding part is linear and drops out."""
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


def map_laplacian(gmap: GridMap) -> np.ndarray:
    """lap phi^a; the winding contributes only through the first-order term."""
    out = grid_laplacians(gmap, gmap.periodic_values)
    if np.any(gmap.winding != 0.0):
        mesh = gmap.mesh
        ginv = gmap.dom.metric_inv(*mesh)
        gam = gmap.dom.christoffel(*mesh)
        for k in range(gmap.dom.dim):
            coef = np.einsum("ij...,ij...->...", ginv, gam[k])
            if np.any(coef != 0):
                for a in range(gmap.tgt.dim):
                    out[a] += coef * gmap.winding[a, k]
    return out


# ---------------------------------------------------------------------------
# node-wise kernels (any trailing node shape)
# ---------------------------------------------------------------------------


def gamma_trace(ginv, gam, d1) -> np.ndarray:
    """g^{ij} Gamma^a_{tb} dphi^t_i dphi^b_j."""
    return np.einsum("ij...,atb...,ti...,bj...->a...", ginv, gam, d1, d1)


def covd_values(v_vals, gam, d1, u_vals) -> np.ndarray:
    """(covd_i u)^a = v^a_i + Gamma^a_{bg} dphi^b_i u^g."""
    return v_vals + np.einsum("abg...,bi...,g...->ai...", gam, d1, u_vals)


def a_term_values(eta, xi, ginv, d1, lap_phi, gam, s_t) -> np.ndarray:
    """Numeric A^a(eta, xi):  -2 g^{ij} xi^t_i dphi^b_j Gamma^a_{bt}
    + eta^t [ lap(phi^b) Gamma^a_{bt} - g^{ij} dphi^b_j dphi^w_i S^a_{bwt} ]."""
    out = -2.0 * np.einsum("ij...,ti...,bj...,abt...->a...", ginv, xi, d1, gam)
    out += np.einsum("t...,b...,abt...->a...", eta, lap_phi, gam)
    out -= np.einsum("t...,ij...,bj...,wi...,abwt...->a...", eta, ginv, d1, d1, s_t)
    return out


def grid_a_data(gmap: GridMap) -> tuple:
    """The node arrays the grid A-term reads: g^{-1}, dphi, lap phi, Gamma, S."""
    return (gmap.dom.metric_inv(*gmap.mesh), map_partials(gmap), map_laplacian(gmap),
            gmap.tgt.christoffel(*gmap.values), gmap.tgt.s_tensor(*gmap.values))


def grid_a_term(gmap: GridMap, sec: np.ndarray, data: tuple):
    """Stencil partials xi = d sec and A(sec, xi), the tower step below the
    Laplacian; ``data`` is ``grid_a_data(gmap)``."""
    xi = grid_partials(gmap, sec)
    return xi, a_term_values(sec, xi, *data)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def differential(gmap: GridMap) -> MapDifferential:
    """dphi per node, via jets or stencils according to ``eval_mode``."""
    if gmap.eval_mode == "analytic_jet":
        eng = gmap.engine
        return MapDifferential(gmap, gmap.eval_exprs(eng.dphi), exprs=eng.dphi)
    return MapDifferential(gmap, map_partials(gmap))


def second_fundamental_form(gmap: GridMap) -> np.ndarray:
    """nabla dphi^a_{ij} per node: shape (n, m, m) + grid."""
    if gmap.eval_mode == "analytic_jet":
        return gmap.eval_exprs(gmap.engine.second_ff)
    n, m = gmap.tgt.dim, gmap.dom.dim
    d1 = map_partials(gmap)
    d2 = map_second_partials(gmap)
    mesh = gmap.mesh
    gam_dom = gmap.dom.christoffel(*mesh)
    gam_tgt = gmap.tgt.christoffel(*gmap.values)
    out = d2.copy()
    out -= np.einsum("kij...,ak...->aij...", gam_dom, d1)
    out += np.einsum("abc...,bi...,cj...->aij...", gam_tgt, d1, d1)
    return out


def tension(gmap: GridMap) -> BundleSection:
    """tau^a = -lap phi^a + g^{ij} Gamma^a_{tb} phi^t_i phi^b_j."""
    if gmap.eval_mode == "analytic_jet":
        eng = gmap.engine
        return BundleSection(gmap, gmap.eval_exprs(eng.tension), exprs=eng.tension)
    d1 = map_partials(gmap)
    lap = map_laplacian(gmap)
    ginv = gmap.dom.metric_inv(*gmap.mesh)
    gam_tgt = gmap.tgt.christoffel(*gmap.values)
    return BundleSection(gmap, -lap + gamma_trace(ginv, gam_tgt, d1))


def covariant_derivative(sigma: BundleSection) -> VGrid:
    """(covd sigma)^a_i = d_i sigma^a + Gamma^a_{bg} phi^b_i sigma^g."""
    gmap = sigma.base
    if gmap.eval_mode == "analytic_jet" and sigma.exprs is not None:
        eng = gmap.engine
        exprs = eng.covd(sigma.exprs)
        return VGrid(gmap, gmap.eval_exprs(exprs), exprs=exprs)
    vals = covd_values(grid_partials(gmap, sigma.values), gmap.tgt.christoffel(*gmap.values),
                       map_partials(gmap), sigma.values)
    return VGrid(gmap, vals)


def rough_laplacian(sigma: BundleSection) -> BundleSection:
    """Connection Laplacian on the pullback bundle (geometer's sign):

    (lapbar sigma)^a = lap sigma^a - 2 g^{ij} d_j sigma^t phi^b_i Gamma^a_{bt}
        + sigma^t [ (lap phi^b) Gamma^a_{bt} - g^{ij} phi^b_j phi^w_i S^a_{bwt} ].
    """
    gmap = sigma.base
    if gmap.eval_mode == "analytic_jet" and sigma.exprs is not None:
        eng = gmap.engine
        a_exprs = eng.a_term(sigma.exprs, eng.grad(sigma.exprs))
        exprs = [eng._norm(eng.lap(s) + a) for s, a in zip(sigma.exprs, a_exprs)]
        return BundleSection(gmap, gmap.eval_exprs(exprs), exprs=exprs)
    _, a_vals = grid_a_term(gmap, sigma.values, grid_a_data(gmap))
    return BundleSection(gmap, grid_laplacians(gmap, sigma.values) + a_vals)


def weitzenbock_residual(gmap: GridMap) -> np.ndarray:
    """Max-norm per node of the commutation defect

    Tr covd^2 dphi(e_i) - R(dphi_k, dphi_i) dphi_k - dphi(Ric^M(e_i)) - covd_i tau.

    Exact (up to roundoff) in analytic_jet mode; in grid_fd mode stencil
    truncation dominates and a capability warning is emitted.
    """
    if gmap.eval_mode == "analytic_jet":
        defect = gmap.eval_exprs(gmap.engine.weitzenbock_defect())
        return np.max(np.abs(defect), axis=(0, 1))
    warnings.warn("weitzenbock_residual in grid_fd mode is stencil-limited; expect looser tolerances")
    mesh = gmap.mesh
    ginv = gmap.dom.metric_inv(*mesh)
    gam_dom = gmap.dom.christoffel(*mesh)
    ric = gmap.dom.ricci(*mesh)
    gam = gmap.tgt.christoffel(*gmap.values)
    riem = gmap.tgt.riemann(*gmap.values)
    d1 = map_partials(gmap)
    P = second_fundamental_form(gmap)
    covP = np.moveaxis(grid_partials(gmap, P), 3, 1)  # [a, k, l, i] = D_k P[a, l, i]
    covP = covP + np.einsum("abc...,bk...,cli...->akli...", gam, d1, P)
    covP -= np.einsum("pkl...,api...->akli...", gam_dom, P)
    covP -= np.einsum("pki...,alp...->akli...", gam_dom, P)
    trace = np.einsum("kl...,akli...->ai...", ginv, covP)
    curv = np.einsum("kl...,bk...,ci...,dl...,adbc...->ai...", ginv, d1, d1, d1, riem)
    ric_mixed = np.einsum("jk...,ki...->ji...", ginv, ric)
    dric = np.einsum("aj...,ji...->ai...", d1, ric_mixed)
    tau = tension(gmap)
    cd_tau = covariant_derivative(tau).values
    defect = trace - curv - dric - cd_tau
    return np.max(np.abs(defect), axis=(0, 1))
