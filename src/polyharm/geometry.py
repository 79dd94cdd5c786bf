"""Analytic chart models of the domain and target manifolds.

Both sides live in a single coordinate chart with a closed-form metric.  A
:class:`ChartModel` derives everything the two sides share from it (g^{-1},
the Christoffel symbols and their jet, the Ricci tensor, the jet of g^{-1})
with one vectorized evaluator each.  :class:`DomainModel` adds the box chart
and lays out its grid nodes (``axes``); :class:`TargetModel` adds curvature
and its covariant derivative, the derived tensors S, C, E, the jet-order
gate and the chart-domain checks.  All model data is obtained by symbolic
differentiation of the metric expressions and is therefore exact; model
data is never finite-differenced.

Conventions
-----------
* Laplacian with the geometer's sign: ``lap f = -f''`` on the real line.
* Curvature: ``R(d/dy^b, d/dy^c) d/dy^d = R^a_{dbc} d/dy^a``; the last two
  lower indices form the antisymmetric pair.
* Unit round sphere S^n in geodesic polar coordinates ``(w, s)`` around a
  pole: ``h = sin^2(s) * gt(w) + ds^2`` where ``gt`` is the round metric of
  the equator factor S^{n-1}.  The equator factor chart is the angle chart
  for n = 2 (gt = 1) and the stereographic chart for n >= 3
  (gt_ab = 4 delta_ab / (1+|w|^2)^2).  The chart excludes collars
  [0, eps) and (pi - eps, pi] around the poles.
"""
from __future__ import annotations

import builtins
import dis
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .errors import CapabilityError, ChartDomainError, ConfigurationError

__all__ = [
    "ChartBox",
    "ChartModel",
    "DomainModel",
    "TargetModel",
    "flat_torus",
    "domain_from_metric",
    "sphere_cap_domain",
    "euclidean",
    "round_sphere_polar",
    "space_form",
    "target_from_metric",
    "stereographic_factor_metric",
]

_DEFAULT_COLLAR = 1e-3
DEFAULT_JET_ORDER = 6


def _sym_zeros(shape):
    if not shape:
        return sp.S.Zero
    return [_sym_zeros(shape[1:]) for _ in range(shape[0])]


def _map_nested(f, obj):
    if isinstance(obj, list):
        return [_map_nested(f, o) for o in obj]
    return f(obj)


def _flatten(obj, out):
    if isinstance(obj, (list, tuple)):
        for o in obj:
            _flatten(o, out)
    else:
        out.append(obj)


def _nesting_shape(obj) -> tuple[int, ...]:
    if isinstance(obj, (list, tuple)):
        return (len(obj),) + (_nesting_shape(obj[0]) if obj else ())
    return ()


def _unusable_globals(fn: Callable) -> list[str]:
    """The global names ``fn`` loads that are undefined or bound to the
    scalar ``math`` module (``erf``, ``gamma``, ``lgamma`` reject arrays).
    co_names also holds attribute names (``logical_and.reduce``), so a
    candidate counts only if the bytecode loads it as a global."""
    code, glob = fn.__code__, fn.__globals__
    names = {n for n in code.co_names
             if (n not in glob and not hasattr(builtins, n))
             or getattr(glob.get(n), "__module__", None) == "math"}
    if names:
        names &= {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    return sorted(names)


def lambdify_tensor(coords: Sequence[sp.Symbol], tensor) -> Callable:
    """The one evaluator of model tensors, map components and engine
    expressions: a callable of ``len(coords)`` broadcastable arrays that
    returns a fresh float array shaped like the nesting of ``tensor``
    followed by the node shape.

    ``docstring_limit=0`` skips rendering the expressions into a docstring,
    and the numpy module object (not ``"numpy"``) spares a star import of
    numpy's submodules; the generated code is the same.  An expression
    without a numpy form (``besselj``, an undefined ``f``, the scalar
    ``math.erf``, ``Integral``) raises CapabilityError here, not at the
    first call."""
    flat: list[sp.Expr] = []
    _flatten(tensor, flat)
    shape = _nesting_shape(tensor)
    try:
        fn = sp.lambdify(list(coords), flat, modules=[np], cse=True, docstring_limit=0)
    except NotImplementedError as exc:  # sympy's PrintMethodNotImplementedError
        raise CapabilityError(f"no numpy evaluator: {str(exc).splitlines()[0]}") from exc
    missing = _unusable_globals(fn)
    if missing:
        raise CapabilityError(f"no numpy evaluator for {', '.join(missing)}")

    def call(*points: np.ndarray) -> np.ndarray:
        pts = [np.asarray(p, dtype=float) for p in points]
        node_shape = np.broadcast_shapes(*(p.shape for p in pts)) if pts else ()
        with np.errstate(all="ignore"):
            vals = fn(*pts)
        out = np.empty((len(flat),) + node_shape)
        for i, v in enumerate(vals):
            out[i] = v
        return out.reshape(shape + node_shape) if shape else out[0]

    return call


def _evaluator(exprs_attr: str) -> functools.cached_property:
    """A model's evaluator of its expressions ``exprs_attr``, built on first use."""
    return functools.cached_property(lambda self: lambdify_tensor(self.coords, getattr(self, exprs_attr)))


def christoffel_from_metric(g, ginv, coords):
    """Gamma^k_{ij} = 1/2 g^{kl} (g_{li,j} + g_{lj,i} - g_{ij,l})."""
    d = len(coords)
    out = _sym_zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                e = sp.S.Zero
                for l in range(d):
                    if ginv[k][l] == 0:
                        continue
                    e += ginv[k][l] * (sp.diff(g[l][i], coords[j]) + sp.diff(g[l][j], coords[i]) - sp.diff(g[i][j], coords[l]))
                e = sp.cancel(e / 2) if e.is_rational_function(*coords) else e / 2
                out[k][i][j] = e
                out[k][j][i] = e
    return out


def riemann_from_christoffel(gamma, coords):
    """R^a_{dbc} = d_b Gamma^a_{cd} - d_c Gamma^a_{bd} + Gamma^m_{cd} Gamma^a_{bm} - Gamma^m_{bd} Gamma^a_{cm}."""
    d = len(coords)
    out = _sym_zeros((d, d, d, d))
    for a in range(d):
        for dd in range(d):
            for b in range(d):
                for c in range(d):
                    e = sp.diff(gamma[a][c][dd], coords[b]) - sp.diff(gamma[a][b][dd], coords[c])
                    for mu in range(d):
                        e += gamma[mu][c][dd] * gamma[a][b][mu] - gamma[mu][b][dd] * gamma[a][c][mu]
                    out[a][dd][b][c] = e
    return out


def covariant_derivative_of_riemann(riem, gamma, coords):
    """R^a_{dbc;e}: one covariant derivative of a (1,3) curvature-type tensor."""
    d = len(coords)
    out = _sym_zeros((d, d, d, d, d))
    for a in range(d):
        for dd in range(d):
            for b in range(d):
                for c in range(d):
                    for e_ in range(d):
                        expr = sp.diff(riem[a][dd][b][c], coords[e_])
                        for mu in range(d):
                            expr += gamma[a][e_][mu] * riem[mu][dd][b][c]
                            expr -= gamma[mu][e_][dd] * riem[a][mu][b][c]
                            expr -= gamma[mu][e_][b] * riem[a][dd][mu][c]
                            expr -= gamma[mu][e_][c] * riem[a][dd][b][mu]
                        out[a][dd][b][c][e_] = expr
    return out


@dataclass(frozen=True)
class ChartBox:
    """Rectangular chart descriptor: per-axis bounds, periodic or not."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    periodic: bool = True


class ChartModel:
    """One chart with a closed-form metric and everything derived from it:
    g^{-1}, the Christoffel symbols and their first jet, the Ricci tensor
    (Christoffel -> Riemann route) and the jet of g^{-1}, each expression
    built on first use, plus their vectorized evaluators."""

    def __init__(self, dim: int, coords, metric_exprs):
        self.dim = dim
        self.coords = tuple(coords)
        self.metric_exprs = metric_exprs

    # -- symbolic data ------------------------------------------------------

    @functools.cached_property
    def metric_inv_exprs(self):
        mat = sp.Matrix(self.metric_exprs)
        inv = mat.inv()
        d = self.dim
        return [[sp.cancel(inv[i, j]) for j in range(d)] for i in range(d)]

    @functools.cached_property
    def christoffel_exprs(self):
        return christoffel_from_metric(self.metric_exprs, self.metric_inv_exprs, self.coords)

    @functools.cached_property
    def christoffel_jet_exprs(self):
        c = self.coords
        g = self.christoffel_exprs
        d = self.dim
        return [[[[sp.diff(g[a][b][cc], c[e]) for e in range(d)] for cc in range(d)] for b in range(d)] for a in range(d)]

    @functools.cached_property
    def ricci_exprs(self):
        d = self.dim
        # the generic route even where a target's riemann_exprs is the
        # space-form closed form, so Ric = (n - 1) h on a sphere checks it
        riem = riemann_from_christoffel(self.christoffel_exprs, self.coords)
        out = _sym_zeros((d, d))
        for i in range(d):
            for j in range(d):
                e = sp.Add(*[riem[k][j][k][i] for k in range(d)])
                # trigsimp combines the trigonometric entries of warped
                # metrics (4 sin^2 - 4 cos^2 + 4 to 8 sin^2), which would
                # otherwise cancel catastrophically near the poles
                out[i][j] = sp.cancel(e if e.is_rational_function(*self.coords) else sp.trigsimp(e))
        return out

    @functools.cached_property
    def metric_inv_jet_exprs(self):
        d = self.dim
        gi = self.metric_inv_exprs
        return [[[sp.diff(gi[k][j], self.coords[i]) for i in range(d)] for j in range(d)] for k in range(d)]

    # -- numeric evaluators (vectorized over trailing node axes) -------------

    metric = _evaluator("metric_exprs")
    metric_inv = _evaluator("metric_inv_exprs")
    christoffel = _evaluator("christoffel_exprs")
    christoffel_jet = _evaluator("christoffel_jet_exprs")
    ricci = _evaluator("ricci_exprs")
    metric_inv_jet = _evaluator("metric_inv_jet_exprs")


class DomainModel(ChartModel):
    """The (M, g) side: a chart model on a box chart, periodic (a torus) or
    not, whose nodes it lays out itself."""

    def __init__(self, dim: int, coords, metric_exprs, chart: ChartBox, name: str):
        super().__init__(dim, coords, metric_exprs)
        self.chart = chart
        self.name = name

    @property
    def is_flat_euclidean(self) -> bool:
        d = self.dim
        return all(self.metric_exprs[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))

    def axes(self, shape: Sequence[int]) -> list[np.ndarray]:
        """Node coordinates per axis: a periodic chart omits the endpoint
        that duplicates the first node, a box chart keeps both endpoints."""
        box = self.chart
        return [np.linspace(lo, hi, n, endpoint=not box.periodic) for lo, hi, n in zip(box.lo, box.hi, shape)]


def flat_torus(dim: int, period: float | Sequence[float] = 2 * np.pi) -> DomainModel:
    """Flat torus T^dim with the euclidean metric and the given periods."""
    periods = [float(period)] * dim if np.isscalar(period) else [float(p) for p in period]
    coords = tuple(sp.symbols(f"x1:{dim + 1}", real=True))
    g = [[sp.S.One if i == j else sp.S.Zero for j in range(dim)] for i in range(dim)]
    chart = ChartBox(lo=(0.0,) * dim, hi=tuple(periods), periodic=True)
    return DomainModel(dim, coords, g, chart, f"flat_torus_{dim}d")


def domain_from_metric(metric_exprs, coords, box: ChartBox, name: str = "user_domain") -> DomainModel:
    """Domain chart from explicit metric expressions in the given symbols."""
    return DomainModel(len(coords), coords, metric_exprs, box, name)


def stereographic_factor_metric(dim: int, coords) -> list[list[sp.Expr]]:
    """Round metric of the unit S^dim in the stereographic chart (dim >= 1),
    or the flat angle-chart metric for dim = 1."""
    if dim == 1:
        return [[sp.S.One]]
    w2 = sp.Add(*[c**2 for c in coords])
    conf = 4 / (1 + w2) ** 2
    return [[conf if i == j else sp.S.Zero for j in range(dim)] for i in range(dim)]


def sphere_cap_domain(dim: int, scale_angle: float | sp.Expr) -> DomainModel:
    """The latitude sphere S^dim(sin alpha) as a domain chart.

    Metric: sin^2(alpha) times the round unit-S^dim metric in the factor chart
    (angle chart for dim = 1, stereographic for dim >= 2).  The chart is a
    non-periodic box [-1, 1]^dim; it supports pointwise analytic evaluation only.
    """
    coords = tuple(sp.symbols(f"x1:{dim + 1}", real=True)) if dim > 1 else (sp.Symbol("x1", real=True),)
    gt = stereographic_factor_metric(dim, coords)
    sa2 = sp.sin(scale_angle) ** 2
    g = [[sa2 * gt[i][j] for j in range(dim)] for i in range(dim)]
    if dim == 1:
        chart = ChartBox(lo=(0.0,), hi=(2 * np.pi,), periodic=True)
    else:
        chart = ChartBox(lo=(-1.0,) * dim, hi=(1.0,) * dim, periodic=False)
    return DomainModel(dim, coords, g, chart, f"sphere_cap_{dim}d")


# ---------------------------------------------------------------------------
# target models
# ---------------------------------------------------------------------------


class TargetModel(ChartModel):
    """The (N, h) side: a chart model plus curvature and its covariant
    derivative and the derived tensors, all from closed forms:

    * ``2 S^a_{bwt} = dGamma^a_{bt}/dy^w + Gamma^g_{bt} Gamma^a_{wg}
      + dGamma^a_{wt}/dy^b + Gamma^g_{wt} Gamma^a_{bg}``
    * ``C^a_{tsn} = Gamma^m_{ts} Gamma^a_{mn} - S^a_{tsn}``
    * ``E^a_{bdth} = R^a_{bgd} Gamma^g_{th} + R^a_{bgt} Gamma^g_{dh}``

    ``kind`` is one of ``euclidean``, ``round_sphere_polar``, ``space_form``
    or ``user_metric``.  ``jet_order`` caps how deep a Christoffel jet the
    model claims to provide; operations requiring deeper jets raise
    :class:`CapabilityError`.  Space forms (including the round sphere) use
    the constant-curvature closed form for R and have ``nabla R = 0``
    identically; ``ricci_exprs`` keeps the generic route.
    """

    def __init__(self, dim, coords, metric_exprs, kind, name, curvature_const=None,
                 collar=_DEFAULT_COLLAR, jet_order=DEFAULT_JET_ORDER):
        super().__init__(dim, coords, metric_exprs)
        self.kind = kind
        self.name = name
        self.curvature_const = curvature_const
        self.collar = collar
        self.jet_order = jet_order

    # -- symbolic data ------------------------------------------------------

    def require_jets(self, order: int, what: str = "operation") -> None:
        if order > self.jet_order:
            raise CapabilityError(
                f"{what} needs Christoffel jets of order {order} but target "
                f"'{self.name}' provides order {self.jet_order}"
            )

    @functools.cached_property
    def christoffel_jet_exprs(self):
        self.require_jets(1, "Christoffel jet")
        return super().christoffel_jet_exprs

    @property
    def is_space_form(self) -> bool:
        return self.curvature_const is not None

    @functools.cached_property
    def riemann_exprs(self):
        if self.is_space_form:
            c = sp.nsimplify(self.curvature_const)
            h = self.metric_exprs
            d = self.dim
            return [[[[c * (-h[b][dd] * (1 if a == g else 0) + h[g][dd] * (1 if a == b else 0))
                       for g in range(d)] for b in range(d)] for dd in range(d)] for a in range(d)]
        self.require_jets(1, "curvature tensor")
        return riemann_from_christoffel(self.christoffel_exprs, self.coords)

    @functools.cached_property
    def nabla_riemann_exprs(self):
        d = self.dim
        if self.is_space_form:
            return _sym_zeros((d, d, d, d, d))
        self.require_jets(2, "covariant derivative of curvature")
        return covariant_derivative_of_riemann(self.riemann_exprs, self.christoffel_exprs, self.coords)

    @functools.cached_property
    def s_tensor_exprs(self):
        self.require_jets(1, "S tensor")
        d = self.dim
        gam = self.christoffel_exprs
        dgam = self.christoffel_jet_exprs
        out = _sym_zeros((d, d, d, d))
        for a in range(d):
            for b in range(d):
                for w in range(b, d):
                    for t in range(d):
                        e = dgam[a][b][t][w] + dgam[a][w][t][b]
                        for g in range(d):
                            e += gam[g][b][t] * gam[a][w][g] + gam[g][w][t] * gam[a][b][g]
                        e = e / 2
                        out[a][b][w][t] = e
                        out[a][w][b][t] = e
        return out

    @functools.cached_property
    def c_tensor_exprs(self):
        d = self.dim
        gam = self.christoffel_exprs
        s = self.s_tensor_exprs
        out = _sym_zeros((d, d, d, d))
        for a in range(d):
            for t in range(d):
                for sg in range(d):
                    for nu in range(d):
                        e = -s[a][t][sg][nu]
                        for mu in range(d):
                            e += gam[mu][t][sg] * gam[a][mu][nu]
                        out[a][t][sg][nu] = e
        return out

    @functools.cached_property
    def e_tensor_exprs(self):
        d = self.dim
        gam = self.christoffel_exprs
        r = self.riemann_exprs
        out = _sym_zeros((d, d, d, d, d))
        for a in range(d):
            for b in range(d):
                for dd in range(d):
                    for t in range(d):
                        for h in range(d):
                            e = sp.S.Zero
                            for g in range(d):
                                e += r[a][b][g][dd] * gam[g][t][h] + r[a][b][g][t] * gam[g][dd][h]
                            out[a][b][dd][t][h] = e
        return out

    # -- numeric evaluators --------------------------------------------------

    riemann = _evaluator("riemann_exprs")
    nabla_riemann = _evaluator("nabla_riemann_exprs")
    s_tensor = _evaluator("s_tensor_exprs")
    c_tensor = _evaluator("c_tensor_exprs")
    e_tensor = _evaluator("e_tensor_exprs")

    @property
    def is_curvature_free(self) -> bool:
        return self.curvature_const == 0

    # -- chart domain --------------------------------------------------------

    def chart_violations(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of points outside the chart domain.

        ``values`` has shape (dim, ...).  For polar sphere charts the last
        coordinate must stay inside (collar, pi - collar); euclidean and user
        charts are unbounded.
        """
        if self.curvature_const not in (0, None):
            s = values[-1]
            smax = np.pi / np.sqrt(self.curvature_const) if self.curvature_const > 0 else np.inf
            return (s <= self.collar) | (s >= smax - self.collar)
        return np.zeros(np.shape(values)[1:], dtype=bool)

    def check_chart(self, values: np.ndarray, what: str = "map") -> None:
        bad = self.chart_violations(np.asarray(values, dtype=float))
        if np.any(bad):
            raise ChartDomainError(
                f"{what} leaves the chart of target '{self.name}' at {int(np.sum(bad))} node(s)"
            )


def euclidean(dim: int) -> TargetModel:
    coords = tuple(sp.symbols(f"y1:{dim + 1}", real=True))
    g = [[sp.S.One if i == j else sp.S.Zero for j in range(dim)] for i in range(dim)]
    return TargetModel(dim, coords, g, "euclidean", f"euclidean_{dim}d", curvature_const=0)


def _warped_polar(dim: int, curvature) -> tuple:
    """Coordinates (w, s) and the metric warp(s)^2 gt(w) + ds^2 of the
    constant-curvature polar chart: warp = sin(sqrt(c) s) / sqrt(c) for
    c > 0, sinh(sqrt(-c) s) / sqrt(-c) for c < 0; warp = sin(s) for c = 1."""
    coords = tuple(sp.symbols(f"y1:{dim + 1}", real=True))
    factor = stereographic_factor_metric(dim - 1, coords[:-1])
    s = coords[-1]
    c = sp.nsimplify(curvature)
    if curvature > 0:
        warp = sp.sin(sp.sqrt(c) * s) / sp.sqrt(c)
    else:
        warp = sp.sinh(sp.sqrt(-c) * s) / sp.sqrt(-c)
    g = [[warp**2 * factor[i][j] if i < dim - 1 and j < dim - 1 else sp.S.Zero for j in range(dim)] for i in range(dim)]
    g[dim - 1][dim - 1] = sp.S.One
    return coords, g


def round_sphere_polar(dim: int, collar: float = _DEFAULT_COLLAR) -> TargetModel:
    """Unit S^dim in geodesic polar coordinates (w, s), s in (collar, pi-collar)."""
    if dim < 2:
        raise ConfigurationError("polar sphere chart needs dim >= 2")
    coords, g = _warped_polar(dim, 1)
    return TargetModel(dim, coords, g, "round_sphere_polar", f"sphere_{dim}d", curvature_const=1, collar=collar)


def space_form(dim: int, curvature: float, collar: float = _DEFAULT_COLLAR) -> TargetModel:
    """Simply connected space form of constant curvature ``curvature`` in a
    warped polar chart; curvature 0 degrades to the euclidean chart."""
    if curvature == 0:
        return euclidean(dim)
    coords, g = _warped_polar(dim, curvature)
    return TargetModel(dim, coords, g, "space_form", f"space_form_{dim}d_c{curvature}",
                       curvature_const=curvature, collar=collar)


def target_from_metric(metric_exprs, coords, name: str = "user_target",
                       jet_order: int = DEFAULT_JET_ORDER) -> TargetModel:
    return TargetModel(len(coords), coords, metric_exprs, "user_metric", name, jet_order=jet_order)

