"""Chart-model invariants: metric algebra, curvature conventions, derived
tensors and the grid Laplace-Beltrami operator."""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from polyharm import geometry as geo
from polyharm.fields import GridMap, grid_laplacians
from polyharm.errors import CapabilityError, ChartDomainError, ConfigurationError

from conftest import observed_order

RNG = np.random.default_rng(20240811)


def _random_sphere_points(n_pts, dim):
    pts = RNG.uniform(-0.8, 0.8, size=(dim, n_pts))
    pts[-1] = RNG.uniform(0.3, np.pi - 0.3, size=n_pts)
    return pts


def _models_with_points():
    out = []
    for model in (geo.euclidean(2), geo.euclidean(3), geo.round_sphere_polar(2),
                  geo.round_sphere_polar(3), geo.space_form(2, -1.0)):
        if model.kind == "euclidean":
            pts = RNG.uniform(-2, 2, size=(model.dim, 100))
        else:
            pts = _random_sphere_points(100, model.dim)
        out.append((model, pts))
    return out


@pytest.mark.parametrize("model,pts", _models_with_points(),
                         ids=lambda mp: mp.name if hasattr(mp, "name") else "")
def test_metric_algebra_invariants(model, pts):
    g = model.metric(*pts)
    assert np.allclose(g, np.swapaxes(g, 0, 1), atol=1e-14), "metric symmetry"
    ginv = np.moveaxis(
        np.linalg.inv(np.moveaxis(g.reshape(model.dim, model.dim, -1), -1, 0)), 0, -1
    ).reshape(g.shape)
    mat = sp.Matrix(model.metric_exprs)
    inv_fn = geo.lambdify_tensor(model.coords, [[mat.inv()[i, j] for j in range(model.dim)]
                                                for i in range(model.dim)])
    prod = np.einsum("ij...,jk...->ik...", g, inv_fn(*pts))
    eye = np.eye(model.dim).reshape(model.dim, model.dim, *([1] * (prod.ndim - 2)))
    assert np.max(np.abs(prod - eye)) <= 1e-12
    gam = model.christoffel(*pts)
    assert np.allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-13), "lower-index symmetry"


@pytest.mark.parametrize("model,pts", _models_with_points(),
                         ids=["e2", "e3", "s2", "s3", "hyp2"])
def test_curvature_antisymmetry_and_bianchi(model, pts):
    riem = model.riemann(*pts)
    assert np.max(np.abs(riem + np.swapaxes(riem, 2, 3))) <= 1e-10
    bianchi = riem + np.moveaxis(riem, (1, 2, 3), (2, 3, 1)) + np.moveaxis(riem, (1, 2, 3), (3, 1, 2))
    assert np.max(np.abs(bianchi)) <= 1e-10


def test_metric_compatibility_symbolic():
    # the Christoffels reproduce dg exactly for analytic models
    for model in (geo.round_sphere_polar(2), geo.round_sphere_polar(3)):
        g = model.metric_exprs
        gam = model.christoffel_exprs
        d = model.dim
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    lhs = sp.diff(g[i][j], model.coords[k])
                    rhs = sum(g[l][j] * gam[l][i][k] + g[i][l] * gam[l][j][k] for l in range(d))
                    assert sp.simplify(lhs - rhs) == 0


def test_sphere_matches_constant_curvature_form():
    model = geo.round_sphere_polar(3)
    pts = _random_sphere_points(100, 3)
    riem = model.riemann(*pts)
    h = model.metric(*pts)
    n = model.dim
    expected = np.zeros_like(riem)
    for a in range(n):
        for d_ in range(n):
            for b in range(n):
                for c in range(n):
                    expected[a, d_, b, c] = -h[b, d_] * (a == c) + h[c, d_] * (a == b)
    assert np.max(np.abs(riem - expected)) <= 1e-10


def test_user_metric_reproduces_sphere_curvature():
    # the same chart entered generically: curvature from Christoffel jets
    sphere = geo.round_sphere_polar(2)
    user = geo.target_from_metric(sphere.metric_exprs, sphere.coords, name="generic_sphere")
    pts = _random_sphere_points(25, 2)
    assert np.max(np.abs(user.riemann(*pts) - sphere.riemann(*pts))) <= 1e-10
    assert np.max(np.abs(user.nabla_riemann(*pts))) <= 1e-8


def test_space_forms_have_parallel_curvature():
    for model in (geo.euclidean(3), geo.round_sphere_polar(2), geo.space_form(3, -0.5)):
        pts = _random_sphere_points(10, model.dim) if model.kind != "euclidean" \
            else RNG.uniform(-1, 1, (model.dim, 10))
        assert np.max(np.abs(model.nabla_riemann(*pts))) == 0.0


def test_jet_capability_error():
    sphere = geo.round_sphere_polar(2)
    shallow = geo.target_from_metric(sphere.metric_exprs, sphere.coords, jet_order=1)
    with pytest.raises(CapabilityError):
        shallow.nabla_riemann(0.1, 1.2)


# -- sphere Christoffels -------------------------------------------------------


def test_sphere_christoffels_equator_families():
    model = geo.round_sphere_polar(3)
    pt = np.array([0.2, -0.1, np.pi / 2])
    gam = model.christoffel(*pt)
    n = model.dim
    # at the equator sin(2s) = 0 and cot(s) = 0
    assert np.max(np.abs(gam[n - 1, : n - 1, : n - 1])) <= 1e-14
    assert np.max(np.abs(gam[: n - 1, : n - 1, n - 1])) <= 1e-14
    assert np.max(np.abs(gam[: n - 1, n - 1, : n - 1])) <= 1e-14


def test_sphere_christoffels_quarter_latitude():
    # n = 2, angle-chart factor: G^n_{11} = -sin(2s)/2 * gt_11 = -1/2 at s = pi/4
    model = geo.round_sphere_polar(2)
    gam = model.christoffel(0.7, np.pi / 4)
    assert abs(gam[1, 0, 0] - (-0.5)) <= 1e-14
    assert abs(gam[0, 0, 1] - 1.0) <= 1e-14  # cot(pi/4)


@given(s=st.floats(min_value=0.05, max_value=np.pi - 0.05), w=st.floats(-0.9, 0.9))
@settings(max_examples=25, deadline=None)
def test_sphere_christoffels_vanishing_families(s, w):
    model = geo.round_sphere_polar(2)
    gam = model.christoffel(w, s)
    n = model.dim - 1
    assert gam[0, n, n] == 0 and gam[n, n, n] == 0 and gam[n, 0, n] == 0


def test_sphere_christoffels_chart_error():
    model = geo.round_sphere_polar(2)
    with pytest.raises(ChartDomainError):
        model.check_chart(np.array([0.0, 1e-5]), what="point")
    with pytest.raises(ChartDomainError):
        model.check_chart(np.array([0.0, np.pi]), what="point")


def test_sphere_last_component_curvature():
    model = geo.round_sphere_polar(3)
    base = geo.stereographic_factor_metric(2, model.coords[:2])
    for s in (0.7, np.pi / 2, 2.2):
        pt = np.array([0.3, 0.2, s])
        riem = model.riemann(*pt)
        gt = geo.lambdify_tensor(model.coords[:2], base)(pt[0], pt[1])
        n = 2
        for a in range(2):
            for b in range(2):
                assert abs(riem[n, a, b, n] - (-np.sin(s) ** 2 * gt[b, a])) <= 1e-12
                assert abs(riem[n, a, n, b] - (np.sin(s) ** 2 * gt[b, a])) <= 1e-12


def test_equator_great_circle_component():
    # R^2_{112} at the equator of S^2 equals -gt_11 = -1 in the angle chart
    model = geo.round_sphere_polar(2)
    riem = model.riemann(0.4, np.pi / 2)
    assert abs(riem[1, 0, 0, 1] - (-1.0)) <= 1e-12


def test_euclidean_curvature_zero():
    model = geo.euclidean(3)
    pts = RNG.uniform(-3, 3, (3, 20))
    assert np.max(np.abs(model.riemann(*pts))) == 0.0


# -- derived tensors -----------------------------------------------------------


def test_derived_tensors_flat_zero():
    model = geo.euclidean(2)
    for tensor in (model.s_tensor, model.c_tensor, model.e_tensor):
        assert np.max(np.abs(tensor(0.3, -1.0))) == 0


@given(w=st.floats(-0.8, 0.8), s=st.floats(0.3, np.pi - 0.3))
@settings(max_examples=25, deadline=None)
def test_s_tensor_symmetry(w, s):
    s_t = geo.round_sphere_polar(2).s_tensor(w, s)
    assert np.max(np.abs(s_t - np.swapaxes(s_t, 1, 2))) <= 1e-12


def test_e_tensor_equator_structure():
    # normal-component E with both curvature-slot indices tangential vanishes
    # on the equator, where the mixed Christoffel families are zero
    model = geo.round_sphere_polar(3)
    e_t = model.e_tensor(0.25, -0.4, np.pi / 2)
    n = model.dim - 1
    assert np.max(np.abs(e_t[n, :, :n, :n, :])) <= 1e-13


def test_c_tensor_definition():
    model = geo.round_sphere_polar(2)
    pt = np.array([0.1, 0.9])
    gam = model.christoffel(*pt)
    expected = np.einsum("mts,amn->atsn", gam, gam) - model.s_tensor(*pt)
    assert np.max(np.abs(model.c_tensor(*pt) - expected)) <= 1e-13


# -- grid Laplacian ------------------------------------------------------------


def _lap(f, dom, order=4):
    """fields.grid_laplacians of f on a grid_fd map into the line."""
    gm = GridMap.from_values(dom, geo.euclidean(1), np.asarray(f)[None], fd_order=order)
    return grid_laplacians(gm, f)


def test_laplacian_sign_convention_circle(dom_t1):
    x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    lap = _lap(np.sin(x), dom_t1)
    assert np.max(np.abs(lap - np.sin(x))) <= 1e-5


def test_laplacian_constant_zero(dom_t2):
    f = np.full((16, 16), 2.3)
    # stencil weights cancel only to roundoff
    assert np.max(np.abs(_lap(f, dom_t2))) <= 1e-13


def test_laplacian_two_mode_value(dom_t2):
    xs = np.meshgrid(*[np.linspace(0, 2 * np.pi, 96, endpoint=False)] * 2, indexing="ij")
    f = np.cos(xs[0] + 2 * xs[1])
    lap = _lap(f, dom_t2)
    assert np.max(np.abs(lap - 5 * f)) <= 5e-4


@pytest.mark.parametrize("order", [2, 4, 6])
def test_laplacian_convergence_order(dom_t1, order):
    sups = []
    for n in (32, 64, 128, 256):
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        f = np.exp(np.sin(x))
        exact = -(np.cos(x) ** 2 - np.sin(x)) * f
        sups.append(np.max(np.abs(_lap(f, dom_t1, order=order) - exact)))
    orders = observed_order(sups)
    assert min(orders) >= order - 0.2


def test_laplacian_grid_too_coarse(dom_t1):
    with pytest.raises(ConfigurationError):
        _lap(np.zeros(4), dom_t1, order=6)


def test_domain_axes_periodic_omit_the_endpoint(dom_t1):
    # a torus axis has n nodes spaced by L / n: the endpoint duplicates node 0
    (axis,) = dom_t1.axes((8,))
    assert np.array_equal(axis, 2 * np.pi * np.arange(8) / 8)
    torus = geo.flat_torus(2, period=(1.0, 2.0))
    xs, ys = torus.axes((4, 5))
    assert np.array_equal(xs, [0.0, 0.25, 0.5, 0.75])
    assert np.array_equal(ys, np.arange(5) * 0.4)


def test_domain_axes_box_keep_both_endpoints(dom_box1):
    (axis,) = dom_box1.axes((5,))
    assert np.array_equal(axis, [0.0, 0.25, 0.5, 0.75, 1.0])
    cap = geo.sphere_cap_domain(2, sp.pi / 3)
    xs, ys = cap.axes((3, 5))
    assert np.array_equal(xs, [-1.0, 0.0, 1.0])
    assert ys[0] == -1.0 and ys[-1] == 1.0 and len(ys) == 5


def test_cap_domain_ricci_is_einstein():
    # unit round S^2 in the stereographic chart: Ric = (dim - 1) g
    dom = geo.sphere_cap_domain(2, np.pi / 2)
    pts = RNG.uniform(-0.7, 0.7, (2, 30))
    ric = dom.ricci(*pts)
    g = dom.metric(*pts)
    assert np.max(np.abs(ric - g)) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_polar_sphere_ricci_is_einstein_near_the_pole(dim):
    # Ric = (dim - 1) h entrywise; an uncombined trigonometric entry
    # (4 sin^2 s - 4 cos^2 s + 4) loses digits as s -> 0
    model = geo.round_sphere_polar(dim)
    ricci = geo.lambdify_tensor(model.coords, model.ricci_exprs)
    for s in (1e-2, 1e-3, 1e-4):
        pts = [0.3, -0.2][: dim - 1] + [s]
        want = (dim - 1) * model.metric(*pts)
        assert np.all(np.abs(ricci(*pts) - want) <= 1e-13 * np.abs(want)), s


# -- the evaluator contract and cold model builds --------------------------------


def _stacked_broadcasts(coords, tensor):
    """The evaluator as a stack of per-component broadcasts (reference)."""
    flat = []
    geo._flatten(tensor, flat)
    shape = geo._nesting_shape(tensor)
    fn = sp.lambdify(list(coords), flat, modules="numpy", cse=True)

    def call(*points):
        pts = [np.asarray(p, dtype=float) for p in points]
        node_shape = np.broadcast_shapes(*(p.shape for p in pts))
        with np.errstate(all="ignore"):
            vals = fn(*pts)
        stacked = np.stack([np.broadcast_to(np.asarray(v, dtype=float), node_shape) for v in vals])
        return stacked.reshape(shape + node_shape)

    return call


def test_lambdify_tensor_shapes_and_broadcasts():
    x, y = sp.symbols("x y", real=True)
    xs, ys = np.linspace(0.1, 1.0, 4)[:, None], np.linspace(-1.0, 1.0, 3)[None, :]
    got = geo.lambdify_tensor((x, y), [[sp.S.Zero, sp.Rational(3, 2)], [x * y, sp.S.One]])(xs, ys)
    assert got.shape == (2, 2, 4, 3) and got.dtype == np.float64
    assert np.all(got[0, 0] == 0.0) and np.all(got[0, 1] == 1.5) and np.all(got[1, 1] == 1.0)
    assert np.array_equal(got[1, 0], xs * ys)
    assert geo.lambdify_tensor((x, y), [])(xs, ys).shape == (0, 4, 3)
    scalar = geo.lambdify_tensor((x, y), x + 2 * y)(xs, ys)
    assert scalar.shape == (4, 3) and np.array_equal(scalar, xs + 2 * ys)
    assert geo.lambdify_tensor((x, y), [sp.S(7)])(0.5, 0.5).shape == (1,)


def test_lambdify_tensor_returns_fresh_writable_arrays():
    x = sp.Symbol("x", real=True)
    fn = geo.lambdify_tensor((x,), [sp.S.One, x])
    pts = np.linspace(0.0, 1.0, 5)
    first = fn(pts)
    assert first.flags.writeable and first.flags.c_contiguous
    assert not np.shares_memory(first[1], pts)
    first[:] = -1.0
    assert np.array_equal(fn(pts), [np.ones(5), pts])


@pytest.mark.parametrize("dim", [2, 3])
def test_lambdify_tensor_matches_stacked_broadcasts(dim):
    model = geo.round_sphere_polar(dim)
    pts = _random_sphere_points(40, dim).reshape((dim, 5, 8))
    for exprs in (model.christoffel_exprs, model.s_tensor_exprs, model.riemann_exprs):
        got = geo.lambdify_tensor(model.coords, exprs)(*pts)
        assert np.array_equal(got, _stacked_broadcasts(model.coords, exprs)(*pts))


def test_evaluator_builds_never_render_expressions(monkeypatch):
    # lambdify's docstring would print the whole expression list; only the
    # printer's own symbol names may go through str or repr
    model = geo.round_sphere_polar(3)
    exprs = [model.christoffel_exprs, model.s_tensor_exprs, model.riemann_exprs]

    def refuse(self):
        if not isinstance(self, sp.Symbol):
            raise AssertionError(f"rendered a {type(self).__name__}")
        return self.name

    monkeypatch.setattr(sp.Basic, "__str__", refuse)
    monkeypatch.setattr(sp.Basic, "__repr__", refuse)
    pts = _random_sphere_points(6, 3)
    for tensor in exprs:
        assert np.all(np.isfinite(geo.lambdify_tensor(model.coords, tensor)(*pts)))


def test_node_evaluators_leave_numpy_submodules_unloaded():
    # lambdify(modules="numpy") runs `from numpy import *`, which loads
    # numpy.f2py and numpy.ma; the evaluators take numpy's namespace instead
    script = ("import sys, sympy as sp; from polyharm import geometry as geo; "
              "from polyharm.fields import GridMap; from polyharm.polytension import tau_k; "
              "dom = geo.flat_torus(1); x, = dom.coords; "
              "gm = GridMap.from_exprs(dom, geo.round_sphere_polar(2), (16,), "
              "[x, sp.pi / 2 + 2 * sp.sin(x) / 5]); tau_k(gm, 2); "
              "print(sorted(m for m in ('numpy.f2py', 'numpy.ma') if m in sys.modules))")
    src = str(pathlib.Path(geo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("expr", ["besselj(0, x1)", "f(x1)", "Integral(sin(x1*t), (t, 0, 1))"])
def test_evaluator_rejects_functions_without_numpy_form(expr):
    x1 = sp.Symbol("x1", real=True)
    with pytest.raises(CapabilityError, match="no numpy evaluator"):
        geo.lambdify_tensor((x1,), [x1, sp.sympify(expr, locals={"x1": x1})])


def test_evaluator_accepts_attribute_calls():
    # a Piecewise on an And prints as logical_and.reduce(...): `reduce` is an
    # attribute name of the generated code, not a missing function
    x1 = sp.Symbol("x1", real=True)
    bump = sp.Piecewise((x1, (x1 > 1) & (x1 < 2)), (0, True))
    got = geo.lambdify_tensor((x1,), [bump])(np.array([0.5, 1.5, 2.5]))
    assert np.array_equal(got, [[0.0, 1.5, 0.0]])


def test_model_builds_never_call_simplify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.simplify called")

    monkeypatch.setattr(sp, "simplify", refuse)
    monkeypatch.setattr(sp.Expr, "simplify", refuse)
    y1, y2 = sp.symbols("y1:3", real=True)
    targets = [geo.round_sphere_polar(d) for d in (2, 3, 4)]
    targets += [geo.space_form(3, 1.0), geo.space_form(3, -1.0),
                geo.target_from_metric([[sp.sin(y2) ** 2, 0], [0, 1]], (y1, y2))]
    for tgt in targets:
        for name in ("christoffel_exprs", "s_tensor_exprs", "riemann_exprs", "nabla_riemann_exprs"):
            getattr(tgt, name)
        tgt.ricci_exprs
    for m in (1, 2, 3):
        dom = geo.sphere_cap_domain(m, sp.pi / 2)
        dom.christoffel_exprs, dom.ricci_exprs, dom.metric_inv_jet_exprs
    for d, tgt in zip((2, 3, 4), targets):
        *w, s = tgt.coords
        diag = sp.sin(s) ** -2 if d == 2 else sp.expand((1 + sp.Add(*[c ** 2 for c in w])) ** 2) / (4 * sp.sin(s) ** 2)
        expected = [[diag if i == j < d - 1 else sp.S(int(i == j)) for j in range(d)] for i in range(d)]
        assert sp.srepr(tgt.metric_inv_exprs) == sp.srepr(expected)
