"""First-order operators: differential, second fundamental form, tension,
section calculus and the commutation-identity residual."""
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import stencils
from polyharm.errors import ChartDomainError, ConfigurationError

from conftest import observed_order


def test_differential_constant_map(harmonic_maps):
    d = fl.differential(harmonic_maps["constant"])
    assert np.max(np.abs(d.values)) == 0.0


def test_differential_identity(harmonic_maps):
    d = fl.differential(harmonic_maps["identity"]).values
    eye = np.eye(2).reshape(2, 2, 1, 1)
    assert np.max(np.abs(d - eye)) == 0.0


def test_differential_affine_into_sphere(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (8,), (x, sp.pi / 2))
    d = fl.differential(gm).values
    assert np.allclose(d[0, 0], 1.0) and np.max(np.abs(d[1, 0])) == 0.0


def test_winding_detected_for_wrapping_maps(harmonic_maps):
    wrap = harmonic_maps["equator_wrap2"]
    assert wrap.winding[0, 0] == pytest.approx(2.0)
    assert wrap.winding[1, 0] == 0.0


def test_grid_fd_rejects_nonconstant_winding(dom_t1, tgt_e1):
    # (x + 2 pi)^2 - x^2 grows with x: no constant winding for the stencils
    x = dom_t1.coords[0]
    with pytest.raises(ConfigurationError, match="component 0 .* axis 0"):
        fl.GridMap.from_exprs(dom_t1, tgt_e1, (16,), (x ** 2,), eval_mode="grid_fd")


def test_analytic_jet_keeps_single_probe_winding(dom_t1, tgt_e1):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_e1, (16,), (x ** 2,))
    assert gm.winding[0, 0] == pytest.approx(0.2 + 2 * np.pi, rel=1e-12)


def test_grid_fd_accepts_constant_winding(dom_t2, tgt_s2):
    x1, x2 = dom_t2.coords
    gm = fl.GridMap.from_exprs(dom_t2, tgt_s2, (16, 16),
                               (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4),
                               eval_mode="grid_fd")
    assert np.max(np.abs(gm.winding - [[2.0, 0.0], [0.0, 0.0]])) <= 1e-12


def test_second_ff_totally_geodesic(harmonic_maps):
    sff = fl.second_fundamental_form(harmonic_maps["equator"])
    assert np.max(np.abs(sff)) <= 1e-14


def test_second_ff_flat_affine(harmonic_maps):
    assert np.max(np.abs(fl.second_fundamental_form(harmonic_maps["identity"]))) == 0.0


def test_second_ff_latitude_circle(dom_t1, tgt_s2):
    # phi = (x, alpha): nabla dphi^2_11 = -sin(a) cos(a) * gt_11 * (dphi^1_1)^2
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (8,), (x, sp.pi / 3))
    sff = fl.second_fundamental_form(gm)
    expected = -np.sin(np.pi / 3) * np.cos(np.pi / 3)  # = -sqrt(3)/4
    assert np.max(np.abs(sff[1, 0, 0] - expected)) <= 1e-14
    assert abs(expected + np.sqrt(3) / 4) <= 1e-15


def test_second_ff_symmetry(map_flat_sphere):
    sff = fl.second_fundamental_form(map_flat_sphere)
    assert np.max(np.abs(sff - np.swapaxes(sff, 1, 2))) <= 1e-10


def test_tension_identity_flat(harmonic_maps):
    assert fl.tension(harmonic_maps["identity"]).max_norm() == 0.0


def test_tension_latitude_inclusion(map_latitude):
    tau = fl.tension(map_latitude).values
    assert np.max(np.abs(tau[:2])) <= 1e-12
    assert np.max(np.abs(tau[2] - (-2 / np.tan(np.pi / 3)))) <= 1e-12
    assert abs(-2 / np.tan(np.pi / 3) - (-1.1547005383792517)) <= 1e-15


def test_tension_equator_inclusion(harmonic_maps):
    assert fl.tension(harmonic_maps["equator"]).max_norm() == 0.0


def test_trace_consistency(map_flat_sphere, map_circle_sphere):
    for gm in (map_flat_sphere, map_circle_sphere):
        sff = fl.second_fundamental_form(gm)
        ginv = gm.dom.metric_inv(*gm.mesh)
        trace = np.einsum("ij...,aij...->a...", ginv, sff)
        tau = fl.tension(gm).values
        assert np.max(np.abs(trace - tau)) <= 1e-9


def test_covariant_derivative_flat_is_partials(map_flat_flat):
    tau = fl.tension(map_flat_flat)
    cd = fl.covariant_derivative(tau).values
    grad = map_flat_flat.eval_exprs(map_flat_flat.engine.grad(tau.exprs))
    assert np.max(np.abs(cd - grad)) <= 1e-13


def test_covariant_derivative_constant_zero(harmonic_maps):
    gm = harmonic_maps["constant"]
    sigma = fl.BundleSection(gm, np.ones_like(gm.values), exprs=[sp.S.One, sp.S.One])
    assert np.max(np.abs(fl.covariant_derivative(sigma).values)) == 0.0


def test_covariant_derivative_latitude_structure(map_latitude):
    # constant normal section: (covd sigma)^a_i = Gamma^a_{i n} sigma^n only
    gm = map_latitude
    tau = fl.tension(gm)
    cd = fl.covariant_derivative(tau).values
    gam = gm.tgt.christoffel(*gm.values)
    expected = np.einsum("ain...,n...->ai...", gam[:, :2, 2:], tau.values[2:])
    assert np.max(np.abs(cd - expected)) <= 1e-12


def test_rough_laplacian_flat_degenerates(map_flat_flat):
    tau = fl.tension(map_flat_flat)
    rl = fl.rough_laplacian(tau).values
    comp = map_flat_flat.eval_exprs(
        [map_flat_flat.engine.lap(tau.exprs[a]) for a in range(2)])
    assert np.max(np.abs(rl - comp)) <= 1e-12


def test_rough_laplacian_constant_zero(harmonic_maps):
    gm = harmonic_maps["constant"]
    sigma = fl.BundleSection(gm, np.full_like(gm.values, 0.7),
                             exprs=[sp.Rational(7, 10)] * 2)
    assert np.max(np.abs(fl.rough_laplacian(sigma).values)) == 0.0


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_rough_laplacian_linearity(a, b):
    # grid_fd path: exact linearity up to roundoff
    dom = geo.flat_torus(1)
    tgt = geo.round_sphere_polar(2)
    x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    vals = np.stack([x * 0 + 0.5, np.pi / 2 + 0.3 * np.sin(x)])
    gm = fl.GridMap.from_values(dom, tgt, vals)
    s1 = fl.BundleSection(gm, np.stack([np.sin(x), np.cos(2 * x)]))
    s2 = fl.BundleSection(gm, np.stack([np.cos(x), np.sin(3 * x)]))
    combo = fl.BundleSection(gm, a * s1.values + b * s2.values)
    lhs = fl.rough_laplacian(combo).values
    rhs = a * fl.rough_laplacian(s1).values + b * fl.rough_laplacian(s2).values
    scale = max(1.0, abs(a) + abs(b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_rough_laplacian_latitude_value(map_latitude):
    # lapbar tau on the latitude inclusion: constant normal value
    # c1 = c0 * m * cot(a)^2 with c0 = -m cot(a), m = 2, a = pi/3
    rl = fl.rough_laplacian(fl.tension(map_latitude)).values
    c1 = -2 / np.tan(np.pi / 3) * 2 / np.tan(np.pi / 3) ** 2
    assert np.max(np.abs(rl[2] - c1)) <= 1e-8
    assert abs(c1 - (-0.7698003589195011)) <= 1e-12
    assert np.max(np.abs(rl[:2])) <= 1e-10


# -- stacked stencil helpers ----------------------------------------------------


@pytest.fixture(scope="module")
def winding_fd_map(dom_t2, tgt_s2):
    """Winding torus -> S^2 map on a non-square grid_fd grid."""
    x1, x2 = dom_t2.coords
    return fl.GridMap.from_exprs(dom_t2, tgt_s2, (32, 24),
                                 (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4),
                                 eval_mode="grid_fd")


def _stack_fields(gm):
    """A (3, 2) + grid stack of periodic fields built from the map."""
    per = gm.periodic_values
    return np.stack([per, np.sin(per), per * np.cos(per[::-1])]).reshape((3, 2) + gm.grid_shape)


def _scalar_laplacian_loop(gm, f):
    """Per-component reference: -g^{ij} d_ij f + g^{ij} Gamma^k_{ij} d_k f."""
    hs = gm.spacings
    ginv = gm.dom.metric_inv(*gm.mesh)
    gam = gm.dom.christoffel(*gm.mesh)
    out = np.zeros_like(f)
    for i in range(gm.dom.dim):
        for j in range(gm.dom.dim):
            if np.all(ginv[i, j] == 0):
                continue
            out -= ginv[i, j] * stencils.partial2(f, i, j, hs[i], hs[j], gm.fd_order)
    for k in range(gm.dom.dim):
        coef = np.einsum("ij...,ij...->...", ginv, gam[k])
        if np.any(coef != 0):
            out += coef * stencils.diff1(f, k, hs[k], gm.fd_order)
    return out


def test_grid_partials_match_component_loop(winding_fd_map):
    gm = winding_fd_map
    arr = _stack_fields(gm)
    want = np.empty((3, 2, 2) + gm.grid_shape)
    for c in np.ndindex(3, 2):
        for i in range(2):
            want[c + (i,)] = fl.grid_partial(gm, arr[c], i)
    assert np.array_equal(fl.grid_partials(gm, arr), want)
    assert np.array_equal(fl.grid_partials(gm, arr[1, 0]), want[1, 0])


@pytest.mark.parametrize("which", ["winding_torus", "bumpy_circle"])
def test_grid_laplacians_match_component_loop(winding_fd_map, dom_bumpy, tgt_s2, which):
    if which == "winding_torus":
        gm = winding_fd_map
    else:
        x = dom_bumpy.coords[0]
        gm = fl.GridMap.from_exprs(dom_bumpy, tgt_s2, (48,), (x, sp.pi / 2 + sp.sin(x) / 4),
                                   eval_mode="grid_fd")
    arr = _stack_fields(gm)
    want = np.empty_like(arr)
    for c in np.ndindex(3, 2):
        want[c] = _scalar_laplacian_loop(gm, arr[c])
    assert np.array_equal(fl.grid_laplacians(gm, arr), want)
    assert np.array_equal(fl.scalar_laplacian(gm, arr[2, 1]), want[2, 1])


def test_grid_rough_laplacian_matches_literal_formula(winding_fd_map):
    gm = winding_fd_map
    sigma = fl.tension(gm)
    d1 = fl.map_partials(gm)
    ginv = gm.dom.metric_inv(*gm.mesh)
    gam = gm.tgt.christoffel(*gm.values)
    s_t = gm.tgt.s_tensor(*gm.values)
    dsig = np.stack([np.stack([fl.grid_partial(gm, sigma.values[a], i) for i in range(2)])
                     for a in range(2)])
    want = np.stack([_scalar_laplacian_loop(gm, sigma.values[a]) for a in range(2)])
    want -= 2.0 * np.einsum("ij...,tj...,bi...,abt...->a...", ginv, dsig, d1, gam)
    want += np.einsum("t...,b...,abt...->a...", sigma.values, fl.map_laplacian(gm), gam)
    want -= np.einsum("t...,ij...,bj...,wi...,abwt...->a...", sigma.values, ginv, d1, d1, s_t)
    got = fl.rough_laplacian(sigma).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_weitzenbock_flat_affine(harmonic_maps):
    assert np.max(fl.weitzenbock_residual(harmonic_maps["identity"])) == 0.0


def test_weitzenbock_equator_geodesic(harmonic_maps):
    assert np.max(fl.weitzenbock_residual(harmonic_maps["equator_wrap2"])) <= 1e-8


def test_weitzenbock_latitude(map_latitude):
    assert np.max(fl.weitzenbock_residual(map_latitude)) <= 1e-8


def test_weitzenbock_curved_trig_map(map_flat_sphere):
    assert np.max(fl.weitzenbock_residual(map_flat_sphere)) <= 1e-8


def test_weitzenbock_grid_fd_warns(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,),
                               (x, sp.pi / 2 + sp.sin(x) / 4), eval_mode="grid_fd")
    with pytest.warns(UserWarning, match="stencil-limited"):
        res = fl.weitzenbock_residual(gm)
    assert np.max(res) <= 1e-3


def test_grid_fd_matches_analytic_at_stencil_order(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.sin(x) * sp.Rational(2, 5))
    sups = []
    for n in (32, 64, 128):
        fd = fl.GridMap.from_exprs(dom_t1, tgt_s2, (n,), exprs, eval_mode="grid_fd")
        an = fl.GridMap.from_exprs(dom_t1, tgt_s2, (n,), exprs)
        sups.append(np.max(np.abs(fl.tension(fd).values - fl.tension(an).values)))
    assert min(observed_order(sups)) >= 3.8


def test_chart_exit_aborts(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    with pytest.raises(ChartDomainError):
        fl.GridMap.from_exprs(dom_t1, tgt_s2, (16,), (x, sp.Float(3.2) + sp.sin(x)))


def test_stencil_ops_need_torus(map_latitude):
    with pytest.raises(ConfigurationError):
        fl.map_partials(map_latitude)


def test_eval_mode_validation(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    with pytest.raises(ConfigurationError):
        fl.GridMap.from_exprs(dom_t1, tgt_s2, (8,), (x, sp.pi / 2), eval_mode="magic")


def test_user_metric_target_matches_builtin(dom_t1, tgt_s2):
    # the sphere entered generically as a user metric follows the same path
    # as any user target (curvature from jets) and must agree with the
    # closed-form model
    generic = geo.target_from_metric(tgt_s2.metric_exprs, tgt_s2.coords, name="generic_s2")
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.sin(x) / 4)
    tau_builtin = fl.tension(fl.GridMap.from_exprs(dom_t1, tgt_s2, (16,), exprs))
    tau_generic = fl.tension(fl.GridMap.from_exprs(dom_t1, generic, (16,), exprs))
    assert np.max(np.abs(tau_builtin.values - tau_generic.values)) <= 1e-12
