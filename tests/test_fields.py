"""First-order operators: differential, second fundamental form, tension,
section calculus and the commutation-identity residual."""
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import stencils
from polyharm import polytension as pt
from polyharm import reduction as red
from polyharm import variational as va
from polyharm.errors import CapabilityError, ChartDomainError, ConfigurationError

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


@pytest.mark.parametrize("mode", ["analytic_jet", "grid_fd"])
def test_rejects_nonconstant_winding(dom_t1, tgt_e1, mode):
    # (x + 2 pi)^2 - x^2 grows with x: no constant winding, so x^2 is not a
    # map on the circle in either mode
    x = dom_t1.coords[0]
    with pytest.raises(ConfigurationError, match="component 0 .* axis 0"):
        fl.GridMap.from_exprs(dom_t1, tgt_e1, (16,), (x ** 2,), eval_mode=mode)


def test_from_exprs_never_calls_simplify(dom_t2, tgt_s2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.simplify called")

    monkeypatch.setattr(sp, "simplify", refuse)
    monkeypatch.setattr(sp.Expr, "simplify", refuse)
    x1, x2 = dom_t2.coords
    exprs = (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4)
    for mode in ("analytic_jet", "grid_fd"):
        gm = fl.GridMap.from_exprs(dom_t2, tgt_s2, (16, 16), exprs, eval_mode=mode)
        assert np.array_equal(gm.winding, [[2.0, 0.0], [0.0, 0.0]])


def test_grid_fd_accepts_constant_winding(dom_t2, tgt_s2):
    x1, x2 = dom_t2.coords
    gm = fl.GridMap.from_exprs(dom_t2, tgt_s2, (16, 16),
                               (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4),
                               eval_mode="grid_fd")
    assert np.max(np.abs(gm.winding - [[2.0, 0.0], [0.0, 0.0]])) <= 1e-12


def test_winding_shift_uses_exact_period(dom_t2, tgt_s2):
    # shifting by the float 2*pi left sin(x1 + x2) with a winding near -9e-18,
    # and the extended witness then rejected this periodic map as winding
    x1, x2 = dom_t2.coords
    gm = fl.GridMap.from_exprs(dom_t2, tgt_s2, (16, 16),
                               (sp.Rational(3, 10) + sp.sin(x1) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4))
    assert np.all(gm.winding == 0.0)
    assert np.isfinite(red.aronszajn_ratio(gm, 3, kind="extended").ratio)
    fd = fl.GridMap.from_exprs(dom_t2, tgt_s2, (16, 16),
                               (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4),
                               eval_mode="grid_fd")
    assert np.array_equal(fd.winding, [[2.0, 0.0], [0.0, 0.0]])


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


@pytest.mark.parametrize("op", [fl.covariant_derivative, fl.rough_laplacian])
def test_analytic_section_without_exprs_is_rejected(map_circle_sphere, op):
    # an analytic_jet section is differentiated through its closed form; no
    # silent fallback to stencils on the sample grid
    sigma = fl.BundleSection(map_circle_sphere, fl.tension(map_circle_sphere).values)
    with pytest.raises(CapabilityError, match="closed-form"):
        op(sigma)


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
            want[c + (i,)] = stencils.diff1(arr[c], i, gm.spacings[i], gm.fd_order)
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
    assert np.array_equal(fl.grid_laplacians(gm, arr[2, 1]), want[2, 1])


def test_grid_rough_laplacian_matches_literal_formula(winding_fd_map):
    gm = winding_fd_map
    sigma = fl.tension(gm)
    d1 = fl.map_partials(gm)
    ginv = gm.dom.metric_inv(*gm.mesh)
    gam = gm.tgt.christoffel(*gm.values)
    s_t = gm.tgt.s_tensor(*gm.values)
    dsig = np.stack([np.stack([stencils.diff1(sigma.values[a], i, gm.spacings[i], gm.fd_order)
                               for i in range(2)]) for a in range(2)])
    want = np.stack([_scalar_laplacian_loop(gm, sigma.values[a]) for a in range(2)])
    want -= 2.0 * np.einsum("ij...,tj...,bi...,abt...->a...", ginv, dsig, d1, gam)
    want += np.einsum("t...,b...,abt...->a...", sigma.values, fl.map_laplacian(gm), gam)
    want -= np.einsum("t...,ij...,bj...,wi...,abwt...->a...", sigma.values, ginv, d1, d1, s_t)
    got = fl.rough_laplacian(sigma).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _literal_a_term(eta, xi, ginv, d1, lap_phi, gam, s_t):
    out = -2.0 * np.einsum("ij...,ti...,bj...,abt...->a...", ginv, xi, d1, gam)
    out += np.einsum("t...,b...,abt...->a...", eta, lap_phi, gam)
    out -= np.einsum("t...,ij...,bj...,wi...,abwt...->a...", eta, ginv, d1, d1, s_t)
    return out


# every pairwise g-trace kernel against the one-call einsum it replaced:
# (kernel, literal oracle, operand shapes as (kind, fiber axes))
PAIRWISE_KERNELS = {
    "gamma_trace": (
        fl.gamma_trace,
        lambda g, gam, d1: np.einsum("ij...,atb...,ti...,bj...->a...", g, gam, d1, d1),
        ("g", "nnn", "nm")),
    "a_term_values": (fl.a_term_values, _literal_a_term, ("n", "nm", "g", "nm", "n", "nnn", "nnnn")),
    # tau_k's top curvature term Sum_j R(sec, dphi_j) dphi_j
    "trace_R_sec_frame(dphi)": (
        lambda g, r, d1, sec: pt.trace_R_sec_frame(g, r, d1, sec, d1),
        lambda g, r, d1, sec: np.einsum("ij...,adbc...,b...,ci...,dj...->a...", g, r, sec, d1, d1),
        ("g", "nnnn", "nm", "n")),
    "trace_R_frame_sec": (
        pt.trace_R_frame_sec,
        lambda g, r, d1, x, y: np.einsum("ij...,adbc...,bi...,c...,dj...->a...", g, r, x, y, d1),
        ("g", "nnnn", "nm", "nm", "n")),
    "trace_R_sec_frame": (
        pt.trace_R_sec_frame,
        lambda g, r, d1, x, y: np.einsum("ij...,adbc...,b...,ci...,dj...->a...", g, r, x, y, d1),
        ("g", "nnnn", "nm", "n", "nm")),
    "trace_R_dphi_frame": (
        fl.trace_R_dphi_frame,
        lambda g, r, d1: np.einsum("kl...,bk...,ci...,dl...,adbc...->ai...", g, d1, d1, d1, r),
        ("g", "nnnn", "nm")),
    "omega0_values": (
        pt.omega0_values,
        lambda g, r, d1, T: np.einsum("ik...,jl...,adbc...,bi...,cj...,dkl...->a...", g, g, r, d1, d1, T),
        ("g", "nnnn", "nm", "nmm")),
    "omega1_values": (
        pt.omega1_values,
        lambda g, r, d1, T, u0: np.einsum("jk...,adbc...,bij...,c...,dk...->ia...", g, r, T, u0, d1),
        ("g", "nnnn", "nm", "nmm", "n")),
}


@pytest.mark.parametrize("node", [(), (1,), (125,), (8, 8)], ids=str)
@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (4, 3)])
def test_pairwise_kernels_match_literal_einsum(n, m, node):
    rng = np.random.default_rng(1000 * n + 10 * m + len(node))
    for name, (kernel, literal, kinds) in PAIRWISE_KERNELS.items():
        ops = []
        for kind in kinds:
            if kind == "g":
                a = rng.standard_normal((m, m) + node)
                ops.append(a + np.swapaxes(a, 0, 1))
            else:
                ops.append(rng.standard_normal(tuple(n if c == "n" else m for c in kind) + node))
        want = literal(*ops)
        got = kernel(*ops)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
        # a NaN anywhere in any operand must reach the output: the latitude
        # non-finite guard and the CLI's exit code 5 rely on it
        for i in range(len(ops)):
            poisoned = list(ops)
            poisoned[i] = ops[i].copy()
            poisoned[i].flat[rng.integers(ops[i].size)] = np.nan
            assert np.any(np.isnan(kernel(*poisoned))), (name, i)
        if node == ():
            # sympy operands: the kernel builds the closed form of the same sum
            closed = kernel(*(np.vectorize(sp.Float, otypes=[object])(op) for op in ops))
            assert np.max(np.abs(closed.astype(float) - got)) <= 1e-13 * np.max(np.abs(got)), name


def test_second_ff_closed_form_matches_operator(map_latitude, map_circle_sphere):
    # one kernel: on the engine's leaves it builds the closed form whose
    # partials the Weitzenboeck defect reads, on evaluated nodes the operator
    for gm in (map_latitude, map_circle_sphere):
        want = fl.second_fundamental_form(gm)
        got = gm.eval_exprs(fl.second_ff_exprs(gm.engine).tolist())
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


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


# -- the per-grid plan and the per-map memo -------------------------------------


class _FreshPlan:
    """The domain data of a grid evaluated anew on every read, as every
    operator evaluated it before the per-grid plan."""

    def __init__(self, gm):
        self.dom, self.grid_shape = gm.dom, gm.grid_shape

    @property
    def mesh(self):
        return np.meshgrid(*self.dom.axes(self.grid_shape), indexing="ij")

    @property
    def ginv(self):
        return self.dom.metric_inv(*self.mesh)

    @property
    def christoffel(self):
        return self.dom.christoffel(*self.mesh)

    @property
    def laplace_coefs(self):
        return [np.einsum("ij...,ij...->...", self.ginv, self.christoffel[k]) for k in range(self.dom.dim)]

    @property
    def ricci(self):
        return self.dom.ricci(*self.mesh)

    @property
    def ginv_jet(self):
        return self.dom.metric_inv_jet(*self.mesh)

    @property
    def christoffel_jet(self):
        return self.dom.christoffel_jet(*self.mesh)

    @property
    def weights(self):
        dom, shape = self.dom, self.grid_shape
        g = dom.metric(*np.meshgrid(*dom.axes(shape), indexing="ij"))
        det = np.linalg.det(np.moveaxis(g.reshape((dom.dim, dom.dim, -1)), -1, 0)).reshape(shape)
        cell = float(np.prod([(hi - lo) / n for lo, hi, n in zip(dom.chart.lo, dom.chart.hi, shape)]))
        return np.sqrt(det) * cell


def _uncached_dphi(gm):
    return gm.eval_exprs(gm.engine.dphi) if gm.eval_mode == "analytic_jet" else fl.map_partials(gm)


def _uncached_lap_phi(gm):
    if gm.eval_mode == "analytic_jet":
        return gm.eval_exprs(gm.engine.lap_phi)
    return fl.grid_laplacians(gm, gm.periodic_values, gm.winding)


def _uncached_target_christoffel(gm):
    return gm.tgt.christoffel(*gm.values)


def _uncached_tension(gm):
    if gm.eval_mode == "analytic_jet":
        return gm.eval_exprs(gm.engine.tension)
    return -_uncached_lap_phi(gm) + fl.gamma_trace(gm.dom.metric_inv(*gm.mesh),
                                                   _uncached_target_christoffel(gm), fl.map_partials(gm))


def _uncache(mp):
    """Route every read of the plan and the memo to the formulas above."""
    mp.setattr(fl.GridMap, "plan", property(_FreshPlan))
    formulas = {"dphi_values": _uncached_dphi, "map_laplacian": _uncached_lap_phi,
                "target_christoffel": _uncached_target_christoffel, "_tension_values": _uncached_tension}
    for mod in (fl, pt, red, va):
        for name, formula in formulas.items():
            if hasattr(mod, name):
                mp.setattr(mod, name, formula)


def _cold_copy(gm):
    """A new map with gm's values and symbolic engine, an empty memo and a
    plan of its own."""
    new = fl.GridMap(gm.dom, gm.tgt, gm.grid_shape, gm.values, gm.eval_mode, gm.exprs,
                     gm.winding.copy(), gm.fd_order)
    if gm.eval_mode == "analytic_jet":
        new.__dict__["engine"] = gm.engine
    new.__dict__["plan"] = fl.GridPlan(gm.dom, gm.grid_shape)
    return new


def _memo_quantities(gm):
    n, m = gm.tgt.dim, gm.dom.dim
    w = np.moveaxis(fl.dphi_values(gm), 1, 0)
    w_exprs = ([[gm.engine.dphi[a][l] for a in range(n)] for l in range(m)]
               if gm.eval_mode == "analytic_jet" else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        weitzenbock = fl.weitzenbock_residual(gm)
    out = {
        "tension": fl.tension(gm).values,
        "tau_2": pt.tau_k(gm, 2).values,
        "tau_3": pt.tau_k(gm, 3).values,
        "tau4_explicit": pt.tau4_explicit(gm).values,
        "second_ff": fl.second_fundamental_form(gm),
        "codifferential": fl.codifferential(gm, w, w_exprs),
        "weitzenbock": weitzenbock,
        "aronszajn": red.aronszajn_ratio(gm, 3).ratio,
    }
    out.update((f"energy_{k}", va.energy_k(gm, k).value) for k in (1, 2, 3))
    return out


@pytest.fixture(scope="module")
def memo_maps(dom_t2, dom_bumpy, tgt_s2):
    """The flat torus and a non-flat circle into S^2 in both modes.  The
    analytic maps are ones whose symbolic tau_4 stays small; the grid_fd
    grids are fine enough for the tau_4 tower."""
    x1, x2 = dom_t2.coords
    x = dom_bumpy.coords[0]
    return {
        ("torus_sphere", "analytic_jet"): fl.GridMap.from_exprs(
            dom_t2, tgt_s2, (12, 12), (x1, sp.pi / 2 + sp.sin(x2) / 4)),
        ("torus_sphere", "grid_fd"): fl.GridMap.from_exprs(
            dom_t2, tgt_s2, (48, 48), (x1 + sp.sin(x2) / 5, sp.pi / 2 + sp.cos(x1) / 4), eval_mode="grid_fd"),
        ("bumpy_sphere", "analytic_jet"): fl.GridMap.from_exprs(dom_bumpy, tgt_s2, (16,), (x, sp.pi / 2)),
        ("bumpy_sphere", "grid_fd"): fl.GridMap.from_exprs(
            dom_bumpy, tgt_s2, (48,), (x, sp.pi / 2 + sp.sin(x) / 4), eval_mode="grid_fd"),
    }


@pytest.mark.parametrize("mode", ["analytic_jet", "grid_fd"])
@pytest.mark.parametrize("case", ["torus_sphere", "bumpy_sphere"])
def test_plan_and_memo_equal_uncached_formulas(memo_maps, case, mode, monkeypatch):
    gm = memo_maps[(case, mode)]
    with monkeypatch.context() as mp:
        _uncache(mp)
        want = _memo_quantities(_cold_copy(gm))
    cached = _cold_copy(gm)
    cold = _memo_quantities(cached)
    warm = _memo_quantities(cached)
    for name, value in want.items():
        assert np.array_equal(cold[name], value), name
        assert np.array_equal(warm[name], value), name
    plan = cached.plan
    kept = [*plan.mesh, plan.ginv, plan.christoffel, plan.laplace_coefs, plan.ricci, plan.ginv_jet,
            plan.christoffel_jet, plan.weights, cached.values, cached.periodic_values,
            fl.dphi_values(cached), fl.map_laplacian(cached), fl.target_christoffel(cached),
            fl.tension(cached).values]
    assert not any(arr.flags.writeable for arr in kept)


def test_grid_and_subsample_get_their_own_plans(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,), (x, sp.pi / 2 + sp.sin(x) / 4), eval_mode="grid_fd")
    coarse = gm.replace_values(gm.values[:, ::2])
    assert coarse.plan is not gm.plan
    assert coarse.plan.ginv.shape == (1, 1, 32) and gm.plan.ginv.shape == (1, 1, 64)
    assert gm.replace_values(gm.values).plan is gm.plan
    assert fl.grid_plan(dom_t1, (64,)) is gm.plan


def test_grid_map_values_are_a_read_only_copy(dom_t1, tgt_s2):
    x = dom_t1.axes((16,))[0]
    arr = np.stack([x, np.pi / 2 + np.sin(x) / 4])
    gm = fl.GridMap.from_values(dom_t1, tgt_s2, arr, winding=[[1.0], [0.0]])
    assert arr.flags.writeable
    arr[1] = 0.0
    assert np.all(gm.values[1] > 1.0)
    with pytest.raises(ValueError):
        gm.values[1, 0] = 0.0
    with pytest.raises(ValueError):
        gm.values += 1.0
