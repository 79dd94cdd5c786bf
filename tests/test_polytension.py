"""The tension tower, higher tension fields and the fourth-order curvature
corrections, with every specialization cross-checked against an independent
assembly route."""
import gc
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import polytension as pt
from polyharm.errors import CapabilityError, ConfigurationError

from conftest import observed_order


# -- the A functional ----------------------------------------------------------


def test_a_term_flat_target_zero(map_flat_flat):
    tau = fl.tension(map_flat_flat)
    assert pt.a_term(tau, map_flat_flat).max_norm() == 0.0


def test_a_term_constant_map_zero(harmonic_maps):
    gm = harmonic_maps["constant"]
    sigma = fl.BundleSection(gm, np.ones_like(gm.values), exprs=[sp.S.One, sp.S.One])
    assert pt.a_term(sigma, gm).max_norm() == 0.0


def test_a_term_without_exprs_is_rejected(map_circle_sphere):
    sigma = fl.BundleSection(map_circle_sphere, fl.tension(map_circle_sphere).values)
    with pytest.raises(CapabilityError, match="closed-form"):
        pt.a_term(sigma, map_circle_sphere)


@pytest.mark.parametrize("name", ["map_circle_sphere", "map_flat_sphere"])
def test_numeric_a_term_matches_symbolic_tower(request, name):
    # the numeric kernel on the closed-form partials against the engine's A_i
    gm = request.getfixturevalue(name)
    tower = pt.build_tower(gm, 3)
    for i in range(2):
        got = pt.a_term(tower.u[i], gm).values
        want = tower.a[i].values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_a_term_latitude_matches_section_laplacian(map_latitude):
    # u_1 = lap u_0 + A_1 = A_1 on the latitude inclusion (u_0 constant)
    tau = fl.tension(map_latitude)
    a1 = pt.a_term(tau, map_latitude)
    rl = fl.rough_laplacian(tau)
    assert np.max(np.abs(a1.values - rl.values)) <= 1e-8


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
@settings(max_examples=15, deadline=None)
def test_a_term_linearity(a, b):
    dom = geo.flat_torus(1)
    tgt = geo.round_sphere_polar(2)
    x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    gm = fl.GridMap.from_values(dom, tgt, np.stack([0.2 * np.cos(x), np.pi / 2 + 0.3 * np.sin(x)]))
    s1 = fl.BundleSection(gm, np.stack([np.sin(x), np.cos(x)]))
    s2 = fl.BundleSection(gm, np.stack([np.cos(2 * x), np.sin(2 * x)]))
    combo = fl.BundleSection(gm, a * s1.values + b * s2.values)
    lhs = pt.a_term(combo, gm).values
    rhs = a * pt.a_term(s1, gm).values + b * pt.a_term(s2, gm).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, abs(a) + abs(b))


def test_a_term_c_tensor_form(map_circle_sphere):
    # A written through C: A = -2<du, dphi> Gamma - u u_0 Gamma + u <dphi,dphi> C
    gm = map_circle_sphere
    u0 = fl.tension(gm)
    a_direct = pt.a_term(u0, gm).values
    d1 = fl.dphi_values(gm)
    du = gm.eval_exprs(gm.engine.grad(u0.exprs))
    ginv = gm.dom.metric_inv(*gm.mesh)
    gam = gm.tgt.christoffel(*gm.values)
    c_t = gm.tgt.c_tensor(*gm.values)
    alt = -2 * np.einsum("ij...,ni...,bj...,abn...->a...", ginv, du, d1, gam)
    alt -= np.einsum("n...,b...,abn...->a...", u0.values, u0.values, gam)
    alt += np.einsum("n...,ij...,ti...,sj...,atsn...->a...", u0.values, ginv, d1, d1, c_t)
    assert np.max(np.abs(a_direct - alt)) <= 1e-10


# -- the tower -----------------------------------------------------------------


def test_tower_harmonic_all_zero(harmonic_maps):
    for name, gm in harmonic_maps.items():
        tower = pt.build_tower(gm, 4)
        for sec in tower.u:
            assert sec.max_norm() == 0.0, name


def test_tower_flat_target_iterated_laplacians(map_flat_flat):
    gm = map_flat_flat
    tower = pt.build_tower(gm, 3)
    eng = gm.engine
    expected = eng.tension
    for i in (1, 2):
        expected = [eng.lap(e) for e in expected]
        assert np.max(np.abs(tower.u[i].values - gm.eval_exprs(expected))) <= 1e-11


def test_tower_first_level_is_section_laplacian(map_flat_sphere, map_circle_sphere):
    for gm in (map_flat_sphere, map_circle_sphere):
        tower = pt.build_tower(gm, 2)
        rl = fl.rough_laplacian(tower.u[0])
        assert np.max(np.abs(tower.u[1].values - rl.values)) <= 1e-9


def test_tower_first_level_fd(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,),
                               (x, sp.pi / 2 + sp.sin(x) / 3), eval_mode="grid_fd")
    tower = pt.build_tower(gm, 2)
    rl = fl.rough_laplacian(tower.u[0])
    assert np.max(np.abs(tower.u[1].values - rl.values)) <= 1e-12


def test_tower_resolution_policy(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (16,),
                               (x, sp.pi / 2 + sp.sin(x) / 3), eval_mode="grid_fd")
    with pytest.raises(ConfigurationError, match="16"):
        pt.build_tower(gm, 4)


def test_tower_richardson_estimate(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,),
                               (x, sp.pi / 2 + sp.sin(x) / 3), eval_mode="grid_fd")
    error = pt.richardson_error(gm, 2)
    assert error is not None and 0 < error < 1e-2
    with pytest.raises(CapabilityError, match="grid_fd"):
        pt.richardson_error(fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,), (x, sp.pi / 2 + sp.sin(x) / 3)), 2)


def test_richardson_estimate_reuses_the_fine_tower(dom_t1, tgt_s2, monkeypatch):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,),
                               (x, sp.pi / 2 + sp.sin(x) / 3), eval_mode="grid_fd")
    build = pt._tower_arrays
    built = []
    monkeypatch.setattr(pt, "_tower_arrays", lambda g, k: (built.append(g.grid_shape), build(g, k))[1])
    top_f = pt.build_tower(gm, 3).u[-1].values[:, ::2]
    error = pt.richardson_error(gm, 3)
    assert built == [(128,), (64,)]
    coarse = gm.replace_values(gm.values[:, ::2])
    want = float(np.max(np.abs(top_f - build(coarse, 3)[0][-1])) / (2 ** gm.fd_order - 1))
    assert error == want


def _circle_map(dom, tgt, mode):
    x = dom.coords[0]
    return fl.GridMap.from_exprs(dom, tgt, (64,), (x, sp.pi / 2 + sp.sin(x) / 3), eval_mode=mode)


@pytest.mark.parametrize("mode", ["analytic_jet", "grid_fd"])
def test_tower_memo_is_read_only_and_serves_lower_orders(dom_t1, tgt_s2, mode):
    # the deepest tower is kept as read-only arrays; a higher order replaces
    # it and a lower one reads its prefix
    gm = _circle_map(dom_t1, tgt_s2, mode)
    first = pt.build_tower(gm, 2)
    deep = pt.build_tower(gm, 3)
    memo = gm.__dict__["_memo_tower"]
    assert len(memo[0]) == 3 and deep.u[1].values is not first.u[1].values
    assert all(not x.flags.writeable for part in memo for x in part)
    assert all(not s.values.flags.writeable for s in deep.u + deep.v + deep.a)
    low = pt.build_tower(gm, 2)
    pairs = list(zip(low.u, deep.u)) + list(zip(low.v, deep.v)) + list(zip(low.a, deep.a))
    assert len(pairs) == 4 and all(p.values is q.values for p, q in pairs)


@pytest.mark.parametrize("mode", ["analytic_jet", "grid_fd"])
def test_tower_memo_holds_no_reference_to_its_map(dom_t1, tgt_s2, mode):
    # a stored section would tie map -> tower -> section -> map into a cycle
    # that only the cyclic collector frees
    gm = _circle_map(dom_t1, tgt_s2, mode)
    pt.tau_k(gm, 3)
    assert "_memo_tower" in gm.__dict__
    ref = weakref.ref(gm)
    gc.disable()
    try:
        del gm
        assert ref() is None
    finally:
        gc.enable()


def test_latitude_tower_matches_point_evaluator(map_latitude):
    from polyharm.variational import latitude_reduction

    for k in (2, 3):
        grid_val = pt.tau_k(map_latitude, k).values
        point_val = latitude_reduction(2, k, np.pi / 3)
        assert np.max(np.abs(grid_val[2] - point_val)) <= 1e-9
        assert np.max(np.abs(grid_val[:2])) <= 1e-9


# -- specializations -----------------------------------------------------------


def test_bitension_specialization(map_flat_flat, map_flat_sphere, map_circle_sphere, map_latitude):
    for gm in (map_flat_flat, map_flat_sphere, map_circle_sphere, map_latitude):
        direct = pt.tau_even(gm, 1)
        ref = pt.bitension_reference(gm)
        assert np.max(np.abs(direct.values - ref.values)) <= 1e-9


def test_tau3_matches_literal_route(map_circle_sphere):
    gm = map_circle_sphere
    generic = pt.tau_odd(gm, 1)
    literal = pt.tau_k_literal(gm, 3)
    assert np.max(np.abs(generic.values - literal.values)) <= 1e-9


def test_tau4_explicit_matches_generic(map_circle_sphere):
    gm = map_circle_sphere
    generic = pt.tau_even(gm, 2)
    literal = pt.tau4_explicit(gm)
    assert np.max(np.abs(generic.values - literal.values)) <= 1e-9


@pytest.mark.parametrize("k,min_order", [(3, 3.5), (4, 3.0)])
def test_tau_k_fd_converges_to_analytic(dom_t1, tgt_s2, k, min_order):
    # agreement improves at the stencil order while truncation dominates;
    # past that the 1/h^{2k} roundoff amplification takes over, which is why
    # the exact route is authoritative for acceptance numbers
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.sin(x) * sp.Rational(1, 4))
    reference = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,), exprs)
    sups = []
    for n in (48, 96):
        fd = fl.GridMap.from_exprs(dom_t1, tgt_s2, (n,), exprs, eval_mode="grid_fd")
        exact = pt.tau_k(reference.resample((n,)), k).values
        sups.append(np.max(np.abs(pt.tau_k(fd, k).values - exact)))
    assert min(observed_order(sups)) >= min_order


def test_tau4_explicit_fd_route(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.sin(x) * sp.Rational(1, 4))
    fd = fl.GridMap.from_exprs(dom_t1, tgt_s2, (256,), exprs, eval_mode="grid_fd")
    gap = np.max(np.abs(pt.tau_k(fd, 4).values - pt.tau4_explicit(fd).values))
    assert gap <= 1e-9 * max(1.0, pt.tau_k(fd, 4).max_norm())


def test_covariant_and_literal_routes_agree_across_orders(map_latitude, dom_t1, dom_t2, tgt_s2):
    # both assemblies read one tower; k = 5 reaches the odd-order pair
    # branch of the literal F^k
    x1, x2 = dom_t2.coords
    x = dom_t1.coords[0]
    maps = {
        "latitude": map_latitude,
        "torus_sphere": fl.GridMap.from_exprs(dom_t2, tgt_s2, (8, 8), (x1, sp.pi / 2 + sp.sin(x2) / 5)),
        "circle_sphere_fd": fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,), (x, sp.pi / 2 + sp.sin(x) / 4),
                                                  eval_mode="grid_fd"),
    }
    for name, gm in maps.items():
        for k in (2, 3, 4, 5):
            covariant = pt.tau_k(gm, k)
            gap = np.max(np.abs(covariant.values - pt.tau_k_literal(gm, k).values))
            assert gap <= 1e-9 * max(1.0, covariant.max_norm()), (name, k, gap)


def test_harmonic_kill_switch(harmonic_maps):
    for name, gm in harmonic_maps.items():
        for k in (2, 3, 4, 5, 6):
            assert pt.tau_k(gm, k).max_norm() <= 1e-9, (name, k)


def test_near_harmonic_amplification_bounded(dom_t1, tgt_s2):
    # max|tau_k| <= K max|tau| on a weakly perturbed equator map; K stays
    # modest because every tower level is linear in the perturbation
    x = dom_t1.coords[0]
    eps = sp.Rational(1, 10**6)
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (24,), (x, sp.pi / 2 + eps * sp.sin(x)))
    tau_norm = fl.tension(gm).max_norm()
    assert tau_norm <= 3e-6
    for k in (2, 3, 4):
        ratio = pt.tau_k(gm, k).max_norm() / tau_norm
        assert ratio <= 1e3, (k, ratio)


def test_flat_target_collapse(map_flat_flat):
    gm = map_flat_flat
    tau4 = pt.tau_k(gm, 4)
    eng = gm.engine
    expected = eng.tension
    for _ in range(3):
        expected = [eng.lap(e) for e in expected]
    assert np.max(np.abs(tau4.values - gm.eval_exprs(expected))) <= 1e-10


def test_order_validation(map_flat_flat):
    with pytest.raises(ConfigurationError):
        pt.tau_even(map_flat_flat, 0)
    with pytest.raises(ConfigurationError):
        pt.tau_odd(map_flat_flat, 0)
    with pytest.raises(ConfigurationError):
        pt.build_tower(map_flat_flat, 1)


# -- ES-4 ----------------------------------------------------------------------


def test_es4_flat_target(map_flat_flat):
    terms = pt.es4_terms(map_flat_flat)
    assert terms.omega0.max_norm() == 0.0
    assert np.max(np.abs(terms.omega1)) == 0.0
    assert terms.xi1.max_norm() == 0.0
    assert terms.hat_tau4.max_norm() == 0.0
    # flat-target collapse: tau4_es == tau4 exactly
    t4es = pt.tau4_es(map_flat_flat)
    t4 = pt.tau_k(map_flat_flat, 4)
    assert np.max(np.abs(t4es.values - t4.values)) == 0.0


def test_es4_sphere_xi1_vanishes(map_flat_sphere):
    terms = pt.es4_terms(map_flat_sphere)
    assert terms.xi1.max_norm() == 0.0
    assert terms.omega0.max_norm() > 0.0


def test_es4_harmonic_map_vanishes(harmonic_maps):
    gm = harmonic_maps["equator"]
    terms = pt.es4_terms(gm)
    assert terms.omega0.max_norm() == 0.0
    assert terms.hat_tau4.max_norm() == 0.0
    assert pt.tau4_es(gm).max_norm() <= 1e-9


def test_lapbar_omega0_two_paths(map_flat_sphere):
    a, b = pt.lapbar_omega0_paths(map_flat_sphere)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(a - b)) <= 1e-7 * scale


def test_codifferential_expansion_vs_direct(map_flat_sphere):
    # the six-term expansion against the codifferential kernel on the closed-form
    # Omega_1, built by the Omega_1 kernel on the engine's leaves
    gm = map_flat_sphere
    eng = gm.engine
    ginv, riem, d1, u0 = (np.array(t, dtype=object) for t in (eng.ginv, eng.riemann_c, eng.dphi, eng.tension))
    T = pt.curv_2form_values(riem, d1, u0)
    omega0 = gm.eval_exprs(fl.normalised(eng, pt.omega0_values(ginv, riem, d1, T)).tolist())
    omega1 = pt.omega1_values(ginv, riem, d1, T, u0).tolist()
    tau = fl.tension(gm)
    xi1, lhs, _ = pt.hat_tau4_values(
        gm.dom.metric_inv(*gm.mesh), fl.dphi_values(gm), fl.second_fundamental_form(gm),
        gm.tgt.riemann(*gm.values), gm.tgt.nabla_riemann(*gm.values), tau.values,
        fl.covariant_derivative(tau).values, omega0, np.zeros_like(omega0))
    rhs = 2 * xi1 + 2 * fl.codifferential(gm, gm.eval_exprs(omega1), omega1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, float(np.max(np.abs(rhs))))


def _hat_tau4_frame_loop(ginv, d1, sff, riem, nabla_riem, u0, cd_u0, omega0, lapbar_omega0):
    """hat_tau4_values as a literal loop over the frame tuples (j, j', i, i')."""
    def curv(X, Y, Z):
        return np.einsum("adbc...,b...,c...,d...->a...", riem, X, Y, Z)

    def nabla_r(W, X, Y, Z):
        return np.einsum("adbce...,e...,b...,c...,d...->a...", nabla_riem, W, X, Y, Z)

    m = d1.shape[1]
    T = np.einsum("adbc...,bi...,cj...,d...->aij...", riem, d1, d1, u0)
    xi1, L = np.zeros_like(u0), np.zeros_like(u0)
    for j, jp, i, ip in np.ndindex(m, m, m, m):
        g = ginv[i, ip] * ginv[j, jp]
        if i == ip == 0:
            L += ginv[j, jp] * curv(curv(u0, d1[:, j], u0), u0, d1[:, jp])
        if nabla_riem is not None:
            xi1 -= g * nabla_r(d1[:, jp], T[:, i, j], u0, d1[:, ip])
            L += g * curv(nabla_r(d1[:, i], d1[:, ip], d1[:, j], u0), u0, d1[:, jp])
        L += g * curv(curv(d1[:, i], sff[:, ip, j], u0), u0, d1[:, jp])
        L += g * curv(curv(d1[:, i], d1[:, j], cd_u0[:, ip]), u0, d1[:, jp])
        L += g * curv(T[:, i, j], cd_u0[:, ip], d1[:, jp])
    tr = np.einsum("jk...,adbc...,bj...,c...,dk...->a...", ginv, riem, d1, omega0, d1)
    return xi1, -2.0 * L, L - (lapbar_omega0 + tr) / 2.0


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("node", [(), (1,), (125,), (8, 8)])
@pytest.mark.parametrize("parallel", [False, True])
def test_hat_tau4_values_match_frame_loop(n, m, node, parallel):
    rng = np.random.default_rng(1000 * n + 10 * m + len(node))
    a = rng.standard_normal((m, m) + node)
    shapes = [(n, m), (n, m, m), (n, n, n, n), (n, n, n, n, n), (n,), (n, m), (n,), (n,)]
    ops = [a + np.swapaxes(a, 0, 1)] + [rng.standard_normal(sh + node) for sh in shapes]
    if parallel:  # nabla R = 0: the kernel skips xi_1 and L2
        ops[4] = None
    want = _hat_tau4_frame_loop(*ops)
    got = pt.hat_tau4_values(*ops)
    for w, g in zip(want, got):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    # a NaN anywhere in any operand must reach hat tau_4
    for i, op in enumerate(ops):
        if op is None:
            continue
        poisoned = list(ops)
        poisoned[i] = op.copy()
        poisoned[i].flat[rng.integers(op.size)] = np.nan
        assert np.any(np.isnan(pt.hat_tau4_values(*poisoned)[2])), i


def _covd_omega0_frame_loop(ginv, riem, nabla_riem, d1, sff, u0, cd_u0):
    """covd_omega0_values as a literal loop over the frame tuples (l, i, i', j, j')."""
    def curv(X, Y, Z):
        return np.einsum("adbc...,b...,c...,d...->a...", riem, X, Y, Z)

    def nabla_r(W, X, Y, Z):
        return np.einsum("adbce...,e...,b...,c...,d...->a...", nabla_riem, W, X, Y, Z)

    m = d1.shape[1]
    T = np.einsum("adbc...,bi...,cj...,d...->aij...", riem, d1, d1, u0)
    out = np.zeros((m,) + u0.shape)
    for l, i, ip, j, jp in np.ndindex(m, m, m, m, m):
        w = 2 * curv(sff[:, l, ip], d1[:, jp], u0) + curv(d1[:, ip], d1[:, jp], cd_u0[:, l])
        t = 2 * curv(sff[:, l, i], d1[:, j], T[:, ip, jp])
        if nabla_riem is not None:
            w = w + nabla_r(d1[:, l], d1[:, ip], d1[:, jp], u0)
            t = t + nabla_r(d1[:, l], d1[:, i], d1[:, j], T[:, ip, jp])
        out[l] += ginv[i, ip] * ginv[j, jp] * (t + curv(d1[:, i], d1[:, j], w))
    return out


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("node", [(), (7,), (4, 4)])
@pytest.mark.parametrize("parallel", [False, True])
def test_covd_omega0_values_match_frame_loop(n, m, node, parallel):
    rng = np.random.default_rng(1000 * n + 10 * m + len(node))
    a = rng.standard_normal((m, m) + node)
    shapes = [(n, n, n, n), (n, n, n, n, n), (n, m), (n, m, m), (n,), (n, m)]
    ops = [a + np.swapaxes(a, 0, 1)] + [rng.standard_normal(sh + node) for sh in shapes]
    if parallel:  # nabla R = 0: the kernel skips its terms
        ops[2] = None
    want = _covd_omega0_frame_loop(*ops)
    got = pt.covd_omega0_values(*ops)
    assert got.shape == want.shape == (m, n) + node
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if node == ():  # sympy operands build the closed form of the same sum
        sym = [None if op is None else np.vectorize(sp.Float, otypes=[object])(op) for op in ops]
        closed = pt.covd_omega0_values(*sym).astype(float)
        assert np.max(np.abs(closed - got)) <= 1e-13 * np.max(np.abs(got))


def test_codifferential_of_covd_is_rough_laplacian(dom_bumpy, tgt_s2):
    # d* covd tau = lapbar tau; the bumpy circle has a non-zero domain Gamma,
    # which vanishes on every flat test torus
    x = dom_bumpy.coords[0]
    gm = fl.GridMap.from_exprs(dom_bumpy, tgt_s2, (48,), (x, sp.pi / 2 + sp.sin(x) / 4))
    eng = gm.engine
    v0, gam, d1, u0 = (np.array(t, dtype=object) for t in (eng.grad(eng.tension), eng.gamma_c, eng.dphi, eng.tension))
    w = fl.covd_values(v0, gam, d1, u0).T.tolist()
    d_star = fl.codifferential(gm, gm.eval_exprs(w), w)
    lapbar = fl.rough_laplacian(fl.tension(gm)).values
    assert np.max(np.abs(d_star - lapbar)) <= 1e-10 * float(np.max(np.abs(lapbar)))


def _grid_hat_tau4_errors(dom, tgt, exprs, refs, fd_order):
    """sup |hat tau_4| error of the grid_fd field against the analytic field
    ``refs[N]`` on every N x N grid of ``refs``, in increasing N."""
    errs = []
    for n, ref in sorted(refs.items()):
        gm = fl.GridMap.from_exprs(dom, tgt, (n, n), exprs, eval_mode="grid_fd", fd_order=fd_order)
        errs.append(float(np.max(np.abs(pt.hat_tau4(gm).values - ref))))
    return errs


def test_grid_hat_tau4_converges_at_stencil_order(dom_t2, tgt_s2):
    # grid_fd ES-4 on a curved target: the stencil rough Laplacian of Omega_0
    # carries no runtime two-path check, so convergence to the analytic field
    # (which keeps its own check) pins it
    x1, x2 = dom_t2.coords
    exprs = (2 * x1 + sp.cos(x2) / 5, sp.pi / 2 + sp.sin(x1 + x2) / 4)
    base = fl.GridMap.from_exprs(dom_t2, tgt_s2, (32, 32), exprs)
    refs = {n: pt.hat_tau4(base.resample((n, n))).values for n in (32, 64, 128)}
    assert np.max(np.abs(refs[128])) > 0.5
    for fd_order in (4, 6):
        errs = _grid_hat_tau4_errors(dom_t2, tgt_s2, exprs, refs, fd_order)
        assert min(observed_order(errs)) >= fd_order - 0.5, (fd_order, errs)


def test_es4_on_user_metric_target(dom_t2, monkeypatch):
    # a target that is not a space form: nabla R enters xi_1, L2 and both
    # lapbar Omega_0 paths, so the engine's closed-form nabla R is exercised
    y1, y2 = sp.symbols("y1:3", real=True)
    tgt = geo.target_from_metric([[sp.exp(2 * sp.sin(y2) / 5), 0], [0, 1]], (y1, y2))
    x1, x2 = dom_t2.coords
    exprs = (2 * x1 + sp.cos(x2) / 5, 1 + sp.sin(x1 + x2) / 4)
    gaps = []
    paths = pt.lapbar_omega0_paths

    def recorded(gmap):
        a, b = paths(gmap)
        gaps.append(float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a)))))
        return a, b

    monkeypatch.setattr(pt, "lapbar_omega0_paths", recorded)
    terms = pt.es4_terms(fl.GridMap.from_exprs(dom_t2, tgt, (64, 64), exprs))
    assert gaps and gaps[0] <= 1e-12
    assert terms.xi1.max_norm() > 0.0
    # the analytic field on the 64^2 grid restricted to its 16^2 and 32^2 subgrids
    refs = {64 // s: terms.hat_tau4.values[:, ::s, ::s] for s in (4, 2, 1)}
    for fd_order in (4, 6):
        errs = _grid_hat_tau4_errors(dom_t2, tgt, exprs, refs, fd_order)
        assert errs[0] > errs[1] > errs[2]
        assert observed_order(errs)[-1] >= fd_order - 0.5, (fd_order, errs)


def test_latitude_hat_tau4_cancels():
    # individually nonzero codifferential terms must cancel on latitude spheres
    from polyharm.variational import _latitude_hat_tau4, _latitude_state

    st_ = _latitude_state(2, 0.8)
    assert np.max(np.abs(_latitude_hat_tau4(st_))) <= 1e-12


@pytest.mark.xfail(strict=True, reason="lambdify(cse=True) misevaluates deep tower levels "
                   "(held Mul(Rational, Add) nodes); both tau_4 routes share the evaluator")
def test_tower_level_u3_evaluates_to_exact_values():
    # the tau4_circle_sphere config map; u_3 evaluated on the grid against
    # exact 30-digit evalf at two nodes
    dom = geo.flat_torus(1)
    tgt = geo.round_sphere_polar(2, collar=1e-3)
    x1 = dom.coords[0]
    gm = fl.GridMap.from_exprs(dom, tgt, (64,), (x1, sp.pi / 2 + 2 * sp.sin(x1) / 5),
                               eval_mode="analytic_jet")
    u3 = gm.engine.tower(3)[0][3]
    got = gm.eval_exprs(u3)
    for node in (3, 40):
        x = float(gm.mesh[0][node])
        exact = np.array([float(e.xreplace({x1: sp.Float(x, 30)}).evalf(30)) for e in u3])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(got[:, node] - exact)) <= tol
