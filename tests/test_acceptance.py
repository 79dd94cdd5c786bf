"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import numpy as np
import pytest
import sympy as sp

from polyharm import cli
from polyharm import config as cf
from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import polytension as pt
from polyharm import reduction as red
from polyharm import variational as va

from conftest import observed_order


def _report(number, name):
    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL: {name}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS: {name}")
        return run
    return wrap


@pytest.fixture(scope="module")
def five_maps(map_flat_flat, map_flat_sphere, map_circle_sphere, map_torus_sphere, map_latitude):
    return {
        "flat_to_flat": map_flat_flat,
        "flat_to_sphere": map_flat_sphere,
        "circle_to_sphere": map_circle_sphere,
        "torus_to_sphere": map_torus_sphere,
        "latitude_inclusion": map_latitude,
    }


@_report(1, "specialization suite (bitension, third order via F^3, fourth order explicit)")
def test_criterion_1_specializations(five_maps):
    for name, gm in five_maps.items():
        tau2 = pt.tau_even(gm, 1)
        ref2 = pt.bitension_reference(gm)
        assert np.max(np.abs(tau2.values - ref2.values)) <= 1e-9, name

        tau3 = pt.tau_odd(gm, 1)
        ref3 = pt.tau_k_literal(gm, 3)
        assert np.max(np.abs(tau3.values - ref3.values)) <= 1e-9, name

        tau4 = pt.tau_even(gm, 2)
        ref4 = pt.tau4_explicit(gm)
        assert np.max(np.abs(tau4.values - ref4.values)) <= 1e-9, name


@_report(2, "harmonic kill-switch for k in 2..6 and the ES-4 field")
def test_criterion_2_harmonic_kill_switch(harmonic_maps):
    assert len(harmonic_maps) == 5
    for name, gm in harmonic_maps.items():
        for k in (2, 3, 4, 5, 6):
            assert pt.tau_k(gm, k).max_norm() <= 1e-9, (name, k)
        assert pt.tau4_es(gm).max_norm() <= 1e-9, name


@_report(3, "variational consistency with one globally calibrated sign")
def test_criterion_3_variational_consistency(five_maps, dom_t1, dom_t2):
    assert va.calibrate_variational_sign() == va.VARIATIONAL_SIGN
    x = dom_t1.coords[0]
    x1, x2 = dom_t2.coords
    pairs = [
        (five_maps["flat_to_flat"],
         (sp.sin(x1 + sp.Rational(1, 5)), sp.cos(x2 + sp.Rational(2, 5)) / 3)),
        (five_maps["circle_to_sphere"],
         (sp.sin(x + sp.Rational(3, 10)), sp.cos(2 * x + sp.Rational(1, 10)) / 5)),
        (five_maps["flat_to_sphere"],
         (sp.sin(x1 + x2 / 2), sp.cos(x2 + sp.Rational(1, 10)) / 4)),
    ]
    for order in (1, 2, 3, 4, "es4"):
        for gm, v in pairs:
            disc = va.first_variation_check(gm, v, order)
            assert disc <= 1e-4, (order, gm.tgt.name, disc)


@_report(4, "latitude roots: quarter-circle biharmonic plus frozen goldens")
def test_criterion_4_latitude_roots():
    roots = va.find_k_harmonic_latitude(2, 2)
    assert len(roots) == 1 and abs(roots[0] - np.pi / 4) <= 1e-9
    golden = {
        (2, 3): 0.6154797086703873,   # sin^2(alpha) = 1/3
        (2, 4): 0.5235987755982988,   # sin^2(alpha) = 1/4
        (2, "es4"): 0.5235987755982988,
        (3, 2): 0.7853981633974483,
    }
    for (m, order), alpha in golden.items():
        found = va.find_k_harmonic_latitude(m, order)
        assert len(found) == 1 and abs(found[0] - alpha) <= 1e-8, (m, order)
    for order in (1, 2, 3, 4, 5, 6, "es4"):
        assert abs(va.latitude_reduction(2, order, np.pi / 2)) <= 1e-10


@_report(5, "reduction identity: stencil-order decay, exact zero on harmonic maps")
def test_criterion_5_reduction_identity(dom_t1, tgt_s2, harmonic_maps):
    x = dom_t1.coords[0]
    base = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,),
                                 (x, sp.pi / 2 + sp.Rational(2, 5) * sp.sin(x)))
    for k in (3, 4):
        sups = [float(np.max(red.residual(base.resample((n,)), k)))
                for n in (64, 128, 256)]
        orders = observed_order(sups)
        assert min(orders) >= base.fd_order - 0.2, (k, sups)
    assert np.max(red.residual(harmonic_maps["equator"], 3)) == 0.0
    assert np.max(red.residual(harmonic_maps["equator"], 4)) == 0.0


@_report(6, "inequality witnesses: finite and stable within 10% under refinement")
def test_criterion_6_witness_stability(pair_maps, map_window_equatorial):
    g1, g2 = pair_maps
    r_coarse = red.aronszajn_ratio(g1, 3)
    r_fine = red.aronszajn_ratio(g1.resample((256,)), 3)
    assert 0 < r_coarse.ratio < np.inf
    assert abs(r_fine.ratio - r_coarse.ratio) <= 0.1 * r_coarse.ratio

    pb = red.pair_difference_bound(g1, g2, 3)
    pb_fine = red.pair_difference_bound(g1.resample((256,)), g2.resample((256,)), 3)
    for (name, a), (_, b) in zip(pb.as_records(), pb_fine.as_records()):
        assert 0 < a.ratio < np.inf, name
        assert abs(b.ratio - a.ratio) <= 0.1 * a.ratio, name

    eq = red.equator_bound(map_window_equatorial, 3, [(0, 40)])
    eq_fine = red.equator_bound(map_window_equatorial.resample((256,)), 3, [(0, 80)])
    assert 0 < eq.off_window.ratio < np.inf
    assert abs(eq_fine.off_window.ratio - eq.off_window.ratio) <= 0.1 * eq.off_window.ratio


@_report(7, "equator vanishing on the declared window, nonzero off it")
def test_criterion_7_equator_vanishing(map_window_equatorial):
    window = [(0, 40)]
    rep = red.equator_bound(map_window_equatorial, 3, window)
    assert rep.max_on_window <= 1e-10
    for name, value in rep.block_max_on_window.items():
        assert value <= 1e-10, name
    z = red.build_reduced(map_window_equatorial, 3, "equator")
    off = ~red.window_mask(map_window_equatorial.grid_shape, window)
    assert max(np.max(np.abs(b.reshape((-1,) + map_window_equatorial.grid_shape))[:, off])
               for b in z.blocks) > 1e-6


@_report(8, "ES-4 internal consistency")
def test_criterion_8_es4_consistency(map_flat_sphere, map_flat_flat):
    path_a, path_b = pt.lapbar_omega0_paths(map_flat_sphere)
    scale = max(1.0, float(np.max(np.abs(path_a))))
    assert np.max(np.abs(path_a - path_b)) <= 1e-7 * scale

    terms = pt.es4_terms(map_flat_sphere)
    assert terms.xi1.max_norm() == 0.0
    assert terms.omega0.max_norm() > 0.0

    t4es = pt.tau4_es(map_flat_flat)
    t4 = pt.tau_k(map_flat_flat, 4)
    assert np.max(np.abs(t4es.values - t4.values)) == 0.0


@_report(9, "geometry suite on randomized points and maps")
def test_criterion_9_geometry_suite(dom_t2, tgt_s2):
    rng = np.random.default_rng(24601)
    sphere = geo.round_sphere_polar(3)
    pts = np.vstack([rng.uniform(-0.8, 0.8, (2, 100)), rng.uniform(0.3, np.pi - 0.3, (1, 100))])
    riem = sphere.riemann(*pts)
    assert np.max(np.abs(riem + np.swapaxes(riem, 2, 3))) <= 1e-10
    bianchi = riem + np.moveaxis(riem, (1, 2, 3), (2, 3, 1)) + np.moveaxis(riem, (1, 2, 3), (3, 1, 2))
    assert np.max(np.abs(bianchi)) <= 1e-10
    h = sphere.metric(*pts)
    closed = np.einsum("bd...,ac->adbc...", h, np.eye(3)) * 0
    for a in range(3):
        for d_ in range(3):
            for b in range(3):
                for c in range(3):
                    closed[a, d_, b, c] = -h[b, d_] * (a == c) + h[c, d_] * (a == b)
    assert np.max(np.abs(riem - closed)) <= 1e-10
    s_t = sphere.s_tensor(*pts)
    assert np.max(np.abs(s_t - np.swapaxes(s_t, 1, 2))) <= 1e-10

    # one hundred random trigonometric maps through the commutation identity
    x1, x2 = dom_t2.coords
    worst = 0.0
    for _ in range(100):
        a1, a2 = rng.uniform(-0.25, 0.25, 2)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        gm = fl.GridMap.from_exprs(
            dom_t2, tgt_s2, (3, 3),
            (x1 + sp.Float(a1) * sp.sin(x2 + sp.Float(p1)),
             sp.pi / 2 + sp.Float(a2) * sp.cos(x1 + sp.Float(p2))))
        worst = max(worst, float(np.max(fl.weitzenbock_residual(gm))))
    assert worst <= 1e-6


@_report(10, "deterministic artifacts from identical configurations")
def test_criterion_10_determinism(tmp_path):
    import json

    spec = {
        "command": "tau-k", "order": 3,
        "domain": {"kind": "flat_torus", "dim": 1},
        "target": {"kind": "round_sphere_polar", "dim": 2},
        "map": {"exprs": ["x1", "pi/2 + 2*sin(x1)/5"]},
        "grid_shape": [32],
    }
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(spec))
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.txt"
        assert cli.main(["tau-k", "--config", str(cfgf), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    art1 = cli.run(cf.ExperimentConfig.from_dict(spec))
    art2 = cli.run(cf.ExperimentConfig.from_dict(spec))
    assert art1.render() == art2.render()
