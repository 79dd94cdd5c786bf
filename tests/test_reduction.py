"""Reduced vectors, the second-order identity, and the sup-ratio witnesses."""
import numpy as np
import pytest
import sympy as sp

from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import polytension as pt
from polyharm import reduction as red
from polyharm.errors import ConfigurationError, DegenerateInputError

from conftest import observed_order


def test_block_bookkeeping_k3(map_circle_sphere):
    z = red.build_reduced(map_circle_sphere, 3, "plain")
    m, n = 1, 2
    assert len(z.blocks) == 3
    assert z.fiber_dimension == n * (m + 2)
    assert z.fiber_dimension == red.reduced_dimension("plain", 3, m, n)


@pytest.mark.parametrize("kind,k", [("plain", 3), ("plain", 4), ("extended", 3), ("equator", 3)])
def test_dimension_formula(map_circle_sphere, kind, k):
    z = red.build_reduced(map_circle_sphere, k, kind)
    assert z.fiber_dimension == red.reduced_dimension(kind, k, 1, 2)
    assert len(z.blocks) == len(red.build_rhs(map_circle_sphere, k, kind).blocks)


def test_harmonic_blocks_vanish(harmonic_maps):
    gm = harmonic_maps["equator"]
    z = red.build_reduced(gm, 3, "plain")
    for b in z.blocks:
        assert np.max(np.abs(b)) == 0.0
    y = red.build_reduced(gm, 3, "equator")
    for b in y.blocks:
        assert np.max(np.abs(b)) == 0.0


def test_flat_target_rhs_structure(dom_t1, tgt_e1):
    # flat target, k = 3: F^1 = u_1 (A vanishes), F^top = 0, middle rows pure
    # differentials (the commutator corrections vanish on the flat torus)
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_e1, (32,), (sp.sin(x),))
    rhs = red.build_rhs(gm, 3, "plain")
    tower_u1 = rhs.blocks[0]
    from polyharm.polytension import build_tower

    tw = build_tower(gm, 2)
    assert np.max(np.abs(tower_u1 - tw.u[1].values)) == 0.0
    assert np.max(np.abs(rhs.blocks[-1])) == 0.0  # F^3 = -A_2 = 0
    for lin in rhs.linear_corrections:
        assert np.max(np.abs(lin)) == 0.0


def test_latitude_top_block_matches_jet_oracle(map_latitude):
    # the literal F^3 of the reduced system against the covariant route
    # F^3 = lap u_1 - tau_3 = (u_2 - A_2) - tau_3
    gm = map_latitude
    rhs = red.build_rhs(gm, 3, "plain")
    tower = pt.build_tower(gm, 3)
    oracle = (tower.u[2].values - tower.a[1].values) - pt.tau_k(gm, 3).values
    assert np.max(np.abs(rhs.blocks[-1] - oracle)) <= 1e-8


def test_commutator_correction_on_bumpy_domain(dom_bumpy, tgt_s2):
    # residual stays small only because the shared commutator terms are present
    x = dom_bumpy.coords[0]
    gm = fl.GridMap.from_exprs(dom_bumpy, tgt_s2, (256,), (x, sp.pi / 2 + sp.sin(x) / 4))
    res = np.max(red.residual(gm, 3))
    rhs = red.build_rhs(gm, 3)
    lin_size = max(np.max(np.abs(lin)) for lin in rhs.linear_corrections)
    assert lin_size > 1e-2       # the corrections are genuinely active here
    assert res <= 1e-3           # and the identity holds to stencil accuracy


@pytest.mark.parametrize("k", [3, 4])
def test_residual_decays_at_stencil_order(dom_t1, tgt_s2, k):
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.Rational(2, 5) * sp.sin(x))
    sups = []
    for n in (64, 128, 256):
        gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (n,), exprs)
        sups.append(float(np.max(red.residual(gm, k))))
    assert min(observed_order(sups)) >= 4 - 0.2


def test_residual_harmonic_exactly_zero(harmonic_maps):
    assert np.max(red.residual(harmonic_maps["equator"], 3)) == 0.0


def test_residual_latitude_type_map(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (512,), (x, sp.pi / 2 + sp.sin(x) / 3))
    assert np.max(red.residual(gm, 3)) <= 1e-6


def test_residual_extended_redirects():
    gm = fl.GridMap.from_exprs(geo.flat_torus(1), geo.euclidean(1), (32,),
                               (sp.sin(geo.flat_torus(1).coords[0]),))
    with pytest.raises(ConfigurationError, match="pair_difference_bound"):
        red.residual(gm, 3, "extended")


def test_aronszajn_flat_closed_form(dom_t1, tgt_e1):
    # phi = sin x into the line: z = (-sin, -cos, -sin) up to signs, and the
    # sup of max|lap z| / (sum |z| + sum |dz|) is exactly 1/3 at the axis nodes
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_e1, (64,), (sp.sin(x),))
    rep = red.aronszajn_ratio(gm, 3)
    assert abs(rep.ratio - 1 / 3) <= 1e-6
    assert rep.masked_fraction == 0.0


def test_aronszajn_harmonic_degenerate(harmonic_maps):
    with pytest.raises(DegenerateInputError):
        red.aronszajn_ratio(harmonic_maps["equator"], 3)


def test_aronszajn_refinement_stable(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    exprs = (x, sp.pi / 2 + sp.Rational(2, 5) * sp.sin(x))
    r1 = red.aronszajn_ratio(fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,), exprs), 3)
    r2 = red.aronszajn_ratio(fl.GridMap.from_exprs(dom_t1, tgt_s2, (256,), exprs), 3)
    assert abs(r2.ratio - r1.ratio) <= 0.1 * r1.ratio


def test_sup_ratio_invariances():
    rng = np.random.default_rng(7)
    num = rng.uniform(0.1, 2.0, 64)
    den = rng.uniform(0.5, 3.0, 64)
    base = red._sup_ratio(num, den, None)
    perm = rng.permutation(64)
    shuffled = red._sup_ratio(num[perm], den[perm], None)
    assert base.ratio == shuffled.ratio
    # a globally-zero block changes neither side
    again = red._sup_ratio(np.maximum(num, np.zeros(64)), den + np.zeros(64), None)
    assert base.ratio == again.ratio


def test_pair_bound_identical_maps_degenerate(pair_maps):
    g1, _ = pair_maps
    with pytest.raises(DegenerateInputError):
        red.pair_difference_bound(g1, g1, 3)


def test_pair_bound_finite_and_stable(pair_maps, dom_t1, tgt_s2):
    g1, g2 = pair_maps
    rep = red.pair_difference_bound(g1, g2, 3)
    ratios = {name: r.ratio for name, r in rep.as_records()}
    assert all(np.isfinite(v) and v > 0 for v in ratios.values())
    exprs1 = g1.exprs
    exprs2 = g2.exprs
    g1b = fl.GridMap.from_exprs(dom_t1, tgt_s2, (256,), exprs1)
    g2b = fl.GridMap.from_exprs(dom_t1, tgt_s2, (256,), exprs2)
    rep2 = red.pair_difference_bound(g1b, g2b, 3)
    for (name, r1), (_, r2) in zip(rep.as_records(), rep2.as_records()):
        assert abs(r2.ratio - r1.ratio) <= 0.1 * r1.ratio, name


def test_pair_bound_builds_each_tower_once(pair_maps, monkeypatch):
    # the extended reduced vectors reuse the towers the lemma rows read
    calls = []
    build = red.build_tower

    def counted(gmap, k, *args, **kwargs):
        calls.append(gmap)
        return build(gmap, k, *args, **kwargs)

    monkeypatch.setattr(red, "build_tower", counted)
    g1, g2 = pair_maps
    red.pair_difference_bound(g1, g2, 3)
    assert len(calls) == 2 and calls[0] is g1 and calls[1] is g2


def test_pair_window_equality(dom_t1, tgt_s2, map_window_equatorial):
    # second map perturbed only outside the window: the difference blocks
    # vanish identically on the window interior
    x = dom_t1.coords[0]
    base = fl.GridMap.from_exprs(dom_t1, tgt_s2, (128,), (x, sp.pi / 2))
    pert = map_window_equatorial
    z1 = red.build_reduced(base, 3, "extended")
    z2 = red.build_reduced(pert, 3, "extended")
    diff = z1.stacked() - z2.stacked()
    window = np.zeros(128, dtype=bool)
    window[:40] = True
    assert np.max(np.abs(diff[:, window])) == 0.0
    assert np.max(np.abs(diff)) > 0.0
    rep = red.pair_difference_bound(base, pert, 3)
    assert np.isfinite(rep.full.ratio)


def test_pair_bound_chart_mismatch(pair_maps, dom_t1, tgt_s2):
    g1, _ = pair_maps
    x = dom_t1.coords[0]
    other = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,), (x, sp.pi / 2))
    with pytest.raises(Exception):
        red.pair_difference_bound(g1, other, 3)


# -- equator -------------------------------------------------------------------


def test_equator_globally_equatorial_vanishes(harmonic_maps):
    gm = harmonic_maps["equator"]
    z = red.build_reduced(gm, 3, "equator")
    assert all(np.max(np.abs(b)) == 0.0 for b in z.blocks)
    with pytest.raises(DegenerateInputError):
        red.equator_bound(gm, 3, [(0, 4)])


def test_equator_window_vanishing(map_window_equatorial):
    rep = red.equator_bound(map_window_equatorial, 3, [(0, 40)])
    assert rep.max_on_window <= 1e-10
    assert all(v <= 1e-10 for v in rep.block_max_on_window.values())
    assert np.isfinite(rep.off_window.ratio) and rep.off_window.ratio > 0


def test_equator_off_window_nonzero(map_window_equatorial):
    z = red.build_reduced(map_window_equatorial, 3, "equator")
    stacked = z.stacked()
    assert np.max(np.abs(stacked)) > 0.0


def test_equator_ratio_refinement_stable(dom_t1, tgt_s2, map_window_equatorial):
    rep1 = red.equator_bound(map_window_equatorial, 3, [(0, 40)])
    finer = fl.GridMap.from_exprs(dom_t1, tgt_s2, (256,), map_window_equatorial.exprs)
    rep2 = red.equator_bound(finer, 3, [(0, 80)])
    assert abs(rep2.off_window.ratio - rep1.off_window.ratio) <= 0.1 * rep1.off_window.ratio


def test_equator_blocks_are_normal_components_of_extended(map_window_equatorial):
    # z and F of the equator kind are the last rows of the extended blocks,
    # the map row shifted by pi/2
    gm = map_window_equatorial
    ext = red.build_reduced(gm, 3, "extended")
    eq = red.build_reduced(gm, 3, "equator")
    assert eq.names == ["f", "df", "u0_n", "v0_n", "u1_n"]
    assert np.array_equal(eq.blocks[0], gm.values[-1:] - np.pi / 2)
    assert np.array_equal(eq.blocks[0], ext.blocks[0][-1:] - np.pi / 2)
    for zb, xb in zip(eq.blocks[1:], ext.blocks[1:]):
        assert np.array_equal(zb, xb[-1:])
    f_ext = red.build_rhs(gm, 3, "extended")
    f_eq = red.build_rhs(gm, 3, "equator")
    assert len(f_eq.blocks) == len(eq.blocks)
    for fb, xb, lin, xlin in zip(f_eq.blocks, f_ext.blocks, f_eq.linear_corrections, f_ext.linear_corrections):
        assert np.array_equal(fb, xb[-1:]) and np.array_equal(lin, xlin[-1:])


def test_equator_precondition_error(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,), (x, sp.pi / 2 + sp.sin(x) / 5))
    with pytest.raises(ConfigurationError, match="max"):
        red.equator_bound(gm, 3, [(0, 16)])


def test_equator_needs_sphere_target(map_flat_flat):
    with pytest.raises(ConfigurationError):
        red.build_reduced(map_flat_flat, 3, "equator")


def test_window_mask():
    mask = red.window_mask((8, 8), [(1, 3), (0, 8)])
    assert mask.sum() == 16 and mask[1, 4] and not mask[3, 0]
