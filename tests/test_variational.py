"""Energies, the variational sign, latitude reductions and the descent flow."""
import re

import numpy as np
import pytest
import sympy as sp

from polyharm import fields as fl
from polyharm import geometry as geo
from polyharm import variational as va
from polyharm.errors import ChartDomainError, ConfigurationError, NumericalContractError


# -- energies -------------------------------------------------------------------


def test_dirichlet_energy_of_identity_unit_square():
    dom = geo.flat_torus(2, period=1.0)
    tgt = geo.euclidean(2)
    x1, x2 = dom.coords
    gm = fl.GridMap.from_exprs(dom, tgt, (8, 8), (x1, x2))
    rep = va.energy_k(gm, 1)
    assert rep.value == pytest.approx(1.0, abs=1e-13)


def test_constant_map_energies_vanish(harmonic_maps):
    gm = harmonic_maps["constant"]
    for k in (1, 2, 3, 4):
        assert va.energy_k(gm, k).value == 0.0
    assert va.energy_es4(gm).value == 0.0


def test_harmonic_nonconstant_higher_energies_vanish(harmonic_maps):
    gm = harmonic_maps["equator_wrap2"]
    assert va.energy_k(gm, 1).value > 0.0
    for k in (2, 3, 4, 5):
        assert va.energy_k(gm, k).value <= 1e-25
    assert va.energy_es4(gm).value <= 1e-25


def test_energy_nonnegative(map_flat_sphere, map_circle_sphere):
    for gm in (map_flat_sphere, map_circle_sphere):
        for k in (1, 2, 3, 4):
            assert va.energy_k(gm, k).value >= 0.0
        assert va.energy_es4(gm).value >= 0.0


def test_es4_energy_flat_equals_fourth(map_flat_flat):
    assert va.energy_es4(map_flat_flat).value == pytest.approx(
        va.energy_k(map_flat_flat, 4).value, rel=1e-12)


def test_es4_energy_latitude_circle_closed_form(tgt_s2):
    # S^1(sin a) in S^2: constant integrand, so the energy is the single-point
    # fiber norm times the volume 2 pi sin(a); the curvature integrand needs
    # two domain directions and vanishes here
    alpha = np.pi / 3
    dom = geo.sphere_cap_domain(1, sp.pi / 3)
    x = dom.coords[0]
    gm = fl.GridMap.from_exprs(dom, tgt_s2, (32,), (x, sp.pi / 3))
    rep = va.energy_es4(gm)
    t = 1 / np.tan(alpha)
    u1_n = (-t) * (t ** 2)  # m = 1 tower: c_1 = c_0 * m cot^2
    expected = 0.5 * u1_n ** 2 * 2 * np.pi * np.sin(alpha)
    assert rep.value == pytest.approx(expected, rel=1e-8)


def test_energy_needs_periodic_domain(map_latitude):
    with pytest.raises(ConfigurationError):
        va.energy_k(map_latitude, 2)


# -- first variation -------------------------------------------------------------


def test_variation_zero_direction(map_circle_sphere):
    assert va.first_variation_check(map_circle_sphere, (sp.S.Zero, sp.S.Zero), 2) <= 1e-12


def test_variation_flat_closed_form(dom_t1, tgt_e1):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_e1, (64,), (sp.sin(x),))
    assert va.first_variation_check(gm, (sp.sin(x) + sp.cos(2 * x) / 3,), 1) <= 1e-6


def test_variation_sphere_k2(map_circle_sphere, dom_t1):
    x = dom_t1.coords[0]
    v = (sp.sin(x + sp.Rational(3, 10)), sp.cos(2 * x + sp.Rational(1, 10)) / 5)
    assert va.first_variation_check(map_circle_sphere, v, 2) <= 1e-4


def test_sign_calibration():
    assert va.calibrate_variational_sign() == va.VARIATIONAL_SIGN == -1.0


def test_variation_hyperbolic_target(dom_t1):
    # negative-curvature space form through the same sign chain
    hyp = geo.space_form(2, -1.0)
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, hyp, (48,),
                               (x, 1 + sp.sin(x) / 4 + sp.cos(2 * x) / 10))
    v = (sp.sin(x + sp.Rational(1, 5)), sp.cos(2 * x) / 5)
    for order in (1, 2):
        assert va.first_variation_check(gm, v, order) <= 1e-4


# -- latitude reduction ----------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, "es4"])
def test_equator_is_critical_for_every_order(order):
    assert abs(va.latitude_reduction(2, order, np.pi / 2)) <= 1e-10


def test_latitude_harmonic_value():
    got = va.latitude_reduction(2, 1, np.pi / 3)
    assert got == pytest.approx(-2 / np.tan(np.pi / 3), abs=1e-12)
    assert got == pytest.approx(-1.1547005383792517, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_latitude_family_law(m, k):
    # proper k-tension of the latitude family: m^k t^{2k-3} (k - 1 - t^2)
    # with t = cot(alpha); roots sit at sin^2(alpha) = 1/k
    alpha = 0.9
    t = 1 / np.tan(alpha)
    expected = m ** k * t ** (2 * k - 3) * (k - 1 - t ** 2)
    assert va.latitude_reduction(m, k, alpha) == pytest.approx(expected, rel=1e-10)


def test_latitude_biharmonic_value_at_quarter():
    assert abs(va.latitude_reduction(2, 2, np.pi / 4)) <= 1e-9


def test_latitude_pole_collar():
    with pytest.raises(ChartDomainError):
        va.latitude_reduction(2, 2, 1e-4)
    with pytest.raises(ChartDomainError):
        va.latitude_reduction(2, 2, 2.0)


GOLDEN_LATITUDE_ROOTS = {
    # produced by the bracketing + bisection oracle over the pointwise
    # reduction and frozen; they agree with the small-hypersphere family
    # sin^2(alpha) = 1/k to machine precision
    (2, 2): 0.7853981633974483,
    (3, 2): 0.7853981633974483,
    (2, 3): 0.6154797086703873,
    (2, 4): 0.5235987755982988,
    (2, "es4"): 0.5235987755982988,
}


@pytest.mark.parametrize("m,order", sorted(GOLDEN_LATITUDE_ROOTS, key=str))
def test_latitude_roots_golden(m, order):
    roots = va.find_k_harmonic_latitude(m, order)
    assert len(roots) == 1
    assert abs(roots[0] - GOLDEN_LATITUDE_ROOTS[(m, order)]) <= 1e-9
    assert abs(va.latitude_reduction(m, order, roots[0])) <= 1e-8


SCAN_CASES = [(1, 2), (2, 2), (2, 3), (2, "es4"), (3, 2), (3, 5)]


@pytest.mark.parametrize("m,order", SCAN_CASES, ids=str)
def test_latitude_array_values_match_scalar_calls(m, order):
    grid = np.linspace(0.05, np.pi / 2 - 1e-6, 300)
    scalar = np.array([va.latitude_reduction(m, order, a) for a in grid])
    assert np.array_equal(va._latitude_values(m, order, grid), scalar)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_latitude_family_law_on_angle_array(m, k):
    alphas = np.array([0.3, 0.9, 1.0, 1.2, 1.4])
    t = 1 / np.tan(alphas)
    expected = m ** k * t ** (2 * k - 3) * (k - 1 - t ** 2)
    assert va._latitude_values(m, k, alphas) == pytest.approx(expected, rel=1e-10)


def test_latitude_array_checks_name_first_bad_angle():
    with pytest.raises(ChartDomainError, match=r"angle 2\.0 outside"):
        va._latitude_values(2, 2, np.array([0.5, 2.0, np.nan]))
    with pytest.raises(ChartDomainError, match="angle nan outside"):
        va._latitude_values(2, 2, np.array([0.5, np.nan]))
    with pytest.raises(ChartDomainError, match=r"angle 0\.0001 inside the pole collar"):
        va._latitude_values(2, 2, np.array([0.5, 1e-4, 1e-5]))


@pytest.mark.parametrize("m,order", [(2, 3), (2, "es4")], ids=str)
def test_latitude_roots_independent_of_block_size(monkeypatch, m, order):
    roots = va.find_k_harmonic_latitude(m, order)
    for block in (1000, 7):
        monkeypatch.setattr(va, "LATITUDE_BLOCK", block)
        assert va.find_k_harmonic_latitude(m, order) == roots


def test_latitude_scan_rejects_nonfinite_value(monkeypatch):
    bad = np.linspace(0.05, np.pi / 2 - 1e-6, 1000)[300]
    state = va._latitude_state

    def poisoned(m, alpha):
        st = state(m, alpha)
        st["lap_phi"] = np.where(np.atleast_1d(alpha) == bad, np.nan, st["lap_phi"])
        return st

    monkeypatch.setattr(va, "_latitude_state", poisoned)
    with pytest.raises(NumericalContractError, match=re.escape(f"angle {float(bad)}")):
        va.find_k_harmonic_latitude(2, 3)


def test_latitude_search_evaluates_scan_in_blocks(monkeypatch):
    calls = []
    state = va._latitude_state

    def counted(m, alpha):
        calls.append(np.size(alpha))
        return state(m, alpha)

    monkeypatch.setattr(va, "_latitude_state", counted)
    assert len(va.find_k_harmonic_latitude(2, 3)) == 1
    assert len(calls) <= 60


def test_latitude_search_rejects_harmonic_order():
    with pytest.raises(ConfigurationError):
        va.find_k_harmonic_latitude(2, 1)


# -- gradient flow ----------------------------------------------------------------


def test_flow_harmonic_is_stationary(harmonic_maps, dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,), (x, sp.pi / 2), eval_mode="grid_fd")
    res = va.gradient_flow(gm, 2, dt=1e-5, steps=5)
    assert max(res.energies) <= 1e-24
    assert res.halvings == 0


def test_flow_k1_converges(dom_t2, tgt_e2):
    x1, x2 = dom_t2.coords
    gm = fl.GridMap.from_exprs(dom_t2, tgt_e2, (32, 32),
                               (x1 + sp.sin(x2) / 10, x2 + sp.sin(x1 + x2) / 10),
                               eval_mode="grid_fd")
    res = va.gradient_flow(gm, 1, dt=5e-3, steps=2500)
    energies = res.energies
    assert all(energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1))
    assert res.records[-1][2] <= 1e-6


def test_flow_k2_returns_toward_equator(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (32,),
                               (x, sp.pi / 2 + sp.sin(3 * x) / 1000), eval_mode="grid_fd")
    res = va.gradient_flow(gm, 2, dt=3e-4, steps=2500)
    energies = res.energies
    assert all(energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1))
    assert res.records[-1][2] <= 1e-5


def test_flow_halves_unstable_step(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,),
                               (x, sp.pi / 2 + sp.sin(x) / 100), eval_mode="grid_fd")
    res = va.gradient_flow(gm, 2, dt=1.0, steps=3)
    assert res.halvings > 0
    assert res.dt_final < 1.0


def test_flow_dt_underflow(dom_t1, tgt_s2):
    x = dom_t1.coords[0]
    gm = fl.GridMap.from_exprs(dom_t1, tgt_s2, (64,),
                               (x, sp.pi / 2 + sp.sin(x) / 100), eval_mode="grid_fd")
    with pytest.raises(ConfigurationError, match="underflow"):
        va.gradient_flow(gm, 2, dt=1e3, steps=3, max_halvings=2)
