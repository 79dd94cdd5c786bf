"""Energies, variational consistency, latitude-sphere reductions and flow.

Energies use the periodic trapezoid rule (spectrally accurate on analytic
periodic integrands) with the volume element sqrt(det g) and fiber norms
pulled back through the target metric.

The first-variation check compares a central finite difference of the energy
along a chart-line variation ``phi + t V`` against
``VARIATIONAL_SIGN * integral <tau_k, V>``; the sign is calibrated once on
the Dirichlet case and must validate unchanged for every order.

The latitude reduction evaluates the normal component of ``tau_k`` on the
inclusion of the latitude sphere ``S^m(sin alpha)`` into ``S^{m+1}``.  By
equivariance every tower level has constant chart components proportional to
the polar direction, so one point suffices and the whole tower is exact
pointwise algebra; the tangential components are asserted to vanish.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ChartDomainError,
    ConfigurationError,
    NumericalContractError,
)
from .fields import (
    BundleSection,
    GridMap,
    a_term_values,
    covariant_derivative,
    covd_values,
    dphi_values,
    gamma_trace,
    tension,
)
from .geometry import round_sphere_polar, sphere_cap_domain
from .polytension import (
    build_tower,
    curv_apply_num,
    hat_tau4,
    tau_k,
    tau_k_from_tower,
)

__all__ = [
    "VARIATIONAL_SIGN",
    "EnergyReport",
    "FlowResult",
    "energy_k",
    "energy_es4",
    "first_variation_check",
    "calibrate_variational_sign",
    "latitude_reduction",
    "find_k_harmonic_latitude",
    "gradient_flow",
]

# Global first-variation sign: d/dt E_k(phi + tV)|_0 = VARIATIONAL_SIGN * int <tau_k, V> dV.
# Calibrated once on the Dirichlet energy (k = 1) and required to hold for all
# orders; see calibrate_variational_sign.
VARIATIONAL_SIGN = -1.0

POLE_COLLAR = 1e-3


@dataclass(frozen=True)
class EnergyReport:
    """A quadrature result; ``value`` is nonnegative for every implemented order."""

    k: object
    value: float
    quadrature: str
    grid_shape: tuple[int, ...]


def _volume_weights(gmap: GridMap) -> np.ndarray:
    if not gmap.is_periodic:
        raise ConfigurationError("energies need a periodic domain grid (torus quadrature)")
    g = gmap.dom.metric(*gmap.mesh)
    node_shape = gmap.grid_shape
    gmat = np.moveaxis(g.reshape((gmap.dom.dim, gmap.dom.dim, -1)), -1, 0)
    det = np.linalg.det(gmat).reshape(node_shape)
    cell = float(np.prod(gmap.spacings))
    return np.sqrt(det) * cell


def integrate(gmap: GridMap, scalar: np.ndarray) -> float:
    """Periodic trapezoid quadrature of a node-wise scalar against dV."""
    return float(np.sum(scalar * _volume_weights(gmap)))


def _h_at(gmap: GridMap) -> np.ndarray:
    return gmap.tgt.metric(*gmap.values)


def energy_k(gmap: GridMap, k: int) -> EnergyReport:
    """E_1 = 1/2 int |dphi|^2; E_{2s} = 1/2 int |lapbar^{s-1} tau|^2;
    E_{2s+1} = 1/2 int |covd lapbar^{s-1} tau|^2."""
    if k < 1:
        raise ConfigurationError("energy order must be >= 1")
    h = _h_at(gmap)
    ginv = gmap.dom.metric_inv(*gmap.mesh)
    if k == 1:
        d1 = dphi_values(gmap)
        density = np.einsum("ij...,ab...,ai...,bj...->...", ginv, h, d1, d1)
    else:
        s = k // 2 if k % 2 == 0 else (k - 1) // 2
        top = tension(gmap) if s == 1 else build_tower(gmap, s).u[s - 1]
        if k % 2 == 0:
            density = np.einsum("ab...,a...,b...->...", h, top.values, top.values)
        else:
            cd = covariant_derivative(top).values
            density = np.einsum("ij...,ab...,ai...,bj...->...", ginv, h, cd, cd)
    value = 0.5 * integrate(gmap, density)
    if value < -1e-12:
        raise NumericalContractError(f"energy came out negative: {value}")
    return EnergyReport(k, max(value, 0.0), "trapezoid-torus", gmap.grid_shape)


def energy_es4(gmap: GridMap) -> EnergyReport:
    """1/2 int |lapbar tau|^2 + 1/4 int |R(dphi_i, dphi_j) tau|^2."""
    h = _h_at(gmap)
    ginv = gmap.dom.metric_inv(*gmap.mesh)
    tower = build_tower(gmap, 2)
    u1 = tower.u[1].values
    main = np.einsum("ab...,a...,b...->...", h, u1, u1)
    d1 = dphi_values(gmap)
    riem = gmap.tgt.riemann(*gmap.values)
    T = np.einsum("adbc...,bi...,cj...,d...->aij...", riem, d1, d1, tower.u[0].values)
    curv = np.einsum("ik...,jl...,ab...,aij...,bkl...->...", ginv, ginv, h, T, T)
    value = 0.5 * integrate(gmap, main) + 0.25 * integrate(gmap, curv)
    if value < -1e-12:
        raise NumericalContractError(f"ES-4 energy came out negative: {value}")
    return EnergyReport("es4", max(value, 0.0), "trapezoid-torus", gmap.grid_shape)


def _energy_any(gmap: GridMap, order) -> float:
    return (energy_es4(gmap) if order == "es4" else energy_k(gmap, int(order))).value


def _tau_any(gmap: GridMap, order) -> BundleSection:
    if order == "es4":
        t4 = tau_k(gmap, 4)
        ht = hat_tau4(gmap)
        return BundleSection(gmap, t4.values + ht.values)
    return tau_k(gmap, int(order))


def first_variation_check(gmap: GridMap, variation_exprs, order, t: float = 1e-5) -> float:
    """Relative discrepancy between the centered t-derivative of the energy
    along phi + tV and VARIATIONAL_SIGN * int <tau_k, V> dV."""
    if gmap.eval_mode != "analytic_jet":
        raise CapabilityError("first_variation_check needs analytic_jet mode")
    import sympy as sp

    v_exprs = [sp.sympify(e) for e in variation_exprs]
    phi = list(gmap.exprs)

    def shifted(tt: float):
        exprs = [phi[a] + tt * v_exprs[a] for a in range(gmap.tgt.dim)]
        return GridMap.from_exprs(gmap.dom, gmap.tgt, gmap.grid_shape, exprs)

    e_plus = _energy_any(shifted(+t), order)
    e_minus = _energy_any(shifted(-t), order)
    fd = (e_plus - e_minus) / (2 * t)
    tau = _tau_any(gmap, order)
    vvals = gmap.eval_exprs(v_exprs)
    h = _h_at(gmap)
    pairing = integrate(gmap, np.einsum("ab...,a...,b...->...", h, tau.values, vvals))
    rhs = VARIATIONAL_SIGN * pairing
    scale = max(abs(fd), abs(rhs))
    if scale < 1e-8:
        # degenerate pairing: report the absolute gap instead of a 0/0 ratio
        return abs(fd - rhs)
    return abs(fd - rhs) / scale


def calibrate_variational_sign(resolution: int = 48) -> float:
    """Recover the global sign on the Dirichlet case (flat torus to flat
    plane) and confirm it matches VARIATIONAL_SIGN."""
    import sympy as sp

    from .geometry import euclidean, flat_torus

    dom = flat_torus(1)
    tgt = euclidean(1)
    x = dom.coords[0]
    gmap = GridMap.from_exprs(dom, tgt, (resolution,), (sp.sin(x),))
    v = (sp.sin(x) + sp.cos(2 * x) / 3,)
    t = 1e-5
    e_p = energy_k(GridMap.from_exprs(dom, tgt, (resolution,), (sp.sin(x) + t * v[0],)), 1).value
    e_m = energy_k(GridMap.from_exprs(dom, tgt, (resolution,), (sp.sin(x) - t * v[0],)), 1).value
    fd = (e_p - e_m) / (2 * t)
    tau = tau_k(gmap, 1)
    pairing = integrate(gmap, np.einsum("a...,a...->...", tau.values, gmap.eval_exprs(list(v))))
    sign = float(np.sign(fd / pairing))
    if sign != VARIATIONAL_SIGN:
        raise NumericalContractError(
            f"variational sign calibration produced {sign}, inconsistent with {VARIATIONAL_SIGN}")
    return sign


# ---------------------------------------------------------------------------
# the equivariant latitude reduction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _latitude_context(m: int):
    """Per-m chart data for the pointwise latitude evaluation: the target
    model, the evaluation point, and the unit equator-factor tensors there
    (the domain Christoffels are scale-invariant)."""
    tgt = round_sphere_polar(m + 1)
    unit_dom = sphere_cap_domain(m, np.pi / 2)
    point = (0.3,) if m == 1 else tuple(0.2 + 0.1 * i for i in range(m))
    return tgt, point, unit_dom.metric_inv(*point), unit_dom.christoffel(*point)


def _latitude_state(m: int, alpha):
    """Pointwise data at the latitude point for a scalar or a 1-D array of
    angles; every array carries a trailing angle axis of length N."""
    tgt, point, gt_inv, gam_dom = _latitude_context(m)
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    n, N = m + 1, alphas.size
    ginv = gt_inv[..., None] / np.sin(alphas) ** 2
    d1 = np.broadcast_to(np.eye(n, m)[..., None], (n, m, N))
    gam_dom = np.broadcast_to(gam_dom[..., None], gam_dom.shape + (N,))
    lap_phi = np.zeros((n, N))
    lap_phi[:m] = np.einsum("ij...,aij...->a...", ginv, gam_dom)
    y = np.concatenate([np.repeat(np.asarray(point, dtype=float)[:, None], N, axis=1), alphas[None]])
    tgt.check_chart(y, what="latitude point")
    return {
        "gt_inv": gt_inv,
        "ginv": ginv,
        "gam_dom": gam_dom,
        "d1": d1,
        "lap_phi": lap_phi,
        "gam": tgt.christoffel(*y),
        "s_t": tgt.s_tensor(*y),
        "riem": tgt.riemann(*y),
    }


def _latitude_tower(st: dict, k: int):
    """Pointwise tower: by homogeneity every level is constant, so
    u_{i+1} = A(u_i, 0) and all v_i vanish."""
    zero = np.zeros(st["d1"].shape)
    tau = -st["lap_phi"] + gamma_trace(st["ginv"], st["gam"], st["d1"])
    u = [tau]
    for _ in range(k - 1):
        u.append(a_term_values(u[-1], zero, st["ginv"], st["d1"], st["lap_phi"], st["gam"], st["s_t"]))
    return u, [zero] * max(k - 1, 1)


def _latitude_hat_tau4(st: dict) -> np.ndarray:
    """hat tau_4 at a latitude point.  The target is a space form, so the
    nabla-R contributions vanish; Omega_0 is an equivariant constant section,
    hence lapbar Omega_0 = A(Omega_0, 0); the remaining codifferential terms
    are pointwise curvature algebra that must cancel on the equator family."""
    gt_inv, ginv, d1, lap_phi = st["gt_inv"], st["ginv"], st["d1"], st["lap_phi"]
    gam, s_t, riem = st["gam"], st["s_t"], st["riem"]
    m = d1.shape[1]
    zero = np.zeros(d1.shape)
    u0 = -lap_phi + gamma_trace(ginv, gam, d1)
    cd_u0 = covd_values(zero, gam, d1, u0)
    P = (np.einsum("abc...,bi...,cj...->aij...", gam, d1, d1)
         - np.einsum("kij...,ak...->aij...", st["gam_dom"], d1))
    T = np.einsum("adbc...,bi...,cj...,d...->aij...", riem, d1, d1, u0)
    omega0 = np.einsum("ik...,jl...,adbc...,bi...,cj...,dkl...->a...", ginv, ginv, riem, d1, d1, T)

    def curv(X, Y, Z):
        return curv_apply_num(riem, X, Y, Z)

    L3 = np.zeros_like(u0)
    L4 = np.zeros_like(u0)
    L5 = np.zeros_like(u0)
    L6 = np.zeros_like(u0)
    # ginv = gt_inv / sin^2(alpha) has the zero pattern of gt_inv at every angle
    for j in range(m):
        for jp in range(m):
            if gt_inv[j, jp] == 0.0:
                continue
            gjj = ginv[j, jp]
            L3 += gjj * curv(curv(u0, d1[:, j], u0), u0, d1[:, jp])
            for i in range(m):
                for ip in range(m):
                    if gt_inv[i, ip] == 0.0:
                        continue
                    gii = ginv[i, ip]
                    L4 += gii * gjj * curv(curv(d1[:, i], P[:, ip, j], u0), u0, d1[:, jp])
                    L5 += gii * gjj * curv(curv(d1[:, i], d1[:, j], cd_u0[:, ip]), u0, d1[:, jp])
                    L6 += gii * gjj * curv(T[:, i, j], cd_u0[:, ip], d1[:, jp])
    two_xi_dstar = -2.0 * (L3 + L4 + L5 + L6)
    lapbar_omega0 = a_term_values(omega0, zero, ginv, d1, lap_phi, gam, s_t)
    tr = np.einsum("ij...,adbc...,bi...,c...,dj...->a...", ginv, riem, d1, omega0, d1)
    return -(two_xi_dstar + lapbar_omega0 + tr) / 2.0


def _latitude_values(m: int, order, alphas, tangential_tol: float = 1e-10) -> np.ndarray:
    """Normal components of tau_k (or the ES-4 field) on the latitude
    inclusion, one per angle of the 1-D array ``alphas``; each angle is
    checked as if it were evaluated alone, and an error names the first
    offending angle."""
    alphas = np.asarray(alphas, dtype=float)
    outside = ~((alphas > 0.0) & (alphas <= np.pi / 2))
    if np.any(outside):
        raise ChartDomainError(f"latitude angle {alphas[np.argmax(outside)]} outside (0, pi/2]")
    collar = alphas <= POLE_COLLAR
    if np.any(collar):
        raise ChartDomainError(
            f"latitude angle {alphas[np.argmax(collar)]} inside the pole collar {POLE_COLLAR}")
    st = _latitude_state(m, alphas)
    k = 4 if order == "es4" else int(order)
    if k < 1:
        raise ConfigurationError("latitude reduction order must be >= 1 or 'es4'")
    u, v = _latitude_tower(st, k)
    vals = u[0] if k == 1 else tau_k_from_tower(k, st["ginv"], st["d1"], st["riem"], st["gam"], u, v)
    if order == "es4":
        vals = vals + _latitude_hat_tau4(st)
    nonfinite = ~np.all(np.isfinite(vals), axis=0)
    if np.any(nonfinite):
        raise NumericalContractError(
            f"latitude reduction is not finite at angle {alphas[np.argmax(nonfinite)]}")
    normal = vals[m]
    tang = np.max(np.abs(vals[:m]), axis=0)
    lost = tang > tangential_tol * np.maximum(1.0, np.abs(normal))
    if np.any(lost):
        i = int(np.argmax(lost))
        raise NumericalContractError(
            f"latitude reduction lost equivariance at angle {alphas[i]}: "
            f"tangential magnitude {tang[i]:.3e}")
    return normal


def latitude_reduction(m: int, order, alpha: float, tangential_tol: float = 1e-10) -> float:
    """Normal component of tau_k (or the ES-4 field) on the latitude
    inclusion at polar angle alpha, evaluated at one point by homogeneity."""
    return float(_latitude_values(m, order, np.array([float(alpha)]), tangential_tol)[0])


# Angles per array call of the latitude scan.  A call holds the target
# tensors and einsum operands of all its angles at once: one call over a
# whole 1000-angle scan grid raised the peak RSS of a latitude search by
# about 6 %, while blocks of 125 stay within 0.3 % of the one-angle loop and
# still replace about a thousand Python-level evaluations by eight.
LATITUDE_BLOCK = 125


def find_k_harmonic_latitude(m: int, order, scan_points: int = 1000,
                             alpha_tol: float = 1e-10, lo: float = 0.05) -> list[float]:
    """Bracketing scan plus bisection of the latitude reduction on
    (lo, pi/2); the trivial equator root pi/2 is excluded.  The scan grid is
    evaluated in array calls of ``LATITUDE_BLOCK`` angles.  Every root is
    re-verified by its sign change and by |tau_k| <= 1e-8 at the root.
    Bisection runs well past ``alpha_tol`` so steep reductions still pass
    the residual re-verification."""
    if order != "es4" and int(order) < 2:
        raise ConfigurationError("proper latitude search needs order >= 2")
    alpha_tol = min(alpha_tol, 1e-13)
    f = lambda a: latitude_reduction(m, order, a)
    hi = np.pi / 2 - 1e-6
    grid = np.linspace(lo, hi, scan_points)
    vals = np.concatenate([_latitude_values(m, order, grid[i:i + LATITUDE_BLOCK])
                           for i in range(0, grid.size, LATITUDE_BLOCK)])
    roots = []
    brackets = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    for i in np.flatnonzero(brackets):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        a, b = grid[i], grid[i + 1]
        va = vals[i]
        while b - a > alpha_tol:
            mid = 0.5 * (a + b)
            vm = f(mid)
            if vm == 0.0:
                a = b = mid
                break
            if va * vm < 0.0:
                b = mid
            else:
                a, va = mid, vm
        roots.append(0.5 * (a + b))
    verified = []
    for r in roots:
        if abs(r - np.pi / 2) < 1e-6:
            continue
        if abs(f(r)) <= 1e-8:
            verified.append(float(r))
    return verified


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------


@dataclass
class FlowResult:
    """Trajectory summary of the explicit-Euler descent."""

    records: list[tuple[int, float, float]]  # (step, energy, tau sup-norm)
    final_map: GridMap
    dt_final: float
    halvings: int
    accepted_steps: int

    @property
    def energies(self) -> list[float]:
        return [r[1] for r in self.records]


def gradient_flow(gmap0: GridMap, k, dt: float, steps: int,
                  energy_slack: float = 1e-12, max_halvings: int = 20) -> FlowResult:
    """Explicit Euler descent phi <- phi - VARIATIONAL_SIGN * dt * tau_k.

    Accepted steps never increase the energy beyond ``energy_slack``; a step
    that would is retried with dt halved (at most ``max_halvings`` times).
    """
    if gmap0.eval_mode != "grid_fd":
        gmap0 = GridMap.from_exprs(gmap0.dom, gmap0.tgt, gmap0.grid_shape, gmap0.exprs,
                                   eval_mode="grid_fd", fd_order=gmap0.fd_order)
    gmap = gmap0
    energy = _energy_any(gmap, k)
    tau = _tau_any_fd(gmap, k)
    records = [(0, energy, float(np.max(np.abs(tau))))]
    halvings = 0
    accepted = 0
    step = 0
    while accepted < steps:
        step += 1
        candidate_vals = gmap.values - VARIATIONAL_SIGN * dt * tau
        candidate = gmap.replace_values(candidate_vals)
        new_energy = _energy_any(candidate, k)
        if new_energy <= energy + energy_slack:
            gmap = candidate
            energy = new_energy
            tau = _tau_any_fd(gmap, k)
            accepted += 1
            records.append((accepted, energy, float(np.max(np.abs(tau)))))
        else:
            dt *= 0.5
            halvings += 1
            if halvings > max_halvings:
                raise ConfigurationError(
                    f"flow time step underflow after {max_halvings} halvings (dt={dt:.3e})")
    return FlowResult(records, gmap, dt, halvings, accepted)


def _tau_any_fd(gmap: GridMap, order) -> np.ndarray:
    if order == "es4":
        if not gmap.tgt.is_curvature_free:
            raise CapabilityError("ES-4 flow is only supported on flat targets in grid_fd mode")
        return tau_k(gmap, 4).values
    return tau_k(gmap, int(order)).values
