"""The tension tower and the higher-order tension fields.

The tower realizes ``u_{i+1} = lap u_i + A(u_i, du_i)``, u_i the i-th
iterated section Laplacian of the tension field.  ``analytic_jet`` maps
build closed-form levels; every numeric caller (``grid_fd`` maps and the
equivariant latitude point) runs the one loop ``tower_values`` with its own
derivative primitives; ``build_tower`` keeps each map's deepest tower, so
every caller reads one tower per map.  On top of it tau_k is assembled
twice, by one kernel each for both modes: the abstract recursion with
covariant derivatives and curvature traces (``tau_k_from_tower``) and the
literal expansion lap u_{k-2} - F^k with the v-variables and the E-tensor
(``fk_literal_values``); the two routes are each other's oracle.

The ES-4 field has one body over node leaves, ``es4_values`` (T, Omega_0,
xi_1 and hat tau_4 through the kernels ``curv_2form_values``,
``omega0_values`` and ``hat_tau4_values``), whose caller supplies lapbar
Omega_0.  On closed-form maps that is path (a) of ``lapbar_omega0_paths``,
checked against the codifferential of the Leibniz expansion of covd Omega_0
(``covd_omega0_values``, the kernels run on the engine's sympy leaves); on
grid maps the stencil rough Laplacian, pinned by convergence tests.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import stencils
from .errors import CapabilityError, ConfigurationError, NumericalContractError
from .fields import (
    BundleSection,
    GridMap,
    VGrid,
    _read_only,
    a_term_data,
    a_term_values,
    codifferential,
    covariant_derivative,
    covd_values,
    dphi_values,
    frame_trace,
    grid_laplacians,
    grid_partials,
    normalised,
    rough_laplacian,
    second_ff_exprs,
    second_fundamental_form,
    section_partials,
    target_christoffel,
    tension,
)

__all__ = [
    "TensionTower",
    "ES4Terms",
    "a_term",
    "top_a_term",
    "build_tower",
    "richardson_error",
    "tau_even",
    "tau_odd",
    "tau_k",
    "tau_k_literal",
    "tau4_explicit",
    "bitension_reference",
    "es4_terms",
    "lapbar_omega0_paths",
    "hat_tau4",
    "hat_tau4_values",
    "es4_values",
    "tower_values",
    "check_tower_resolution",
    "omega0_values",
    "omega1_values",
    "covd_omega0_values",
    "tau4_es",
    "MIN_NODES_PER_LEVEL",
    "ES4_PATH_TOL",
]

MIN_NODES_PER_LEVEL = 16

# sup gap allowed between the two lapbar Omega_0 paths, relative to
# max(1, sup |path (a)|)
ES4_PATH_TOL = 1e-7


@dataclass
class TensionTower:
    """u_0 .. u_{k-1}, their partials v_0 .. v_{k-2} and the A-terms A_1 .. A_{k-1}."""

    k: int
    u: list[BundleSection]
    v: list[VGrid]
    a: list[BundleSection]


# ---------------------------------------------------------------------------
# numeric curvature contractions (shared with the equivariant point evaluator)
# ---------------------------------------------------------------------------


def trace_R_frame_sec(ginv, riem, d1, x_frame, y_sec) -> np.ndarray:
    """Sum_j R(X_j, Y) dphi_j for a frame-indexed first slot X (shape (n, m) + node)."""
    return np.einsum("adbc...,c...,bd...->a...", riem, y_sec, frame_trace(ginv, x_frame, d1))


def trace_R_sec_frame(ginv, riem, d1, x_sec, y_frame) -> np.ndarray:
    """Sum_j R(X, Y_j) dphi_j for a frame-indexed second slot."""
    return np.einsum("adbc...,b...,cd...->a...", riem, x_sec, frame_trace(ginv, y_frame, d1))


def curv_2form_values(riem, d1, u0) -> np.ndarray:
    """T^a_{ij} = [R(dphi_i, dphi_j) tau]^a: shape (n, m, m) + node."""
    return np.einsum("adbc...,bi...,cj...,d...->aij...", riem, d1, d1, u0)


def omega0_values(ginv, riem, d1, T) -> np.ndarray:
    """Omega_0 = g^{ik} g^{jl} R(dphi_i, dphi_j) T_{kl} for a 2-form T of shape
    (n, m, m) + node; both frame indices of dphi are raised once, so each
    contraction carries at most three operands."""
    up = np.einsum("ik...,bi...->bk...", ginv, d1)
    return np.einsum("adbc...,bcd...->a...", riem, np.einsum("bk...,cl...,dkl...->bcd...", up, up, T))


def omega1_values(ginv, riem, d1, T, u0) -> np.ndarray:
    """Omega_1(e_i) = g^{jk} R(T_{ij}, tau) dphi_k for the 2-form
    T = R(dphi_i, dphi_j) tau of shape (n, m, m) + node: shape (m, n) + node
    with the form index first."""
    t_d1 = np.einsum("jk...,bij...,dk...->ibd...", ginv, T, d1)
    return np.einsum("adbc...,ibd...,c...->ia...", riem, t_d1, u0)


def covd_omega0_values(ginv, riem, nabla_riem, d1, sff, u0, cd_u0) -> np.ndarray:
    """covd_l Omega_0 through the Leibniz expansion of the double curvature
    composite, with nabla R, the second fundamental form P = nabla dphi and
    covd tau in place of derivatives of Omega_0: shape (m, n) + node with
    the form index l first,

        g^{ik} g^{jq} [ (nabla_{dphi_l} R)(dphi_i, dphi_j) T_{kq}
                        + 2 R(P_{li}, dphi_j) T_{kq} + R(dphi_i, dphi_j) W_{lkq} ],
        W_{lkq} = (nabla_{dphi_l} R)(dphi_k, dphi_q) tau + 2 R(P_{lk}, dphi_q) tau
                  + R(dphi_k, dphi_q) covd_l tau,

    with T = R(dphi_i, dphi_j) tau.  Each factor 2 counts the two slots that
    the antisymmetry of R(dphi_i, dphi_j) under the g-trace makes equal.
    ``nabla_riem`` None stands for nabla R = 0, whose terms are not formed."""
    T = curv_2form_values(riem, d1, u0)
    up = np.einsum("ik...,bi...->bk...", ginv, d1)
    r_pull = np.einsum("adbc...,bk...,cq...->adkq...", riem, d1, d1)
    w = np.einsum("adkq...,dl...->alkq...", r_pull, cd_u0)
    w += 2 * np.einsum("abc...,blk...,cq...->alkq...", np.einsum("adbc...,d...->abc...", riem, u0), sff, d1)
    if nabla_riem is not None:
        nr_l = np.einsum("adbce...,el...->adbcl...", nabla_riem, d1)  # nabla_{dphi_l} R
        w += np.einsum("abcl...,bk...,cq...->alkq...", np.einsum("adbcl...,d...->abcl...", nr_l, u0), d1, d1)
    sff_up = np.einsum("ik...,bli...->blk...", ginv, sff)
    inner = 2 * np.einsum("blk...,cq...,dkq...->lbcd...", sff_up, up, T)
    inner += np.einsum("bk...,cq...,dlkq...->lbcd...", up, up, w)
    out = np.einsum("adbc...,lbcd...->la...", riem, inner)
    if nabla_riem is not None:
        out += np.einsum("adbcl...,bcd...->la...", nr_l, np.einsum("bk...,cq...,dkq...->bcd...", up, up, T))
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def a_term(u_prev: BundleSection, gmap: GridMap) -> BundleSection:
    """The A-functional applied to (u_prev, du_prev); linear in both slots."""
    xi = section_partials(gmap, u_prev.values, u_prev.exprs)
    return BundleSection(gmap, a_term_values(u_prev.values, xi, *a_term_data(gmap)))


def top_a_term(gmap: GridMap, k: int) -> BundleSection:
    """A_k = A(u_{k-1}, du_{k-1}) above the top level of the order-k tower.
    analytic_jet mode evaluates the closed form A_k inside the level u_k that
    tau_{k+1} reads, so the reduced system's top row pairs two values with
    the same evaluator error (README "Known defect"; a kernel A_k is off by
    up to 1.1e-2 from it on a circle map).  grid_fd mode applies the kernel."""
    if gmap.eval_mode == "analytic_jet":
        exprs = gmap.engine.a_of_level(k)
        return BundleSection(gmap, gmap.eval_exprs(exprs), exprs=exprs)
    return a_term(build_tower(gmap, k).u[-1], gmap)


def check_tower_resolution(eval_mode: str, grid_shape, depth: int) -> None:
    """The resolution policy of ``build_tower`` and ``config.validate``: a
    grid_fd tower ``depth`` levels above tau needs ``MIN_NODES_PER_LEVEL``
    nodes per axis and level (at least one level)."""
    need = MIN_NODES_PER_LEVEL * max(depth, 1)
    if eval_mode == "grid_fd" and min(grid_shape) < need:
        raise ConfigurationError(
            f"grid_fd tower of depth {depth} needs >= {need} nodes per axis, got {min(grid_shape)}")


def build_tower(gmap: GridMap, k: int) -> TensionTower:
    """Tower u_0 .. u_{k-1} for the order-k tension field.

    Each map keeps the node arrays of the deepest tower built for it,
    read-only on its instance like the ``fields`` memo: a lower order reads
    their prefix, a higher order builds the tower anew and replaces them.
    The memo holds plain arrays, not sections, whose ``base`` would make the
    cycle map -> tower -> section -> map that only the cyclic garbage
    collector frees.  In grid_fd mode the resolution policy (>= 16 nodes per
    axis and tower level) is enforced.
    """
    if k < 2:
        raise ConfigurationError("tower order must be >= 2")
    check_tower_resolution(gmap.eval_mode, gmap.grid_shape, k - 1)
    u, v, a = gmap.__dict__.get("_memo_tower", ((), (), ()))
    if len(u) < k:
        u, v, a = gmap.__dict__["_memo_tower"] = tuple(list(map(_read_only, t)) for t in _tower_arrays(gmap, k))
    exprs = gmap.engine.tower(k - 1) if gmap.eval_mode == "analytic_jet" else ([None] * k,) * 3
    return TensionTower(k, [BundleSection(gmap, x, exprs=e) for x, e in zip(u[:k], exprs[0])],
                        [VGrid(gmap, x, exprs=e) for x, e in zip(v[:k - 1], exprs[1])],
                        [BundleSection(gmap, x, exprs=e) for x, e in zip(a[:k - 1], exprs[2])])


def _tower_arrays(gmap: GridMap, k: int) -> tuple[list, list, list]:
    """Node arrays u, v and A of the order-k tower: the closed-form levels
    evaluated in analytic_jet mode, ``tower_values`` on stencils in grid_fd."""
    if gmap.eval_mode == "analytic_jet":
        return tuple([gmap.eval_exprs(e) for e in t] for t in gmap.engine.tower(k - 1))
    return tower_values(tension(gmap).values, a_term_data(gmap), functools.partial(grid_partials, gmap),
                        functools.partial(grid_laplacians, gmap), k)


def tower_values(u0, data, partials, laplacians, k: int) -> tuple[list, list, list]:
    """Node arrays u_0 .. u_{k-1}, v_0 .. v_{k-2} and A_1 .. A_{k-1}; ``data``
    is what the A-term reads after its two slots, ``partials`` and
    ``laplacians`` differentiate node values (stencils, or zeros)."""
    u, v, a = [u0], [], []
    for _ in range(k - 1):
        xi = partials(u[-1])
        a_vals = a_term_values(u[-1], xi, *data)
        v.append(xi)
        a.append(a_vals)
        u.append(laplacians(u[-1]) + a_vals)
    return u, v, a


def richardson_error(gmap: GridMap, k: int) -> float | None:
    """A-posteriori error estimate of the top level of a grid_fd map's
    order-k tower, from that tower and the tower of its every-other-node
    subsample; None when the subsample is too coarse for the tower."""
    if gmap.eval_mode != "grid_fd":
        raise CapabilityError("the Richardson estimate needs a grid_fd map")
    top_fine = build_tower(gmap, k).u[-1].values
    if any(s % 2 or s < 2 * stencils.stencil_width(gmap.fd_order) for s in gmap.grid_shape):
        return None
    slicer = tuple([slice(None)] + [slice(None, None, 2)] * gmap.dom.dim)
    coarse = gmap.replace_values(gmap.values[slicer])
    try:
        top_c = build_tower(coarse, k).u[-1].values
    except ConfigurationError:  # the subsample is below the resolution policy
        return None
    return float(np.max(np.abs(top_fine[slicer] - top_c)) / (2 ** gmap.fd_order - 1))


def _tower_pairs(k: int) -> list[tuple[int, int]]:
    """The tower-level pairs (p, q) of the mixed curvature terms of tau_k and
    F^k, read by both assemblies; an odd order adds the diagonal term at
    level k // 2 - 1 itself."""
    s = k // 2
    return [(s + l - 2 + k % 2, s - l - 1) for l in range(1, s)]


def tau_k_from_tower(k: int, ginv, d1, riem, gam, u: list, v: list) -> np.ndarray:
    """Assemble tau_k from tower value arrays (any trailing node shape)."""
    out = u[k - 1] - trace_R_sec_frame(ginv, riem, d1, u[k - 2], d1)
    for p, q in _tower_pairs(k):
        cd_p = covd_values(v[p], gam, d1, u[p])
        cd_q = covd_values(v[q], gam, d1, u[q])
        out = out - trace_R_frame_sec(ginv, riem, d1, cd_p, u[q])
        out = out + trace_R_sec_frame(ginv, riem, d1, u[p], cd_q)
    if k % 2 == 1:
        c = k // 2 - 1
        cd = covd_values(v[c], gam, d1, u[c])
        out = out - trace_R_frame_sec(ginv, riem, d1, cd, u[c])
    return out


def tau_k(gmap: GridMap, k: int) -> BundleSection:
    """Order-k tension field from the abstract recursion; k >= 1."""
    if k == 1:
        return tension(gmap)
    tower = build_tower(gmap, k)
    vals = tau_k_from_tower(
        k,
        gmap.plan.ginv,
        dphi_values(gmap),
        gmap.tgt.riemann(*gmap.values),
        target_christoffel(gmap),
        [sec.values for sec in tower.u],
        [vg.values for vg in tower.v],
    )
    return BundleSection(gmap, vals)


def tau_k_literal(gmap: GridMap, k: int) -> BundleSection:
    """tau_k through the literal coordinate expansion lap u_{k-2} - F^k
    (v-variables and the E-tensor); agrees with ``tau_k`` node-wise.

    lap u_{k-2} is read off the tower as u_{k-1} - A_{k-1}, so both routes
    share one tower and differ in the assembly on top of it."""
    tower = build_tower(gmap, k)
    a_top = tower.a[k - 2].values
    fk = fk_literal_values(gmap, k, [sec.values for sec in tower.u], [vg.values for vg in tower.v], a_top)
    return BundleSection(gmap, (tower.u[k - 1].values - a_top) - fk)


def tau_even(gmap: GridMap, s: int) -> BundleSection:
    """tau_{2s}; s = 1 is the classical bitension field."""
    if s < 1:
        raise ConfigurationError("tau_even needs s >= 1")
    return tau_k(gmap, 2 * s)


def tau_odd(gmap: GridMap, s: int) -> BundleSection:
    """tau_{2s+1}; s = 1 is the third-order tension field."""
    if s < 1:
        raise ConfigurationError("tau_odd needs s >= 1")
    return tau_k(gmap, 2 * s + 1)


def tau4_explicit(gmap: GridMap) -> BundleSection:
    """tau_4 through the literal route, ``tau_k_literal(gmap, 4)``."""
    return tau_k_literal(gmap, 4)


def fk_literal_values(gmap: GridMap, k: int, u: list[np.ndarray], v: list[np.ndarray],
                      a_top: np.ndarray) -> np.ndarray:
    """Numeric top block F^k in the literal coordinate form; ``u`` holds
    levels 0..k-2 (higher ones are not read), ``v`` their partials, ``a_top``
    the A-term of order k-1."""
    ginv = gmap.plan.ginv
    d1 = dphi_values(gmap)
    riem = gmap.tgt.riemann(*gmap.values)
    gam = target_christoffel(gmap)
    e_t = gmap.tgt.e_tensor(*gmap.values)

    def term_R_uv(u_sec, v_tab):
        return np.einsum("ij...,abgd...,d...,gi...,bj...->a...", ginv, riem, u_sec, v_tab, d1)

    out = -a_top.copy()
    out -= np.einsum("ij...,abgd...,d...,gi...,bj...->a...", ginv, riem, u[k - 2], d1, d1)
    for p, q in _tower_pairs(k):
        out += term_R_uv(u[q], v[p]) + term_R_uv(u[p], v[q])
        out += np.einsum("ij...,abdth...,t...,d...,hi...,bj...->a...", ginv, e_t, u[p], u[q], d1, d1)
    if k % 2 == 1:
        c = k // 2 - 1
        out += term_R_uv(u[c], v[c])
        out += np.einsum("ij...,abgd...,gth...,t...,d...,hi...,bj...->a...",
                         ginv, riem, gam, u[c], u[c], d1, d1)
    return out


def bitension_reference(gmap: GridMap) -> BundleSection:
    """Independent classical bitension: lapbar tau + Sum_j R(dphi_j, tau) dphi_j,
    with the curvature term contracted directly on evaluated arrays."""
    tau = tension(gmap)
    lb = rough_laplacian(tau)
    ginv = gmap.plan.ginv
    d1 = dphi_values(gmap)
    riem = gmap.tgt.riemann(*gmap.values)
    curv = np.einsum("ij...,adbc...,bi...,c...,dj...->a...", ginv, riem, d1, tau.values, d1)
    return BundleSection(gmap, lb.values + curv)


# ---------------------------------------------------------------------------
# ES-4
# ---------------------------------------------------------------------------


@dataclass
class ES4Terms:
    """The fourth-order curvature corrections:

    * ``omega0 = R(dphi_i, dphi_j)(R(dphi_i, dphi_j) tau)``
    * ``omega1(X) = R(R(dphi(X), dphi_j) tau, tau) dphi_j`` (values per axis)
    * ``xi1 = -(nabla R)(dphi_j, R(dphi_i, dphi_j) tau, tau, dphi_i)``
    * ``hat_tau4 = -1/2 (2 xi1 + 2 d* omega1 + lapbar omega0 + Tr R(dphi, omega0) dphi)``
    """

    omega0: BundleSection
    omega1: np.ndarray
    xi1: BundleSection
    hat_tau4: BundleSection


def hat_tau4_values(ginv, d1, sff, riem, nabla_riem, u0, cd_u0, omega0, lapbar_omega0):
    """xi_1, 2 xi_1 + 2 d* Omega_1 and hat tau_4 from node arrays (any
    trailing node shape):

    * ``xi_1 = -(nabla_{dphi_j} R)(R(dphi_i, dphi_j) tau, tau, dphi_i)``;
    * ``2 xi_1 + 2 d* Omega_1 = -2 (L2 + L3 + L4 + L5 + L6)``, the
      codifferential of Omega_1 expanded in a geodesic frame:
      L2 = R((nabla_{dphi_i} R)(dphi_i, dphi_j, tau), tau) dphi_j,
      L3 = R(R(tau, dphi_j) tau, tau) dphi_j,
      L4 = R(R(dphi_i, nabla dphi(e_i, e_j)) tau, tau) dphi_j,
      L5 = R(R(dphi_i, dphi_j) covd_i tau, tau) dphi_j,
      L6 = R(R(dphi_i, dphi_j) tau, covd_i tau) dphi_j;
    * ``hat tau_4 = -1/2 (2 xi_1 + 2 d* Omega_1 + lapbar Omega_0 + Tr R(dphi, Omega_0) dphi)``.

    L2 .. L5 are R(X_j, tau) dphi_j for a frame-indexed X and go through
    ``trace_R_frame_sec``; L6 and xi_1 trace both frame slots of T pairwise,
    so no contraction carries more than three operands.  ``nabla_riem`` None
    stands for nabla R = 0: xi_1 and L2 are not formed."""
    T = curv_2form_values(riem, d1, u0)
    # X_j summed over L3, L4, L5 (and L2 below); ft_sff[b, c, j] = g^{ii'} dphi^b_i nabla dphi^c_{i'j}
    x_frame = np.einsum("adbc...,b...,cj...,d...->aj...", riem, u0, d1, u0)  # L3: R(tau, dphi_j) tau
    ft_sff = np.einsum("ik...,bi...,ckj...->bcj...", ginv, d1, sff)
    x_frame += np.einsum("adbc...,bcj...,d...->aj...", riem, ft_sff, u0)  # L4
    x_frame += np.einsum("adbc...,bd...,cj...->aj...", riem, frame_trace(ginv, d1, cd_u0), d1)  # L5
    xi1 = np.zeros_like(u0)
    if nabla_riem is not None:
        nr_tau = np.einsum("adbce...,d...->abce...", nabla_riem, u0)
        x_frame += np.einsum("abce...,eb...,cj...->aj...", nr_tau, frame_trace(ginv, d1, d1), d1)  # L2
        t_d1 = np.einsum("ik...,bij...,dk...->bjd...", ginv, T, d1)
        t_d1_d1 = np.einsum("jk...,bjd...,ek...->bde...", ginv, t_d1, d1)
        xi1 = -np.einsum("adbce...,bde...,c...->a...", nabla_riem, t_d1_d1, u0)
    t_cd = np.einsum("ik...,bij...,ck...->bjc...", ginv, T, cd_u0)
    l6 = np.einsum("adbc...,bcd...->a...", riem, np.einsum("jk...,bjc...,dk...->bcd...", ginv, t_cd, d1))
    two_xi_dstar = -2.0 * (trace_R_frame_sec(ginv, riem, d1, x_frame, u0) + l6)
    # Tr R(dphi, Omega_0) dphi = Sum_j R(dphi_j, Omega_0) dphi_j
    tr = trace_R_frame_sec(ginv, riem, d1, d1, omega0)
    return xi1, two_xi_dstar, -(two_xi_dstar + lapbar_omega0 + tr) / 2.0


def lapbar_omega0_paths(gmap: GridMap) -> tuple[np.ndarray, np.ndarray]:
    """lapbar Omega_0 on a closed-form map along two independent routes:
    (a) the rough Laplacian of the Omega_0 section, (b) the codifferential
    of the Leibniz expansion of covd Omega_0.  Both closed forms are the
    kernels ``omega0_values`` and ``covd_omega0_values`` applied to the
    engine's leaves; Omega_0 is normalised per entry like a tower level."""
    eng = gmap.engine
    ginv, riem, gam, d1, u0, v0 = (np.array(t, dtype=object) for t in (
        eng.ginv, eng.riemann_c, eng.gamma_c, eng.dphi, eng.tension, eng.grad(eng.tension)))
    omega0 = normalised(eng, omega0_values(ginv, riem, d1, curv_2form_values(riem, d1, u0))).tolist()
    nabla_riem = None if gmap.tgt.is_space_form else np.array(eng.nabla_riemann_c, dtype=object)
    cd_u0 = covd_values(v0, gam, d1, u0)
    expansion = covd_omega0_values(ginv, riem, nabla_riem, d1, second_ff_exprs(eng), u0, cd_u0).tolist()
    return (rough_laplacian(BundleSection(gmap, gmap.eval_exprs(omega0), exprs=omega0)).values,
            codifferential(gmap, gmap.eval_exprs(expansion), expansion))


def es4_values(ginv, d1, sff, riem, nabla_riem, u0, cd_u0, lapbar):
    """T = R(dphi_i, dphi_j) tau, Omega_0, xi_1 and hat tau_4 from node
    leaves; ``lapbar`` maps Omega_0 to its rough Laplacian, the one
    derivative of the field that is not a leaf."""
    T = curv_2form_values(riem, d1, u0)
    omega0 = omega0_values(ginv, riem, d1, T)
    xi1, _, hat = hat_tau4_values(ginv, d1, sff, riem, nabla_riem, u0, cd_u0, omega0, lapbar(omega0))
    return T, omega0, xi1, hat


def _lapbar_omega0(gmap: GridMap, omega0: np.ndarray) -> np.ndarray:
    """lapbar Omega_0: the stencil rough Laplacian in grid_fd mode; path (a)
    of ``lapbar_omega0_paths`` in analytic_jet mode, within ``ES4_PATH_TOL``
    of path (b) (sup-norm, relative to max(1, sup |path (a)|))."""
    if gmap.eval_mode == "grid_fd":
        return rough_laplacian(BundleSection(gmap, omega0)).values
    path_a, path_b = lapbar_omega0_paths(gmap)
    scale = max(1.0, float(np.max(np.abs(path_a))))
    gap = float(np.max(np.abs(path_a - path_b)))
    if gap > ES4_PATH_TOL * scale:
        raise NumericalContractError(
            f"two lapbar Omega_0 evaluation paths disagree: sup gap {gap:.3e} (scale {scale:.3e})"
        )
    return path_a


def es4_terms(gmap: GridMap) -> ES4Terms:
    """Omega_0, Omega_1, xi_1 and hat tau_4 of a map in either mode."""
    if gmap.tgt.is_curvature_free:
        zero = np.zeros_like(gmap.values)
        return ES4Terms(BundleSection(gmap, zero), np.zeros((gmap.dom.dim,) + zero.shape),
                        BundleSection(gmap, zero.copy()), BundleSection(gmap, zero.copy()))
    gmap.tgt.require_jets(2, "hat_tau4")
    ginv, d1 = gmap.plan.ginv, dphi_values(gmap)
    riem = gmap.tgt.riemann(*gmap.values)
    tau = tension(gmap)
    T, omega0, xi1, hat = es4_values(
        ginv, d1, second_fundamental_form(gmap), riem, gmap.tgt.nabla_riemann(*gmap.values),
        tau.values, covariant_derivative(tau).values, functools.partial(_lapbar_omega0, gmap))
    return ES4Terms(BundleSection(gmap, omega0), omega1_values(ginv, riem, d1, T, tau.values),
                    BundleSection(gmap, xi1), BundleSection(gmap, hat))


def hat_tau4(gmap: GridMap) -> BundleSection:
    """hat tau_4 of ``es4_terms``."""
    return es4_terms(gmap).hat_tau4


def tau4_es(gmap: GridMap) -> BundleSection:
    """ES-4 tension field tau_4 + hat tau_4."""
    return BundleSection(gmap, tau_k(gmap, 4).values + hat_tau4(gmap).values)
