"""Second-order reduction of the higher-order systems and the inequality
witnesses behind unique continuation.

The reduced vector ``z`` stacks the tower variables (and, in the extended
kind, the map and its differential; the equator kind is the normal component
of every extended block, with the distance f = phi^n - pi/2 to the equator
as its map row).  By construction each block satisfies a second-order
identity

    lap z_block = F_block + linear corrections + (top row only) tau_k,

where the linear corrections come from commuting the Laplacian with
coordinate partials and the tau_k source vanishes exactly for k-harmonic
maps.  ``residual`` verifies this identity with the grid Laplacian on the
left; the sup-ratio operations return finite numerical witnesses for the
Aronszajn-type bounds |lap z| <= C (sum |z| + sum |dz|) and their two-map and
equator refinements.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDomainError, ConfigurationError, DegenerateInputError
from .fields import (
    GridMap,
    differential,
    dphi_values,
    gamma_trace,
    grid_laplacians,
    grid_partials,
    map_laplacian_partials,
    second_fundamental_form,
    section_partials,
    target_christoffel,
)
from .polytension import build_tower, fk_literal_values, tau_k, top_a_term

__all__ = [
    "ReducedVector",
    "BlockRHS",
    "RatioReport",
    "PairBoundReport",
    "EquatorReport",
    "build_reduced",
    "build_rhs",
    "residual",
    "aronszajn_ratio",
    "pair_difference_bound",
    "equator_bound",
    "window_mask",
    "reduced_dimension",
]

KINDS = ("plain", "extended", "equator")
DENOM_FLOOR = 1e-12


@dataclass
class ReducedVector:
    """Named blocks of the reduced vector; each array is (components,) + grid."""

    kind: str
    k: int
    names: list[str]
    blocks: list[np.ndarray]
    base: GridMap

    def stacked(self) -> np.ndarray:
        return np.concatenate([b.reshape((-1,) + self.base.grid_shape) for b in self.blocks])

    @property
    def fiber_dimension(self) -> int:
        return sum(int(np.prod(b.shape[: b.ndim - len(self.base.grid_shape)])) for b in self.blocks)


@dataclass
class BlockRHS:
    """Right-hand-side blocks matching a reduced vector, plus the shared
    linear commutator corrections; ``residual`` adds the top row's tau_k
    source itself."""

    kind: str
    k: int
    blocks: list[np.ndarray]
    linear_corrections: list[np.ndarray]


def reduced_dimension(kind: str, k: int, m: int, n: int) -> int:
    """Fiber dimension of the reduced vector.

    plain:    (k-1) n + (k-2) m n        (u_0..u_{k-2}, v_0..v_{k-3})
    extended: plain + n + m n            (map and differential prepended)
    equator:  k + (k-1) m                (f, df and the normal components)
    """
    plain = (k - 1) * n + (k - 2) * m * n
    if kind == "plain":
        return plain
    if kind == "extended":
        return plain + n + m * n
    if kind == "equator":
        return k + (k - 1) * m
    raise ConfigurationError(f"unknown reduced-vector kind {kind!r}")


def _require(gmap: GridMap, k: int, kind: str) -> None:
    """The order and kind of a reduced system (and the target of its equator kind)."""
    if kind not in KINDS:
        raise ConfigurationError(f"unknown reduced-vector kind {kind!r}")
    if k < 3:
        raise ConfigurationError("reduction needs order k >= 3")
    if kind == "equator" and gmap.tgt.kind != "round_sphere_polar":
        raise ConfigurationError("equator reduction needs a round_sphere_polar target")


def build_reduced(gmap: GridMap, k: int, kind: str = "plain") -> ReducedVector:
    """Assemble the reduced vector from the map's tower u_0..u_{k-2}.

    plain:    (u_0, v_0, u_1, v_1, ..., v_{k-3}, u_{k-2})
    extended: (phi, dphi) prepended
    equator:  (f, df, u_0^n, v_0^n, ..., u_{k-2}^n) with f = phi^n - pi/2,
              the normal (last) component of every extended block
    """
    _require(gmap, k, kind)
    tower = build_tower(gmap, k - 1)
    u = [sec.values for sec in tower.u]
    v = [vg.values for vg in tower.v]
    names: list[str] = []
    blocks: list[np.ndarray] = []
    if kind != "plain":
        names += ["phi", "dphi"]
        blocks += [gmap.values.copy(), dphi_values(gmap)]
    for i in range(k - 1):
        names.append(f"u{i}")
        blocks.append(u[i])
        if i <= k - 3:
            names.append(f"v{i}")
            blocks.append(v[i])
    if kind == "equator":
        names = ["f", "df"] + [f"{name}_n" for name in names[2:]]
        blocks = [blocks[0][-1:] - np.pi / 2] + [b[-1:] for b in blocks[1:]]
    return ReducedVector(kind, k, names, blocks, gmap)


def _commutator_values(gmap: GridMap, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """C_i(w) for a table w of shape (comp, m) + grid and its partials dw
    (shape (comp, m, m) + grid, dw[c, k, j] = d_j w^c_k):

    C_i(w)^c = dg^{kj}/dx^i d_j w^c_k - (dg^{lj}/dx^i Gam^p_{lj}
               + g^{lj} dGam^p_{lj}/dx^i) w^c_p.
    Zero on flat domain charts, where callers skip it.
    """
    plan = gmap.plan
    dginv = plan.ginv_jet                           # [k, j, i]
    ginv = plan.ginv
    gam = plan.christoffel                          # [p, l, j]
    dgam = plan.christoffel_jet                     # [p, l, j, i]
    out = np.einsum("kji...,ckj...->ci...", dginv, dw)
    coef = np.einsum("lji...,plj...->pi...", dginv, gam)
    coef += np.einsum("lj...,plji...->pi...", ginv, dgam)
    out -= np.einsum("pi...,cp...->ci...", coef, w)
    return out


def build_rhs(gmap: GridMap, k: int, kind: str = "plain") -> BlockRHS:
    """The F-blocks of the second-order reduction and the shared linear
    commutator corrections; the equator kind is the normal (last) component
    of every extended block.

    The differential rows and the commutator terms differentiate tower
    levels, lap phi and dphi through the derivative primitives of
    ``fields``: closed forms in analytic_jet mode, stencils in grid_fd mode.
    The top row reads A_{k-1} from ``top_a_term``."""
    _require(gmap, k, kind)
    tower = build_tower(gmap, k - 1)
    u = [sec.values for sec in tower.u]
    v = [vg.values for vg in tower.v]
    a = [sec.values for sec in tower.a]
    fk = fk_literal_values(gmap, k, u, v, top_a_term(gmap, k - 1).values)
    flat = gmap.dom.is_flat_euclidean

    def diff_block(j: int) -> np.ndarray:
        """d(u_{j+1} - A_{j+1}) with components (n, m) + grid."""
        row = tower.u[j + 1] - tower.a[j]
        return section_partials(gmap, row.values, row.exprs)

    def commutator(w: np.ndarray, w_exprs) -> np.ndarray:
        if flat:
            return np.zeros_like(w)
        return _commutator_values(gmap, w, section_partials(gmap, w, w_exprs))

    blocks: list[np.ndarray] = []
    lins: list[np.ndarray] = []

    def push(block, lin=None):
        blocks.append(np.asarray(block))
        lins.append(np.zeros_like(blocks[-1]) if lin is None else np.asarray(lin))

    if kind != "plain":
        dphi = differential(gmap)
        # lap phi^a = -u_0^a + g^{ij} Gamma^a_{bg} dphi^b_i dphi^g_j, analytically
        lap_phi = -u[0] + gamma_trace(gmap.plan.ginv, target_christoffel(gmap), dphi_values(gmap))
        push(lap_phi)
        push(map_laplacian_partials(gmap, lap_phi), commutator(dphi.values, dphi.exprs))
    for j in range(k - 2):
        push(u[j + 1] - a[j])
        push(diff_block(j), commutator(v[j], tower.v[j].exprs))
    push(fk)
    if kind == "equator":
        blocks = [b[-1:] for b in blocks]
        lins = [lin[-1:] for lin in lins]
    return BlockRHS(kind, k, blocks, lins)


def residual(gmap: GridMap, k: int, kind: str = "plain") -> np.ndarray:
    """Node-wise max-norm of  lap z - (F + linear corrections + tau_k source)
    with the grid Laplacian on the left; the source tau_k enters the top row
    only.  Exactly zero for harmonic maps and O(h^p) for analytic maps (p the
    stencil order).  tau_k builds the order-k tower first, so z and the
    right-hand side read its prefix."""
    if kind == "extended":
        raise ConfigurationError(
            "extended-kind residual is a two-map identity; use pair_difference_bound")
    _require(gmap, k, kind)
    tau = tau_k(gmap, k).values
    z = build_reduced(gmap, k, kind)
    rhs = build_rhs(gmap, k, kind)
    source = tau[-1:] if kind == "equator" else tau
    out = np.zeros(gmap.grid_shape)
    top = len(z.blocks) - 1
    for b, (zb, fb, lin) in enumerate(zip(z.blocks, rhs.blocks, rhs.linear_corrections)):
        want = fb + lin + source if b == top else fb + lin
        gap = grid_laplacians(gmap, zb) - want
        flat = np.abs(gap).reshape((-1,) + gmap.grid_shape)
        out = np.maximum(out, np.max(flat, axis=0))
    return out


def window_mask(grid_shape: tuple[int, ...], window) -> np.ndarray:
    """Boolean node mask from half-open index ranges per axis."""
    mask = np.zeros(grid_shape, dtype=bool)
    sl = tuple(slice(int(lo), int(hi)) for lo, hi in window)
    mask[sl] = True
    return mask


@dataclass
class RatioReport:
    """A sup-ratio witness: finite C such that the bound held on this grid."""

    ratio: float
    masked_fraction: float
    grid_shape: tuple[int, ...] = field(default=())


def _sup_ratio(num: np.ndarray, den: np.ndarray, select: np.ndarray | None) -> RatioReport:
    keep = den >= DENOM_FLOOR
    if select is not None:
        keep &= select
    total = int(np.sum(select)) if select is not None else num.size
    if not np.any(keep):
        raise DegenerateInputError(
            "sup-ratio denominator vanishes on every requested node "
            "(the reduced vector is identically zero there)")
    masked = 1.0 - float(np.sum(keep)) / max(total, 1)
    return RatioReport(float(np.max(num[keep] / den[keep])), masked, tuple(num.shape))


def aronszajn_ratio(gmap: GridMap, k: int, kind: str = "plain",
                    mask: np.ndarray | None = None) -> RatioReport:
    """sup over unmasked nodes of |lap z| / (sum_b |z^b| + sum_{b,i} |d z^b/dx^i|),
    a numerical witness that the second-order bound holds with finite C."""
    if kind == "extended" and np.any(gmap.winding != 0.0):
        raise ConfigurationError("extended reduced vector of a winding map has a non-periodic block")
    z = build_reduced(gmap, k, kind)
    stacked = z.stacked()
    num = np.max(np.abs(grid_laplacians(gmap, stacked)), axis=0)
    den = np.sum(np.abs(stacked), axis=0)
    for d in grid_partials(gmap, stacked).reshape((-1,) + gmap.grid_shape):
        den += np.abs(d)
    return _sup_ratio(num, den, mask)


@dataclass
class PairBoundReport:
    """Witnesses for the two-map difference estimates: the full bound plus
    each constituent lemma, as (sup ratio, masked fraction) pairs."""

    full: RatioReport
    delta_map: RatioReport
    delta_differential: RatioReport
    a_difference: RatioReport
    da_difference: RatioReport
    fk_difference: RatioReport

    def as_records(self):
        return [
            ("full_delta_z", self.full),
            ("delta_map", self.delta_map),
            ("delta_differential", self.delta_differential),
            ("a_difference", self.a_difference),
            ("da_difference", self.da_difference),
            ("fk_difference", self.fk_difference),
        ]


def _abs_block(arr: np.ndarray, grid_shape) -> np.ndarray:
    return np.max(np.abs(arr.reshape((-1,) + grid_shape)), axis=0)


def pair_difference_bound(gmap: GridMap, gmap2: GridMap, k: int,
                          mask: np.ndarray | None = None) -> PairBoundReport:
    """Sup-ratio of |lap(u - utilde)| against the bracketed difference sum,
    together with the five constituent-lemma ratios."""
    if gmap.grid_shape != gmap2.grid_shape or gmap.dom is not gmap2.dom or gmap.tgt is not gmap2.tgt:
        raise ChartDomainError("pair bound needs two maps on the same grid and the same charts")
    if not np.allclose(gmap.winding, gmap2.winding):
        raise ConfigurationError("pair bound needs maps with identical winding")
    gs = gmap.grid_shape

    z1 = build_reduced(gmap, k, "extended")
    z2 = build_reduced(gmap2, k, "extended")
    t1 = build_tower(gmap, k - 1)
    t2 = build_tower(gmap2, k - 1)
    u1 = [s.values for s in t1.u]
    u2 = [s.values for s in t2.u]
    v1 = [s.values for s in t1.v]
    v2 = [s.values for s in t2.v]
    a1 = [s.values for s in t1.a]
    a2 = [s.values for s in t2.a]

    d_phi = dphi_values(gmap)
    d_phi2 = dphi_values(gmap2)
    phi_d = _abs_block(gmap.values - gmap2.values, gs)
    dphi_d = _abs_block(d_phi - d_phi2, gs)
    sff_d = _abs_block(second_fundamental_form(gmap) - second_fundamental_form(gmap2), gs)
    u_d = [_abs_block(u1[i] - u2[i], gs) for i in range(k - 1)]
    v_d = [_abs_block(v1[i] - v2[i], gs) for i in range(k - 2)]
    dv_d = [_abs_block(grid_partials(gmap, v1[i] - v2[i]), gs) for i in range(k - 2)]
    du_top_d = _abs_block(grid_partials(gmap, u1[k - 2] - u2[k - 2]), gs)

    # constituent lemma 1: the map difference row
    lap_diff = grid_laplacians(gmap, gmap.values - gmap2.values)
    r1 = _sup_ratio(_abs_block(lap_diff, gs), phi_d + dphi_d + u_d[0], mask)

    # lemma 2: the differential row
    lap_ddiff = grid_laplacians(gmap, d_phi - d_phi2)
    r2 = _sup_ratio(_abs_block(lap_ddiff, gs), phi_d + dphi_d + sff_d + v_d[0], mask)

    # lemma 3 and 4: the A-term pairs, worst case over j
    best3 = None
    best4 = None
    for j in range(k - 2):
        lhs3 = _abs_block((u1[j + 1] - a1[j]) - (u2[j + 1] - a2[j]), gs)
        den3 = phi_d + dphi_d + u_d[0] + u_d[j] + u_d[j + 1] + v_d[j]
        rep3 = _sup_ratio(lhs3, den3, mask)
        best3 = rep3 if best3 is None or rep3.ratio > best3.ratio else best3
        lhs4 = _abs_block(grid_partials(gmap, (u1[j + 1] - a1[j]) - (u2[j + 1] - a2[j])), gs)
        den4 = (phi_d + dphi_d + sff_d + u_d[0] + v_d[0] + u_d[j] + v_d[j] + dv_d[j] + u_d[j + 1])
        rep4 = _sup_ratio(lhs4, den4, mask)
        best4 = rep4 if best4 is None or rep4.ratio > best4.ratio else best4

    # lemma 5: the top blocks
    fk1 = fk_literal_values(gmap, k, u1, v1, top_a_term(gmap, k - 1).values)
    fk2 = fk_literal_values(gmap2, k, u2, v2, top_a_term(gmap2, k - 1).values)
    den5 = phi_d + dphi_d + sum(u_d) + sum(v_d) + du_top_d
    r5 = _sup_ratio(_abs_block(fk1 - fk2, gs), den5, mask)

    # the full estimate on the extended reduced vector
    dz = z1.stacked() - z2.stacked()
    num = np.max(np.abs(grid_laplacians(gmap, dz)), axis=0)
    den_full = phi_d + dphi_d + sff_d + sum(u_d) + sum(v_d) + sum(dv_d) + du_top_d
    r_full = _sup_ratio(num, den_full, mask)
    return PairBoundReport(r_full, r1, r2, best3, best4, r5)


@dataclass
class EquatorReport:
    """On-window vanishing of the equator vector plus the off-window witness."""

    max_on_window: float
    block_max_on_window: dict[str, float]
    off_window: RatioReport


def equator_bound(gmap: GridMap, k: int, window) -> EquatorReport:
    """Check y = 0 on the declared window W and return the off-window
    sup-ratio of |lap y| against the equator bracket.

    The numerator evaluates lap y through the reduced-system identity
    (F-blocks plus linear corrections), which ``residual`` verifies
    independently; a grid Laplacian would be stencil-noise dominated in the
    exponentially small tails of window-equatorial maps.  The k-tension
    source is excluded: the estimate concerns maps with vanishing k-tension,
    and for test maps that are not k-harmonic the source carries more
    derivatives than the bracket controls.
    """
    _require(gmap, k, "equator")
    gs = gmap.grid_shape
    w_mask = window_mask(gs, window)
    f = gmap.values[-1] - np.pi / 2
    max_f = float(np.max(np.abs(f[w_mask]))) if np.any(w_mask) else 0.0
    if max_f > 1e-12:
        raise ConfigurationError(
            f"window is not equatorial: max |phi^n - pi/2| on W is {max_f:.3e}")
    z = build_reduced(gmap, k, "equator")
    block_max = {name: float(np.max(_abs_block(b, gs)[w_mask]))
                 for name, b in zip(z.names, z.blocks)}
    max_on_w = max(block_max.values())

    rhs = build_rhs(gmap, k, "equator")
    num = np.zeros(gs)
    for fb, lin in zip(rhs.blocks, rhs.linear_corrections):
        num = np.maximum(num, _abs_block(fb + lin, gs))
    # bracket: |f| + |df| + |nabla df| + sum |u^n| + sum (|v^n| + |nabla v^n|) + |nabla u^n_{k-2}|,
    # each entry the max-norm over its components; in analytic_jet mode the
    # derivative entries differentiate closed forms, so both sides of the
    # ratio share one accuracy level even in exponentially small tails
    sff_n = _abs_block(second_fundamental_form(gmap)[-1], gs)
    den = np.zeros(gs)
    for name, b in zip(z.names, z.blocks):
        den += _abs_block(b, gs)
    den += sff_n
    tower = build_tower(gmap, k - 1)
    for vg in tower.v[:k - 2]:
        den += _abs_block(section_partials(gmap, vg.values, vg.exprs)[-1], gs)
    top = tower.u[k - 2]
    den += _abs_block(section_partials(gmap, top.values, top.exprs)[-1], gs)
    off = _sup_ratio(num, den, ~w_mask)
    return EquatorReport(max_on_w, block_max, off)
