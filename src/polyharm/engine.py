"""Exact symbolic leaves for closed-form maps (the ``analytic_jet`` mode).

The engine keeps sympy expressions in the domain coordinates only for what
is differentiated again: the differential, lap phi and the second
fundamental form, the tension tower with its A-terms and partials,
Omega_0, Omega_1 and the tensorial Leibniz expansion of covd Omega_0.
Everything assembled on top of these leaves without differentiating it again
(both routes to tau_k, covariant derivatives, section Laplacians,
codifferentials, hence both lapbar Omega_0 paths and d* Omega_1, the
Weitzenboeck defect, xi_1 and hat tau_4, the reduced-system blocks) comes
from evaluated leaves through the numeric kernels in ``fields`` and
``polytension``, the same kernels the ``grid_fd`` mode runs.  Derivatives
are symbolic, hence exact; grids only enter at evaluation time through
cached ``geometry.lambdify_tensor`` callables.

Target-model tensors are computed once per model in target coordinates and
composed with the map expression here.  On purely rational data (e.g. the
latitude inclusion in stereographic charts) every tower level is normalized
with ``sympy.cancel``, which collapses equivariant maps to their exact
constants.
"""
from __future__ import annotations

import functools

import sympy as sp

from .errors import CapabilityError
from .geometry import DomainModel, TargetModel, _flatten, _nesting_shape, _sym_zeros, lambdify_tensor

__all__ = ["MapEngine"]


class MapEngine:
    """Symbolic calculus of one closed-form map between two chart models."""

    def __init__(self, dom: DomainModel, tgt: TargetModel, phi_exprs):
        self.dom = dom
        self.tgt = tgt
        self.m = dom.dim
        self.n = tgt.dim
        self.xs = dom.coords
        self.phi = [sp.sympify(e) for e in phi_exprs]
        if len(self.phi) != self.n:
            raise CapabilityError(f"map has {len(self.phi)} components, target needs {self.n}")
        self._sub = list(zip(tgt.coords, self.phi))
        self._lam_cache: dict = {}
        self._use_cancel: bool | None = None
        self._tower_u: list[list[sp.Expr]] = []
        self._tower_v: list[list[list[sp.Expr]]] = []
        self._tower_a: list[list[sp.Expr]] = []
        self._a_extra: dict[int, list[sp.Expr]] = {}

    # -- normalization -------------------------------------------------------

    def _norm(self, e: sp.Expr) -> sp.Expr:
        if self._use_cancel is None:
            probe = list(self.phi) + [g for row in self.ginv for g in row]
            probe += [c for mat in self.gamma_c for row in mat for c in row]
            self._use_cancel = all(sp.sympify(p).is_rational_function(*self.xs) for p in probe)
        return sp.cancel(e) if self._use_cancel else e

    # -- composed model data ---------------------------------------------------

    def _compose(self, expr):
        return expr.subs(self._sub) if expr != 0 else sp.S.Zero

    def _compose_nested(self, obj):
        if isinstance(obj, list):
            return [self._compose_nested(o) for o in obj]
        return self._compose(obj)

    @functools.cached_property
    def ginv(self):
        return self.dom.metric_inv_exprs

    @functools.cached_property
    def gam_dom(self):
        return self.dom.christoffel_exprs

    @functools.cached_property
    def gamma_c(self):
        return self._compose_nested(self.tgt.christoffel_exprs)

    @functools.cached_property
    def s_tensor_c(self):
        return self._compose_nested(self.tgt.s_tensor_exprs)

    @functools.cached_property
    def riemann_c(self):
        return self._compose_nested(self.tgt.riemann_exprs)

    @functools.cached_property
    def nabla_riemann_c(self):
        return self._compose_nested(self.tgt.nabla_riemann_exprs)

    # -- first order calculus --------------------------------------------------

    @functools.cached_property
    def dphi(self):
        return [[sp.diff(self.phi[a], x) for x in self.xs] for a in range(self.n)]

    @functools.cached_property
    def d2phi(self):
        return [[[sp.diff(self.dphi[a][i], self.xs[j]) for j in range(self.m)] for i in range(self.m)]
                for a in range(self.n)]

    def lap(self, f: sp.Expr) -> sp.Expr:
        """Domain Laplace-Beltrami, geometer's sign."""
        e = sp.S.Zero
        for i in range(self.m):
            for j in range(self.m):
                gij = self.ginv[i][j]
                if gij == 0:
                    continue
                e -= gij * sp.diff(f, self.xs[i], self.xs[j])
                for k in range(self.m):
                    if self.gam_dom[k][i][j] != 0:
                        e += gij * self.gam_dom[k][i][j] * sp.diff(f, self.xs[k])
        return e

    @functools.cached_property
    def lap_phi(self):
        return [self._norm(self.lap(self.phi[a])) for a in range(self.n)]

    def trace_pairs(self):
        """Nonzero (i, j, g^{ij}) triples of the inverse domain metric."""
        out = []
        for i in range(self.m):
            for j in range(self.m):
                if self.ginv[i][j] != 0:
                    out.append((i, j, self.ginv[i][j]))
        return out

    @functools.cached_property
    def second_ff(self):
        """nabla dphi^a_{ij} = d2 phi - Gam_dom^k_{ij} dphi^a_k + Gamma^a_{bc} dphi^b_i dphi^c_j."""
        out = _sym_zeros((self.n, self.m, self.m))
        for a in range(self.n):
            for i in range(self.m):
                for j in range(i, self.m):
                    e = self.d2phi[a][i][j]
                    for k in range(self.m):
                        if self.gam_dom[k][i][j] != 0:
                            e -= self.gam_dom[k][i][j] * self.dphi[a][k]
                    for b in range(self.n):
                        for c in range(self.n):
                            if self.gamma_c[a][b][c] != 0:
                                e += self.gamma_c[a][b][c] * self.dphi[b][i] * self.dphi[c][j]
                    e = self._norm(e)
                    out[a][i][j] = e
                    out[a][j][i] = e
        return out

    @functools.cached_property
    def tension(self):
        """tau^a = -lap phi^a + g^{ij} Gamma^a_{tb} dphi^t_i dphi^b_j."""
        out = []
        for a in range(self.n):
            e = -self.lap_phi[a]
            for i, j, gij in self.trace_pairs():
                for t in range(self.n):
                    for b in range(self.n):
                        if self.gamma_c[a][t][b] != 0:
                            e += gij * self.gamma_c[a][t][b] * self.dphi[t][i] * self.dphi[b][j]
            out.append(self._norm(e))
        return out

    def grad(self, sec):
        """Plain coordinate partials of an n-vector of expressions: [a][i]."""
        return [[sp.diff(sec[a], x) for x in self.xs] for a in range(self.n)]

    def covd(self, sec):
        """Pullback covariant derivative (covd_i sec)^a = d_i sec^a + Gamma^a_{bg} dphi^b_i sec^g."""
        out = self.grad(sec)
        for a in range(self.n):
            for i in range(self.m):
                for b in range(self.n):
                    for gm in range(self.n):
                        if self.gamma_c[a][b][gm] != 0:
                            out[a][i] += self.gamma_c[a][b][gm] * self.dphi[b][i] * sec[gm]
        return out

    # -- the A functional and the tower -----------------------------------------

    def a_term(self, eta, xi):
        """A^a(eta, xi), linear in both slots; xi[t][i] holds the partials slot."""
        out = []
        for a in range(self.n):
            e = sp.S.Zero
            for t in range(self.n):
                for i, j, gij in self.trace_pairs():
                    for b in range(self.n):
                        if self.gamma_c[a][b][t] != 0:
                            e -= 2 * gij * xi[t][i] * self.dphi[b][j] * self.gamma_c[a][b][t]
                coef = sp.S.Zero
                for b in range(self.n):
                    if self.gamma_c[a][b][t] != 0:
                        coef += self.lap_phi[b] * self.gamma_c[a][b][t]
                    for w in range(self.n):
                        if self.s_tensor_c[a][b][w][t] != 0:
                            for i, j, gij in self.trace_pairs():
                                coef -= gij * self.dphi[b][j] * self.dphi[w][i] * self.s_tensor_c[a][b][w][t]
                e += eta[t] * coef
            out.append(e)
        return out

    def tower(self, depth: int):
        """u_0 .. u_depth with u_{i+1} = lap(u_i) + A(u_i, v_i), v_i = grad u_i;
        returns (u, v, A) with v and A of length depth."""
        if not self._tower_u:
            self._tower_u.append(self.tension)
        while len(self._tower_u) <= depth:
            prev = self._tower_u[-1]
            v_prev = self.grad(prev)
            a_next = self.a_term(prev, v_prev)
            nxt = [self._norm(self.lap(prev[al]) + a_next[al]) for al in range(self.n)]
            self._tower_v.append(v_prev)
            self._tower_a.append(a_next)
            self._tower_u.append(nxt)
        return self._tower_u[: depth + 1], self._tower_v[:depth], self._tower_a[:depth]

    def a_of_level(self, i: int):
        """A_i = A(u_{i-1}, grad u_{i-1}) without forcing tower level i."""
        if len(self._tower_a) >= i:
            return self._tower_a[i - 1]
        if i not in self._a_extra:
            u = self.tower(i - 1)[0]
            self._a_extra[i] = self.a_term(u[i - 1], self.grad(u[i - 1]))
        return self._a_extra[i]

    # -- curvature contractions ---------------------------------------------------

    def curv_apply(self, X, Y, Z, riem=None):
        """[R(X, Y) Z]^a = X^b Y^c Z^d R^a_{dbc} for plain n-vectors."""
        riem = riem if riem is not None else self.riemann_c
        out = []
        for a in range(self.n):
            e = sp.S.Zero
            for b in range(self.n):
                for c in range(self.n):
                    for d in range(self.n):
                        if riem[a][d][b][c] != 0:
                            e += X[b] * Y[c] * Z[d] * riem[a][d][b][c]
            out.append(e)
        return out

    # -- fourth-order curvature corrections (ES-4) -----------------------------------

    def _require_es4(self):
        self.tgt.require_jets(2, "fourth-order curvature correction")
        _ = self.tgt.nabla_riemann_exprs

    @functools.cached_property
    def curv_2form(self):
        """T_{ij} = R(dphi_i, dphi_j) tau: components [i][j][a]."""
        u0 = self.tension
        out = _sym_zeros((self.m, self.m, self.n))
        for i in range(self.m):
            for j in range(self.m):
                Xi = [self.dphi[b][i] for b in range(self.n)]
                Yj = [self.dphi[c][j] for c in range(self.n)]
                out[i][j] = self.curv_apply(Xi, Yj, u0)
        return out

    @functools.cached_property
    def omega0(self):
        """Omega_0 = R(dphi_i, dphi_j)(R(dphi_i, dphi_j) tau), frames g-traced."""
        T = self.curv_2form
        out = [sp.S.Zero] * self.n
        for i, ip, gii in self.trace_pairs():
            for j, jp, gjj in self.trace_pairs():
                Xi = [self.dphi[b][i] for b in range(self.n)]
                Yj = [self.dphi[c][j] for c in range(self.n)]
                term = self.curv_apply(Xi, Yj, T[ip][jp])
                for a in range(self.n):
                    out[a] += gii * gjj * term[a]
        return [self._norm(e) for e in out]

    @functools.cached_property
    def omega1(self):
        """Omega_1(d/dx^i) = R(R(dphi_i, dphi_j) tau, tau) dphi_j: [i][a]."""
        T = self.curv_2form
        u0 = self.tension
        out = _sym_zeros((self.m, self.n))
        for i in range(self.m):
            acc = [sp.S.Zero] * self.n
            for j, jp, gjj in self.trace_pairs():
                term = self.curv_apply(T[i][j], u0, [self.dphi[d][jp] for d in range(self.n)])
                for a in range(self.n):
                    acc[a] += gjj * term[a]
            out[i] = acc
        return out

    def nabla_r_apply(self, W, X, Y, Z):
        """[(nabla_W R)(X, Y) Z]^a = W^e X^b Y^c Z^d R^a_{dbc;e}."""
        nr = self.nabla_riemann_c
        out = []
        for a in range(self.n):
            e = sp.S.Zero
            for b in range(self.n):
                for c in range(self.n):
                    for d in range(self.n):
                        for ee in range(self.n):
                            if nr[a][d][b][c][ee] != 0:
                                e += W[ee] * X[b] * Y[c] * Z[d] * nr[a][d][b][c][ee]
            out.append(e)
        return out

    @functools.cached_property
    def nabla_omega0_tensorial(self):
        """(covd_l Omega_0) through the Leibniz expansion of the double
        curvature composite; [l][a].  Uses nabla R, the second fundamental
        form and covd tau instead of differentiating Omega_0's components."""
        self._require_es4()
        u0 = self.tension
        cd_u0 = self.covd(u0)
        T = self.curv_2form
        P = self.second_ff
        out = _sym_zeros((self.m, self.n))
        for l in range(self.m):
            acc = [sp.S.Zero] * self.n
            dphil = [self.dphi[e][l] for e in range(self.n)]
            for i, ip, gii in self.trace_pairs():
                for j, jp, gjj in self.trace_pairs():
                    Xi = [self.dphi[b][i] for b in range(self.n)]
                    Yj = [self.dphi[c][j] for c in range(self.n)]
                    Pli = [P[b][l][i] for b in range(self.n)]
                    t1 = self.nabla_r_apply(dphil, Xi, Yj, T[ip][jp])
                    t2 = self.curv_apply(Pli, Yj, T[ip][jp])
                    inner = self.nabla_r_apply(dphil, [self.dphi[b][ip] for b in range(self.n)],
                                               [self.dphi[c][jp] for c in range(self.n)], u0)
                    inner2 = self.curv_apply([P[b][l][ip] for b in range(self.n)],
                                             [self.dphi[c][jp] for c in range(self.n)], u0)
                    inner3 = self.curv_apply([self.dphi[b][ip] for b in range(self.n)],
                                             [self.dphi[c][jp] for c in range(self.n)],
                                             [cd_u0[d][l] for d in range(self.n)])
                    w = [inner[d] + 2 * inner2[d] + inner3[d] for d in range(self.n)]
                    t3 = self.curv_apply(Xi, Yj, w)
                    for a in range(self.n):
                        acc[a] += gii * gjj * (t1[a] + 2 * t2[a] + t3[a])
            out[l] = acc
        return out

    # -- evaluation ---------------------------------------------------------------------

    def eval_on(self, exprs, mesh):
        """Evaluate a nested list of expressions on mesh coordinate arrays.

        Returns an ndarray shaped like the nesting followed by the node shape.
        The ``geometry.lambdify_tensor`` callables are cached per nesting shape
        and expression tuple.
        """
        flat: list[sp.Expr] = []
        _flatten(exprs, flat)
        key = (_nesting_shape(exprs), tuple(flat))
        fn = self._lam_cache.get(key)
        if fn is None:
            fn = self._lam_cache[key] = lambdify_tensor(self.xs, exprs)
        return fn(*mesh)
