"""Exact symbolic leaves for closed-form maps (the ``analytic_jet`` mode).

The engine keeps sympy expressions in the domain coordinates for the leaves
of one map and for its tension tower: the target-model tensors composed
with the map, the differential and its second partials, lap phi, the
tension field and the tower levels with their A-terms and partials.  Other
closed forms that are differentiated again (the second fundamental form,
Omega_0 and the Leibniz expansion of covd Omega_0) are the node-wise kernels
applied to these leaves as sympy object arrays; everything else comes from
evaluated leaves through the kernels the ``grid_fd`` mode runs.  Grids only
enter at evaluation time through cached ``geometry.lambdify_tensor``
callables.

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
from .geometry import DomainModel, TargetModel, _flatten, _map_nested, _nesting_shape, lambdify_tensor

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

    @functools.cached_property
    def ginv(self):
        return self.dom.metric_inv_exprs

    @functools.cached_property
    def gam_dom(self):
        return self.dom.christoffel_exprs

    @functools.cached_property
    def gamma_c(self):
        return _map_nested(self._compose, self.tgt.christoffel_exprs)

    @functools.cached_property
    def s_tensor_c(self):
        return _map_nested(self._compose, self.tgt.s_tensor_exprs)

    @functools.cached_property
    def riemann_c(self):
        return _map_nested(self._compose, self.tgt.riemann_exprs)

    @functools.cached_property
    def nabla_riemann_c(self):
        return _map_nested(self._compose, self.tgt.nabla_riemann_exprs)

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
