"""Singular Value Decomposition (SVD) via restarted Golub-Kahan-Lanczos.

Paper Section 2.1: "SVD decomposes a matrix into the product of unitary
matrices and a diagonal matrix using the Restarted Lanczos algorithm."

The rating matrix ``A`` (users × items) lives on the bipartite graph;
one GAS iteration is one half-step of the Golub-Kahan recurrence:

- even iterations: ``u_j = A v_j − β_{j−1} u_{j−1}`` (users gather
  ``r · v[item]`` over their rating edges);
- odd iterations: ``v_{j+1} = Aᵀ u_j − α_j v_j`` (items gather).

Norms (``α_j``, ``β_j``) and full reorthogonalization against the
stored Krylov bases are global aggregates computed at iteration end.
After ``lanczos_steps`` full steps the bidiagonal matrix's SVD gives
Ritz values; each restart re-seeds ``v_1`` with the best Ritz right
vector. Every vertex stays active throughout (paper Section 4.3), and
only the updating side sends messages.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("svd", domain="cf", abbrev="SVD",
            default_params={"lanczos_steps": 8, "restarts": 2},
            always_active=True)
class LanczosSVD(VertexProgram):
    """Restarted Golub-Kahan-Lanczos bidiagonalization.

    Parameters
    ----------
    lanczos_steps:
        Full GKL steps per pass (each step = 2 GAS iterations).
    restarts:
        Number of passes; pass ``p+1`` starts from the best Ritz vector
        of pass ``p``.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    #: Mutable state (health checks); ``_is_user`` is a problem input.
    state = ("val", "_u_prev", "_v_cur", "singular_values")
    gather_op = "sum"
    gather_width = 1
    apply_flops_per_vertex = 2.0

    def __init__(self, lanczos_steps: int = 8, restarts: int = 2) -> None:
        if lanczos_steps < 1:
            raise ValidationError("lanczos_steps must be >= 1")
        if restarts < 1:
            raise ValidationError("restarts must be >= 1")
        self.steps = lanczos_steps
        self.restarts = restarts
        self.val: np.ndarray | None = None
        self._is_user: np.ndarray | None = None
        self._u_prev: np.ndarray | None = None
        self._v_cur: np.ndarray | None = None
        self._alphas: list[float] = []
        self._betas: list[float] = []
        self._U: list[np.ndarray] = []
        self._V: list[np.ndarray] = []
        self._pass = 0
        self._done = False
        self.singular_values: np.ndarray = np.empty(0)

    def init(self, ctx: Context) -> np.ndarray:
        if ctx.graph.edge_weight is None:
            raise ValidationError("SVD requires a rating (weighted) graph")
        self._is_user = np.asarray(ctx.problem.require_input("is_user"),
                                   dtype=bool)
        n = ctx.n_vertices
        self.val = np.zeros(n)
        v1 = ctx.rng.normal(0.0, 1.0, size=int((~self._is_user).sum()))
        v1 /= np.linalg.norm(v1)
        self.val[~self._is_user] = v1
        self._u_prev = np.zeros(n)
        self._v_cur = self.val.copy()
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        basis = 2 * self.steps * ctx.n_vertices * 8
        return ctx.n_vertices * 24 + basis

    def _users_turn(self, ctx: Context) -> bool:
        return (ctx.iteration % (2 * self.steps)) % 2 == 0

    def gather_edge(self, ctx, nbr, center, eid):
        return ctx.graph.edge_weight[eid] * self.val[nbr]

    def apply(self, ctx, vids, acc):
        acc = acc.ravel()
        users_turn = self._users_turn(ctx)
        side = self._is_user[vids] == users_turn
        movers = vids[side]
        if movers.size == 0:
            return
        if users_turn:
            beta = self._betas[-1] if self._betas else 0.0
            self.val[movers] = acc[side] - beta * self._u_prev[movers]
        else:
            alpha = self._alphas[-1] if self._alphas else 0.0
            self.val[movers] = acc[side] - alpha * self._v_cur[movers]
        ctx.add_work(float(movers.size) * 2.0)

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._is_user[center] == self._users_turn(ctx)

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def on_iteration_end(self, ctx):
        users = self._is_user
        if self._users_turn(ctx):
            # Finish the u half-step: reorthogonalize, record alpha.
            u = self.val * users
            for basis_vec in self._U:
                u -= basis_vec * float(u @ basis_vec)
            alpha = float(np.linalg.norm(u))
            if alpha > 1e-12:
                u /= alpha
            self._alphas.append(alpha)
            self._u_prev = u
            self._U.append(u.copy())
            self.val = u + self.val * (~users)  # items keep v for next gather
        else:
            v = self.val * (~users)
            for basis_vec in self._V:
                v -= basis_vec * float(v @ basis_vec)
            beta = float(np.linalg.norm(v))
            if beta > 1e-12:
                v /= beta
            self._betas.append(beta)
            self._v_cur = v
            self._V.append(v.copy())
            self.val = v + self.val * users
            if len(self._alphas) >= self.steps:
                self._finish_pass(ctx)

    def _finish_pass(self, ctx: Context) -> None:
        # Bidiagonal B: diag alphas, superdiag betas[:-1].
        j = len(self._alphas)
        B = np.zeros((j, j))
        B[np.arange(j), np.arange(j)] = self._alphas
        if j > 1:
            B[np.arange(j - 1), np.arange(1, j)] = self._betas[:j - 1]
        _, s, wt = np.linalg.svd(B)
        self.singular_values = s
        self._pass += 1
        if self._pass >= self.restarts:
            self._done = True
            return
        # Restart: seed v1 with the best Ritz right vector Σ w_i V_i.
        top = wt[0]
        v1 = np.zeros_like(self.val)
        for coef, basis_vec in zip(top, self._V):
            v1 += coef * basis_vec
        norm = float(np.linalg.norm(v1))
        if norm > 1e-12:
            v1 /= norm
        self._alphas.clear()
        self._betas.clear()
        self._U.clear()
        self._V.clear()
        self._u_prev = np.zeros_like(self.val)
        self._v_cur = v1
        self.val = v1.copy()

    def converged(self, ctx) -> bool:
        return self._done

    def result(self, ctx) -> dict:
        return {
            "singular_values": self.singular_values.tolist(),
            "top_singular_value": float(self.singular_values[0])
            if self.singular_values.size else 0.0,
        }
