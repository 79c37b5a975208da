"""Dual Decomposition (DD) for MAP inference on pairwise MRFs.

Paper Section 2.1: "Dual Decomposition solves a relaxation of difficult
optimization problems by decomposing them into simpler sub-problems";
Section 4.4: all vertices are active for all iterations, and DD is the
slowest-converging algorithm in the suite (three orders of magnitude
more iterations than TC).

Projected-subgradient DD (Komodakis et al.): every pairwise factor is a
*slave* subproblem; every variable is coordinated by the *master*.
Each iteration:

- **Gather** — variable ``v`` sums the dual variables λ of its incident
  factors (width ``n_states``).
- **Apply** — the master labels ``v`` by ``argmin(θ_v + Σ λ)``.
- **Scatter** — each factor solves its 2-variable subproblem
  ``argmin θ_uv(x_u,x_v) + λ_u(x_u) + λ_v(x_v)`` and takes a
  subgradient step pushing slave and master label distributions
  together, with a diminishing step size.

Duals are double-buffered like LBP's messages so both engine modes
produce identical traces. The run converges when every slave agrees
with the master labeling (primal-feasible) — or hits the iteration cap,
faithfully slow.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("dd", domain="mrf", abbrev="DD",
            default_params={"step0": 0.2},
            default_options={"max_iterations": 500},
            always_active=True)
class DualDecomposition(VertexProgram):
    """Projected subgradient dual decomposition over edge slaves.

    Parameters
    ----------
    step0:
        Initial subgradient step size; iteration ``t`` uses
        ``step0 / √(t + 1)``.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    #: Mutable state (health checks);
    #: ``_unary``/``_tables`` are problem inputs.
    state = ("label", "_duals_cur", "_duals_next")
    gather_op = "sum"

    def __init__(self, step0: float = 0.5) -> None:
        if step0 <= 0:
            raise ValidationError("step0 must be positive")
        self.step0 = step0
        self.label: np.ndarray | None = None
        self._unary: np.ndarray | None = None
        self._tables: np.ndarray | None = None
        self._duals_cur: np.ndarray | None = None
        self._duals_next: np.ndarray | None = None
        self._staged_iter: int = -1
        self._disagreements: int = -1
        self.n_states: int = 0

    def init(self, ctx: Context) -> np.ndarray:
        mrf = ctx.problem.require_input("mrf")
        cards = np.unique(mrf.cardinalities)
        if cards.size != 1:
            raise ValidationError(
                "DD vertex program requires uniform variable cardinality"
            )
        self.n_states = int(cards[0])
        self.gather_width = self.n_states
        if ctx.n_edges != len(mrf.pair_tables):
            raise ValidationError(
                "MRF pairwise factors must map 1:1 onto graph edges "
                "(duplicate or self-loop factors present?)"
            )
        self._unary = np.stack(mrf.unary)
        self._tables = np.stack(mrf.pair_tables)
        m = ctx.n_edges
        self._duals_cur = np.zeros((m, 2, self.n_states))
        self._duals_next = self._duals_cur
        self.label = np.zeros(ctx.n_vertices, dtype=np.int64)
        self._staged_iter = -1
        self._disagreements = -1
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        s = max(self.n_states, 2)
        return (ctx.n_vertices * (8 + s * 8)
                + ctx.n_edges * (2 * s * 16 + s * s * 8))

    @staticmethod
    def _side(center: np.ndarray, nbr: np.ndarray) -> np.ndarray:
        # Side 0 is the canonical lo endpoint of the (undirected) edge.
        return np.where(center < nbr, 0, 1)

    def gather_edge(self, ctx, nbr, center, eid):
        return self._duals_cur[eid, self._side(center, nbr), :]

    def apply(self, ctx, vids, acc):
        scores = self._unary[vids] + acc
        self.label[vids] = np.argmin(scores, axis=1)
        ctx.add_work(float(vids.size) * self.n_states)

    def _stage(self, ctx: Context) -> None:
        if self._staged_iter != ctx.iteration:
            self._duals_next = self._duals_cur.copy()
            self._staged_iter = ctx.iteration
            self._iter_disagreements = 0

    def scatter_edges(self, ctx, center, nbr, eid):
        self._stage(ctx)
        s = self.n_states
        # Each edge is processed once, from its canonical lo endpoint.
        owner = center < nbr
        if owner.any():
            e = eid[owner]
            u = center[owner]
            v = nbr[owner]
            # Slave subproblem: argmin over S×S of table + duals.
            cost = (self._tables[e]
                    + self._duals_cur[e, 0, :, None]
                    + self._duals_cur[e, 1, None, :])
            flat = cost.reshape(e.size, s * s)
            best = np.argmin(flat, axis=1)
            slave_u = best // s
            slave_v = best % s
            step = self.step0 / np.sqrt(ctx.iteration + 1.0)
            disagree_u = slave_u != self.label[u]
            disagree_v = slave_v != self.label[v]
            # Subgradient: pull the dual toward master/slave agreement.
            self._duals_next[e, 0, slave_u] += step
            self._duals_next[e, 0, self.label[u]] -= step
            self._duals_next[e, 1, slave_v] += step
            self._duals_next[e, 1, self.label[v]] -= step
            self._iter_disagreements += int(disagree_u.sum()
                                            + disagree_v.sum())
            ctx.add_work(float(e.size) * s * s)
        # All variables stay coupled: every edge signals both ways.
        return np.ones(center.size, dtype=bool)

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def on_iteration_end(self, ctx):
        if self._staged_iter == ctx.iteration:
            self._duals_cur = self._duals_next
            self._disagreements = self._iter_disagreements

    def converged(self, ctx) -> bool:
        return self._disagreements == 0

    def result(self, ctx) -> dict:
        src, dst = ctx.graph.edge_endpoints()
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        pair_energy = self._tables[np.arange(ctx.n_edges),
                                   self.label[lo], self.label[hi]].sum()
        unary_energy = self._unary[np.arange(ctx.n_vertices),
                                   self.label].sum()
        return {
            "primal_energy": float(unary_energy + pair_energy),
            "final_disagreements": int(max(self._disagreements, 0)),
        }
