"""PageRank (PR).

Paper Section 2.1: "All vertices are active initially. A vertex becomes
inactive when its rank remains stable within a given tolerance."

GraphLab-style dynamic (delta) PageRank: the unnormalized fixed point
``rank(v) = (1 - d) + d · Σ rank(u) / deg(u)`` over neighbors ``u``. A
vertex whose rank moved more than ``tol`` in Apply signals its
neighbors; unsignaled vertices freeze. The active fraction starts at
1.0 and gradually decays — the paper's canonical contrast to SSSP.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("pagerank", domain="ga", abbrev="PR",
            default_params={"damping": 0.85, "tol": 1e-3})
class PageRank(VertexProgram):
    """Dynamic PageRank with per-vertex convergence.

    Parameters
    ----------
    damping:
        Damping factor ``d`` (default 0.85).
    tol:
        Per-vertex absolute rank tolerance below which a vertex stops
        signaling (default 1e-3 on the unnormalized rank scale, which
        makes the iteration count size-independent).
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    #: Mutable state (health checks);
    #: ``_inv_deg`` is the graph's read-only inverse degree.
    state = ("rank", "_delta")
    gather_op = "sum"
    gather_width = 1
    apply_flops_per_vertex = 3.0
    #: Signal-driven: runs under the asynchronous engine too.
    supports_async = True
    #: Fused kernels: gather is Σ (rank·inv_deg)[u]; scatter mask
    #: depends only on the center's delta.
    gather_shape = "vertex"
    scatter_shape = "center"

    def signal_priority(self, ctx, v: int) -> float:
        """Priority scheduling refreshes the most-perturbed ranks first
        (GraphLab's classic dynamic PageRank schedule)."""
        return float(self._delta[v])

    def __init__(self, damping: float = 0.85, tol: float = 1e-3) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.damping = damping
        self.tol = tol
        self.rank: np.ndarray | None = None
        self._delta: np.ndarray | None = None
        self._inv_deg: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        n = ctx.n_vertices
        self.rank = np.ones(n)
        self._delta = np.zeros(n)
        # Guarded normalization: dangling (degree-0) vertices map to
        # 0.0, never NaN/Inf.
        self._inv_deg = ctx.graph.inv_out_degree
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 24

    def gather_edge(self, ctx, nbr, center, eid):
        return self.rank[nbr] * self._inv_deg[nbr]

    def gather_source(self, ctx):
        # (rank * inv_deg)[u] == rank[u] * inv_deg[u] bit for bit.
        return self.rank * self._inv_deg

    def apply(self, ctx, vids, acc):
        new_rank = (1.0 - self.damping) + self.damping * acc.ravel()
        self._delta[vids] = np.abs(new_rank - self.rank[vids])
        self.rank[vids] = new_rank

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._delta[center] > self.tol

    def scatter_vertex_mask(self, ctx, vids):
        return self._delta[vids] > self.tol

    def result(self, ctx) -> dict:
        return {
            "max_rank": float(self.rank.max()),
            "mean_rank": float(self.rank.mean()),
            "top_vertex": int(np.argmax(self.rank)),
        }
