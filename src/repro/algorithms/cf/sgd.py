"""Stochastic Gradient Descent (SGD) matrix factorization.

Paper Section 2.1: "SGD is a gradient descent optimization method for
minimizing an objective function written as a sum of differentiable
functions"; Section 3.3 caps it at 20 iterations, and Section 4.5 notes
"SGD requires the most message transferring" — in the synchronous GAS
formulation every rating edge pushes a gradient to *both* endpoints
every iteration, so MSG = 2·|E| per iteration, the maximum in the suite.

Per iteration, vertex ``v`` gathers ``Σ_e (r_e − f_v·f_nbr) · f_nbr``
over its rating edges and takes a regularized step. (The synchronous
engine makes this a full-batch step per vertex; the paper's "stochastic"
character lives in the per-edge decomposition of the objective.)
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("sgd", domain="cf", abbrev="SGD",
            default_params={"k": 4, "lr": 0.02, "reg": 0.05, "decay": 0.1},
            default_options={"max_iterations": 20},
            always_active=True)
class StochasticGradientDescent(VertexProgram):
    """Gradient steps on both sides every iteration.

    Parameters
    ----------
    k:
        Factor dimension.
    lr:
        Base learning rate; iteration ``t`` uses ``lr / (1 + decay·t)``.
    reg:
        L2 regularization weight.
    decay:
        Learning-rate decay coefficient.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    state = ("factors",)
    gather_op = "sum"

    def __init__(self, k: int = 4, lr: float = 0.02, reg: float = 0.05,
                 decay: float = 0.1) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        if lr <= 0:
            raise ValidationError("lr must be positive")
        self.k = k
        self.gather_width = k
        self.lr = lr
        self.reg = reg
        self.decay = decay
        self.factors: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        if ctx.graph.edge_weight is None:
            raise ValidationError("SGD requires a rating (weighted) graph")
        n = ctx.n_vertices
        self.factors = ctx.rng.normal(0.0, 0.1, size=(n, self.k)) + 0.5
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * self.k * 8

    def gather_edge(self, ctx, nbr, center, eid):
        f_nbr = self.factors[nbr]
        f_center = self.factors[center]
        err = ctx.graph.edge_weight[eid] - (f_center * f_nbr).sum(axis=1)
        return err[:, None] * f_nbr

    def apply(self, ctx, vids, acc):
        step = self.lr / (1.0 + self.decay * ctx.iteration)
        # Mean gradient over the vertex's ratings: scale-free in degree,
        # so hub users cannot blow the step up (a raw gradient sum
        # diverges on power-law rating graphs).
        deg = np.maximum(ctx.graph.degree[vids], 1).astype(np.float64)
        grad = acc / deg[:, None] - self.reg * self.factors[vids]
        self.factors[vids] += step * grad
        ctx.add_work(float(vids.size) * self.k * 4.0)

    def scatter_edges(self, ctx, center, nbr, eid):
        # Every edge carries a gradient both ways, every iteration.
        return np.ones(center.size, dtype=bool)

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def result(self, ctx) -> dict:
        src, dst = ctx.graph.edge_endpoints()
        pred = (self.factors[src] * self.factors[dst]).sum(axis=1)
        err = pred - ctx.graph.edge_weight
        return {
            "rmse": float(np.sqrt((err ** 2).mean())) if err.size else 0.0,
        }
