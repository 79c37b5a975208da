"""Approximate Diameter (AD).

Paper Section 2.1: "Approximate Diameter estimates the diameter of a
graph, which is the longest distance between any two vertices." — and
Section 4: "AD has active fraction = 1.0 for the whole lifecycle";
Section 5.2: 5 runs of AD at the largest graph size failed.

Flajolet-Martin probabilistic counting (the GraphLab toolkit's
approximate_diameter): each vertex keeps ``n_hashes`` FM bitmasks; one
iteration ORs every neighbor's masks into its own, so after ``t``
iterations a vertex's masks sketch its ``t``-hop neighborhood. The
global neighborhood-function estimate ``N(t)`` stops growing once ``t``
reaches the (effective) diameter.

AD's per-vertex state — ``n_hashes`` 64-bit masks each — is the largest
of any program in the suite, which is exactly why its biggest runs blow
the engine's memory budget (:class:`~repro._util.errors.ResourceLimitError`),
reproducing the paper's failed runs by mechanism rather than by fiat.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram

#: Inverse Flajolet-Martin bias correction.
_FM_PHI = 0.77351


@registered("diameter", domain="ga", abbrev="AD",
            default_params={"n_hashes": 16}, always_active=True)
class ApproximateDiameter(VertexProgram):
    """FM-sketch neighborhood growth until saturation.

    Parameters
    ----------
    n_hashes:
        Number of independent FM sketches per vertex; more sketches give
        a tighter estimate and proportionally more state.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    state = ("masks", "_mask_changed")
    gather_op = "or"
    gather_dtype = np.uint64
    apply_flops_per_vertex = 4.0

    def __init__(self, n_hashes: int = 16) -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        self.n_hashes = n_hashes
        self.gather_width = n_hashes  # instance override of the class var
        self.masks: np.ndarray | None = None
        self._nf_estimate: float = 0.0
        self._prev_nf: float = -1.0
        self._saturated: bool = False
        self.diameter_estimate: int = 0

    def init(self, ctx: Context) -> np.ndarray:
        n = ctx.n_vertices
        # FM initialization: each sketch sets bit r with P = 2^-(r+1).
        r = ctx.rng.geometric(0.5, size=(n, self.n_hashes)) - 1
        r = np.minimum(r, 62)
        self.masks = (np.uint64(1) << r.astype(np.uint64))
        self._mask_changed = np.ones(n, dtype=bool)
        self._prev_nf = -1.0
        self._nf_estimate = self._estimate()
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * self.n_hashes * 8

    def _estimate(self) -> float:
        """FM neighborhood-function estimate summed over vertices."""
        # Position of lowest zero bit, averaged over hashes.
        inverted = ~self.masks
        lowest_zero = np.zeros(self.masks.shape[0])
        # log2 of lowest set bit of the inverted mask.
        low = inverted & (~inverted + np.uint64(1))
        lowest_zero = np.log2(low.astype(np.float64)).mean(axis=1)
        return float((2.0 ** lowest_zero).sum() / _FM_PHI)

    def gather_edge(self, ctx, nbr, center, eid):
        return self.masks[nbr]

    def apply(self, ctx, vids, acc):
        acc = acc.astype(np.uint64)
        merged = self.masks[vids] | acc
        self._mask_changed[vids] = np.any(merged != self.masks[vids], axis=1)
        self.masks[vids] = merged
        # Merging n_hashes 64-bit sketches dominates AD's apply cost —
        # the widest per-vertex update in the suite (paper Fig 13: AD
        # requires the most work for updating vertices).
        ctx.add_work(float(vids.size) * 4.0 * self.n_hashes)

    def scatter_edges(self, ctx, center, nbr, eid):
        # Propagate only fresh sketch content; the frontier stays full
        # regardless (select_next_frontier), so this only shapes MSG.
        return self._mask_changed[center]

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def on_iteration_end(self, ctx):
        self._prev_nf = self._nf_estimate
        self._nf_estimate = self._estimate()
        if self._nf_estimate <= self._prev_nf * (1.0 + 1e-12):
            self._saturated = True
            self.diameter_estimate = ctx.iteration
        else:
            self.diameter_estimate = ctx.iteration + 1

    def converged(self, ctx) -> bool:
        return self._saturated

    def result(self, ctx) -> dict:
        return {
            "diameter_estimate": int(self.diameter_estimate),
            "neighborhood_estimate": float(self._nf_estimate),
        }
