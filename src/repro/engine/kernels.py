"""Fused CSR kernels behind the engine interface (DESIGN §13).

The GAS callbacks (``gather_edge``/``scatter_edges``) are flexible but
interpreter-bound: every iteration re-slices the frontier's adjacency,
materializes ``(nbr, center, eid)`` triples, and funnels them through a
Python call. For the *recognized reduction shapes* declared by a
:class:`~repro.engine.program.VertexProgram` (``gather_shape`` /
``scatter_shape``), the same reduction can instead run as one dense CSR
segment kernel over the whole graph — a pull-mode sparse-matrix-vector
product — which is what the GAP benchmark's direction-optimizing
traversal does.

Bit-identity contract
---------------------
Fused kernels must be *bit-identical* to the callback path: same
accumulator bits, same frontier sequences, same counters. That rules
scipy out of the general gather — its SpMV sums rows in a different
order than ``np.ufunc.reduceat`` and float addition is not associative
— so the dense gather always reduces with ``reduceat`` over cached
full-graph offsets (the exact per-slot order the push path uses).
scipy is used only where every summation order yields the same float64
bits:

* the scatter "who got signaled" SpMV (an indicator vector of 0/1), and
* gathers whose source is declared integer-valued
  (``gather_source_exact``), e.g. K-Core's alive counts.

Counters are *model* counters, not physical traversal counts: a pull
iteration reports the same ``edge_reads``/``messages`` the push
iteration would, because the unit work model describes the logical GAS
work, never the engine's traversal strategy (DESIGN §12). Set
``REPRO_VERIFY_FUSED=1`` to cross-check every fused phase against the
callback path at runtime (tests use this; it is far too slow for
production).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import REDUCE_IDENTITY
from repro.engine.program import Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import Context
    from repro.engine.program import VertexProgram
    from repro.graph.csr import Graph

#: Gather shapes the dense kernels recognize; the per-slot contribution
#: for a slot with neighbor ``u`` and edge id ``e`` is:
#: ``vertex`` → ``source[u]``; ``vertex_plus_edge`` → ``source[u] +
#: weight[e]``; ``vertex_times_edge`` → ``weight[e] * source[u]``.
GATHER_SHAPES = ("vertex", "vertex_plus_edge", "vertex_times_edge")

#: Reductions with a fused dense implementation (``or`` stays on the
#: callback path: no program declares a fusable ``or`` gather).
FUSABLE_OPS = ("sum", "min", "max")

#: Environment switch: cross-check fused kernels against the callback
#: path every call and raise on the first mismatch.
VERIFY_ENV = "REPRO_VERIFY_FUSED"

_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum,
          "or": np.bitwise_or}

#: reduceat over ``[0]`` reduces one whole block *sequentially* — the
#: same order ``segmented_reduce`` uses for a single segment (ufunc
#: ``reduce`` would use pairwise summation and change bits).
_BLOCK_START = np.zeros(1, dtype=np.intp)


def reduce_block(values: np.ndarray, op: str) -> np.ndarray:
    """Reduce one contiguous contribution block, bit-identical to
    ``segmented_reduce(values, [len(values)], op)`` without its
    per-call validation — the async engine's per-step hot path.

    ``values`` must be non-empty; the result keeps shape ``(1,)`` (or
    ``(1, width)``) and follows ``segmented_reduce``'s dtype rule
    (floats widen to float64).
    """
    values = np.asarray(values)
    out = _UFUNC[op].reduceat(values, _BLOCK_START, axis=0)
    if values.dtype.kind == "f":
        dtype = np.result_type(values.dtype, np.float64)
        out = out.astype(dtype, copy=False)
    return out


class _DenseSide:
    """Cached full-graph segment-reduce machinery for one adjacency.

    ``ptr[:-1]`` restricted to non-empty rows is a valid ``reduceat``
    index vector: an empty row spans no slots, so the next non-empty
    row starts exactly where the previous one ended. Reducing those
    offsets therefore yields, row for row, the same sequential
    reduction ``segmented_reduce`` performs — precomputed once per
    graph instead of re-deriving cumsums every iteration.
    """

    __slots__ = ("ptr", "idx", "eid", "counts", "nonempty",
                 "all_nonempty", "offsets", "n")

    def __init__(self, ptr: np.ndarray, idx: np.ndarray,
                 eid: np.ndarray) -> None:
        self.ptr = ptr
        self.idx = idx
        self.eid = eid
        self.n = ptr.size - 1
        self.counts = np.diff(ptr)
        self.nonempty = self.counts > 0
        self.all_nonempty = bool(self.nonempty.all())
        offsets = ptr[:-1]
        if not self.all_nonempty:
            offsets = offsets[self.nonempty]
        self.offsets = offsets

    def reduce(self, values: np.ndarray, op: str) -> np.ndarray:
        """Per-row reduction of per-slot ``values`` over every vertex;
        empty rows hold the reduction identity."""
        if self.idx.size == 0:
            return np.full(self.n, REDUCE_IDENTITY[op], dtype=np.float64)
        reduced = _UFUNC[op].reduceat(values, self.offsets)
        if self.all_nonempty:
            return reduced
        out = np.full(self.n, REDUCE_IDENTITY[op], dtype=values.dtype)
        out[self.nonempty] = reduced
        return out


def _side(graph: "Graph", direction: Direction) -> _DenseSide:
    if direction is Direction.IN:
        return _DenseSide(graph.in_ptr, graph.in_src, graph.in_eid)
    return _DenseSide(graph.out_ptr, graph.out_dst, graph.out_eid)


class FusedKernels:
    """Per-run dense kernel dispatch for one (program, graph) pair.

    Build with :meth:`build`, which returns ``None`` when neither phase
    of the program is fusable; engines then keep the callback path with
    zero overhead. Holds no program *state* — only graph-derived caches
    and the program reference — so checkpoint/resume rebuilds it
    losslessly.
    """

    def __init__(self, program: "VertexProgram", graph: "Graph", *,
                 can_gather: bool, can_scatter: bool) -> None:
        self.program = program
        self.graph = graph
        self.can_gather = can_gather
        self.can_scatter = can_scatter
        self._verify = bool(os.environ.get(VERIFY_ENV, ""))

        if can_gather:
            self.gather_side = _side(graph, program.gather_dir)
            self._g_weights = None
            if program.gather_shape in ("vertex_plus_edge",
                                        "vertex_times_edge"):
                self._g_weights = graph.edge_weight[self.gather_side.eid]
            # Exact integer-valued sums may reorder: scipy SpMV allowed.
            self._g_mat = None
            if (program.gather_op == "sum"
                    and program.gather_shape == "vertex"
                    and getattr(program, "gather_source_exact", False)):
                orientation = ("in" if program.gather_dir is Direction.IN
                               else "out")
                self._g_mat = graph.ones_adjacency_csr(orientation)

        if can_scatter:
            self.scatter_counts = np.diff(
                graph.out_ptr if program.scatter_dir is Direction.OUT
                else graph.in_ptr)
            # "Who got signaled" traverses the *reverse* adjacency.
            self._rev_orientation = (
                "in" if program.scatter_dir is Direction.OUT else "out")

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, program: "VertexProgram",
              graph: "Graph") -> "FusedKernels | None":
        """Recognize the program's fusable phases, or return ``None``."""
        shape = getattr(program, "gather_shape", None)
        can_gather = (
            shape in GATHER_SHAPES
            and program.gather_dir in (Direction.IN, Direction.OUT)
            and program.gather_op in FUSABLE_OPS
            and program.gather_width == 1
            and program.gather_dtype is np.float64
        )
        if can_gather and shape != "vertex" and graph.edge_weight is None:
            can_gather = False  # *_edge shapes need per-edge weights
        can_scatter = (
            getattr(program, "scatter_shape", None) == "center"
            and program.scatter_dir in (Direction.IN, Direction.OUT)
        )
        if not can_gather and not can_scatter:
            return None
        return cls(program, graph, can_gather=can_gather,
                   can_scatter=can_scatter)

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _slot_values(self, x: np.ndarray) -> np.ndarray:
        """Per-slot contribution for every adjacency slot of the gather
        side, in slot order — the fused equivalent of ``gather_edge``."""
        values = x[self.gather_side.idx]
        shape = self.program.gather_shape
        if shape == "vertex_plus_edge":
            values = values + self._g_weights
        elif shape == "vertex_times_edge":
            values = self._g_weights * values
        return values

    def gather_dense(self, ctx: "Context") -> np.ndarray:
        """Accumulator rows for *every* vertex (pull-mode full gather)."""
        program = self.program
        x = np.asarray(program.gather_source(ctx), dtype=np.float64)
        if x.shape != (self.graph.n_vertices,):
            raise ValidationError(
                f"{program.name}.gather_source returned shape {x.shape}, "
                f"expected ({self.graph.n_vertices},)")
        if self._g_mat is not None:
            acc = self._g_mat.dot(x)
        else:
            acc = self.gather_side.reduce(self._slot_values(x), program.gather_op)
        if self._verify:
            self._verify_gather(ctx, acc)
        return acc

    def gather_frontier(self, ctx: "Context",
                        frontier: np.ndarray) -> tuple[np.ndarray, int]:
        """Pull-mode gather restricted to the frontier's rows.

        Returns ``(acc, edge_reads)`` where ``edge_reads`` is the
        *model* count — the frontier's gather-degree sum, exactly what
        the push path reports.
        """
        acc = self.gather_dense(ctx)
        n_reads = int(self.gather_side.counts[frontier].sum())
        if frontier.size != acc.shape[0]:
            acc = acc[frontier]
        return acc, n_reads

    def stream_dense(self, ctx: "Context",
                     live_slot: np.ndarray) -> np.ndarray:
        """Edge-centric fused stream: reduce every vertex's row over
        contributions of *live-source* slots, dead slots pinned to the
        reduction identity (min/max absorb it exactly; for ``sum`` the
        interleaved ``0.0`` terms leave the float64 bits unchanged)."""
        program = self.program
        x = np.asarray(program.gather_source(ctx), dtype=np.float64)
        values = self._slot_values(x)
        values = np.where(live_slot, values,
                          REDUCE_IDENTITY[program.gather_op])
        acc = self.gather_side.reduce(values, program.gather_op)
        return acc

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def scatter_frontier(self, ctx: "Context",
                         frontier: np.ndarray) -> tuple[np.ndarray, int]:
        """Center-shape scatter without materializing the edge mask.

        ``messages`` is the masked frontier's scatter-degree sum and
        ``signaled`` the sorted unique recipients — both bit-identical
        to the push path (the indicator SpMV sums 0/1 values, which
        every summation order reproduces exactly in float64).
        """
        program = self.program
        m = np.asarray(program.scatter_vertex_mask(ctx, frontier),
                       dtype=bool)
        if m.shape != (frontier.size,):
            raise ValidationError(
                f"{program.name}.scatter_vertex_mask returned shape "
                f"{m.shape}, expected ({frontier.size},)")
        senders = frontier[m]
        n_msgs = int(self.scatter_counts[senders].sum())
        if senders.size == 0:
            signaled = np.empty(0, dtype=np.int64)
        else:
            indicator = np.zeros(self.graph.n_vertices, dtype=np.float64)
            indicator[senders] = 1.0
            hits = self.graph.spmv_ones(self._rev_orientation, indicator)
            signaled = np.flatnonzero(hits > 0.0).astype(np.int64,
                                                         copy=False)
        if self._verify:
            self._verify_scatter(ctx, frontier, signaled, n_msgs)
        return signaled, n_msgs

    # ------------------------------------------------------------------
    # Verification (REPRO_VERIFY_FUSED=1)
    # ------------------------------------------------------------------
    def _verify_gather(self, ctx: "Context", acc: np.ndarray) -> None:
        from repro._util.segments import segmented_reduce

        side = self.gather_side
        program = self.program
        center = np.repeat(np.arange(side.n, dtype=np.int64), side.counts)
        ref_vals = np.asarray(
            program.gather_edge(ctx, side.idx, center, side.eid),
            dtype=program.gather_dtype)
        ref = segmented_reduce(ref_vals, side.counts, program.gather_op)
        if not np.array_equal(acc, ref):
            raise AssertionError(
                f"fused gather diverged from gather_edge for "
                f"{program.name} at iteration {ctx.iteration}")

    def _verify_scatter(self, ctx: "Context", frontier: np.ndarray,
                        signaled: np.ndarray, n_msgs: int) -> None:
        from repro._util.segments import concat_ranges, unique_vertices

        graph = self.graph
        program = self.program
        if program.scatter_dir is Direction.OUT:
            ptr, idx, eid = graph.out_ptr, graph.out_dst, graph.out_eid
        else:
            ptr, idx, eid = graph.in_ptr, graph.in_src, graph.in_eid
        starts, ends = ptr[frontier], ptr[frontier + 1]
        slots = concat_ranges(starts, ends)
        nbr = idx[slots]
        center = np.repeat(frontier, ends - starts)
        mask = np.asarray(
            program.scatter_edges(ctx, center, nbr, eid[slots]), dtype=bool)
        ref_signaled = unique_vertices(nbr[mask], graph.n_vertices)
        if n_msgs != int(mask.sum()) or not np.array_equal(
                signaled, ref_signaled):
            raise AssertionError(
                f"fused scatter diverged from scatter_edges for "
                f"{program.name} at iteration {ctx.iteration}")
