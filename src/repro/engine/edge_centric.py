"""Edge-centric execution (X-Stream-style), for the paper's §3.3 claim.

"There are also other computation models used in current
graph-processing systems (edge-centric model [X-Stream] and
graph-centric model), but the basic behavior of graph computation is
conserved — transferring information through edges, performing
computation on an independent unit, and activations."

This engine executes the same :class:`~repro.engine.program.VertexProgram`
edge-centrically: every iteration **streams the full arc list** (that
is X-Stream's defining property — sequential edge streaming instead of
per-vertex indexed gathers), computes contributions only for arcs whose
source changed last iteration, scatter-adds them into per-vertex
accumulators, and applies. Consequences, which the ablation benchmark
verifies against the synchronous engine:

- *results* agree for monotone gather programs (CC, SSSP): same fixed
  point, same per-iteration frontier;
- UPDT and MSG counters are conserved iteration-for-iteration;
- EREAD differs by design: the stream touches all ``n_arcs`` arcs every
  iteration regardless of frontier size — the edge-centric cost shape.

Only programs whose gather is commutative over the *source-active*
edge subset are eligible (min/max monotone relaxations); they declare
``supports_edge_centric = True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import concat_ranges, unique_vertices
from repro._util.timing import Deadline
from repro.behavior.trace import IterationRecord, RunTrace
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointSession,
    restore_runtime,
)
from repro.engine.context import Context
from repro.engine.health import (
    build_monitor,
    mark_degraded,
    validate_health_options,
)
from repro.engine.program import Direction, VertexProgram
from repro.generators.problem import ProblemInstance
from repro.obs.telemetry import engine_observer

_REDUCE_AT = {
    "min": np.minimum.at,
    "max": np.maximum.at,
    "sum": np.add.at,
}


@dataclass
class EdgeCentricOptions:
    """Configuration of an edge-centric run."""

    max_iterations: int = 10_000
    unit_scale: float = 1e-9
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Run-health knobs (see :class:`repro.engine.engine.EngineOptions`).
    health_policy: str = "strict"
    health_check_every: int = 1
    health_window: int = 20
    inject_fault: "str | None" = None
    #: Cooperative wall-clock budget, checked once per iteration.
    wall_clock_budget_s: "float | None" = None
    #: Iteration-level checkpointing contract; None disables snapshots.
    checkpoint: "CheckpointConfig | None" = None
    #: Stream fusable gathers as one dense segment reduction instead of
    #: buffered ``np.ufunc.at`` scatter-adds (bit-identical; DESIGN §13).
    fused_kernels: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        validate_health_options(self.health_policy, self.health_check_every,
                                self.health_window)
        if (self.wall_clock_budget_s is not None
                and self.wall_clock_budget_s <= 0):
            raise ValidationError(
                "wall_clock_budget_s must be positive or None")


class EdgeCentricEngine:
    """Streams all arcs per iteration; updates targets of active sources."""

    def __init__(self, options: EdgeCentricOptions | None = None) -> None:
        self.options = options or EdgeCentricOptions()

    def run(self, program: VertexProgram, problem: ProblemInstance) -> RunTrace:
        if not getattr(program, "supports_edge_centric", False):
            raise ValidationError(
                f"{program.name} does not declare supports_edge_centric"
            )
        if program.gather_op not in _REDUCE_AT:
            raise ValidationError(
                f"edge-centric execution needs a scatter-add-able "
                f"reduction, got {program.gather_op!r}"
            )
        if program.gather_width != 1:
            raise ValidationError("edge-centric execution supports "
                                  "scalar gathers only")
        opts = self.options
        ctx = Context(problem, params=opts.params, seed=opts.seed)
        graph = problem.graph

        started = time.perf_counter()
        frontier = ctx.canonical_frontier(program.init(ctx))
        ctx.drain_extra_work()

        # The full arc list in (source, target, eid) form, as streamed.
        # Gather direction IN means "target collects from source".
        # Degree-zero targets own no slots of this expansion (their
        # in_degree repeat count is 0) and every accumulator path below
        # fills them with the reduction identity — isolated vertices
        # never see a divide-by-degree or a garbage accumulator row.
        if program.gather_dir is not Direction.IN:
            raise ValidationError("edge-centric execution assumes "
                                  "gather_dir == Direction.IN")
        tgt = np.repeat(np.arange(graph.n_vertices, dtype=np.int64),
                        graph.in_degree)
        src = graph.in_src
        eid = graph.in_eid

        # Fused stream: when the program declares a fusable gather
        # shape, the per-arc contributions and the per-target reduction
        # collapse into one dense CSR segment kernel over cached
        # offsets. Dead-source slots are pinned to the reduction
        # identity, which min/max absorb exactly and which leaves sum's
        # float64 bits unchanged — so the fused stream is bit-identical
        # to the ``ufunc.at`` scatter-add it replaces.
        from repro.engine.kernels import FusedKernels

        kernels = None
        if opts.fused_kernels:
            kernels = FusedKernels.build(program, graph)
        fused_stream = kernels is not None and kernels.can_gather

        trace = RunTrace(
            algorithm=program.name,
            graph_params=dict(problem.params),
            domain=problem.domain,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            work_model="unit",
            engine="edge-centric",
        )
        monitor = build_monitor(opts, program, ctx)
        deadline = Deadline(opts.wall_clock_budget_s)
        obs = engine_observer("edge-centric", program.name)

        from repro._util.segments import REDUCE_IDENTITY

        identity = REDUCE_IDENTITY[program.gather_op]
        reduce_at = _REDUCE_AT[program.gather_op]
        stop_reason = "max-iterations"
        # X-Stream's filter: stream contributions of the vertices whose
        # values changed last iteration (initially, the seed frontier).
        # For monotone relaxations this yields values identical to the
        # vertex-centric full gather — any older source's improvement
        # was already streamed the iteration after it changed.
        source_live = np.zeros(graph.n_vertices, dtype=bool)
        source_live[frontier] = True

        session = CheckpointSession.begin(opts.checkpoint)
        start_iteration = 0
        elapsed_before = 0.0
        if session is not None:
            snapshot = session.load(engine="edge-centric", program=program,
                                    problem=problem)
            if snapshot is not None:
                restore_runtime(snapshot.payload, program, ctx, monitor)
                frontier = ctx.canonical_frontier(
                    snapshot.payload["frontier"])
                source_live = snapshot.payload["source_live"]
                trace = snapshot.trace
                start_iteration = snapshot.iteration
                elapsed_before = snapshot.elapsed_s
                trace.meta["resumed_from_iteration"] = start_iteration

        def flush(next_iteration: int) -> None:
            session.save_state(
                engine="edge-centric", program=program, problem=problem,
                ctx=ctx, monitor=monitor, trace=trace,
                next_iteration=next_iteration,
                elapsed_s=elapsed_before + time.perf_counter() - started,
                extra={"frontier": frontier, "source_live": source_live})

        for iteration in range(start_iteration, opts.max_iterations):
            deadline.check()
            if frontier.size == 0:
                stop_reason = "frontier-empty"
                trace.converged = True
                break
            ctx.iteration = iteration
            sampled = obs is not None and obs.sampled(iteration)
            phase_times: "dict[str, float] | None" = {} if sampled else None
            mark = time.perf_counter() if sampled else 0.0

            # ---- Stream phase: touch EVERY arc; act on live sources.
            live = source_live[src]
            if not live.any():
                acc = np.full(graph.n_vertices, identity)
            elif fused_stream:
                acc = kernels.stream_dense(ctx, live)
            else:
                acc = np.full(graph.n_vertices, identity)
                contributions = np.asarray(
                    program.gather_edge(ctx, src[live], tgt[live],
                                        eid[live]),
                    dtype=np.float64)
                reduce_at(acc, tgt[live], contributions)
            edge_reads = int(src.size)  # the stream reads all arcs
            if sampled:
                now = time.perf_counter()
                phase_times["stream"] = now - mark
                mark = now

            # ---- Apply on the synchronous frontier (same set the
            # synchronous engine would apply to).
            program.apply(ctx, frontier, acc[frontier])
            if sampled:
                now = time.perf_counter()
                phase_times["apply"] = now - mark
                mark = now

            # ---- Scatter: same signal semantics as the sync engine.
            starts = graph.out_ptr[frontier]
            ends = graph.out_ptr[frontier + 1]
            slots = concat_ranges(starts, ends)
            nbr = graph.out_dst[slots]
            center = np.repeat(frontier, ends - starts)
            mask = np.asarray(
                program.scatter_edges(ctx, center, nbr,
                                      graph.out_eid[slots]), dtype=bool)
            signaled = unique_vertices(nbr[mask], graph.n_vertices)
            # Next iteration streams the vertices that just emitted
            # updates (a changed vertex improving no neighbor now can
            # never improve one later under a monotone reduction).
            source_live[:] = False
            source_live[center[mask]] = True

            program.on_iteration_end(ctx)
            monitor.inject_state_fault(program, iteration)
            edge_reads = monitor.inject_edge_reads(edge_reads, iteration)
            extra = ctx.drain_extra_work()
            work = (program.apply_flops_per_vertex * frontier.size
                    + extra) * opts.unit_scale
            trace.iterations.append(IterationRecord(
                iteration=iteration,
                active=int(frontier.size),
                updates=int(frontier.size),
                edge_reads=edge_reads,
                messages=int(mask.sum()),
                work=work,
            ))
            if obs is not None:
                if sampled:
                    phase_times["scatter"] = time.perf_counter() - mark
                obs.iteration(
                    iteration=iteration, active=int(frontier.size),
                    updates=int(frontier.size), edge_reads=edge_reads,
                    messages=int(mask.sum()),
                    seconds=(sum(phase_times.values())
                             if sampled else None),
                    phases=phase_times)
            health_started = time.perf_counter() if sampled else 0.0
            verdict = monitor.observe(program, iteration=iteration,
                                      frontier=frontier, work=work)
            if sampled:
                obs.phase("health", time.perf_counter() - health_started)
            if verdict is not None:
                mark_degraded(trace, verdict)
                if session is not None:
                    flush(iteration + 1)
                break
            frontier = ctx.canonical_frontier(
                program.select_next_frontier(ctx, signaled))
            if program.converged(ctx):
                stop_reason = "converged"
                trace.converged = True
                break
            if frontier.size == 0:
                # Stop at the drain itself so a run converging exactly
                # at the iteration cap still reports "frontier-empty"
                # (same accounting as the synchronous engine).
                stop_reason = "frontier-empty"
                trace.converged = True
                break
            if session is not None and session.due(iteration):
                flush(iteration + 1)

        if not trace.degraded:
            trace.stop_reason = stop_reason
        trace.result = program.result(ctx)
        trace.wall_time_s = elapsed_before + time.perf_counter() - started
        if session is not None:
            session.complete(trace)
        return trace
