"""Graph-centric execution ("think like a graph", Tian et al.) —
the third computation model named in paper §3.3.

The graph is split into partitions; one superstep runs each partition's
*internal* computation to local convergence (values propagate freely
inside the block), then boundary updates cross partitions
synchronously. Compared to vertex-centric synchronous execution this
trades more work per superstep for far fewer supersteps — the
graph-centric pitch — while, per the paper's conservation claim, the
*transferring-information-through-edges* behavior remains the same kind
of event stream.

Like the edge-centric engine, this is restricted to monotone
min/max-relaxation programs (CC, SSSP: ``supports_graph_centric`` via
the same ``supports_edge_centric`` contract — both need order-free
re-applicable relaxations). Results are asserted equal to the
synchronous engine's; counters are mapped as:

- ``active``/``updates`` — vertices applied during the superstep
  (inner sweeps included, as Giraph++ counts them);
- ``edge_reads`` — edges gathered across all inner sweeps;
- ``messages`` — *cross-partition* signals only (internal propagation
  is the model's whole point: it sends no messages);
- one :class:`IterationRecord` per superstep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import (
    REDUCE_IDENTITY,
    concat_ranges,
    segmented_reduce,
    unique_vertices,
)
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


@dataclass
class GraphCentricOptions:
    """Configuration of a graph-centric run."""

    #: Number of partitions (hash partitioning by vertex id).
    n_partitions: int = 4
    max_supersteps: int = 10_000
    #: Cap on inner sweeps per partition per superstep.
    max_inner_sweeps: int = 1_000
    unit_scale: float = 1e-9
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Run-health knobs (see :class:`repro.engine.engine.EngineOptions`);
    #: checks run at *superstep* granularity here.
    health_policy: str = "strict"
    health_check_every: int = 1
    health_window: int = 20
    inject_fault: "str | None" = None
    #: Cooperative wall-clock budget, checked once per superstep.
    wall_clock_budget_s: "float | None" = None
    #: Superstep-level checkpointing contract; None disables snapshots.
    checkpoint: "CheckpointConfig | None" = None
    #: Gather dense local frontiers through the fused dense CSR kernel
    #: (bit-identical; DESIGN §13). Scatter keeps the callback path —
    #: the partition split needs per-edge (center, neighbor) pairs.
    fused_kernels: bool = True
    #: Local-frontier density (fraction of |V|) above which a sweep's
    #: gather uses the fused dense kernel instead of frontier slicing.
    direction_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ValidationError("n_partitions must be >= 1")
        if self.max_supersteps < 1 or self.max_inner_sweeps < 1:
            raise ValidationError("iteration caps must be >= 1")
        validate_health_options(self.health_policy, self.health_check_every,
                                self.health_window)
        if (self.wall_clock_budget_s is not None
                and self.wall_clock_budget_s <= 0):
            raise ValidationError(
                "wall_clock_budget_s must be positive or None")
        if not 0.0 <= self.direction_threshold <= 1.0:
            raise ValidationError(
                "direction_threshold must be in [0, 1]")


class GraphCentricEngine:
    """Partition-local convergence per superstep, synchronous boundaries."""

    def __init__(self, options: GraphCentricOptions | None = None) -> None:
        self.options = options or GraphCentricOptions()

    def run(self, program: VertexProgram, problem: ProblemInstance) -> RunTrace:
        if not getattr(program, "supports_edge_centric", False):
            raise ValidationError(
                f"{program.name} is not a monotone relaxation "
                "(supports_edge_centric contract); graph-centric "
                "execution is undefined for it"
            )
        if program.gather_dir is not Direction.IN or program.gather_width != 1:
            raise ValidationError("graph-centric execution needs a scalar "
                                  "IN-direction gather")
        opts = self.options
        ctx = Context(problem, params=opts.params, seed=opts.seed)
        graph = problem.graph

        started = time.perf_counter()
        frontier = ctx.canonical_frontier(program.init(ctx))
        ctx.drain_extra_work()

        partition = (np.arange(graph.n_vertices, dtype=np.int64)
                     % opts.n_partitions)

        from repro.engine.kernels import FusedKernels

        kernels = None
        if opts.fused_kernels:
            kernels = FusedKernels.build(program, graph)
        fused_gather = kernels is not None and kernels.can_gather
        # Density gate in vertices: below it the frontier-sliced gather
        # touches fewer slots than the dense kernel would.
        dense_min = opts.direction_threshold * graph.n_vertices

        trace = RunTrace(
            algorithm=program.name,
            graph_params=dict(problem.params),
            domain=problem.domain,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            work_model="unit",
            engine="graph-centric",
        )
        monitor = build_monitor(opts, program, ctx)
        deadline = Deadline(opts.wall_clock_budget_s)

        identity = REDUCE_IDENTITY[program.gather_op]

        session = CheckpointSession.begin(opts.checkpoint)
        start_superstep = 0
        elapsed_before = 0.0
        if session is not None:
            snapshot = session.load(engine="graph-centric", program=program,
                                    problem=problem)
            if snapshot is not None:
                restore_runtime(snapshot.payload, program, ctx, monitor)
                frontier = ctx.canonical_frontier(
                    snapshot.payload["frontier"])
                trace = snapshot.trace
                start_superstep = snapshot.iteration
                elapsed_before = snapshot.elapsed_s
                trace.meta["resumed_from_iteration"] = start_superstep

        def flush(next_superstep: int) -> None:
            session.save_state(
                engine="graph-centric", program=program, problem=problem,
                ctx=ctx, monitor=monitor, trace=trace,
                next_iteration=next_superstep,
                elapsed_s=elapsed_before + time.perf_counter() - started,
                extra={"frontier": frontier})

        # Inner sweeps interleave gather/apply/scatter per partition, so
        # telemetry samples one "local-compute" timing per superstep.
        obs = engine_observer("graph-centric", program.name)

        stop_reason = "max-supersteps"
        for superstep in range(start_superstep, opts.max_supersteps):
            deadline.check()
            if frontier.size == 0:
                stop_reason = "frontier-empty"
                trace.converged = True
                break
            ctx.iteration = superstep
            sampled = obs is not None and obs.sampled(superstep)
            obs_started = time.perf_counter() if sampled else 0.0

            updates = 0
            reads = 0
            cross_msgs = 0
            next_frontier_parts: list[np.ndarray] = []

            # Each partition drains its internal activity before any
            # boundary exchange.
            for p in range(opts.n_partitions):
                local = frontier[partition[frontier] == p]
                for _sweep in range(opts.max_inner_sweeps):
                    if local.size == 0:
                        break
                    # Gather over all in-edges of the local frontier —
                    # fused dense kernel when the frontier is dense
                    # enough to amortize the full-graph reduction.
                    if fused_gather and local.size >= dense_min:
                        acc = kernels.gather_dense(ctx)[local]
                        n_slots = int(
                            kernels.gather_side.counts[local].sum())
                    else:
                        starts = graph.in_ptr[local]
                        ends = graph.in_ptr[local + 1]
                        slots = concat_ranges(starts, ends)
                        nbr = graph.in_src[slots]
                        center = np.repeat(local, ends - starts)
                        contributions = np.asarray(
                            program.gather_edge(ctx, nbr, center,
                                                graph.in_eid[slots]),
                            dtype=np.float64)
                        acc = segmented_reduce(contributions, ends - starts,
                                               program.gather_op,
                                               identity=identity)
                        n_slots = int(slots.size)
                    program.apply(ctx, local, acc)
                    updates += int(local.size)
                    reads += n_slots

                    # Scatter; internal signals continue the sweep,
                    # external ones wait for the superstep barrier.
                    s2 = graph.out_ptr[local]
                    e2 = graph.out_ptr[local + 1]
                    oslots = concat_ranges(s2, e2)
                    onbr = graph.out_dst[oslots]
                    ocenter = np.repeat(local, e2 - s2)
                    mask = np.asarray(
                        program.scatter_edges(ctx, ocenter, onbr,
                                              graph.out_eid[oslots]),
                        dtype=bool)
                    hit = onbr[mask]
                    internal = hit[partition[hit] == p]
                    external = hit[partition[hit] != p]
                    cross_msgs += int(external.size)
                    next_frontier_parts.append(
                        unique_vertices(external, graph.n_vertices))
                    local = unique_vertices(internal, graph.n_vertices)
                if local.size:
                    # Inner-sweep cap hit: carry the residue into the
                    # next superstep rather than dropping it.
                    next_frontier_parts.append(local)

            program.on_iteration_end(ctx)
            monitor.inject_state_fault(program, superstep)
            reads = monitor.inject_edge_reads(reads, superstep)
            extra = ctx.drain_extra_work()
            work = (program.apply_flops_per_vertex * updates
                    + extra) * opts.unit_scale
            trace.iterations.append(IterationRecord(
                iteration=superstep,
                active=updates,
                updates=updates,
                edge_reads=reads,
                messages=cross_msgs,
                work=work,
            ))
            if obs is not None:
                elapsed = (time.perf_counter() - obs_started
                           if sampled else None)
                obs.iteration(
                    iteration=superstep, active=updates, updates=updates,
                    edge_reads=reads, messages=cross_msgs,
                    seconds=elapsed,
                    phases=({"local-compute": elapsed}
                            if sampled else None))
            health_started = time.perf_counter() if sampled else 0.0
            verdict = monitor.observe(program, iteration=superstep,
                                      frontier=frontier, work=work)
            if sampled:
                obs.phase("health", time.perf_counter() - health_started)
            if verdict is not None:
                mark_degraded(trace, verdict)
                if session is not None:
                    flush(superstep + 1)
                break
            if next_frontier_parts:
                frontier = ctx.canonical_frontier(
                    np.concatenate(next_frontier_parts))
            else:
                frontier = np.empty(0, dtype=np.int64)
            # Contract parity with the other engines: consult the
            # program's convergence predicate (monotone relaxations
            # return False — they end by draining), then stop at the
            # drain itself so a superstep cap cannot turn a converged
            # run into "max-supersteps".
            if program.converged(ctx):
                stop_reason = "converged"
                trace.converged = True
                break
            if frontier.size == 0:
                stop_reason = "frontier-empty"
                trace.converged = True
                break
            if session is not None and session.due(superstep):
                flush(superstep + 1)

        if not trace.degraded:
            trace.stop_reason = stop_reason
        trace.result = program.result(ctx)
        trace.wall_time_s = elapsed_before + time.perf_counter() - started
        if session is not None:
            session.complete(trace)
        return trace
