"""The synchronous GAS engine.

One iteration (paper Section 3.3):

1. **Gather** — every active vertex collects data through its gather
   edges; each collected edge is one *edge read*. Contributions are
   combined per vertex with the program's reduction.
2. **Apply** — every active vertex updates its value; each update is one
   *vertex update*, and the phase's cost is the *WORK* metric.
3. **Scatter** — every applied vertex may send a *signal* (message)
   along its scatter edges; signaled vertices form the next frontier.

The engine runs the same :class:`~repro.engine.program.VertexProgram`
in two modes:

``vectorized``
    All three phases operate on the entire frontier at once using CSR
    segment kernels (``concat_ranges`` + ``segmented_reduce``). This is
    the production mode.

``reference``
    Each phase loops over frontier vertices one at a time, with a
    barrier between phases (gather-all, then apply-all, then
    scatter-all) so synchronous semantics are preserved exactly. This is
    the oracle the test suite compares the vectorized mode against —
    traces must match counter-for-counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util.errors import ResourceLimitError, ValidationError
from repro._util.segments import (
    concat_ranges,
    segmented_reduce,
    unique_vertices,
)
from repro._util.timing import Deadline, Stopwatch
from repro.behavior.trace import IterationRecord, RunTrace
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointSession,
    Snapshot,
    capture_runtime,
    restore_runtime,
)
from repro.engine.context import Context
from repro.engine.health import (
    build_monitor,
    mark_degraded,
    validate_health_options,
)
from repro.engine.instrumentation import Counters, WorkModel
from repro.engine.kernels import FusedKernels
from repro.engine.program import Direction, VertexProgram
from repro.obs.telemetry import engine_observer
from repro.generators.problem import ProblemInstance


@dataclass
class EngineOptions:
    """Engine configuration for one run."""

    #: ``"vectorized"`` (production) or ``"reference"`` (oracle).
    mode: str = "vectorized"
    #: Hard iteration cap; programs may converge earlier.
    max_iterations: int = 10_000
    #: WORK metric production: ``"unit"`` (deterministic) or ``"measured"``.
    work_model: str = "unit"
    #: Scale for unit work so magnitudes resemble seconds.
    unit_scale: float = 1e-9
    #: Memory budget enforced against graph + program state estimates.
    memory_budget_bytes: int = 4 << 30
    #: Extra algorithm parameters forwarded into the Context.
    params: dict[str, Any] = field(default_factory=dict)
    #: Seed for the run-scoped RNG (stochastic programs only).
    seed: int = 0
    #: Run-health policy: ``"strict"`` (raise on detected pathologies),
    #: ``"degrade"`` (stop early, flag the trace), or ``"off"``.
    health_policy: str = "strict"
    #: Cadence, in iterations, of numeric guard + watchdog checks.
    health_check_every: int = 1
    #: Recurrence window (in checks) for the stall/oscillation watchdogs.
    health_window: int = 20
    #: Fault-injection spec (``"nan@3"``, ``"diverge@2"``, ``"counter@1"``)
    #: for exercising the health path; None in production.
    inject_fault: "str | None" = None
    #: Cooperative wall-clock budget checked once per iteration — the
    #: timeout fallback where SIGALRM cannot enforce one. None disables.
    wall_clock_budget_s: "float | None" = None
    #: Iteration-level checkpointing contract; None disables snapshots.
    checkpoint: "CheckpointConfig | None" = None
    #: Dispatch recognized gather/scatter shapes to fused dense CSR
    #: kernels (bit-identical to the callback path; DESIGN §13).
    fused_kernels: bool = True
    #: Traversal direction policy: ``"auto"`` pulls when the active
    #: fraction reaches :attr:`direction_threshold`, ``"push"``/
    #: ``"pull"`` force one mode. Pull requires a fusable program;
    #: otherwise the engine stays on the push path.
    direction: str = "auto"
    #: Active-fraction threshold at which ``"auto"`` switches from push
    #: (frontier-sliced) to pull (dense full-graph) traversal.
    direction_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in ("vectorized", "reference"):
            raise ValidationError(
                f"mode must be 'vectorized' or 'reference', got {self.mode!r}"
            )
        WorkModel(kind=self.work_model)  # validates
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.unit_scale <= 0:
            raise ValidationError("unit_scale must be positive")
        if self.memory_budget_bytes < 1:
            raise ValidationError("memory_budget_bytes must be >= 1")
        validate_health_options(self.health_policy, self.health_check_every,
                                self.health_window)
        if (self.wall_clock_budget_s is not None
                and self.wall_clock_budget_s <= 0):
            raise ValidationError(
                "wall_clock_budget_s must be positive or None")
        if self.direction not in ("auto", "push", "pull"):
            raise ValidationError(
                f"direction must be 'auto', 'push' or 'pull', got "
                f"{self.direction!r}")
        if not 0.0 <= self.direction_threshold <= 1.0:
            raise ValidationError(
                "direction_threshold must be in [0, 1]")


class SynchronousEngine:
    """Executes one vertex program on one problem instance."""

    def __init__(self, options: EngineOptions | None = None) -> None:
        self.options = options or EngineOptions()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, problem: ProblemInstance) -> RunTrace:
        """Run ``program`` to convergence (or the iteration cap).

        Raises
        ------
        ResourceLimitError
            If the graph plus the program's estimated state exceed the
            configured memory budget (this is the paper's AD-at-largest-
            size failure mode).
        """
        opts = self.options
        ctx = Context(problem, params=opts.params, seed=opts.seed)
        graph = problem.graph

        required = graph.memory_bytes() + program.state_bytes(ctx)
        if required > opts.memory_budget_bytes:
            raise ResourceLimitError(
                f"{program.name} on {problem.label} needs ~{required:,} bytes "
                f"of state, exceeding the budget of "
                f"{opts.memory_budget_bytes:,} bytes",
                required_bytes=required,
                budget_bytes=opts.memory_budget_bytes,
            )

        started = time.perf_counter()
        frontier = ctx.canonical_frontier(program.init(ctx))
        ctx.drain_extra_work()  # init-phase work is not an iteration's WORK

        trace = RunTrace(
            algorithm=program.name,
            graph_params=dict(problem.params),
            domain=problem.domain,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            work_model=opts.work_model,
            engine="synchronous",
        )

        monitor = build_monitor(opts, program, ctx)
        deadline = Deadline(opts.wall_clock_budget_s)
        obs = engine_observer("synchronous", program.name)

        session = CheckpointSession.begin(opts.checkpoint)
        start_iteration = 0
        elapsed_before = 0.0
        if session is not None:
            snapshot = session.load(engine="synchronous", program=program,
                                    problem=problem)
            if snapshot is not None:
                restore_runtime(snapshot.payload, program, ctx, monitor)
                frontier = ctx.canonical_frontier(
                    snapshot.payload["frontier"])
                trace = snapshot.trace
                start_iteration = snapshot.iteration
                elapsed_before = snapshot.elapsed_s
                trace.meta["resumed_from_iteration"] = start_iteration

        def flush(next_iteration: int) -> None:
            session.save_state(
                engine="synchronous", program=program, problem=problem,
                ctx=ctx, monitor=monitor, trace=trace,
                next_iteration=next_iteration,
                elapsed_s=elapsed_before + time.perf_counter() - started,
                extra={"frontier": frontier})

        # Fused dense kernels: built once per run (graph-derived caches
        # only, so checkpoint resume reconstructs them losslessly);
        # None when the program declares no fusable shape.
        kernels = None
        if opts.mode == "vectorized" and opts.fused_kernels:
            kernels = FusedKernels.build(program, graph)
        prev_direction: "str | None" = None

        stop_reason = "max-iterations"
        for iteration in range(start_iteration, opts.max_iterations):
            deadline.check()
            if frontier.size == 0:
                stop_reason = "frontier-empty"
                trace.converged = True
                break
            ctx.iteration = iteration
            active = frontier
            # Direction decision: a pure function of this iteration's
            # active fraction and the configured policy — stateless, so
            # a resumed run re-derives the identical push/pull sequence.
            active_fraction = frontier.size / graph.n_vertices
            pull = kernels is not None and (
                opts.direction == "pull"
                or (opts.direction == "auto"
                    and active_fraction >= opts.direction_threshold))
            # Telemetry is observational only: phase timing is sampled
            # (obs level dependent) and never feeds back into counters,
            # so the unit work model stays bit-reproducible.
            sampled = obs is not None and obs.sampled(iteration)
            phase_times: "dict[str, float] | None" = {} if sampled else None
            obs_started = time.perf_counter() if sampled else 0.0
            if obs is not None:
                mode_label = "pull" if pull else "push"
                obs.direction(
                    mode=mode_label, active_fraction=active_fraction,
                    switched=(prev_direction is not None
                              and prev_direction != mode_label))
                prev_direction = mode_label
            counters, frontier = self._iterate(program, ctx, frontier,
                                               phase_times, kernels=kernels,
                                               pull=pull)
            monitor.inject_state_fault(program, iteration)
            counters.edge_reads = monitor.inject_edge_reads(
                counters.edge_reads, iteration)
            trace.iterations.append(IterationRecord(
                iteration=iteration,
                active=counters.active,
                updates=counters.updates,
                edge_reads=counters.edge_reads,
                messages=counters.messages,
                work=counters.work,
            ))
            if obs is not None:
                obs.iteration(
                    iteration=iteration, active=counters.active,
                    updates=counters.updates,
                    edge_reads=counters.edge_reads,
                    messages=counters.messages,
                    seconds=(time.perf_counter() - obs_started
                             if sampled else None),
                    phases=phase_times)
            health_started = time.perf_counter() if sampled else 0.0
            verdict = monitor.observe(program, iteration=iteration,
                                      frontier=active, work=counters.work)
            if sampled:
                obs.phase("health", time.perf_counter() - health_started)
            if verdict is not None:
                mark_degraded(trace, verdict)
                if session is not None:
                    flush(iteration + 1)
                break
            if program.converged(ctx):
                stop_reason = "converged"
                trace.converged = True
                break
            if frontier.size == 0:
                # A drained frontier ends the run *now*, not at the top
                # of a next loop pass that an iteration cap might never
                # grant — otherwise a run converging exactly at the cap
                # would misreport "max-iterations".
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

    # ------------------------------------------------------------------
    # One iteration
    # ------------------------------------------------------------------
    def _iterate(
        self,
        program: VertexProgram,
        ctx: Context,
        frontier: np.ndarray,
        phase_times: "dict[str, float] | None" = None,
        kernels: "FusedKernels | None" = None,
        pull: bool = False,
    ) -> tuple[Counters, np.ndarray]:
        counters = Counters(active=int(frontier.size))
        graph = ctx.graph
        timed = phase_times is not None
        mark = time.perf_counter() if timed else 0.0

        # ---- Gather -------------------------------------------------
        acc: np.ndarray | None = None
        if program.gather_dir is not Direction.NONE:
            if pull and kernels is not None and kernels.can_gather:
                acc, n_reads = kernels.gather_frontier(ctx, frontier)
            elif self.options.mode == "vectorized":
                ptr, idx, eid = self._adjacency(graph, program.gather_dir)
                acc, n_reads = self._gather_vectorized(
                    program, ctx, frontier, ptr, idx, eid)
            else:
                ptr, idx, eid = self._adjacency(graph, program.gather_dir)
                acc, n_reads = self._gather_reference(
                    program, ctx, frontier, ptr, idx, eid)
            counters.edge_reads += n_reads
        if timed:
            now = time.perf_counter()
            phase_times["gather"] = now - mark
            mark = now

        # ---- Apply --------------------------------------------------
        counters.updates += int(frontier.size)
        sw = Stopwatch()
        with sw:
            if self.options.mode == "vectorized":
                program.apply(ctx, frontier, acc)
            else:
                for i in range(frontier.size):
                    row = None
                    if acc is not None:
                        row = acc[i:i + 1]
                    program.apply(ctx, frontier[i:i + 1], row)
        if self.options.work_model == "measured":
            counters.work += sw.total
        if timed:
            now = time.perf_counter()
            phase_times["apply"] = now - mark
            mark = now

        # ---- Scatter ------------------------------------------------
        signaled = np.empty(0, dtype=np.int64)
        if program.scatter_dir is not Direction.NONE:
            if pull and kernels is not None and kernels.can_scatter:
                signaled, n_msgs = kernels.scatter_frontier(ctx, frontier)
            elif self.options.mode == "vectorized":
                ptr, idx, eid = self._adjacency(graph, program.scatter_dir)
                signaled, n_msgs = self._scatter_vectorized(
                    program, ctx, frontier, ptr, idx, eid)
            else:
                ptr, idx, eid = self._adjacency(graph, program.scatter_dir)
                signaled, n_msgs = self._scatter_reference(
                    program, ctx, frontier, ptr, idx, eid)
            counters.messages += n_msgs

        program.on_iteration_end(ctx)
        # Unit work: engine-declared per-vertex cost plus whatever the
        # program reported via ctx.add_work anywhere in the iteration
        # (TC's intersections in gather, DD's slave solves in scatter).
        extra = ctx.drain_extra_work()
        if self.options.work_model != "measured":
            unit = program.apply_flops_per_vertex * frontier.size + extra
            counters.work += unit * self.options.unit_scale
        if timed:
            now = time.perf_counter()
            phase_times["scatter"] = now - mark
            mark = now

        # ---- Next frontier -------------------------------------------
        nxt = program.select_next_frontier(ctx, signaled)
        if nxt is not signaled:
            nxt = ctx.canonical_frontier(nxt)
        elif nxt.size == graph.n_vertices:
            # Every engine scatter path already yields a sorted unique
            # in-range array; a full one becomes the run's cached range.
            nxt = ctx.all_vertices()
        if timed:
            phase_times["frontier"] = time.perf_counter() - mark
        return counters, nxt

    # ------------------------------------------------------------------
    # Phase kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _adjacency(graph, direction: Direction):
        """(ptr, other-endpoint, eid) arrays for a traversal direction."""
        if direction is Direction.IN:
            return graph.in_ptr, graph.in_src, graph.in_eid
        if direction is Direction.OUT:
            return graph.out_ptr, graph.out_dst, graph.out_eid
        if direction is Direction.BOTH:
            if not graph.directed:
                raise ValidationError(
                    "Direction.BOTH on an undirected graph would visit "
                    "every edge twice; use IN or OUT"
                )
            raise ValidationError(
                "Direction.BOTH is not supported; gather twice or "
                "symmetrize the graph"
            )
        raise ValidationError(f"no adjacency for direction {direction}")

    def _gather_vectorized(self, program, ctx, frontier, ptr, idx, eid):
        starts = ptr[frontier]
        ends = ptr[frontier + 1]
        counts = ends - starts
        slots = concat_ranges(starts, ends)
        nbr = idx[slots]
        center = np.repeat(frontier, counts)
        contributions = program.gather_edge(ctx, nbr, center, eid[slots])
        contributions = self._check_gather_shape(
            program, contributions, slots.size)
        acc = segmented_reduce(contributions, counts, program.gather_op)
        return acc, int(slots.size)

    def _gather_reference(self, program, ctx, frontier, ptr, idx, eid):
        width = program.gather_width
        shape = (frontier.size,) if width == 1 else (frontier.size, width)
        from repro._util.segments import REDUCE_IDENTITY
        acc = np.full(shape, REDUCE_IDENTITY[program.gather_op],
                      dtype=program.gather_dtype)
        n_reads = 0
        for i, v in enumerate(frontier.tolist()):
            s, e = int(ptr[v]), int(ptr[v + 1])
            if e == s:
                continue
            slots = np.arange(s, e)
            nbr = idx[slots]
            center = np.full(nbr.size, v, dtype=np.int64)
            contributions = program.gather_edge(ctx, nbr, center, eid[slots])
            contributions = self._check_gather_shape(
                program, contributions, nbr.size)
            reduced = segmented_reduce(
                contributions, np.asarray([nbr.size]), program.gather_op)
            acc[i] = reduced[0]
            n_reads += nbr.size
        return acc, n_reads

    def _scatter_vectorized(self, program, ctx, frontier, ptr, idx, eid):
        starts = ptr[frontier]
        ends = ptr[frontier + 1]
        counts = ends - starts
        slots = concat_ranges(starts, ends)
        nbr = idx[slots]
        center = np.repeat(frontier, counts)
        mask = np.asarray(program.scatter_edges(ctx, center, nbr, eid[slots]),
                          dtype=bool)
        if mask.shape != (slots.size,):
            raise ValidationError(
                f"{program.name}.scatter_edges returned shape {mask.shape}, "
                f"expected ({slots.size},)"
            )
        signaled = unique_vertices(nbr[mask], ctx.n_vertices)
        return signaled, int(mask.sum())

    def _scatter_reference(self, program, ctx, frontier, ptr, idx, eid):
        signaled_parts: list[np.ndarray] = []
        n_msgs = 0
        for v in frontier.tolist():
            s, e = int(ptr[v]), int(ptr[v + 1])
            if e == s:
                continue
            slots = np.arange(s, e)
            nbr = idx[slots]
            center = np.full(nbr.size, v, dtype=np.int64)
            mask = np.asarray(program.scatter_edges(ctx, center, nbr,
                                                    eid[slots]), dtype=bool)
            if mask.shape != (nbr.size,):
                raise ValidationError(
                    f"{program.name}.scatter_edges returned shape "
                    f"{mask.shape}, expected ({nbr.size},)"
                )
            n_msgs += int(mask.sum())
            if mask.any():
                signaled_parts.append(nbr[mask])
        if signaled_parts:
            signaled = unique_vertices(np.concatenate(signaled_parts),
                                       ctx.n_vertices)
        else:
            signaled = np.empty(0, dtype=np.int64)
        return signaled, n_msgs

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_gather_shape(program, contributions, n_edges_sel):
        contributions = np.asarray(contributions, dtype=program.gather_dtype)
        width = program.gather_width
        expected = (n_edges_sel,) if width == 1 else (n_edges_sel, width)
        if contributions.shape != expected:
            raise ValidationError(
                f"{program.name}.gather_edge returned shape "
                f"{contributions.shape}, expected {expected}"
            )
        return contributions
