"""Asynchronous GAS engine (GraphLab v2.2's other execution mode).

The paper runs everything in the *synchronous* mode (Section 3.1); the
platform it models also offers asynchronous execution, where each
vertex runs gather→apply→scatter immediately when scheduled and its
updates are visible to later vertices at once. This module provides
that mode as a sequential simulation with the same
:class:`~repro.engine.program.VertexProgram` API and the same behavior
counters, so users can study how execution policy (not just algorithm
and graph) shifts behavior — a dimension the paper leaves to future
work.

Semantics
---------
- A **scheduler** holds pending vertices: ``fifo`` (GraphLab's sweep
  scheduler) or ``priority`` (GraphLab's priority scheduler, ordered by
  the program's :meth:`~AsyncCapable.signal_priority`).
- One **step** = pop a vertex, gather over its gather edges (reading
  *current* neighbor state), apply, scatter; signaled neighbors are
  enqueued (duplicate signals collapse, as in GraphLab).
- The run ends when the scheduler drains or ``max_steps`` is hit.
- For trace compatibility, steps are grouped into *rounds* of up to
  ``|V|`` steps; each round becomes one
  :class:`~repro.behavior.trace.IterationRecord` whose ``active`` is
  the number of steps in the round. Async traces are therefore
  comparable to synchronous ones in volume (updates, edge reads,
  messages) but not in the notion of a barrier.

Only *signal-driven* programs are meaningful here: always-active
programs (AD, KM, ...) rely on the synchronous engine's
``select_next_frontier`` override and would never drain. Programs
opt in by setting ``supports_async = True``.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util.errors import ResourceLimitError, ValidationError
from repro._util.segments import REDUCE_IDENTITY, segmented_reduce
from repro.engine.kernels import reduce_block
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

SCHEDULERS = ("fifo", "priority")


@dataclass
class AsyncEngineOptions:
    """Configuration of an asynchronous run."""

    #: ``fifo`` or ``priority`` (needs the program's signal_priority).
    scheduler: str = "fifo"
    #: Hard cap on update steps (``rounds × |V|`` equivalent).
    max_steps: int = 10_000_000
    #: WORK model, as in the synchronous engine.
    work_model: str = "unit"
    unit_scale: float = 1e-9
    memory_budget_bytes: int = 4 << 30
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Run-health knobs (see :class:`repro.engine.engine.EngineOptions`);
    #: checks run at *round* granularity here.
    health_policy: str = "strict"
    health_check_every: int = 1
    health_window: int = 20
    inject_fault: "str | None" = None
    #: Cooperative wall-clock budget, checked once per round.
    wall_clock_budget_s: "float | None" = None
    #: Round-level checkpointing contract; None disables snapshots.
    checkpoint: "CheckpointConfig | None" = None
    #: Per-step fused adjacency access: CSR slice views plus a direct
    #: single-block ``reduceat`` instead of index materialization and
    #: the general segment kernel (bit-identical; DESIGN §13).
    fused_kernels: bool = True

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValidationError(
                f"scheduler must be one of {SCHEDULERS}, got "
                f"{self.scheduler!r}"
            )
        if self.work_model not in ("unit", "measured"):
            raise ValidationError("work_model must be 'unit' or 'measured'")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")
        validate_health_options(self.health_policy, self.health_check_every,
                                self.health_window)
        if (self.wall_clock_budget_s is not None
                and self.wall_clock_budget_s <= 0):
            raise ValidationError(
                "wall_clock_budget_s must be positive or None")


class _FifoScheduler:
    """FIFO with signal collapsing."""

    def __init__(self, n: int) -> None:
        self.queue: deque[int] = deque()
        self.queued = np.zeros(n, dtype=bool)

    def push(self, v: int, priority: float = 1.0) -> None:
        if not self.queued[v]:
            self.queued[v] = True
            self.queue.append(v)

    def pop(self) -> int:
        v = self.queue.popleft()
        self.queued[v] = False
        return v

    def __len__(self) -> int:
        return len(self.queue)


class _PriorityScheduler:
    """Max-priority heap with signal collapsing (highest priority first;
    re-signaling with a higher priority promotes the entry)."""

    def __init__(self, n: int) -> None:
        self.heap: list[tuple[float, int, int]] = []
        self.best = np.full(n, -np.inf)
        self.queued = np.zeros(n, dtype=bool)
        self._tie = 0

    def push(self, v: int, priority: float = 1.0) -> None:
        if self.queued[v] and priority <= self.best[v]:
            return
        self.best[v] = max(self.best[v], priority)
        self.queued[v] = True
        self._tie += 1
        heapq.heappush(self.heap, (-priority, self._tie, v))

    def pop(self) -> int:
        while self.heap:
            _negp, _tie, v = heapq.heappop(self.heap)
            if self.queued[v]:
                self.queued[v] = False
                self.best[v] = -np.inf
                return v
        raise IndexError("pop from empty scheduler")

    def __len__(self) -> int:
        return int(self.queued.sum())


class AsynchronousEngine:
    """Sequential simulation of asynchronous GAS execution."""

    def __init__(self, options: AsyncEngineOptions | None = None) -> None:
        self.options = options or AsyncEngineOptions()

    def run(self, program: VertexProgram, problem: ProblemInstance) -> RunTrace:
        """Run ``program`` asynchronously until the scheduler drains."""
        if not getattr(program, "supports_async", False):
            raise ValidationError(
                f"{program.name} does not declare supports_async; only "
                "signal-driven programs are meaningful asynchronously"
            )
        opts = self.options
        ctx = Context(problem, params=opts.params, seed=opts.seed)
        graph = problem.graph

        required = graph.memory_bytes() + program.state_bytes(ctx)
        if required > opts.memory_budget_bytes:
            raise ResourceLimitError(
                f"{program.name} exceeds the async memory budget",
                required_bytes=required,
                budget_bytes=opts.memory_budget_bytes,
            )

        started = time.perf_counter()
        initial = ctx.canonical_frontier(program.init(ctx))
        ctx.drain_extra_work()
        scheduler = (_FifoScheduler(graph.n_vertices)
                     if opts.scheduler == "fifo"
                     else _PriorityScheduler(graph.n_vertices))
        for v in initial.tolist():
            scheduler.push(v, self._priority(program, ctx, v))

        trace = RunTrace(
            algorithm=program.name,
            graph_params=dict(problem.params),
            domain=problem.domain,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            work_model=opts.work_model,
            engine="asynchronous",
        )
        monitor = build_monitor(opts, program, ctx)
        deadline = Deadline(opts.wall_clock_budget_s)

        g_ptr, g_idx, g_eid = self._adjacency(graph, program.gather_dir)
        s_ptr, s_idx, s_eid = self._adjacency(graph, program.scatter_dir)

        steps = 0
        round_steps = 0
        round_reads = 0
        round_msgs = 0
        round_work = 0.0
        round_index = 0

        # Checkpoints live at round boundaries — the scheduler object is
        # snapshotted wholesale, so a resumed run pops the exact same
        # vertex sequence the uninterrupted run would have.
        session = CheckpointSession.begin(opts.checkpoint)
        elapsed_before = 0.0
        if session is not None:
            snapshot = session.load(engine="asynchronous", program=program,
                                    problem=problem)
            if snapshot is not None:
                restore_runtime(snapshot.payload, program, ctx, monitor)
                scheduler = snapshot.payload["scheduler"]
                steps = snapshot.payload["steps"]
                round_index = snapshot.iteration
                trace = snapshot.trace
                elapsed_before = snapshot.elapsed_s
                trace.meta["resumed_from_iteration"] = round_index

        def flush(next_round: int) -> None:
            session.save_state(
                engine="asynchronous", program=program, problem=problem,
                ctx=ctx, monitor=monitor, trace=trace,
                next_iteration=next_round,
                elapsed_s=elapsed_before + time.perf_counter() - started,
                extra={"scheduler": scheduler, "steps": steps})

        # Async phases interleave per step, so telemetry samples at
        # *round* granularity: one timing observation per sampled round.
        obs = engine_observer("asynchronous", program.name)
        round_sampled = obs is not None and obs.sampled(round_index)
        round_mark = time.perf_counter() if round_sampled else 0.0

        stop_reason = "max-steps"
        while len(scheduler):
            if steps >= opts.max_steps:
                break
            if steps % 256 == 0:
                deadline.check()
            v = scheduler.pop()
            reads, msgs, work = self._step(
                program, ctx, v, g_ptr, g_idx, g_eid, s_ptr, s_idx, s_eid,
                scheduler)
            steps += 1
            round_steps += 1
            round_reads += reads
            round_msgs += msgs
            round_work += work
            if round_steps == graph.n_vertices or not len(scheduler):
                ctx.iteration = round_index
                program.on_iteration_end(ctx)
                monitor.inject_state_fault(program, round_index)
                round_reads = monitor.inject_edge_reads(
                    round_reads, round_index)
                trace.iterations.append(IterationRecord(
                    iteration=round_index,
                    active=round_steps,
                    updates=round_steps,
                    edge_reads=round_reads,
                    messages=round_msgs,
                    work=round_work,
                ))
                if obs is not None:
                    obs.iteration(
                        iteration=round_index, active=round_steps,
                        updates=round_steps, edge_reads=round_reads,
                        messages=round_msgs,
                        seconds=(time.perf_counter() - round_mark
                                 if round_sampled else None),
                        phases=({"round": time.perf_counter() - round_mark}
                                if round_sampled else None))
                # No frontier in the async signature: a round is an
                # arbitrary |V|-step slice of the scheduler churn, so
                # its vertex set varies even when the computation makes
                # no progress. The state arrays capture all progress.
                health_started = (time.perf_counter() if round_sampled
                                  else 0.0)
                verdict = monitor.observe(
                    program,
                    iteration=round_index,
                    frontier=None,
                    work=round_work,
                )
                if round_sampled:
                    obs.phase("health",
                              time.perf_counter() - health_started)
                round_index += 1
                round_steps = round_reads = round_msgs = 0
                round_work = 0.0
                round_sampled = obs is not None and obs.sampled(round_index)
                round_mark = time.perf_counter() if round_sampled else 0.0
                if verdict is not None:
                    mark_degraded(trace, verdict)
                    if session is not None:
                        flush(round_index)
                    break
                if program.converged(ctx):
                    stop_reason = "converged"
                    trace.converged = True
                    break
                if session is not None and session.due(round_index - 1):
                    flush(round_index)
        else:
            stop_reason = "scheduler-drained"
            trace.converged = True

        if round_steps:  # partial round interrupted by max_steps
            trace.iterations.append(IterationRecord(
                iteration=round_index, active=round_steps,
                updates=round_steps, edge_reads=round_reads,
                messages=round_msgs, work=round_work,
            ))

        if not trace.degraded:
            trace.stop_reason = stop_reason
        trace.result = program.result(ctx)
        trace.wall_time_s = elapsed_before + time.perf_counter() - started
        if session is not None:
            session.complete(trace)
        return trace

    # ------------------------------------------------------------------
    def _step(self, program, ctx, v, g_ptr, g_idx, g_eid,
              s_ptr, s_idx, s_eid, scheduler) -> tuple[int, int, float]:
        vid = np.asarray([v], dtype=np.int64)

        fused = self.options.fused_kernels
        reads = 0
        acc = None
        if g_ptr is not None:
            s, e = int(g_ptr[v]), int(g_ptr[v + 1])
            if e > s:
                if fused:
                    # One vertex's slots are contiguous: slice views
                    # replace index materialization + fancy indexing.
                    nbr = g_idx[s:e]
                    eids = g_eid[s:e]
                else:
                    slots = np.arange(s, e)
                    nbr = g_idx[slots]
                    eids = g_eid[slots]
                center = np.full(nbr.size, v, dtype=np.int64)
                contributions = np.asarray(
                    program.gather_edge(ctx, nbr, center, eids),
                    dtype=program.gather_dtype)
                if fused:
                    acc = reduce_block(contributions, program.gather_op)
                else:
                    acc = segmented_reduce(contributions,
                                           np.asarray([nbr.size]),
                                           program.gather_op)
                reads = nbr.size
            else:
                width = program.gather_width
                shape = (1,) if width == 1 else (1, width)
                acc = np.full(shape, REDUCE_IDENTITY[program.gather_op],
                              dtype=program.gather_dtype)

        t0 = time.perf_counter()
        program.apply(ctx, vid, acc)
        elapsed = time.perf_counter() - t0
        extra = ctx.drain_extra_work()
        if self.options.work_model == "measured":
            work = elapsed
        else:
            work = (program.apply_flops_per_vertex + extra) \
                * self.options.unit_scale

        msgs = 0
        if s_ptr is not None:
            s, e = int(s_ptr[v]), int(s_ptr[v + 1])
            if e > s:
                if fused:
                    nbr = s_idx[s:e]
                    eids = s_eid[s:e]
                else:
                    slots = np.arange(s, e)
                    nbr = s_idx[slots]
                    eids = s_eid[slots]
                center = np.full(nbr.size, v, dtype=np.int64)
                mask = np.asarray(
                    program.scatter_edges(ctx, center, nbr, eids),
                    dtype=bool)
                msgs = int(mask.sum())
                for u in nbr[mask].tolist():
                    scheduler.push(u, self._priority(program, ctx, u))
        return reads, msgs, work

    @staticmethod
    def _priority(program, ctx, v) -> float:
        hook = getattr(program, "signal_priority", None)
        if hook is None:
            return 1.0
        return float(hook(ctx, v))

    @staticmethod
    def _adjacency(graph, direction: Direction):
        if direction is Direction.NONE:
            return None, None, None
        if direction is Direction.IN:
            return graph.in_ptr, graph.in_src, graph.in_eid
        if direction is Direction.OUT:
            return graph.out_ptr, graph.out_dst, graph.out_eid
        raise ValidationError(f"async engine cannot traverse {direction}")
