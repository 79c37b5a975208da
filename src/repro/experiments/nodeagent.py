"""Node agent: one machine's worker of the distributed corpus queue.

An agent is the per-node half of :mod:`repro.experiments.distqueue`:
it registers in the queue's node directory with heartbeat files, pulls
tasks by atomic claim, executes them through the existing
:class:`~repro.experiments.worksite.WorkerCrew` / checkpoint / shm
machinery, and publishes outcomes into the shared
:class:`~repro.experiments.results.ResultStore` behind an epoch fence
check.

Internally the agent *reuses the PR 7 TaskBoard state machine* for its
local crew: every claimed queue task becomes a board task, leased to a
worker with a heartbeat-renewed deadline, so local worker deaths and
hangs are handled exactly as in the single-node supervisor (revoke,
respawn, re-dispatch; a local poison budget quarantines the cell).
Queue-level epochs (fencing between *nodes*) and board-level epochs
(lease matching between the agent and its *workers*) are deliberately
separate counters: the first survives on disk across node deaths, the
second lives only as long as the agent.

Two things make an agent safe to kill at any instruction:

- Its workers never write the shared store (``ctx.store_root=None``);
  all publication happens in the agent's fence-checked
  :func:`~repro.experiments.distqueue.publish_result` path, so a
  revoked node can never clobber the replacement's outcome with a
  non-deterministic failure record.
- Its crew workers arm ``PR_SET_PDEATHSIG`` (see
  :mod:`repro.experiments.worksite`), so a SIGKILLed agent takes its
  workers with it instead of orphaning them; its shm segment names
  travel in every node heartbeat, so the coordinator can reap what
  ``atexit`` never got to run.

Chaos hooks (``REPRO_INJECT_NODE_KILL``, ``REPRO_INJECT_NODE_FREEZE``)
promote the worker-level kill/stall injections one level up: SIGKILL
the whole agent right after it claims a matching task, or freeze its
heartbeats past the node lease timeout and let it wake into its own
fence — the two partition behaviors the acceptance chaos run must
converge through.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any

from repro.experiments.distqueue import (
    Claim,
    DistributedQueue,
    TaskRecord,
    profile_from_dict,
    publish_result,
)
from repro.experiments.failures import RunFailure
from repro.experiments.scheduler import Task, TaskBoard
from repro.experiments.worksite import (
    TaskEnvelope,
    WorkerContext,
    WorkerCrew,
    Worksite,
)

#: ``"<substring|*>:<count>"`` — SIGKILL this *entire agent process*
#: right after it dispatches a claimed run task whose id contains the
#: substring (``*`` matches any). Fires once per process; ignored by
#: the coordinator's embedded agent. This is the "node dies mid-lease"
#: partition the fence/requeue path must absorb.
INJECT_NODE_KILL_ENV = "REPRO_INJECT_NODE_KILL"
#: ``"<substring|*>:<seconds>"`` — on receiving a matching run result,
#: suspend node heartbeats and sleep that long *before* publishing,
#: simulating a node frozen past its lease that later wakes. The
#: publish then trips the fence check: rejected, counted, logged.
INJECT_NODE_FREEZE_ENV = "REPRO_INJECT_NODE_FREEZE"

_injected_kill = False
_injected_freeze = False


def _parse_injection(env: str) -> "tuple[str, float] | None":
    spec = os.environ.get(env)
    if not spec or ":" not in spec:
        return None
    pattern, _, amount = spec.rpartition(":")
    try:
        return pattern, float(amount)
    except ValueError:
        return None


def default_node_id() -> str:
    host = "".join(c if c.isalnum() or c in "-_" else "-"
                   for c in socket.gethostname()) or "node"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _NodeBeatDaemon:
    """Daemon thread writing the agent's registry heartbeat.

    Mirrors :class:`~repro.experiments.worksite.HeartbeatWriter` one
    level up — including ``suspend()``, which the freeze injection uses
    to make the whole node go dark without dying.
    """

    def __init__(self, agent: "NodeAgent", every_s: float) -> None:
        self.agent = agent
        self.every_s = max(0.05, float(every_s))
        self._suspended = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def start(self) -> None:
        self.beat()
        self._thread = threading.Thread(
            target=self._loop, daemon=True,
            name=f"nodebeat-{self.agent.node}")
        self._thread.start()

    def suspend(self) -> None:
        self._suspended = True

    def resume(self) -> None:
        self._suspended = False
        self.beat()

    def beat(self, *, done: bool = False) -> None:
        if self._suspended and not done:
            return
        try:
            self.agent.queue.write_beat(self.agent.node,
                                        self.agent._beat_payload(done))
        except OSError:
            pass  # queue swept or unreachable; next beat retries

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.every_s):
            self.beat()


class NodeAgent:
    """Pull-execute-publish loop for one node of a distributed build.

    Tick-driven so the coordinator can embed one in its own process
    (``embedded=True``) and drive it from the supervision loop — a
    build with zero peer nodes then degrades gracefully to exactly the
    single-node shape. Standalone agents (the ``repro node`` CLI) wrap
    the same ticks in :meth:`run`.
    """

    def __init__(self, queue: DistributedQueue, *, workers: int = 1,
                 manifest: "dict | None" = None,
                 node: "str | None" = None, embedded: bool = False,
                 poll_s: float = 0.05,
                 idle_exit_s: "float | None" = None) -> None:
        self.queue = queue
        self.workers = max(1, int(workers))
        self.manifest = manifest
        self.node = node or ("coordinator" if embedded
                             else default_node_id())
        self.embedded = embedded
        self.poll_s = float(poll_s)
        self.idle_exit_s = idle_exit_s
        self.stale_rejections = 0
        self._board: "TaskBoard | None" = None
        self._crew: "WorkerCrew | None" = None
        self._site: "Worksite | None" = None
        self._beats: "_NodeBeatDaemon | None" = None
        self._plane = None
        self._manifests: dict = {}
        self._claims: "dict[str, Claim]" = {}
        self._records: "dict[str, TaskRecord]" = {}
        self._queue_epoch = 0
        self._mat_for_spec: "dict[str, str]" = {}
        self._stopping = False
        self._started = False
        self._last_activity = time.monotonic()
        self._owns_obs = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        from repro.experiments.results import ResultStore
        from repro.obs.telemetry import get_telemetry

        if self.manifest is None:
            self.manifest = self.queue.read_manifest()
        if self.manifest is None:
            raise RuntimeError(
                f"no build manifest in queue {self.queue.root}")
        self.queue.ensure_layout()
        m = self.manifest
        profile = m["profile"]
        self.profile = (profile_from_dict(profile)
                        if isinstance(profile, dict) else profile)
        self.store = ResultStore(m["store_root"])
        self._configure_obs(m)
        self.tel = get_telemetry()
        lease_timeout = float(m.get("lease_timeout_s") or 15.0)
        heartbeat_every = float(m.get("heartbeat_every_s") or 1.0)
        self._board = TaskBoard(
            lease_timeout_s=lease_timeout,
            max_lease_expiries=int(m.get("max_lease_expiries") or 3),
            backoff_base_s=float(m.get("backoff_base_s") or 0.05),
            on_transition=self._emit_transition)
        # Workers never touch the shared store: all publication funnels
        # through the agent's fence-checked path.
        ctx = WorkerContext(
            store_root=None, profile=self.profile,
            timeout_s=m.get("timeout_s"), retries=m.get("retries"),
            resume=bool(m.get("resume")),
            health_policy=m.get("health_policy"),
            health_check_every=m.get("health_check_every"),
            checkpoint_dir=m.get("checkpoint_dir"),
            checkpoint_every=m.get("checkpoint_every"),
            graph_cache_bytes=m.get("graph_cache_bytes"),
            obs_level=m.get("obs_level"), obs_dir=m.get("obs_dir"),
            run_id=m.get("run_id"), node=self.node,
            trace=m.get("trace"))
        self._site = Worksite(self.queue.node_workdir(self.node))
        self._crew = WorkerCrew(self.workers, self._site, ctx,
                                heartbeat_every)
        self._use_shm = bool(m.get("use_shm", True))
        self._beats = _NodeBeatDaemon(self, heartbeat_every)
        self._beats.start()
        self._started = True
        if self.tel.enabled:
            self.tel.emit("node", _trace_ctx=self._node_ctx(),
                          action="start", workers=self.workers,
                          embedded=self.embedded)

    def _configure_obs(self, m: dict) -> None:
        """Standalone agents own their telemetry, writing a per-node
        event sink + metrics snapshot that the coordinator's end-of-
        build merge folds in; the embedded agent rides the coordinator
        process's already-configured registry."""
        from repro.obs.events import node_sink_path
        from repro.obs.telemetry import configure, get_telemetry

        from repro.obs.tracing import TraceContext

        level = m.get("obs_level")
        obs_dir = m.get("obs_dir")
        trace = TraceContext.from_dict(m.get("trace"))
        if self.embedded or not level or level == "off" or not obs_dir:
            tel = get_telemetry()
            tel.set_node(self.node)
            if trace is not None:
                tel.set_trace(trace)
            return
        configure(level, run_id=m.get("run_id"),
                  events_path=node_sink_path(obs_dir, self.node))
        tel = get_telemetry()
        tel.set_node(self.node)
        # The manifest carries the coordinator's root context: cell
        # spans executed on this node derive the same deterministic
        # ids as anywhere else, so re-dispatches across nodes re-link.
        tel.set_trace(trace)
        self._owns_obs = True

    def _beat_payload(self, done: bool = False) -> dict:
        segments = []
        if self._plane is not None:
            segments = [mf.segment for mf in self._plane.manifests.values()]
        return {
            "epoch": self._queue_epoch,
            "tasks": sorted(self._claims),
            "stale_rejections": self.stale_rejections,
            "segments": segments,
            "done": done,
        }

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def tick(self, wait_s: float) -> None:
        """One supervision round, blocking up to ``wait_s`` on the crew.

        The round reconciles the local crew, claims and dispatches, then
        waits on the crew's result queue. A local result ends the wait
        at once; the freed worker is refilled (claim, dispatch, and any
        materialize→run follow-on) before the finished cell's fenced
        store publish, so a worker never idles behind publication.
        ``wait_s`` therefore bounds only how long an idle node goes
        without re-reading the queue.
        """
        if not self._started or self._stopping:
            time.sleep(wait_s)  # keep the caller's loop paced
            return
        board, crew, site = self._board, self._crew, self._site
        now = time.time()
        try:
            for beat in site.read_heartbeats().values():
                if beat.task_id is not None:
                    board.renew(beat.worker, beat.task_id, beat.epoch,
                                beat.ts)
            for handle in crew.dead_workers():
                self._on_worker_death(handle, now)
            for task, lease in board.expired_leases(now):
                self._on_local_expiry(task, lease, now)
            self._fill(now)
            envelope = crew.poll_result(wait_s)
            if envelope is None:
                return
            finished = []
            while envelope is not None:
                done = self._on_result(envelope)
                if done is not None:
                    finished.append(done)
                envelope = crew.poll_result(0.0)
            self._fill(time.time())
            for record, claim, run in finished:
                self._publish(record, claim, run)
        except OSError:
            # The queue root vanished under us (swept after completion,
            # or the shared filesystem went away): nothing left to do.
            self._stopping = True

    def _fill(self, now: float) -> None:
        """Claim what the idle crew can start and dispatch ready tasks."""
        if not self.queue.complete():
            self._claim_pending()
        self._dispatch_ready(now)

    @property
    def drained(self) -> bool:
        """True when every claimed task reached a terminal state."""
        return not self._claims and (
            self._board is None
            or all(t.terminal for t in self._board.tasks.values()))

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def _claim_capacity(self) -> int:
        """Claim only what the crew can start soon: idle workers minus
        the local backlog. Hoarding claims would serialize work other
        nodes could run in parallel."""
        backlog = sum(
            1 for t in self._board.tasks.values()
            if t.kind == "run" and not t.terminal
            and t.status != "leased")
        return max(0, len(self._crew.idle_workers()) - backlog)

    def _next_epoch(self) -> int:
        """Queue lease epochs are strictly monotonic *and* above the
        node's own fence — a woken zombie that was fenced while frozen
        resumes claiming with live epochs."""
        self._queue_epoch = max(
            self._queue_epoch, self.queue.fence_epoch(self.node)) + 1
        return self._queue_epoch

    def _claim_pending(self) -> None:
        capacity = self._claim_capacity()
        if capacity <= 0:
            return
        for task_id in self.queue.pending():
            if capacity <= 0:
                break
            if task_id in self._records or self.queue.is_done(task_id):
                continue
            epoch = self._next_epoch()
            record = self.queue.claim(task_id, self.node, epoch)
            if record is None:
                continue  # lost the race (or torn record): move on
            claim = Claim(task_id, self.node, epoch,
                          self.queue._claim_path(task_id, self.node,
                                                 epoch))
            self._last_activity = time.monotonic()
            if self.tel.enabled:
                self.tel.inc("distqueue_claims_total")
                self.tel.emit("node", _trace_ctx=self._node_ctx(),
                              action="claim", task=task_id,
                              epoch=epoch)
            if self._resolve_cached(record, claim):
                continue
            self._records[task_id] = record
            self._claims[task_id] = claim
            self._admit(record)
            capacity -= 1

    def _resolve_cached(self, record: TaskRecord, claim: Claim) -> bool:
        """A requeued task may have been satisfied while it bounced
        between nodes; replay the store instead of re-executing."""
        key = record.cell_key
        if not self.store.contains(key):
            return False
        satisfied = self.store.load(key) is not None
        if not satisfied:
            prior = self.store.load_failure(key)
            satisfied = prior is not None and not (
                bool(self.manifest.get("resume")) and prior.retryable)
        if not satisfied:
            return False
        try:
            self.queue.mark_done(record.task_id, {
                "status": "cached", "node": self.node,
                "epoch": claim.epoch, "source": "cache",
                "failure_kind": None})
        finally:
            self.queue.drop_claim(claim)
        return True

    def _admit(self, record: TaskRecord) -> None:
        """Put one claimed task on the local board, chained behind its
        graph's materialize task when the shm plane is in play."""
        deps: "tuple[str, ...]" = ()
        spec_key = record.spec.cache_key()
        if self._plane_wanted():
            mat_id = self._mat_for_spec.get(spec_key)
            if mat_id is None:
                mat_id = f"materialize:{spec_key}"
                self._board.add(Task(mat_id, "materialize",
                                     payload=record.spec))
                self._mat_for_spec[spec_key] = mat_id
            mat_task = self._board.get(mat_id)
            if not mat_task.terminal:
                deps = (mat_id,)
        self._board.add(Task(record.task_id, "run", payload=record,
                             deps=deps))

    def _plane_wanted(self) -> bool:
        from repro.graph import shm

        if not self._use_shm:
            return False
        if self._plane is not None:
            return True
        if getattr(self, "_plane_failed", False):
            return False
        if not shm.shm_available():
            self._plane_failed = True
            return False
        self._plane = shm.GraphPlane()
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_ready(self, now: float) -> None:
        idle = self._crew.idle_workers()
        if not idle:
            return
        for task in self._board.ready(now):
            if not idle:
                break
            handle = idle.pop()
            epoch = self._board.lease(task.id, handle.worker, now)
            if task.kind == "materialize":
                payload: Any = (task.payload, None)
            else:
                record = task.payload
                payload = (record.planned,
                           self._manifests.get(record.spec.cache_key()))
            self._crew.dispatch(handle, TaskEnvelope(
                task.id, epoch, task.kind, payload))
            if task.kind == "run":
                self._maybe_kill_self(task.id)

    def _maybe_kill_self(self, task_id: str) -> None:
        global _injected_kill
        if self.embedded or _injected_kill:
            return
        parsed = _parse_injection(INJECT_NODE_KILL_ENV)
        if parsed is None:
            return
        pattern, count = parsed
        if count < 1 or (pattern != "*" and pattern not in task_id):
            return
        _injected_kill = True
        # Mid-lease death: the claim is on disk, a worker is executing,
        # and SIGKILL gives nothing a chance to clean up. PDEATHSIG
        # reaps the workers; the coordinator fences and requeues the
        # claim; the beats-carried segment names let it reap our shm.
        os.kill(os.getpid(), signal.SIGKILL)

    def _maybe_freeze(self, task_id: str) -> None:
        global _injected_freeze
        if self.embedded or _injected_freeze:
            return
        parsed = _parse_injection(INJECT_NODE_FREEZE_ENV)
        if parsed is None:
            return
        pattern, seconds = parsed
        if seconds <= 0 or (pattern != "*" and pattern not in task_id):
            return
        _injected_freeze = True
        self._beats.suspend()
        time.sleep(seconds)
        self._beats.resume()

    # ------------------------------------------------------------------
    # Local crew supervision (the PR 7 machinery, one level down)
    # ------------------------------------------------------------------
    def _on_worker_death(self, handle, now: float) -> None:
        task = (self._board.get(handle.task_id)
                if handle.task_id is not None else None)
        lease = (task.find_lease(handle.worker)
                 if task is not None else None)
        if self.tel.enabled:
            self.tel.inc("scheduler_worker_deaths_total")
            self.tel.emit("node", _trace_ctx=self._node_ctx(),
                          action="worker-died",
                          worker=handle.worker, task=handle.task_id)
        if task is not None and lease is not None and not task.terminal:
            outcome = self._board.revoke_lease(task, lease, now,
                                               reason="worker-died")
            if outcome == "quarantined":
                self._publish_poison(task)
        if not self._stopping:
            self._crew.replace(handle)
        else:
            self._crew.remove(handle)

    def _on_local_expiry(self, task: Task, lease, now: float) -> None:
        outcome = self._board.revoke_lease(task, lease, now,
                                           reason="lease-expired")
        if outcome == "stale":
            return
        if self.tel.enabled:
            self.tel.inc("scheduler_lease_expiries_total")
            self.tel.emit("node", _trace_ctx=self._node_ctx(),
                          action="lease-expired", task=task.id,
                          worker=lease.worker, outcome=outcome)
        handle = self._crew.workers.get(lease.worker)
        if handle is not None:
            self._crew.kill(handle)
            if not self._stopping:
                self._crew.spawn()
                self._crew.replaced += 1
        if outcome == "quarantined":
            self._publish_poison(task)

    def _publish_poison(self, task: Task) -> None:
        """Local poison budget spent: record the quarantine verdict in
        the shared store (fence-checked like any publish) so every node
        and every future resumed build replays it."""
        record = self._records.get(task.id)
        claim = self._claims.pop(task.id, None)
        if record is None or claim is None:
            return
        self._records.pop(task.id, None)
        failure = task.failure or RunFailure(
            kind="quarantined-poison", message="local poison budget spent")
        if self.queue.check_fence(self.node, claim.epoch):
            self.store.save_failure(record.cell_key, failure)
            self.queue.mark_done(record.task_id, {
                "status": "quarantined", "node": self.node,
                "epoch": claim.epoch, "source": "run",
                "failure_kind": failure.kind})
        else:
            self._count_stale(record.task_id, claim.epoch)
        self.queue.drop_claim(claim)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _on_result(self, envelope) -> "tuple | None":
        """Settle one local result on the board. Returns the
        ``(record, claim, run)`` still to be published, or None when
        nothing is (a materialize task or a stale lease)."""
        self._crew.mark_idle(envelope.worker)
        self._last_activity = time.monotonic()
        task = self._board.get(envelope.task_id)
        if task is None:
            return None
        if task.kind == "materialize":
            if envelope.ok:
                self._publish_materialized(envelope.value)
            self._board.complete(task.id, None)
            return None
        self._maybe_freeze(task.id)
        record = self._records.get(task.id)
        claim = self._claims.get(task.id)
        if envelope.ok:
            accepted = self._board.complete(task.id, envelope.value)
            run = envelope.value
        else:
            accepted = self._board.fail(task.id, envelope.epoch,
                                        envelope.error)
            from repro.experiments.corpus import CorpusRun

            run = CorpusRun(record.algorithm if record else "?",
                            record.spec if record else None, None, None,
                            failure=envelope.error)
        if not accepted or record is None or claim is None:
            return None  # stale local lease: the replacement owns the cell
        self._claims.pop(task.id, None)
        self._records.pop(task.id, None)
        return record, claim, run

    def _publish(self, record: TaskRecord, claim: Claim, run) -> None:
        """Fence-checked store publish of one finished cell."""
        if run.obs_snapshot is not None:
            # Fold the worker's per-cell metric delta into this node's
            # registry; it reaches the coordinator via the node sink.
            self.tel.merge_snapshot(run.obs_snapshot)
            run.obs_snapshot = None
        if publish_result(self.queue, self.store, self.node,
                          claim.epoch, record, run):
            if self.tel.enabled:
                self.tel.inc("distqueue_publishes_total",
                             status="ok" if run.ok else "failed")
        else:
            self._count_stale(record.task_id, claim.epoch)
        self.queue.drop_claim(claim)

    def _count_stale(self, task_id: str, epoch: int) -> None:
        """The fence says this lease was revoked while we held it: the
        store attempt is rejected — never written — counted here and on
        the next heartbeat, and logged for the operator."""
        self.stale_rejections += 1
        if self.tel.enabled:
            self.tel.inc("distqueue_stale_rejections_total")
            self.tel.emit("node", _trace_ctx=self._node_ctx(),
                          action="stale-epoch-rejected",
                          task=task_id, epoch=epoch,
                          fence=self.queue.fence_epoch(self.node))
        self._beats.beat()

    def _publish_materialized(self, value) -> None:
        from repro.graph import shm

        if self._plane is None or value is None:
            return
        spec_key, problem = value
        if not shm.publishable(problem):
            return
        try:
            self._manifests[spec_key] = self._plane.publish(spec_key,
                                                            problem)
            self._beats.beat()  # segment names reach the coordinator
        except Exception:
            self._plane.close()
            self._plane = None
            self._plane_failed = True
            self._manifests = {}

    def _node_ctx(self):
        """Per-event causal context for node-lifecycle events: a
        deterministic child of the build span keyed by node id."""
        if self.tel.trace is None:
            return None
        return self.tel.trace.child("node", self.node)

    def _emit_transition(self, task: Task, old: str, new: str,
                         info: dict) -> None:
        if not self.tel.enabled:
            return
        self.tel.inc("scheduler_transitions_total", to=new)
        ctx = (self.tel.trace.child("task", task.id)
               if self.tel.trace is not None else None)
        self.tel.emit("task", _trace_ctx=ctx, task=task.id,
                      task_kind=task.kind,
                      **{"from": old, "to": new}, **info)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if not self._started or self._stopping:
            self._stopping = True
            return
        self._stopping = True
        # Unfinished claims go back to the queue for someone else.
        for task_id, claim in list(self._claims.items()):
            task = self._board.get(task_id)
            if task is None or not task.terminal:
                try:
                    self.queue.release(claim)
                except OSError:
                    pass
        self._claims.clear()
        busy = any(not h.idle for h in self._crew.workers.values())
        self._crew.shutdown(kill=busy)
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._site.cleanup()
        if self._beats is not None:
            self._beats.beat(done=True)
            self._beats.stop()
        if self.tel.enabled:
            self.tel.emit("node", _trace_ctx=self._node_ctx(),
                          action="stop",
                          stale_rejections=self.stale_rejections)
            self.tel.record_peak_rss()
        if self._owns_obs:
            self._flush_obs()

    def _flush_obs(self) -> None:
        from repro.obs.events import node_metrics_path, write_worker_metrics
        from repro.obs.telemetry import deactivate, get_telemetry

        tel = get_telemetry()
        obs_dir = self.manifest.get("obs_dir")
        if obs_dir:
            try:
                write_worker_metrics(
                    node_metrics_path(obs_dir, self.node), tel.snapshot())
            except OSError:
                pass
        deactivate()

    # ------------------------------------------------------------------
    # Standalone entry (the ``repro node`` CLI)
    # ------------------------------------------------------------------
    def run(self, *, manifest_wait_s: float = 60.0) -> int:
        """Serve the queue until the build completes (or the queue
        disappears). Returns a process exit code."""
        if not self._await_manifest(manifest_wait_s):
            return 1
        try:
            self.start()
        except (RuntimeError, OSError):
            return 1
        try:
            while not self._stopping:
                self.tick(self.poll_s)
                if self.queue.complete() and self.drained:
                    break
                if not (self.queue.root / "manifest.json").exists():
                    break  # queue swept: the build is over
                if (self.idle_exit_s is not None and not self._claims
                        and time.monotonic() - self._last_activity
                        > self.idle_exit_s):
                    break
        finally:
            self.shutdown()
        return 0

    def _await_manifest(self, wait_s: float) -> bool:
        deadline = time.monotonic() + max(0.0, wait_s)
        while True:
            if self.queue.complete():
                return False
            if self.manifest is not None or (
                    self.queue.read_manifest()) is not None:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.1)
