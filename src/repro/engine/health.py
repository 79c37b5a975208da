"""Run-health monitoring: numeric guards, convergence watchdogs, and
engine-level fault injection.

The engines execute iterative numerical programs that can fail in ways
no exception ever reports: a Jacobi sweep on an ill-conditioned system
silently fills its state with NaN, an SGD run with a hot learning rate
diverges, a solver whose tolerance is below machine precision repeats
the same frontier until ``max_iterations``. Each of those still
produces a complete-looking :class:`~repro.behavior.trace.RunTrace`
whose counters then poison ensemble search — the untrustworthy-corpus
failure mode this subsystem exists to prevent.

Every engine owns one :class:`HealthMonitor` per run and feeds it one
observation per iteration (round / superstep). The monitor implements:

**Numeric guard**
    Scans the program's declared floating-point state arrays
    (:attr:`~repro.engine.program.VertexProgram.state`) for NaN and the
    iteration's WORK counter for NaN/Inf. Inf in *state* is deliberately
    legal — SSSP distances and reduce identities use it — but NaN never
    is.

**Convergence watchdogs**
    Each check records a signature of (frontier, declared state).
    For a deterministic program an exact recurrence is proof of
    pathology: minimal period 1 over the window is a **stall** (the run
    can only repeat itself), period ≥ 2 is an **oscillation**. A third
    watchdog tracks the magnitude of state; growth past
    ``divergence_factor`` × its observed floor is a **divergence**.

**Policy**
    ``strict`` raises :class:`~repro._util.errors.NumericError` /
    :class:`~repro._util.errors.NonConvergenceError`; ``degrade``
    returns a :class:`HealthVerdict` so the engine can stop early and
    flag the partial trace ``degraded``; ``off`` disables everything.

**Fault injection**
    A :class:`FaultPlan` (``"nan@3"``, ``"diverge@2"``, ``"counter@1"``)
    corrupts a live run at a chosen iteration so tests can exercise the
    full detection → classification → corpus-accounting path without a
    genuinely pathological program.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import (
    NonConvergenceError,
    NumericError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.behavior.trace import RunTrace
    from repro.engine.context import Context
    from repro.engine.program import VertexProgram

#: Legal health policies, in decreasing strictness.
HEALTH_POLICIES: tuple[str, ...] = ("strict", "degrade", "off")

#: Watchdog conditions a verdict can carry (plus ``"numeric"``).
HEALTH_CONDITIONS: tuple[str, ...] = (
    "numeric", "stall", "oscillation", "divergence",
)

#: Fault kinds understood by :class:`FaultPlan`.
FAULT_KINDS: tuple[str, ...] = ("nan", "diverge", "counter")

#: Scale applied to state arrays per iteration by the ``diverge`` fault.
#: It exceeds the watchdog's default 1e6 growth factor, so the first
#: faulted check after a clean one trips it whatever the program's own
#: dynamics: a modest scale is undone by self-normalizing updates
#: (NMF's multiplicative rule) or outlived by short runs (TC's three
#: iterations).
_DIVERGE_SCALE = 1e8


def validate_health_options(policy: str, check_every: int,
                            window: int) -> None:
    """Shared validation for the health knobs on every engine options
    dataclass."""
    if policy not in HEALTH_POLICIES:
        raise ValidationError(
            f"health_policy must be one of {HEALTH_POLICIES}, "
            f"got {policy!r}"
        )
    if check_every < 1:
        raise ValidationError("health_check_every must be >= 1")
    if window < 4:
        raise ValidationError("health_window must be >= 4")


def build_monitor(options, program: "VertexProgram",
                  ctx: "Context") -> "HealthMonitor":
    """Construct a run's monitor from any engine options dataclass
    (which all carry the same ``health_*``/``inject_fault`` fields).

    Validates the program's ``state`` declaration up front, whatever
    the policy, so an undeclared program fails at run start.
    """
    state_arrays(program)
    return HealthMonitor(
        policy=options.health_policy,
        check_every=options.health_check_every,
        window=options.health_window,
        fault=options.inject_fault,
        full_frontier=ctx.all_vertices(),
    )


def mark_degraded(trace: "RunTrace", verdict: "HealthVerdict") -> None:
    """Flag a partial trace stopped early under the ``degrade`` policy."""
    trace.degraded = True
    trace.converged = False
    trace.health = {**verdict.to_dict(), "policy": "degrade"}
    trace.stop_reason = f"degraded-{verdict.condition}"


@dataclass(frozen=True)
class HealthVerdict:
    """One detected pathology: what, where, and why."""

    #: ``"numeric"``, ``"stall"``, ``"oscillation"``, or ``"divergence"``.
    condition: str
    #: Iteration (round / superstep) index at detection time.
    iteration: int
    #: Human-readable evidence.
    detail: str

    def to_dict(self) -> dict:
        return {"condition": self.condition, "iteration": self.iteration,
                "detail": self.detail}


@dataclass(frozen=True)
class FaultPlan:
    """Engine-level fault injection: ``<kind>@<iteration>``.

    ``nan``
        Writes NaN into the program's first declared float state array
        after the apply phase of the given iteration — a corrupted
        apply output.
    ``diverge``
        Multiplies every declared float state array by a constant factor
        each iteration from the given one on, forcing magnitude growth
        the divergence watchdog must catch.
    ``counter``
        Negates the iteration's EREAD counter, producing a structurally
        invalid trace that only
        :func:`~repro.behavior.validate.validate_trace` can catch
        (the in-engine guard deliberately leaves counter-sign checks to
        the validator).
    """

    kind: str
    iteration: int

    @classmethod
    def parse(cls, spec: "str | FaultPlan | None") -> "FaultPlan | None":
        """Parse ``"nan@3"``-style specs; None/empty disables injection."""
        if spec is None or isinstance(spec, FaultPlan):
            return spec or None
        text = str(spec).strip()
        if not text:
            return None
        kind, sep, iteration = text.partition("@")
        if not sep or kind not in FAULT_KINDS:
            raise ValidationError(
                f"fault spec must be '<kind>@<iteration>' with kind in "
                f"{FAULT_KINDS}, got {spec!r}"
            )
        try:
            at = int(iteration)
        except ValueError as exc:
            raise ValidationError(
                f"fault iteration must be an integer, got {iteration!r}"
            ) from exc
        if at < 0:
            raise ValidationError("fault iteration must be >= 0")
        return cls(kind=kind, iteration=at)

    # ------------------------------------------------------------------
    def corrupt_state(self, program: "VertexProgram", iteration: int) -> None:
        """Apply the ``nan``/``diverge`` fault to live program state."""
        if self.kind == "nan" and iteration == self.iteration:
            for arr in _float_state(program).values():
                if arr.size:
                    arr.flat[0] = np.nan
                    return
        elif self.kind == "diverge" and iteration >= self.iteration:
            for arr in _float_state(program).values():
                np.multiply(arr, _DIVERGE_SCALE, out=arr,
                            where=np.isfinite(arr))

    def corrupt_edge_reads(self, edge_reads: int, iteration: int) -> int:
        """Apply the ``counter`` fault to an iteration's EREAD value."""
        if self.kind == "counter" and iteration == self.iteration:
            return -edge_reads - 1
        return edge_reads


# ----------------------------------------------------------------------
# State discovery
# ----------------------------------------------------------------------
def state_arrays(program: "VertexProgram") -> dict[str, np.ndarray]:
    """The program's declared mutable state arrays, in declaration
    order (:attr:`~repro.engine.program.VertexProgram.state`).

    Only declared state is guarded, hashed and fault-injected: constant
    inputs (PageRank's cached inverse degree, k-means' points) never
    change, so scanning them every iteration would buy nothing, and the
    read-only graph arrays among them must never be written. Integer
    and boolean arrays participate in recurrence signatures; only
    floating arrays feed the NaN guard and the divergence norm.

    Raises
    ------
    ValidationError
        If the program declares no ``state``, or a declared name is not
        an ndarray attribute after ``init``.
    """
    names = getattr(program, "state", None)
    if names is None:
        raise ValidationError(
            f"{type(program).__name__} ({program.name!r}) declares no "
            f"'state': list its mutable state arrays, e.g. "
            f"state = (\"rank\",)")
    arrays: dict[str, np.ndarray] = {}
    for name in names:
        value = getattr(program, name, None)
        if not isinstance(value, np.ndarray):
            raise ValidationError(
                f"{type(program).__name__} ({program.name!r}) declares "
                f"state {name!r}, which is {type(value).__name__}, not "
                f"an ndarray")
        arrays[name] = value
    return arrays


def _float_state(program: "VertexProgram") -> dict[str, np.ndarray]:
    return {name: arr for name, arr in state_arrays(program).items()
            if np.issubdtype(arr.dtype, np.floating)}


def _peak(arr: np.ndarray) -> float:
    """Max |value| of a non-empty float array, NaN if it holds a NaN,
    ``-inf`` if it holds no finite value.

    The plain max/min reductions allocate nothing and propagate NaN,
    so a clean finite array costs two streaming passes; only arrays
    holding an infinity (SSSP distances) take the finite-only path.
    """
    hi = arr.max()
    lo = arr.min()
    if np.isnan(hi) or np.isnan(lo):
        return float("nan")
    if np.isinf(hi) or np.isinf(lo):
        return _finite_peak(arr)
    return float(max(abs(hi), abs(lo)))


def _finite_peak(arr: np.ndarray) -> float:
    """Max |finite value| of a NaN-free float array, ``-inf`` if none.

    Non-negative IEEE floats order like their bit patterns, and +inf's
    pattern is the largest finite one plus 1. Subtracting the
    magnitudes' patterns from the largest finite one (unsigned, so
    +inf wraps to the top) makes the largest finite magnitude the
    minimum: one branch-free pass instead of a masked reduction, which
    is ~5x slower over scattered infinities.
    """
    if arr.itemsize not in (2, 4, 8):  # long double: no unsigned view
        hi = arr.max(where=arr != np.inf, initial=-np.inf)
        lo = arr.min(where=arr != -np.inf, initial=np.inf)
        return float(max(abs(hi), abs(lo))) if hi != -np.inf else -np.inf
    utype = np.dtype(f"u{arr.itemsize}")
    top = np.array(np.inf, dtype=arr.dtype).view(utype)[()] - 1
    bits = np.abs(arr).view(utype)
    np.subtract(top, bits, out=bits)
    low = bits.min()
    if low > top:  # every magnitude was +inf
        return -np.inf
    return float(np.array(top - low, dtype=utype).view(arr.dtype)[()])


def _crc(arr: np.ndarray, crc: int) -> int:
    """Extend a CRC-32 with an array's bytes through the buffer
    protocol (a copy only for non-contiguous views)."""
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return zlib.crc32(arr.data if arr.size else b"", crc)


def _signature(frontier: "np.ndarray | None",
               arrays: dict[str, np.ndarray],
               full_frontier: "np.ndarray | None" = None) -> int:
    """Checksum of (frontier, every state array) — exact recurrence of
    this signature means the computation revisited an earlier global
    state. The run's all-vertices frontier (recognised by identity)
    enters as a fixed token instead of ``n`` ids.

    A CRC-32 is enough, and several times cheaper than a cryptographic
    digest on megabyte arrays: a verdict needs the whole window to be
    periodic, so a chance collision would have to repeat across at
    least half the window's checks to fake a stall or an oscillation.
    """
    crc = 0
    if frontier is not None:
        if full_frontier is not None and frontier is full_frontier:
            crc = zlib.crc32(b"all-vertices:%d" % frontier.size)
        else:
            crc = _crc(np.asarray(frontier, dtype=np.int64), crc)
    for name in sorted(arrays):
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = _crc(arrays[name], crc)
    return crc


def _minimal_period(history: "deque[int]") -> "int | None":
    """Smallest p ≥ 1 such that the whole history is p-periodic, or
    None if aperiodic over the window."""
    sigs = list(history)
    n = len(sigs)
    for period in range(1, n // 2 + 1):
        if all(sigs[i] == sigs[i - period] for i in range(period, n)):
            return period
    return None


class HealthMonitor:
    """Per-run health state machine fed by the engine's iteration loop.

    Parameters
    ----------
    policy:
        ``"strict"`` (raise), ``"degrade"`` (return a verdict so the
        engine stops early and flags the trace), or ``"off"``.
    check_every:
        Cadence, in iterations, of guard + watchdog evaluation. The
        recurrence window counts *checks*, not iterations.
    window:
        Number of recent signatures kept; a stall/oscillation fires only
        once the window is full, so small runs are never flagged.
    divergence_factor:
        Growth of the state-magnitude norm, relative to its observed
        floor (with an absolute floor of 1.0), treated as divergence.
    fault:
        Optional :class:`FaultPlan` (or its string spec) injected into
        the run.
    full_frontier:
        The run's cached all-vertices frontier
        (:meth:`~repro.engine.context.Context.all_vertices`), hashed as
        a token when observed.
    """

    def __init__(
        self,
        *,
        policy: str = "strict",
        check_every: int = 1,
        window: int = 20,
        divergence_factor: float = 1e6,
        fault: "str | FaultPlan | None" = None,
        full_frontier: "np.ndarray | None" = None,
    ) -> None:
        validate_health_options(policy, check_every, window)
        if divergence_factor <= 1.0:
            raise ValidationError("divergence_factor must be > 1")
        self.policy = policy
        self.check_every = int(check_every)
        self.window = int(window)
        self.divergence_factor = float(divergence_factor)
        self.fault = FaultPlan.parse(fault)
        self._full_frontier = full_frontier
        self._signatures: deque[int] = deque(maxlen=self.window)
        self._norm_floor: "float | None" = None
        self.verdict: "HealthVerdict | None" = None

    @property
    def enabled(self) -> bool:
        return self.policy != "off"

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable watchdog state for a run snapshot — the signature
        window and the divergence norm floor must survive a resume or
        the watchdogs would restart blind (a stall spanning the kill
        point would need a whole fresh window to fire again)."""
        return {
            "signatures": list(self._signatures),
            "norm_floor": self._norm_floor,
            "verdict": self.verdict,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; configuration (policy, window,
        cadence) stays whatever this monitor was built with."""
        self._signatures = deque(state["signatures"], maxlen=self.window)
        self._norm_floor = state["norm_floor"]
        self.verdict = state["verdict"]

    # ------------------------------------------------------------------
    # Fault injection entry points (called by engines even when policy
    # is "off": injected faults must corrupt runs regardless, so tests
    # can prove the *absence* of guards lets them through).
    # ------------------------------------------------------------------
    def inject_state_fault(self, program: "VertexProgram",
                           iteration: int) -> None:
        if self.fault is not None:
            self.fault.corrupt_state(program, iteration)

    def inject_edge_reads(self, edge_reads: int, iteration: int) -> int:
        if self.fault is None:
            return edge_reads
        return self.fault.corrupt_edge_reads(edge_reads, iteration)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        program: "VertexProgram",
        *,
        iteration: int,
        frontier: "np.ndarray | None",
        work: float = 0.0,
    ) -> "HealthVerdict | None":
        """Feed one completed iteration; returns a verdict under the
        ``degrade`` policy, raises under ``strict``, and remembers the
        verdict either way (``self.verdict``).

        Engines must stop iterating once a verdict is returned.
        """
        if not self.enabled or self.verdict is not None:
            return self.verdict
        if iteration % self.check_every:
            return None
        verdict = self._check(program, iteration=iteration,
                              frontier=frontier, work=work)
        if verdict is None:
            return None
        self.verdict = verdict
        # Watchdog trips are telemetry events regardless of policy —
        # recorded before the strict path raises.
        from repro.obs.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.inc("health_trips_total", condition=verdict.condition,
                    policy=self.policy, algorithm=program.name)
            tel.emit("health", condition=verdict.condition,
                     policy=self.policy, algorithm=program.name,
                     iteration=verdict.iteration, detail=verdict.detail)
        if self.policy == "strict":
            if verdict.condition == "numeric":
                raise NumericError(
                    f"numeric guard tripped at iteration "
                    f"{verdict.iteration}: {verdict.detail}",
                    iteration=verdict.iteration, detail=verdict.detail,
                )
            raise NonConvergenceError(
                f"convergence watchdog detected {verdict.condition} at "
                f"iteration {verdict.iteration}: {verdict.detail}",
                condition=verdict.condition,
                iteration=verdict.iteration, detail=verdict.detail,
            )
        return verdict

    # ------------------------------------------------------------------
    def _check(self, program, *, iteration, frontier, work):
        state = state_arrays(program)

        # ---- Numeric guard (non-finite work counter, NaN state) and
        # the divergence norm, from one peak reduction per float array.
        if not np.isfinite(work):
            return HealthVerdict("numeric", iteration,
                                 f"WORK counter is {work!r}")
        norm = None
        for name, arr in state.items():
            if not arr.size or not np.issubdtype(arr.dtype, np.floating):
                continue
            peak = _peak(arr)
            if np.isnan(peak):
                count = int(np.count_nonzero(np.isnan(arr)))
                return HealthVerdict(
                    "numeric", iteration,
                    f"state array {name!r} holds {count} NaN value(s)")
            if peak != -np.inf:
                norm = peak if norm is None else max(norm, peak)

        # ---- Divergence: state magnitude past its floor × factor.
        if norm is not None:
            if self._norm_floor is None:
                self._norm_floor = norm
            self._norm_floor = min(self._norm_floor, norm)
            threshold = self.divergence_factor * max(self._norm_floor, 1.0)
            if norm > threshold:
                return HealthVerdict(
                    "divergence", iteration,
                    f"state magnitude {norm:.3g} exceeds "
                    f"{self.divergence_factor:g}× its floor "
                    f"{self._norm_floor:.3g}")

        # ---- Stall / oscillation: exact (frontier, state) recurrence.
        self._signatures.append(
            _signature(frontier, state, self._full_frontier))
        if len(self._signatures) == self.window:
            period = _minimal_period(self._signatures)
            if period == 1:
                return HealthVerdict(
                    "stall", iteration,
                    f"frontier and state unchanged over the last "
                    f"{self.window} checks")
            if period is not None and period <= self.window // 2:
                return HealthVerdict(
                    "oscillation", iteration,
                    f"frontier and state repeat with period {period} "
                    f"over the last {self.window} checks")
        return None
