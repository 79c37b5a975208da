"""One pass of one perfbench workload, in a fresh interpreter.

``run.py`` starts this file once per pass so that every pass is cold
(fresh imports, empty graph cache, its own peak RSS) and so that an
earlier pass cannot inflate a later one's memory high-water mark::

    python3 perfbench/child.py WORKLOAD SEED MODE OUT_JSON WORK_DIR

MODE is ``setup`` (prepare the inputs, then stop before the first
timed call), ``plain`` (the untraced pass end-to-end metrics come
from) or ``traced`` (the same workload with spans recorded around
every call into a ``repro`` layer).  The pass writes one JSON object
to OUT_JSON; ``run.py`` turns those into the benchmark's result line.

The benchmark only calls public ``repro`` functions and reads their
public outputs; it changes no program code.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

from repro.behavior.metrics import compute_metrics  # noqa: E402
from repro.behavior.run import run_computation  # noqa: E402
from repro.behavior.space import BehaviorSpace, normalize_corpus  # noqa: E402
from repro.ensemble.budgets import REPORT_SAMPLES, SEARCH_SAMPLES  # noqa: E402
from repro.ensemble.metrics import coverage, spread  # noqa: E402
from repro.ensemble.search import (  # noqa: E402
    best_ensemble_curve,
    top_k_ensembles,
)
from repro.experiments.config import (  # noqa: E402
    CORPUS_ALGORITHMS,
    ExperimentMatrix,
    GraphSpec,
    get_profile,
)
from repro.experiments.corpus import (  # noqa: E402
    BehaviorCorpus,
    CorpusRun,
    build_corpus,
)
from repro.experiments.graph_cache import materialize_problem  # noqa: E402
from repro.experiments.results import ResultStore  # noqa: E402

#: The health policy, passed explicitly so the measured program does
#: not depend on a default that may move.  Not the default ``strict``:
#: at about one smoke seed in six (2, 17, 21, 26, 31, 33 of 1..33) a
#: k-means cell genuinely oscillates, which ``strict`` records as an
#: unexpected failure and ``degrade`` as a degraded run.  The watchdog
#: runs and costs the same under both; ``degrade`` lets the build
#: complete on every seed, and the benchmark counts and prints each
#: degraded run (see ``KNOWN_DEGRADED``).
HEALTH_POLICY = "degrade"
#: The one degradation known to occur: (algorithm, watchdog condition).
#: Any other degraded run fails the run's output checks.
KNOWN_DEGRADED = {("kmeans", "oscillation")}
#: Worker processes for the multi-worker workloads: the box's cores.
FLEET_WORKERS = 2
#: Ensemble sizes of the Figs 18-19 curves.
CURVE_SIZES = (2, 5, 10, 15, 20)
#: Figs 20-21: top-K ensembles of one size.
TOPK_SIZE, TOPK_K = 10, 100
#: Kernels of the ``scale`` workload, in call order; the first call
#: generates the graph and the later ones reuse it from the graph cache.
SCALE_ALGORITHMS = ("pagerank", "cc", "sssp")
SCALE_EDGES, SCALE_ALPHA = 10**6, 2.5
#: Tolerance of the re-scoring check on search results.
SCORE_TOL = 1e-9


class Spans:
    """In-memory span recorder (name, start, end, parent, run id).

    Disabled in untraced passes, where ``span`` only yields None.
    Spans derived from a public per-run output (``trace.meta``
    timings) or from a median of repeated calls are added with
    :meth:`add` and carry ``derived=True``.
    """

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.items: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block as a child of the enclosing span; yields the
        span's id."""
        if not self.enabled:
            yield None
            return
        sid = len(self.items)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "run_id": self.run_id, "start": time.perf_counter(),
               "end": None}
        self.items.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, seconds: float,
            parent: "int | None" = None) -> None:
        """Record a derived span of ``seconds`` under ``parent`` (default:
        the enclosing span), placed at its parent's start."""
        if not self.enabled:
            return
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        start = self.items[parent]["start"] if parent is not None else 0.0
        self.items.append({"id": len(self.items), "name": name,
                           "parent": parent, "run_id": self.run_id,
                           "start": start, "end": start + seconds,
                           "derived": True})


class Checks:
    """Output checks of one pass; a failed check fails the run."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok),
                             "detail": detail})


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def vectors_digest(vectors) -> str:
    """Order-independent digest of behavior vectors (tag + 4 coords).

    Parallel builds complete cells in a different order than inline
    ones, so the vectors are sorted by run identity before hashing.
    """
    rows = sorted((repr(v.tag), float(v.updt).hex(), float(v.work).hex(),
                   float(v.eread).hex(), float(v.msg).hex())
                  for v in vectors)
    return hashlib.blake2b(repr(rows).encode(), digest_size=12).hexdigest()


def trace_counts(traces) -> "dict[str, int]":
    """Exact model counts of the unit work model."""
    return {
        "iterations": sum(t.n_iterations for t in traces),
        "edge_reads": sum(int(rec.edge_reads) for t in traces
                          for rec in t.iterations),
    }


class Progress:
    """``progress`` callback of ``build_corpus``: completion timestamps."""

    def __init__(self) -> None:
        self.start = 0.0
        self.stamps: list[float] = []

    def arm(self) -> None:
        self.start = time.perf_counter()
        self.stamps.clear()

    def __call__(self, _line: str) -> None:
        self.stamps.append(time.perf_counter())

    def dispatch(self) -> "dict[str, float]":
        """Time to the first completed cell and the gaps between
        completions (219 gaps for the 220-cell smoke plan)."""
        gaps = np.diff(np.asarray(self.stamps)) if len(self.stamps) > 1 \
            else np.zeros(1)
        first = self.stamps[0] - self.start if self.stamps else 0.0
        return {"dispatch.first_cell_s": float(first),
                "dispatch.gap_p50_s": float(np.percentile(gaps, 50)),
                "dispatch.gap_p95_s": float(np.percentile(gaps, 95))}


# ----------------------------------------------------------------------
# Corpus builds (corpus-fleet and the pipeline build)
# ----------------------------------------------------------------------
def smoke_profile(seed: int):
    return dataclasses.replace(get_profile("smoke"), seed=seed)


def planned_cells(profile) -> int:
    return len(ExperimentMatrix(profile).corpus_runs())


def executed_runs(corpus: BehaviorCorpus) -> "list[CorpusRun]":
    """Cells this build executed and timed (not cache hits or failures)."""
    return [r for r in corpus.runs + corpus.failures
            if r.source == "run" and r.trace is not None
            and "engine_s" in r.trace.meta]


def add_parallel_layers(spans: Spans, corpus: BehaviorCorpus,
                        workers: int, build_span: int,
                        store_known: bool) -> None:
    """Attribute a multi-worker build's time from its public per-run
    outputs: each layer gets its summed busy time divided by the number
    of workers (the workers run side by side); what is left of the
    build span is dispatch (scheduler, queue, leases, polling)."""
    executed = executed_runs(corpus)
    per_alg: "dict[str, float]" = {}
    for r in executed:
        per_alg[r.algorithm] = (per_alg.get(r.algorithm, 0.0)
                                + r.trace.meta["engine_s"])
    for alg, busy in sorted(per_alg.items()):
        spans.add(f"engine.{alg}", busy / workers, parent=build_span)
    mat = sum(r.trace.meta["materialize_s"] for r in executed)
    spans.add("generators.premat", corpus.premat_seconds, parent=build_span)
    spans.add("generators.materialize", mat / workers, parent=build_span)
    if store_known:
        spans.add("store.put", sum(r.store_s or 0.0 for r in executed)
                  / workers, parent=build_span)


def corpus_layers(corpus: BehaviorCorpus, wall: float,
                  workers: int) -> "dict[str, float]":
    """Per-layer figures of one cold build from its public outputs."""
    executed = executed_runs(corpus)
    traces = [r.trace for r in executed]
    engine = sum(t.meta["engine_s"] for t in traces)
    mat = sum(t.meta["materialize_s"] for t in traces)
    store = sum(r.store_s or 0.0 for r in executed)
    out = {
        "engine.busy_s": engine,
        "generators.materialize_s": mat + corpus.premat_seconds,
        "store.put_s": store,
        "dispatch.overhead_s": (wall - corpus.premat_seconds
                                - (engine + mat + store) / workers),
        "engine.degraded_runs": float(len(corpus.degraded_runs)),
        "dispatch.lease_expiries": float(corpus.lease_expiries),
        "dispatch.workers_replaced": float(corpus.workers_replaced),
        "dispatch.queue_requeues": float(corpus.queue_requeues),
        "dispatch.queue_leftovers": float(corpus.queue_leftovers),
    }
    for alg in CORPUS_ALGORITHMS:
        out[f"engine.{alg}_s"] = sum(t.meta["engine_s"] for t in traces
                                     if t.algorithm == alg)
    counts = trace_counts(traces)
    out.update({f"engine.{k}": float(v) for k, v in counts.items()})
    out["engine.edges_per_s"] = counts["edge_reads"] / engine
    return out


def check_build(checks: Checks, corpus: BehaviorCorpus, planned: int,
                label: str) -> "dict[str, int]":
    """Output checks of one cold build; returns its cell accounting."""
    unexpected = corpus.unexpected_failures
    expected = [f for f in corpus.failures
                if f.failure is not None and f.failure.expected]
    checks.check(f"{label}: executed == planned",
                 corpus.n_executed == planned,
                 f"{corpus.n_executed} executed of {planned} planned")
    checks.check(f"{label}: no unexpected failures", not unexpected,
                 "; ".join(f"{f.algorithm}@{f.spec.label}: {f.failure}"
                           for f in unexpected))
    degraded = [(r.algorithm, r.trace.health.get("condition"),
                 r.spec.label) for r in corpus.degraded_runs]
    unknown = [d for d in degraded if d[:2] not in KNOWN_DEGRADED]
    checks.check(f"{label}: no degraded runs besides known k-means "
                 f"oscillations", not unknown,
                 "; ".join(f"{a}@{g}: {c}" for a, c, g in unknown))
    checks.check(f"{label}: not interrupted", not corpus.interrupted)
    return {"cells": planned, "cells_failed": len(unexpected) + len(unknown),
            "expected_failures": len(expected),
            "degraded": [f"{a}@{g}: {c}" for a, c, g in degraded]}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Pass:
    """State of one pass: inputs, spans, checks and the result."""

    def __init__(self, workload: str, seed: int, mode: str,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.mode = mode
        self.work = work
        self.spans = Spans(mode == "traced", f"{workload}-{seed}-{mode}")
        self.checks = Checks()
        self.progress = Progress()
        self.result: dict = {"workload": workload, "seed": seed,
                             "mode": mode, "layers": {}, "counts": {}}

    def prepare(self) -> None:
        """Input preparation (part of set-up, before the first timed
        call): the profile or graph spec and the search samples."""
        if self.workload == "scale":
            self.spec = GraphSpec.ga(SCALE_EDGES, SCALE_ALPHA, seed=self.seed)
            return
        self.profile = smoke_profile(self.seed)
        self.planned = planned_cells(self.profile)
        self.store = ResultStore(self.work / "store")
        if self.workload == "pipeline":
            space = BehaviorSpace()
            self.search_samples = space.sample(SEARCH_SAMPLES, seed=self.seed)
            self.report_samples = space.sample(REPORT_SAMPLES, seed=self.seed)

    def run(self) -> None:
        getattr(self, "_" + self.workload.replace("-", "_"))()
        self.result.setdefault("peak_rss_mb", peak_rss_mb())

    # -- corpus builds ----------------------------------------------
    def _build(self, workers: int, **kwargs) -> BehaviorCorpus:
        self.progress.arm()
        return build_corpus(self.profile, store=self.store, workers=workers,
                            obs="off", health_policy=HEALTH_POLICY,
                            progress=self.progress, **kwargs)

    def _corpus_fleet(self) -> None:
        sp = self.spans
        queue = self.work / "queue"
        t0 = time.perf_counter()
        with sp.span("workload"):
            with sp.span("dispatch.build") as build_span:
                corpus = self._build(FLEET_WORKERS, distributed=str(queue))
            # Known gap: over the distributed queue the coordinator
            # rebuilds each CorpusRun without store_s, so the store's
            # put time is not observable from outside on this path.
            add_parallel_layers(sp, corpus, FLEET_WORKERS, build_span,
                                store_known=False)
        build = time.perf_counter() - t0
        leftover = sorted(str(p.relative_to(queue))
                          for p in queue.rglob("*")) if queue.exists() else []
        self.checks.check("corpus-fleet: queue directory swept",
                          not leftover and corpus.queue_leftovers == 0,
                          f"{len(leftover)} paths left: {leftover[:5]}")
        self.checks.check("corpus-fleet: ran over the distributed queue",
                          corpus.distributed)
        self._finish_corpus(corpus, FLEET_WORKERS, build)
        self.result["layers"]["store.put_s"] = None

    def _pipeline(self) -> None:
        sp = self.spans
        t0 = time.perf_counter()
        with sp.span("workload"):
            with sp.span("dispatch.build") as build_span:
                corpus = self._build(FLEET_WORKERS)
            build = time.perf_counter() - t0
            add_parallel_layers(sp, corpus, FLEET_WORKERS, build_span,
                                store_known=True)
            # What `repro ensemble` does: a warm build on the same
            # store, the behavior vectors, then the searches.
            t1 = time.perf_counter()
            with sp.span("store.load"):
                warm = build_corpus(self.profile, store=self.store,
                                    obs="off", health_policy=HEALTH_POLICY)
            t2 = time.perf_counter()
            with sp.span("behavior.vectors"):
                vectors = warm.vectors()
            t3 = time.perf_counter()
            searches, times = self._searches(vectors)
        search = time.perf_counter() - t1
        self._finish_corpus(corpus, FLEET_WORKERS, build, search)
        self.checks.check("pipeline: warm build served from the store",
                          warm.n_executed == 0
                          and warm.n_cached == self.planned,
                          f"{warm.n_executed} executed, "
                          f"{warm.n_cached} cached")
        self.checks.check("pipeline: warm vectors equal cold vectors",
                          vectors_digest(vectors) == self.result["digest"])
        self._check_searches(vectors, searches)
        self.result["layers"].update(times)
        self.result["layers"].update({"store.load_s": t2 - t1,
                                      "store.hits": float(warm.n_cached),
                                      "behavior.vectors_s": t3 - t2})
        self.result["counts"]["searches"] = sum(
            len(v) for k, v in searches.items() if not k.startswith("_"))

    def _finish_corpus(self, corpus, workers: int, build: float,
                       search: float = 0.0) -> None:
        label = self.workload
        self.result["counts"].update(
            check_build(self.checks, corpus, self.planned, label))
        self.checks.check(f"{label}: progress reported every cell",
                          len(self.progress.stamps) == self.planned,
                          f"{len(self.progress.stamps)} of {self.planned}")
        self.result["times"] = {"wall_s": build + search, "build_s": build,
                                "search_s": search}
        layers = corpus_layers(corpus, build, workers)
        layers.update(self.progress.dispatch())
        self.result["layers"].update(layers)
        vectors = corpus.vectors()
        self.result["digest"] = vectors_digest(vectors)
        self.result["counts"]["vectors"] = len(vectors)

    # -- searches (pipeline) ----------------------------------------
    def _searches(self, vectors) -> "tuple[dict, dict[str, float]]":
        """The searches behind Figs 18-21, then re-scoring every result
        at the reporting budget; returns results and per-search times."""
        sp = self.spans
        samples = self.search_samples
        times: "dict[str, float]" = {}
        out: dict = {}

        def timed(name, fn):
            with sp.span(f"ensemble.{name}"):
                t = time.perf_counter()
                value = fn()
                times[f"ensemble.{name}_s"] = time.perf_counter() - t
            return value

        out["spread_curve"] = list(timed("spread_curve", lambda:
            best_ensemble_curve(vectors, CURVE_SIZES, "spread",
                                samples=samples)).values())
        out["coverage_beam"] = list(timed("coverage_beam", lambda:
            best_ensemble_curve(vectors, CURVE_SIZES, "coverage",
                                samples=samples, strategy="beam")).values())
        out["coverage_greedy"] = list(timed("coverage_greedy", lambda:
            best_ensemble_curve(vectors, CURVE_SIZES, "coverage",
                                samples=samples,
                                strategy="greedy")).values())
        out["topk_spread"] = timed("topk_spread", lambda: top_k_ensembles(
            vectors, TOPK_SIZE, "spread", k=TOPK_K, samples=samples))
        out["topk_coverage"] = timed("topk_coverage", lambda:
            top_k_ensembles(vectors, TOPK_SIZE, "coverage", k=TOPK_K,
                            samples=samples))
        results = [r for group in out.values() for r in group]
        report = self.report_samples
        out["_rescored"] = timed("rescore", lambda: [
            (spread(r.ensemble), coverage(r.ensemble, samples=report))
            for r in results])
        return out, times

    def _check_searches(self, vectors, searches: dict) -> None:
        n = len(vectors)
        rescored = searches["_rescored"]
        bad_idx, bad_score = [], []
        results = [(group, r) for group, rs in searches.items()
                   if not group.startswith("_") for r in rs]
        for group, r in results:
            idx = r.indices
            if (len(set(idx)) != len(idx) or len(idx) != r.ensemble.size
                    or not all(0 <= i < n for i in idx)):
                bad_idx.append(f"{group}:{idx}")
            again = (spread(r.ensemble) if r.metric == "spread"
                     else coverage(r.ensemble, samples=self.search_samples))
            if abs(again - r.score) > SCORE_TOL:
                bad_score.append(f"{group}: {r.score!r} vs {again!r}")
        self.checks.check("pipeline: search indices distinct and in range",
                          not bad_idx, "; ".join(bad_idx[:3]))
        self.checks.check("pipeline: search scores re-score within 1e-9",
                          not bad_score, "; ".join(bad_score[:3]))
        self.checks.check("pipeline: every result re-scored at the "
                          "reporting budget",
                          len(rescored) == len(results)
                          and all(np.isfinite(v) for pair in rescored
                                  for v in pair))

    # -- scale ------------------------------------------------------
    def _scale(self) -> None:
        sp = self.spans
        traces = []
        t0 = time.perf_counter()
        with sp.span("workload"):
            for alg in SCALE_ALGORITHMS:
                with sp.span(f"engine.{alg}") as cell:
                    trace = run_computation(alg, self.spec)
                sp.add("generators.materialize",
                       trace.meta["materialize_s"], cell)
                traces.append(trace)
        build = time.perf_counter() - t0
        # Read before the check below, which builds scipy copies of
        # the graph and would otherwise set the high-water mark.
        self.result["peak_rss_mb"] = peak_rss_mb()
        sources = [t.meta["graph_source"] for t in traces]
        self.checks.check("scale: graph generated by the first call, then "
                          "reused from the graph cache",
                          sources == ["generated"] + ["cache"] * (
                              len(traces) - 1), f"sources {sources}")
        self._check_scale(traces)
        engine = sum(t.meta["engine_s"] for t in traces)
        layers = {
            "engine.busy_s": engine,
            "generators.materialize_s": sum(t.meta["materialize_s"]
                                            for t in traces),
        }
        for t in traces:
            layers[f"engine.{t.algorithm}_s"] = t.meta["engine_s"]
        counts = trace_counts(traces)
        layers.update({f"engine.{k}": float(v) for k, v in counts.items()})
        layers["engine.edges_per_s"] = counts["edge_reads"] / engine
        self.result["layers"].update(layers)
        self.result["times"] = {"wall_s": build, "build_s": build,
                                "search_s": 0.0}
        vectors = normalize_corpus([compute_metrics(t) for t in traces])
        self.result["counts"].update({"kernels": len(traces),
                                      "vectors": len(vectors)})
        self.result["digest"] = vectors_digest(vectors)

    def _check_scale(self, traces) -> None:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order, \
            connected_components

        g = materialize_problem(self.spec)[0].graph
        adj = csr_matrix((np.ones(g.n_arcs, dtype=np.int8),
                          g.out_dst, g.out_ptr),
                         shape=(g.n_vertices, g.n_vertices))
        ncomp, labels = connected_components(adj, directed=g.directed,
                                             connection="weak")
        largest = int(np.bincount(labels).max())
        cc = next(t for t in traces if t.algorithm == "cc").result
        self.checks.check("scale: cc matches scipy",
                          cc["n_components"] == ncomp
                          and cc["largest_component"] == largest,
                          f"repro {cc['n_components']}/"
                          f"{cc['largest_component']} scipy {ncomp}/{largest}")
        sssp = next(t for t in traces if t.algorithm == "sssp").result
        order = breadth_first_order(adj, sssp["source"],
                                    directed=g.directed,
                                    return_predecessors=False)
        self.checks.check("scale: sssp reach matches scipy",
                          sssp["reached"] == len(order),
                          f"repro {sssp['reached']} scipy {len(order)}")


def openblas_threads() -> str:
    """Thread count of the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {path for path in (line.split()[-1] for line in fh)
                if "openblas" in path.lower() and ".so" in path}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_threads": openblas_threads(),
            "python": sys.version.split()[0]}


def main(argv: "list[str]") -> int:
    workload, seed, mode, out, work = argv
    p = Pass(workload, int(seed), mode, Path(work))
    p.prepare()
    p.result["ready"] = time.time()
    if mode != "setup":
        p.run()
        p.result["checks"] = p.checks.results
        p.result["spans"] = p.spans.items
        p.result["environment"] = environment()
    Path(out).write_text(json.dumps(p.result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
