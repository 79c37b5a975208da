"""Pipeline benchmark of the reproduction, timed from outside.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pipeline [--seed 7]
        [--seconds 5] [--trace 0|1]

Workloads (why each exists: ``BENCHMARK.json``):

- ``corpus-fleet``: cold smoke corpus build, 2 workers over a
  zero-peer distributed queue;
- ``pipeline``: cold 2-worker supervised build (``build_s``), then
  what ``repro ensemble`` does (``search_s``: warm reload,
  ``vectors()``, the Figs 18-21 searches, re-scoring at the reporting
  budget);
- ``scale``: pagerank, cc and sssp on one 10^6-edge power-law graph;
  the first call generates the graph, the others reuse it.

Every pass runs in a fresh interpreter (``child.py``) with a fresh
result store (and queue directory) under ``.perfbench/`` in the
checkout, with inherited ``REPRO_*`` variables scrubbed.  With
``--trace 0`` the last line carries the end-to-end metrics: medians
over the passes of the run (at least one; more while ``--seconds``
have not elapsed), and for ``setup_s`` the median over the set-ups of
those passes and of ``SETUP_REPEATS`` set-up-only passes.  With
``--trace 1`` one untraced and one traced pass run; the traced pass's
spans give the per-layer metrics, the closure report and
``trace.overhead`` (traced wall / untraced wall), and the spans are
written to ``.perfbench/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_DIR = ROOT / ".perfbench"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm-"

WORKLOADS = ("corpus-fleet", "pipeline", "scale")
#: Set-up is measured in this many extra set-up-only passes, plus the
#: set-up of every measured pass; the median is reported.
SETUP_REPEATS = 6
#: Hard limits on one pass and on the whole run, which must end
#: within 180 seconds.
PASS_TIMEOUT_S = 160.0
RUN_LIMIT_S = 170.0
STOP_GRACE_S = 3.0
#: Per-layer metrics, printed in this order with ``--trace 1``.
ENGINE_ALGORITHMS = ("cc", "triangle", "kcore", "sssp", "pagerank",
                     "diameter", "kmeans", "als", "nmf", "sgd", "svd")
PER_LAYER = (
    [("build_s", "s"), ("search_s", "s"),
     ("generators.materialize_s", "s"), ("generators.graphs", "count"),
     ("engine.busy_s", "s")]
    + [(f"engine.{alg}_s", "s") for alg in ENGINE_ALGORITHMS]
    + [("engine.iterations", "count"), ("engine.edge_reads", "count"),
       ("engine.edges_per_s", "1/s"), ("engine.degraded_runs", "count"),
       ("dispatch.overhead_s", "s"), ("dispatch.first_cell_s", "s"),
       ("dispatch.gap_p50_s", "s"), ("dispatch.gap_p95_s", "s"),
       ("dispatch.lease_expiries", "count"),
       ("dispatch.workers_replaced", "count"),
       ("dispatch.queue_requeues", "count"),
       ("dispatch.queue_leftovers", "count"),
       ("store.put_s", "s"), ("store.load_s", "s"), ("store.hits", "count"),
       ("behavior.vectors_s", "s"),
       ("ensemble.spread_curve_s", "s"), ("ensemble.coverage_beam_s", "s"),
       ("ensemble.coverage_greedy_s", "s"), ("ensemble.topk_spread_s", "s"),
       ("ensemble.topk_coverage_s", "s"), ("ensemble.rescore_s", "s"),
       ("trace.closure", "ratio"), ("trace.overhead", "ratio")])
#: Counters that must repeat exactly between passes of one seed.
EXACT = ("engine.iterations", "engine.edge_reads", "engine.degraded_runs",
         "store.hits")
#: Layers whose time cannot be observed from outside on a workload.
KNOWN_GAPS = {
    "corpus-fleet": [
        "store.put_s is missing on corpus-fleet: over the distributed "
        "queue the coordinator rebuilds each CorpusRun without store_s, "
        "so timing_decomposition() reports store_s = 0.0 and the put "
        "time stays inside dispatch (reported as 0.0 only because the "
        "result line needs a number)"],
}
ENGINE_GAP = ("health, frontier and observe cost cannot be split from "
              "outside the engine, so it stays inside engine.*")


def scrubbed_env(work: Path) -> "tuple[dict, list[str]]":
    """The environment for passes: inherited REPRO_* variables removed
    (so they cannot change the program measured), temp files kept in
    the pass's work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["TMPDIR"] = str(work)
    return env, removed


def shm_segments() -> "set[str]":
    try:
        return {p.name for p in SHM_DIR.iterdir()
                if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def mapped_shm_segments() -> "set[str]":
    """Segments some live process still maps: not leaked, and possibly
    another program's, so never counted or touched."""
    names: "set[str]" = set()
    for maps in Path("/proc").glob("[0-9]*/maps"):
        try:
            text = maps.read_text()
        except OSError:
            continue
        names.update(line.rsplit("/", 1)[-1] for line in text.splitlines()
                     if f"{SHM_DIR}/{SHM_PREFIX}" in line)
    return names


def stop_group(proc: subprocess.Popen) -> None:
    """Stop everything a pass started.  The pass leads its own process
    group, which is interrupted first (so the program can release its
    shared memory), killed if it lingers, and waited for until no
    member is left."""
    for sig in (signal.SIGINT, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        end = time.monotonic() + STOP_GRACE_S
        while time.monotonic() < end:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            continue
        break
    proc.wait()


class PassFailed(RuntimeError):
    """A pass did not produce a result."""


def run_pass(workload: str, seed: int, mode: str, work: Path, env: dict,
             deadline: float) -> dict:
    """Start one pass of ``child.py`` in its own session, wait for it,
    and return its result with ``setup_s`` filled in."""
    pass_work = work / f"{mode}-{time.monotonic_ns()}"
    pass_work.mkdir()
    out = pass_work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           mode, str(out), str(pass_work)]
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    launched = time.time()
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc)
    if code is None:
        raise PassFailed(f"{mode} pass timed out after {timeout:.0f}s")
    if code != 0 or not out.exists():
        raise PassFailed(f"{mode} pass exited with code {code}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - launched
    return result


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()[:12]
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0][:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def environment(removed: "list[str]", passes: "list[dict]") -> dict:
    """Machine, library and source identity recorded with every result
    (library versions and BLAS threads as the passes saw them)."""
    return dict(passes[0]["environment"], nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), commit=commit_id(),
                scrubbed_env=removed)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def accounting(res: dict) -> "tuple[int, int]":
    """(attempted, failed) operations of one pass: cells, kernel runs
    and searches.  Failed are the failed cells plus one per failed
    output check of the pass."""
    counts = res.get("counts", {})
    ops = (counts.get("cells", 0) + counts.get("kernels", 0)
           + counts.get("searches", 0))
    failed = counts.get("cells_failed", 0) + sum(
        1 for c in res.get("checks", []) if not c["ok"])
    return ops, failed


def reference_checks(workload: str, seed: int, res: dict) -> "list[dict]":
    """Compare a pass with the recorded outputs of this seed, if any.

    Under the unit work model the vectors and the model counts are
    deterministic, and the three corpus workloads share one record.
    """
    table = json.loads((HERE / "reference.json").read_text())
    family = "scale" if workload == "scale" else "corpus"
    ref = table.get(family, {}).get(str(seed), {})
    got = dict(res["layers"], digest=res.get("digest"),
               expected_failures=res["counts"].get("expected_failures"))
    return [{"name": f"{res['mode']} pass: {key} matches the seed {seed} "
                     f"record",
             "ok": got[key] == want, "detail": f"{got[key]} vs {want}"}
            for key, want in ref.items() if got.get(key) is not None]


def determinism_checks(plain: dict, traced: dict) -> "list[dict]":
    """Exact counters and the vectors must repeat between two passes."""
    out = [{"name": "determinism: vectors digest repeats",
            "ok": plain.get("digest") == traced.get("digest"),
            "detail": f"{plain.get('digest')} vs {traced.get('digest')}"}]
    for key in EXACT:
        a, b = plain["layers"].get(key), traced["layers"].get(key)
        if a is None and b is None:
            continue
        out.append({"name": f"determinism: {key} repeats", "ok": a == b,
                    "detail": f"{a} vs {b}"})
    return out


# ----------------------------------------------------------------------
# Spans -> layers
# ----------------------------------------------------------------------
def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Self time per span name: duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: "dict[str, float]" = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
    return out


def closure(spans: "list[dict]", traced_wall: float,
            untraced_wall: float) -> dict:
    """Per-layer self times against the untraced wall.

    The root span (``workload``) is the benchmark's own glue, not a
    layer.  The unattributed remainder is the untraced wall minus all
    layer self times: the glue plus the untraced-minus-traced wall
    difference (tracing overhead and run-to-run noise).
    """
    by_name = self_times(spans)
    layers: "dict[str, float]" = {}
    for name, secs in by_name.items():
        if name != "workload":
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + secs
    attributed = sum(layers.values())
    return {"layers": layers, "by_name": by_name, "attributed": attributed,
            "glue": traced_wall - attributed,
            "traced_minus_untraced": traced_wall - untraced_wall,
            "unattributed": untraced_wall - attributed}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_closure(workload: str, cl: dict, wall: float, overhead: float,
                  layers: dict) -> None:
    print(f"closure report, {workload} (untraced wall {wall:.3f}s):")
    for layer, secs in sorted(cl["layers"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} self {secs:9.3f}s  {secs / wall:7.1%}")
    print(f"  {'unattributed':<12}      {cl['unattributed']:9.3f}s  "
          f"{cl['unattributed'] / wall:7.1%}")
    print(f"    = benchmark glue in the traced pass {cl['glue']:.3f}s"
          f" - (traced wall - untraced wall) "
          f"{cl['traced_minus_untraced']:.3f}s")
    print(f"  trace.overhead {overhead:.4f} (traced wall / untraced wall)")
    for gap in KNOWN_GAPS.get(workload, []) + [ENGINE_GAP]:
        print(f"  known gap: {gap}")
    algs = [(alg, layers.get(f"engine.{alg}_s", 0.0))
            for alg in ENGINE_ALGORITHMS]
    busy = sum(v for _, v in algs)
    if busy > 0:
        print(f"engine time per algorithm, {workload}:")
        for alg, secs in sorted(algs, key=lambda kv: -kv[1]):
            if secs > 0:
                print(f"  engine.{alg + '_s':<14} {secs:8.3f}s  "
                      f"{secs / busy:6.1%}")


def print_checks(checks: "list[dict]") -> None:
    for c in checks:
        mark = "ok  " if c["ok"] else "FAIL"
        detail = f" ({c['detail']})" if c["detail"] and not c["ok"] else ""
        print(f"check {mark} {c['name']}{detail}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2

    # A terminated run still stops the pass it is waiting for (the
    # ``finally`` in run_pass kills the pass's process group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    BENCH_DIR.mkdir(exist_ok=True)
    work = BENCH_DIR / f"work-{os.getpid()}"
    work.mkdir()
    env, removed = scrubbed_env(work)
    shm_before = shm_segments()
    passes: "list[dict]" = []
    extra_checks: "list[dict]" = []
    try:
        if args.trace == 0:
            setups = [run_pass(args.workload, args.seed, "setup", work, env,
                               deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
            measure_start = time.monotonic()
            while True:
                passes.append(run_pass(args.workload, args.seed, "plain",
                                       work, env, deadline))
                if time.monotonic() - measure_start >= args.seconds:
                    break
            setups += [p["setup_s"] for p in passes]
        else:
            plain = run_pass(args.workload, args.seed, "plain", work, env,
                             deadline)
            count_dir = work / "materialized"
            traced_env = dict(env, REPRO_COUNT_MATERIALIZE=str(count_dir))
            traced = run_pass(args.workload, args.seed, "traced", work,
                              traced_env, deadline)
            traced["layers"]["generators.graphs"] = float(
                len(list(count_dir.glob("*.token")))
                if count_dir.exists() else 0)
            passes = [plain, traced]
            extra_checks += determinism_checks(plain, traced)
    except PassFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        # Every pass group has ended here, so a new segment nobody maps
        # is a leak.  It is reported, never unlinked: the name alone
        # does not say which program created it.
        leaked = sorted(shm_segments() - shm_before - mapped_shm_segments())
        shutil.rmtree(work, ignore_errors=True)
        try:
            BENCH_DIR.rmdir()  # only when no spans were kept
        except OSError:
            pass
    extra_checks.append({"name": "no repro-shm segment left behind",
                         "ok": not leaked, "detail": ", ".join(leaked)})
    for p in passes:
        extra_checks += reference_checks(args.workload, args.seed, p)

    attempted = failed = 0
    checks: "list[dict]" = []
    for p in passes:
        a, f = accounting(p)
        attempted += a
        failed += f
        checks += [dict(c, name=f"{p['mode']} pass: {c['name']}")
                   for c in p["checks"]]
    failed += sum(1 for c in extra_checks if not c["ok"])
    failed = min(failed, attempted)
    checks += extra_checks
    print_checks(checks)
    for p in passes[:1]:
        for run in p["counts"].get("degraded", []):
            print(f"known defect: degraded run {run}")
    for p in passes:
        exact = {k: p["layers"][k] for k in EXACT if k in p["layers"]}
        print(f"pass {p['mode']}: wall {p['times']['wall_s']:.3f}s, "
              f"setup {p['setup_s']:.3f}s, peak rss "
              f"{p['peak_rss_mb']:.1f} MB, digest {p.get('digest')}, "
              f"counts {json.dumps(dict(p['counts'], **exact))}")
    env_info = environment(removed, passes)
    print("environment: " + json.dumps(env_info, sort_keys=True))

    metrics: dict = {}
    if args.trace == 0:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(
                p["times"]["wall_s"] for p in passes), "s"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": metric(statistics.median(
                p["peak_rss_mb"] for p in passes), "MB"),
        }
        print(f"{args.workload} seed {args.seed}: {len(passes)} measured "
              f"pass(es), {len(setups)} set-ups")
    else:
        plain, traced = passes
        wall = plain["times"]["wall_s"]
        layers = dict(traced["layers"], build_s=plain["times"]["build_s"],
                      search_s=plain["times"]["search_s"])
        traced_wall = traced["times"]["wall_s"]
        cl = closure(traced["spans"], traced_wall, wall)
        overhead = traced_wall / wall
        layers["trace.closure"] = cl["attributed"] / traced_wall
        layers["trace.overhead"] = overhead
        print_closure(args.workload, cl, wall, overhead, layers)
        spans_out = BENCH_DIR / "spans"
        spans_out.mkdir(parents=True, exist_ok=True)
        (spans_out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"environment": env_info, "closure": cl,
                        "spans": traced["spans"]}, indent=1))
        for name, unit in PER_LAYER:
            value = layers.get(name)
            metrics[name] = metric(0.0 if value is None else float(value),
                                   unit)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
