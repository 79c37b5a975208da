"""Ensemble-search wall time: fast blocked engine vs legacy reference.

Times best-spread curves (sizes 4..20) over synthetic behavior pools
with both engines:

- **fast** — the blocked, batched engine (tiled distance kernels, one
  matrix op per beam level, incremental swap refinement);
- **legacy** — the original monolithic evaluator (full ``squareform``
  materialization, Python loop per beam state).

Arms alternate and the best-of-N wall per arm cancels noise. At the
paper's corpus scale (n = 215) both engines are fast; at n = 2000 the
fast engine must clear a >=5x speedup gate while returning scores
equal to the legacy engine's to 1e-9 and identical index tuples. A
coverage section validates the beam parity, gates the lazy coverage
beam to tie or beat the legacy wall at n = 215, records how many
(state, candidate) pairs its gain bound pruned, and showcases the
lazy-greedy selector. Results merge into
``benchmarks/artifacts/BENCH_ensemble.json`` (uploaded by CI's
perf-smoke step). The n = 10_000 arm runs only when
``REPRO_BENCH_LARGE`` is set.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.search import best_ensemble, best_ensemble_curve
from repro.obs.telemetry import configure, deactivate

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
ARTIFACT = "BENCH_ensemble.json"

SIZES = [4, 8, 12, 16, 20]
BEAM_WIDTH = 64
#: Minimum fast-vs-legacy speedup on the n=2000 spread curve.
SPEEDUP_GATE = 5.0
#: Score agreement required between the two engines.
SCORE_TOL = 1e-9


def make_pool(n: int, seed: int = 7) -> list[BehaviorVector]:
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 4))
    return [BehaviorVector(*c, tag=(f"alg{i % 13}", 10 ** (i % 3), 2.0))
            for i, c in enumerate(coords)]


def _merge_report(key: str, payload: dict) -> None:
    """Read-modify-write one section of the shared artifact."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / ARTIFACT
    data = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    data[key] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _timed_curve(pool, engine, sizes=SIZES, repeats=3, **kwargs):
    walls = []
    curve = None
    for _ in range(repeats):
        started = time.perf_counter()
        curve = best_ensemble_curve(pool, sizes, "spread",
                                    beam_width=BEAM_WIDTH,
                                    engine=engine, **kwargs)
        walls.append(time.perf_counter() - started)
    return min(walls), walls, curve


def _assert_curves_agree(fast, legacy):
    for size in fast:
        assert fast[size].indices == legacy[size].indices, size
        assert fast[size].score == pytest.approx(legacy[size].score,
                                                 abs=SCORE_TOL)


def test_bench_spread_corpus_scale():
    """n = 215: the paper's own pool size. Parity plus both walls."""
    pool = make_pool(215)
    fast_best, fast_walls, fast_curve = _timed_curve(pool, "fast")
    legacy_best, legacy_walls, legacy_curve = _timed_curve(pool, "legacy")
    _assert_curves_agree(fast_curve, legacy_curve)
    _merge_report("spread_n215", {
        "n": 215, "sizes": SIZES, "beam_width": BEAM_WIDTH,
        "fast_wall_s": fast_walls, "legacy_wall_s": legacy_walls,
        "best_wall_s": {"fast": fast_best, "legacy": legacy_best},
        "speedup": legacy_best / fast_best,
        "scores": {str(s): fast_curve[s].score for s in SIZES},
    })
    assert fast_best <= legacy_best, (fast_walls, legacy_walls)


def test_bench_spread_2k_gate():
    """n = 2000: the corpus-scale gate — fast must be >=5x faster."""
    pool = make_pool(2_000)
    fast_best, fast_walls, fast_curve = _timed_curve(pool, "fast",
                                                     repeats=3)
    legacy_best, legacy_walls, legacy_curve = _timed_curve(pool, "legacy",
                                                           repeats=1)
    _assert_curves_agree(fast_curve, legacy_curve)
    speedup = legacy_best / fast_best
    _merge_report("spread_n2000", {
        "n": 2_000, "sizes": SIZES, "beam_width": BEAM_WIDTH,
        "fast_wall_s": fast_walls, "legacy_wall_s": legacy_walls,
        "best_wall_s": {"fast": fast_best, "legacy": legacy_best},
        "speedup": speedup, "gate": SPEEDUP_GATE,
        "scores": {str(s): fast_curve[s].score for s in SIZES},
    })
    assert speedup >= SPEEDUP_GATE, (
        f"fast engine {speedup:.1f}x over legacy, gate {SPEEDUP_GATE}x")


def test_bench_coverage_validation():
    """Coverage at n = 215: beam parity and the greedy selector."""
    pool = make_pool(215)
    samples = BehaviorSpace().sample(4_000, seed=0)
    sizes = [4, 8]
    walls: dict[str, float] = {}
    curves: dict[str, dict] = {}
    for engine in ("fast", "legacy"):
        started = time.perf_counter()
        curves[engine] = best_ensemble_curve(
            pool, sizes, "coverage", samples=samples,
            beam_width=BEAM_WIDTH, engine=engine)
        walls[engine] = time.perf_counter() - started
    _assert_curves_agree(curves["fast"], curves["legacy"])

    # Pair accounting from an untimed repeat, so the counters cost the
    # timed arm nothing.
    tel = configure("basic")
    try:
        best_ensemble_curve(pool, sizes, "coverage", samples=samples,
                            beam_width=BEAM_WIDTH, engine="fast")
        pairs = {outcome: int(tel.counter_value(
            "ensemble_coverage_pairs_total", outcome=outcome))
            for outcome in ("evaluated", "pruned")}
    finally:
        deactivate()

    started = time.perf_counter()
    greedy = best_ensemble(pool, 20, "coverage", samples=samples,
                           engine="fast", strategy="greedy")
    greedy_wall = time.perf_counter() - started
    _merge_report("coverage_n215", {
        "n": 215, "sizes": sizes, "n_samples": 4_000,
        "beam_wall_s": walls,
        "beam_scores": {str(s): curves["fast"][s].score for s in sizes},
        "beam_pairs": pairs,
        "greedy_size20": {"wall_s": greedy_wall, "score": greedy.score},
    })
    # The fast engine must tie or beat the legacy reference on the
    # coverage beam as well as on spread.
    assert walls["fast"] <= walls["legacy"], walls
    assert pairs["pruned"] > 0, pairs
    # The lazy-greedy selector is the corpus-scale coverage path; it
    # must come in well under the beam walls.
    assert greedy_wall < walls["legacy"]


@pytest.mark.skipif(not os.environ.get("REPRO_BENCH_LARGE"),
                    reason="set REPRO_BENCH_LARGE=1 for the 10k arm")
def test_bench_spread_10k_large():
    """n = 10_000, size 20 only, one repeat per arm."""
    pool = make_pool(10_000)
    fast_best, fast_walls, fast_curve = _timed_curve(
        pool, "fast", sizes=[20], repeats=1)
    legacy_best, legacy_walls, legacy_curve = _timed_curve(
        pool, "legacy", sizes=[20], repeats=1)
    _assert_curves_agree(fast_curve, legacy_curve)
    _merge_report("spread_n10000", {
        "n": 10_000, "sizes": [20], "beam_width": BEAM_WIDTH,
        "fast_wall_s": fast_walls, "legacy_wall_s": legacy_walls,
        "best_wall_s": {"fast": fast_best, "legacy": legacy_best},
        "speedup": legacy_best / fast_best,
        "scores": {"20": fast_curve[20].score},
    })
    assert fast_best <= legacy_best
