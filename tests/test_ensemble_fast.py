"""Property tests for the fast ensemble-search engine.

The fast engine's contract (DESIGN §15) is checked here from four
angles: selection parity with the tie-stable legacy reference,
the (1 - 1/e) lazy-greedy guarantee against exhaustive optima, the
lazy coverage beam's pruning (full top-k parity, one shared pair
table, evaluated/pruned accounting), and the blocked-kernel plumbing
(LRU byte bound, hit/miss accounting, worker- and
precision-independence of results).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.fast import (
    BlockCache,
    FastEngine,
    PairwiseBlocks,
    SampleBlocks,
    boundary_positions,
    resolve_precision,
    resolve_workers,
    tie_sorted,
)
from repro.ensemble.metrics import coverage, spread
from repro.ensemble.search import (
    best_ensemble,
    best_ensemble_curve,
    exhaustive_best,
    top_k_ensembles,
)
from repro.obs.export import write_telemetry_json
from repro.obs.stats import render_stats
from repro.obs.telemetry import configure, deactivate

SPACE = BehaviorSpace()
#: One fixed sample cloud for every coverage comparison in this file —
#: both engines must see identical samples for scores to agree.
SAMPLES = SPACE.sample(400, seed=0)

#: Documented score tolerance for float32 tile storage (accumulation
#: stays float64); see docs/ensemble-search.md.
FLOAT32_REL_TOL = 1e-5


def make_pool(coords) -> list[BehaviorVector]:
    return [BehaviorVector(*c, tag=("a", 1, 2.0)) for c in coords]


#: Continuous coordinates: generic pools.
unit = st.floats(0.0, 1.0, allow_nan=False, width=32)
#: Coarse grid coordinates: heavy tie pressure (many equal distances).
grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def pools(coord, min_size=6, max_size=14):
    return st.lists(st.tuples(coord, coord, coord, coord),
                    min_size=min_size, max_size=max_size)


class TestFastMatchesLegacy:
    """Fast and legacy engines pick identical ensembles with scores
    equal to 1e-9 — on generic pools and under maximal tie pressure."""

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    @given(coords=pools(unit), size=st.integers(2, 5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generic_pools(self, coords, size, metric):
        pool = make_pool(coords)
        size = min(size, len(pool))
        fast = best_ensemble(pool, size, metric, samples=SAMPLES,
                             engine="fast")
        legacy = best_ensemble(pool, size, metric, samples=SAMPLES,
                               engine="legacy")
        assert fast.indices == legacy.indices
        assert fast.score == pytest.approx(legacy.score, abs=1e-9)

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    @given(coords=pools(grid), size=st.integers(2, 4))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tie_heavy_pools(self, coords, size, metric):
        pool = make_pool(coords)
        size = min(size, len(pool))
        fast = best_ensemble(pool, size, metric, samples=SAMPLES,
                             engine="fast")
        legacy = best_ensemble(pool, size, metric, samples=SAMPLES,
                               engine="legacy")
        assert fast.indices == legacy.indices
        assert fast.score == pytest.approx(legacy.score, abs=1e-9)

    @given(coords=pools(unit, min_size=8, max_size=12))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_score_matches_metric_recompute(self, coords):
        pool = make_pool(coords)
        res = best_ensemble(pool, 4, "spread", engine="fast")
        assert res.score == pytest.approx(spread(res.ensemble), rel=1e-9)
        cov = best_ensemble(pool, 4, "coverage", samples=SAMPLES,
                            engine="fast")
        assert cov.score == pytest.approx(
            coverage(cov.ensemble, samples=SAMPLES), rel=1e-9)


def duplicate_pools(min_size=8, max_size=16):
    """Pools drawn with repetition from a handful of points: duplicate
    members make many marginal gains exactly equal."""
    base = st.lists(st.tuples(unit, unit, unit, unit), min_size=2,
                    max_size=4)
    return base.flatmap(lambda pts: st.lists(
        st.sampled_from(pts), min_size=min_size, max_size=max_size))


def assert_topk_equal(fast, legacy):
    assert [r.indices for r in fast] == [r.indices for r in legacy]
    for f, g in zip(fast, legacy):
        assert f.score == pytest.approx(g.score, abs=1e-9)


class TestLazyCoverageBeam:
    """The bound-pruned coverage beam returns the same full, ordered
    top-k list as the legacy reference, which scores every pair."""

    @given(coords=pools(unit, min_size=8, max_size=16),
           size=st.integers(2, 5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_topk_generic_pools(self, coords, size):
        self._check(make_pool(coords), size)

    @given(coords=pools(grid, min_size=8, max_size=16),
           size=st.integers(2, 5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_topk_tie_heavy_pools(self, coords, size):
        self._check(make_pool(coords), size)

    @given(coords=duplicate_pools(), size=st.integers(2, 5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_topk_duplicate_points(self, coords, size):
        self._check(make_pool(coords), size)

    @staticmethod
    def _check(pool, size):
        size = min(size, len(pool))
        runs = {engine: top_k_ensembles(
            pool, size, "coverage", k=12, beam_width=12, samples=SAMPLES,
            engine=engine) for engine in ("fast", "legacy")}
        assert_topk_equal(runs["fast"], runs["legacy"])

    def test_topk_workers_bitwise(self):
        pool = make_pool(np.random.default_rng(5).random((40, 4)))
        serial, threaded = (top_k_ensembles(
            pool, 6, "coverage", k=30, beam_width=30, samples=SAMPLES,
            engine="fast", workers=w) for w in (1, 4))
        assert [r.indices for r in serial] == [r.indices for r in threaded]
        assert [r.score for r in serial] == [r.score for r in threaded]

    def test_topk_float32_within_tolerance(self):
        pool = make_pool(np.random.default_rng(6).random((30, 4)))
        f32, legacy = (top_k_ensembles(
            pool, 5, "coverage", k=20, beam_width=20, samples=SAMPLES,
            engine=engine, precision=precision)
            for engine, precision in (("fast", "float32"),
                                      ("legacy", None)))
        assert len(f32) == len(legacy)
        for f, g in zip(f32, legacy):
            assert f.score == pytest.approx(g.score, rel=FLOAT32_REL_TOL)

    def test_curve_builds_pair_table_once(self, monkeypatch):
        calls = []
        build = FastEngine._build_pair_sums

        def counting(engine):
            calls.append(engine)
            return build(engine)

        monkeypatch.setattr(FastEngine, "_build_pair_sums", counting)
        pool = make_pool(np.random.default_rng(8).random((30, 4)))
        curve = best_ensemble_curve(pool, [2, 3, 5, 8], "coverage",
                                    samples=SAMPLES, engine="fast")
        assert sorted(curve) == [2, 3, 5, 8]
        assert len(calls) == 1

    def test_pruning_counters(self, tmp_path):
        # With a beam wider than the C(99, 2) first-level pairs, every
        # pair i < j <= 98 survives level 1, so the second level's
        # feasible (state, candidate) pairs have a closed form.
        n, size, width = 100, 3, 5_000
        pool = make_pool(np.random.default_rng(10).random((n, 4)))
        tel = configure("full")
        try:
            top_k_ensembles(pool, size, "coverage", k=1, beam_width=width,
                            samples=SAMPLES, engine="fast")
            evaluated = tel.counter_value("ensemble_coverage_pairs_total",
                                          outcome="evaluated")
            pruned = tel.counter_value("ensemble_coverage_pairs_total",
                                       outcome="pruned")
            write_telemetry_json(tmp_path, tel.snapshot(), run="prune",
                                 level="full")
        finally:
            deactivate()
        j_max = n - size + 1
        feasible = sum(j * (n - 1 - j) for j in range(1, j_max + 1))
        assert pruned > 0
        assert evaluated >= width
        assert evaluated + pruned == feasible
        assert f"{int(evaluated)} scored, {int(pruned)} pruned" \
            in render_stats(tmp_path)


class TestGreedyGuarantee:
    """Lazy-greedy coverage carries the classic (1 - 1/e) bound
    relative to the exhaustive optimum (coverage is monotone
    submodular with f(∅) = 0 over the sample cloud)."""

    @given(coords=pools(unit, min_size=5, max_size=9),
           size=st.integers(2, 4))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bound_holds(self, coords, size):
        pool = make_pool(coords)
        size = min(size, len(pool))
        greedy = best_ensemble(pool, size, "coverage", samples=SAMPLES,
                               engine="fast", strategy="greedy",
                               refine=False)
        exact = exhaustive_best(pool, size, "coverage", samples=SAMPLES)
        bound = (1.0 - 1.0 / np.e) * exact.score
        assert greedy.score >= bound - 1e-9

    def test_refine_never_hurts(self):
        rng = np.random.default_rng(7)
        pool = make_pool(rng.random((20, 4)))
        raw = best_ensemble(pool, 5, "coverage", samples=SAMPLES,
                            engine="fast", strategy="greedy",
                            refine=False)
        refined = best_ensemble(pool, 5, "coverage", samples=SAMPLES,
                                engine="fast", strategy="greedy",
                                refine=True)
        assert refined.score >= raw.score - 1e-12

    def test_greedy_requires_coverage_and_fast(self):
        pool = make_pool(np.random.default_rng(0).random((8, 4)))
        with pytest.raises(ValidationError):
            best_ensemble(pool, 3, "spread", strategy="greedy")
        with pytest.raises(ValidationError):
            best_ensemble(pool, 3, "coverage", samples=SAMPLES,
                          strategy="greedy", engine="legacy")


class TestPrecision:
    """float32 tile storage keeps scores within the documented
    relative tolerance of the float64 path (accumulation is always
    float64)."""

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    @given(coords=pools(unit, min_size=8, max_size=12))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_float32_within_tolerance(self, coords, metric):
        pool = make_pool(coords)
        f64 = best_ensemble(pool, 4, metric, samples=SAMPLES,
                            engine="fast", precision="float64")
        f32 = best_ensemble(pool, 4, metric, samples=SAMPLES,
                            engine="fast", precision="float32")
        assert f32.score == pytest.approx(f64.score, rel=FLOAT32_REL_TOL)
        # The quoted score must match a float64 re-score of the chosen
        # members to the same tolerance — tiles never leak into it.
        exact = (spread(f32.ensemble) if metric == "spread"
                 else coverage(f32.ensemble, samples=SAMPLES))
        assert f32.score == pytest.approx(exact, rel=FLOAT32_REL_TOL)

    def test_resolvers(self):
        assert resolve_precision(None) == np.dtype(np.float64)
        assert resolve_precision("float32") == np.dtype(np.float32)
        with pytest.raises(ValidationError):
            resolve_precision("float16")
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(-1) >= 1


class TestWorkers:
    """Chunking never depends on the worker count, so threaded scoring
    is bitwise identical to serial."""

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_parallel_equals_serial(self, metric):
        rng = np.random.default_rng(11)
        pool = make_pool(rng.random((24, 4)))
        serial = best_ensemble(pool, 6, metric, samples=SAMPLES,
                               engine="fast", workers=1)
        threaded = best_ensemble(pool, 6, metric, samples=SAMPLES,
                                 engine="fast", workers=4)
        assert serial.indices == threaded.indices
        assert serial.score == threaded.score  # bitwise


class TestBlockedKernels:
    def test_pairwise_columns_match_cdist(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(3)
        X = rng.random((50, 4))
        # Tiny block budget forces many column tiles.
        pb = PairwiseBlocks(X, block_bytes=50 * 8 * 3)
        assert pb.n_blocks > 1
        idx = [0, 7, 13, 49]
        np.testing.assert_array_equal(pb.columns(idx),
                                      cdist(X, X[idx]))

    def test_sample_rows_match_cdist(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(4)
        X, S = rng.random((30, 4)), rng.random((64, 4))
        sb = SampleBlocks(X, S, block_bytes=64 * 8 * 4)
        assert sb.n_blocks > 1
        idx = [2, 3, 29]
        np.testing.assert_array_equal(sb.rows(idx), cdist(X[idx], S))

    def test_lru_byte_bound_and_counters(self):
        block = np.zeros(100)  # 800 bytes

        def build(key):
            return np.full(100, float(key))

        cache = BlockCache(2 * block.nbytes, "pairwise")
        cache.get(0, build)          # miss
        cache.get(1, build)          # miss
        cache.get(0, build)          # hit
        cache.get(2, build)          # miss -> evicts LRU block 1
        assert cache.cached_bytes <= 2 * block.nbytes
        cache.get(0, build)          # hit (still resident)
        cache.get(1, build)          # miss (was evicted)
        assert (cache.hits, cache.misses) == (2, 4)

    def test_keeps_at_least_one_block(self):
        cache = BlockCache(1, "samples")  # budget below any block

        def build(key):
            return np.zeros(1000)

        blk = cache.get(5, build)
        assert blk.nbytes == cache.cached_bytes  # retained despite budget
        assert cache.get(5, build) is blk        # and reusable

    def test_engine_cache_reuse_across_curve(self):
        from repro.ensemble.search import best_ensemble_curve

        rng = np.random.default_rng(9)
        pool = make_pool(rng.random((40, 4)))
        curve = best_ensemble_curve(pool, [2, 4, 6], "spread",
                                    engine="fast")
        assert sorted(curve) == [2, 4, 6]
        assert curve[2].score >= curve[4].score >= curve[6].score


class TestTieOrderingPrimitives:
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 5e-13]),
                    min_size=1, max_size=30),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_boundary_positions_cover_tie_stable_top(self, vals, width):
        scores = np.asarray(vals)
        kept = set(boundary_positions(scores, width).tolist())
        ranked = tie_sorted([(s, (i,)) for i, s in enumerate(vals)])
        top = {t[1][0] for t in ranked[:width]}
        # Every position the tie-stable ordering would select must
        # survive the per-chunk boundary cut.
        assert top <= kept

    def test_tie_sorted_orders_ties_by_tuple(self):
        items = [(1.0, (3,)), (1.0 + 2e-13, (1,)), (0.5, (0,)),
                 (1.0 - 4e-13, (2,))]
        ordered = tie_sorted(items)
        assert [it[1] for it in ordered] == [(1,), (2,), (3,), (0,)]
