"""Tests for best-ensemble search, bounds, frequency, and constraints."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.bounds import (
    UpperBounds,
    max_coverage_points,
    max_spread_points,
)
from repro.ensemble.constrained import (
    limit_to_algorithms,
    limit_to_structures,
    truncate_trace,
)
from repro.ensemble.frequency import algorithm_frequencies
from repro.ensemble.metrics import (
    BRUTE_FORCE_CHUNK,
    BRUTE_FORCE_MEMBERS,
    coverage,
    mean_min_distance,
    spread,
)
from repro.ensemble.search import (
    best_ensemble,
    best_ensemble_curve,
    exhaustive_best,
    top_k_ensembles,
)
from repro.generators.rng import make_rng


def random_pool(n=24, seed=0, tag_algorithms=("a", "b", "c")):
    rng = make_rng(seed, "test-pool")
    pool = []
    for i in range(n):
        coords = rng.random(4)
        tag = (tag_algorithms[i % len(tag_algorithms)], 10 ** (i % 3), 2.0)
        pool.append(BehaviorVector(*coords, tag=tag))
    return pool


class TestBestEnsemble:
    def test_matches_exhaustive_spread(self):
        pool = random_pool(14, seed=3)
        beam = best_ensemble(pool, 4, "spread", beam_width=64)
        exact = exhaustive_best(pool, 4, "spread")
        assert beam.score == pytest.approx(exact.score, rel=1e-9)

    def test_matches_exhaustive_coverage(self):
        space = BehaviorSpace()
        samples = space.sample(1500, seed=4)
        pool = random_pool(12, seed=5)
        beam = best_ensemble(pool, 3, "coverage", samples=samples,
                             beam_width=64)
        exact = exhaustive_best(pool, 3, "coverage", samples=samples)
        assert beam.score == pytest.approx(exact.score, rel=1e-6)

    def test_score_equals_metric_recompute(self):
        pool = random_pool(18, seed=6)
        res = best_ensemble(pool, 5, "spread")
        assert res.score == pytest.approx(spread(res.ensemble), rel=1e-9)

    def test_coverage_score_recompute(self):
        space = BehaviorSpace()
        samples = space.sample(2000, seed=7)
        pool = random_pool(18, seed=7)
        res = best_ensemble(pool, 4, "coverage", samples=samples)
        assert res.score == pytest.approx(
            coverage(res.ensemble, samples=samples), rel=1e-9)

    def test_distinct_members(self):
        pool = random_pool(20, seed=8)
        res = best_ensemble(pool, 6, "spread")
        assert len(set(res.indices)) == 6

    def test_validation(self):
        pool = random_pool(5)
        with pytest.raises(ValidationError):
            best_ensemble(pool, 9, "spread")
        with pytest.raises(ValidationError):
            best_ensemble(pool, 0, "spread")
        with pytest.raises(ValidationError):
            best_ensemble(pool, 2, "entropy")

    def test_curve_keys(self):
        pool = random_pool(15, seed=9)
        curve = best_ensemble_curve(pool, [2, 4, 6], "spread")
        assert sorted(curve) == [2, 4, 6]
        # Best spread is non-increasing with ensemble size (adding
        # members can only pull the mean pairwise distance down once
        # the two farthest points are in).
        assert curve[2].score >= curve[4].score >= curve[6].score

    @pytest.mark.parametrize("engine,cls_name", [
        ("fast", "FastEngine"), ("legacy", "_Evaluator")])
    def test_curve_builds_engine_once(self, monkeypatch, engine, cls_name):
        from repro.ensemble import fast as fast_mod
        from repro.ensemble import search as search_mod

        mod = fast_mod if engine == "fast" else search_mod
        calls = []
        original = getattr(mod, cls_name).__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(getattr(mod, cls_name), "__init__", counting)
        pool = random_pool(15, seed=9)
        curve = best_ensemble_curve(pool, [2, 3, 4, 5], "spread",
                                    engine=engine)
        assert len(calls) == 1, "curve must share one engine"
        # Sharing the engine changes nothing about the results.
        for size in (2, 5):
            solo = best_ensemble(pool, size, "spread", engine=engine)
            assert curve[size].indices == solo.indices
            assert curve[size].score == pytest.approx(solo.score,
                                                      rel=1e-12)


class TestTieStability:
    """On equal scores the search prefers the lexicographically
    smallest index tuple (Figs 20-21 determinism)."""

    def grid_pool(self):
        # The 8 corners of a cube embedded in the 4-d space: every
        # size-2 ensemble of adjacent corners ties exactly, as do many
        # larger subsets — maximal tie pressure.
        corners = [(x, y, z, 0.5) for x in (0.1, 0.9)
                   for y in (0.1, 0.9) for z in (0.1, 0.9)]
        return [BehaviorVector(*c, tag=("a", 1, 2.0)) for c in corners]

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_beam_prefers_smallest_tuple(self, engine, metric):
        pool = self.grid_pool()
        samples = BehaviorSpace().sample(500, seed=0)
        res = best_ensemble(pool, 2, metric, samples=samples,
                            refine=False, engine=engine)
        peers = [r for r in top_k_ensembles(pool, 2, metric, k=30,
                                            samples=samples, engine=engine)
                 if abs(r.score - res.score) <= 1e-9]
        assert res.indices == min(p.indices for p in peers)

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_engines_agree_under_ties(self, metric):
        pool = self.grid_pool()
        samples = BehaviorSpace().sample(500, seed=0)
        for size in (2, 3, 4):
            fast = best_ensemble(pool, size, metric, samples=samples,
                                 engine="fast")
            legacy = best_ensemble(pool, size, metric, samples=samples,
                                   engine="legacy")
            assert fast.indices == legacy.indices
            assert fast.score == pytest.approx(legacy.score, abs=1e-9)

    def test_exhaustive_prefers_smallest_tuple(self):
        pool = self.grid_pool()
        exact = exhaustive_best(pool, 2, "spread")
        # All 12 cube edges tie at the edge length; (0, 1) is the
        # lexicographically smallest of them — but the face and body
        # diagonals score higher, so the winner is the smallest tuple
        # among the 4 tying body diagonals: (0, 7).
        assert exact.indices == (0, 7)

    def test_top_k_deterministic(self):
        pool = self.grid_pool()
        a = top_k_ensembles(pool, 3, "spread", k=12)
        b = top_k_ensembles(pool, 3, "spread", k=12)
        assert [r.indices for r in a] == [r.indices for r in b]
        # ties inside the list are ordered by index tuple
        for first, second in zip(a, a[1:]):
            if abs(first.score - second.score) <= 1e-12:
                assert first.indices < second.indices


class TestTopK:
    def test_sorted_unique(self):
        pool = random_pool(20, seed=10)
        top = top_k_ensembles(pool, 4, "spread", k=10)
        scores = [r.score for r in top]
        assert scores == sorted(scores, reverse=True)
        assert len({r.indices for r in top}) == len(top)

    def test_first_equals_best(self):
        pool = random_pool(16, seed=11)
        top = top_k_ensembles(pool, 4, "spread", k=5, beam_width=600)
        best = exhaustive_best(pool, 4, "spread")
        assert top[0].score == pytest.approx(best.score, rel=1e-9)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            top_k_ensembles(random_pool(8), 2, "spread", k=0)


class TestReportingCoverage:
    """Small ensembles take the chunked brute-force path; its value is
    bitwise equal to the k-d tree's on either side of the cutoff."""

    SIZES = (1, 2, 7, BRUTE_FORCE_MEMBERS, BRUTE_FORCE_MEMBERS + 1, 40)

    @staticmethod
    def tree_value(members, samples):
        return float(cKDTree(members).query(samples, k=1)[0].mean())

    @pytest.mark.parametrize("size", SIZES)
    def test_random_ensembles(self, size):
        rng = np.random.default_rng(size)
        samples = BehaviorSpace().sample(2 * BRUTE_FORCE_CHUNK + 123,
                                         seed=size)
        for _ in range(5):
            members = rng.random((size, 4))
            assert mean_min_distance(members, samples=samples) \
                == self.tree_value(members, samples)

    @pytest.mark.parametrize("size", SIZES)
    def test_tie_heavy_grid_ensembles(self, size):
        # members and samples on one coarse grid: many samples sit at
        # equal distance from several members, or exactly on one
        rng = np.random.default_rng(100 + size)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        samples = grid[rng.integers(0, 5, (BRUTE_FORCE_CHUNK + 77, 4))]
        for _ in range(5):
            members = grid[rng.integers(0, 5, (size, 4))]
            assert mean_min_distance(members, samples=samples) \
                == self.tree_value(members, samples)


class TestBounds:
    def test_spread_bound_includes_antipodal_pair(self):
        pts = max_spread_points(2)
        assert spread(pts) == pytest.approx(BehaviorSpace().diameter)

    def test_bounds_dominate_random_ensembles(self):
        space = BehaviorSpace()
        samples = space.sample(4000, seed=12)
        ub = UpperBounds.compute([3, 6, 10], samples=samples)
        rng = make_rng(1, "rand-ens")
        for i, size in enumerate(ub.sizes):
            for trial in range(5):
                pts = rng.random((size, 4))
                assert spread(pts) <= ub.spread_bound[i] + 1e-9
                assert coverage(pts, samples=samples) \
                    <= ub.coverage_bound[i] + 1e-9

    def test_coverage_bound_monotone(self):
        samples = BehaviorSpace().sample(4000, seed=13)
        ub = UpperBounds.compute([2, 5, 10, 15], samples=samples)
        assert list(ub.coverage_bound) == sorted(ub.coverage_bound)

    def test_deterministic(self):
        a = max_coverage_points(5, seed=3)
        b = max_coverage_points(5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_spread_points(0)
        with pytest.raises(ValidationError):
            max_coverage_points(-1)


class TestFrequency:
    def test_slot_share_sums_to_one(self):
        pool = random_pool(20, seed=14)
        top = top_k_ensembles(pool, 5, "spread", k=20)
        rep = algorithm_frequencies(top)
        assert sum(rep.slot_share.values()) == pytest.approx(1.0)
        assert all(0 <= p <= 1 for p in rep.presence.values())
        assert rep.n_ensembles == len(top)

    def test_ranked_and_top(self):
        pool = random_pool(20, seed=15)
        top = top_k_ensembles(pool, 5, "spread", k=10)
        rep = algorithm_frequencies(top)
        ranked = rep.ranked()
        assert ranked[0][1] >= ranked[-1][1]
        assert rep.top_algorithms(2) == [name for name, _ in ranked[:2]]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            algorithm_frequencies([])

    def test_rejects_untagged(self):
        from repro.ensemble.ensemble import Ensemble
        from repro.ensemble.search import SearchResult

        e = Ensemble.of([BehaviorVector(0, 0, 0, 0)])
        res = SearchResult(ensemble=e, score=0.0, indices=(0,),
                           metric="spread")
        with pytest.raises(ValidationError):
            algorithm_frequencies([res])


class TestConstrained:
    def test_limit_to_algorithms(self):
        pool = random_pool(12, seed=16)
        kept = limit_to_algorithms(pool, ("a",))
        assert kept and all(v.tag[0] == "a" for v in kept)

    def test_limit_to_algorithms_missing(self):
        with pytest.raises(ValidationError):
            limit_to_algorithms(random_pool(6), ("zz",))

    def test_limit_to_structures(self):
        pool = random_pool(12, seed=17)
        kept = limit_to_structures(pool, [(1, 2.0)])
        assert kept and all(v.tag[1:] == (1, 2.0) for v in kept)

    def test_truncate_trace(self):
        from tests.test_behavior import make_trace

        t = make_trace([(1, 1, 2, 3, 0.5)] * 10)
        short = truncate_trace(t, 4)
        assert short.n_iterations == 4
        assert not short.converged
        assert short.stop_reason == "truncated@4"
        # Constant behavior ⇒ identical mean metrics after truncation.
        from repro.behavior.metrics import compute_metrics

        np.testing.assert_allclose(compute_metrics(short).as_array(),
                                   compute_metrics(t).as_array())

    def test_truncate_noop_when_short(self):
        from tests.test_behavior import make_trace

        t = make_trace([(1, 1, 2, 3, 0.5)] * 3)
        assert truncate_trace(t, 10) is t

    def test_truncate_validation(self):
        from tests.test_behavior import make_trace

        with pytest.raises(ValidationError):
            truncate_trace(make_trace([]), 0)
