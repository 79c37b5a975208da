"""Unit and property tests for the CSR segment kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import ValidationError
from repro._util.segments import (
    REDUCE_IDENTITY,
    concat_ranges,
    segment_offsets,
    segmented_reduce,
    unique_vertices,
)


class TestConcatRanges:
    def test_simple(self):
        out = concat_ranges(np.array([0, 5]), np.array([3, 7]))
        assert out.tolist() == [0, 1, 2, 5, 6]

    def test_empty_ranges_interleaved(self):
        out = concat_ranges(np.array([2, 4, 4, 9]), np.array([2, 6, 4, 10]))
        assert out.tolist() == [4, 5, 9]

    def test_all_empty(self):
        out = concat_ranges(np.array([1, 2]), np.array([1, 2]))
        assert out.size == 0
        assert out.dtype == np.int64

    def test_no_ranges(self):
        assert concat_ranges(np.array([], dtype=int),
                             np.array([], dtype=int)).size == 0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            concat_ranges(np.array([0]), np.array([1, 2]))

    def test_rejects_negative_ranges(self):
        with pytest.raises(ValidationError):
            concat_ranges(np.array([5]), np.array([3]))

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)),
                    max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, ranges):
        starts = np.array([s for s, _l in ranges], dtype=np.int64)
        ends = np.array([s + l for s, l in ranges], dtype=np.int64)
        expected = [i for s, l in ranges for i in range(s, s + l)]
        got = concat_ranges(starts, ends)
        assert got.tolist() == expected


class TestSegmentOffsets:
    def test_basic(self):
        assert segment_offsets(np.array([2, 0, 3])).tolist() == [0, 2, 2]

    def test_empty(self):
        assert segment_offsets(np.array([], dtype=int)).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            segment_offsets(np.array([1, -1]))


class TestSegmentedReduce:
    def test_sum_1d(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        out = segmented_reduce(vals, np.array([2, 2]), "sum")
        assert out.tolist() == [3.0, 7.0]

    def test_min_with_empty_segment(self):
        vals = np.array([5.0, 1.0])
        out = segmented_reduce(vals, np.array([1, 0, 1]), "min")
        assert out[0] == 5.0
        assert out[1] == np.inf  # identity, NOT a stray element
        assert out[2] == 1.0

    def test_max_with_leading_empty(self):
        vals = np.array([2.0, 9.0])
        out = segmented_reduce(vals, np.array([0, 2]), "max")
        assert out[0] == -np.inf
        assert out[1] == 9.0

    def test_2d_sum(self):
        vals = np.arange(8, dtype=float).reshape(4, 2)
        out = segmented_reduce(vals, np.array([3, 1]), "sum")
        np.testing.assert_allclose(out, [[6.0, 9.0], [6.0, 7.0]])

    def test_2d_empty_segment(self):
        vals = np.ones((2, 3))
        out = segmented_reduce(vals, np.array([0, 2]), "sum")
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[1], 2.0)

    def test_bitwise_or(self):
        vals = np.array([0b001, 0b010, 0b100], dtype=np.uint64)
        out = segmented_reduce(vals, np.array([2, 0, 1]), "or")
        assert out[0] == 0b011
        assert out[1] == 0
        assert out[2] == 0b100

    def test_custom_identity(self):
        out = segmented_reduce(np.array([1.0]), np.array([0, 1]), "min",
                               identity=-1.0)
        assert out[0] == -1.0

    def test_all_segments_empty(self):
        out = segmented_reduce(np.empty(0), np.array([0, 0]), "sum")
        assert out.tolist() == [0.0, 0.0]

    def test_no_segments(self):
        assert segmented_reduce(np.empty(0), np.array([], dtype=int)).size == 0

    def test_rejects_bad_op(self):
        with pytest.raises(ValidationError):
            segmented_reduce(np.array([1.0]), np.array([1]), "mean")

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            segmented_reduce(np.array([1.0, 2.0]), np.array([3]))

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=20),
        st.sampled_from(["sum", "min", "max"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_1d(self, counts, op, rand):
        counts = np.asarray(counts)
        total = int(counts.sum())
        vals = np.asarray([rand.uniform(-10, 10) for _ in range(total)])
        got = segmented_reduce(vals, counts, op)
        fn = {"sum": np.sum, "min": np.min, "max": np.max}[op]
        pos = 0
        for i, c in enumerate(counts):
            if c == 0:
                assert got[i] == REDUCE_IDENTITY[op]
            else:
                # atol scaled to the summands: reduceat sums
                # sequentially, np.sum pairwise, so a nearly-cancelling
                # segment leaves a roundoff-sized difference that no
                # pure rtol on the tiny result can absorb.
                np.testing.assert_allclose(got[i], fn(vals[pos:pos + c]),
                                           rtol=1e-12, atol=1e-12 * 10 * c)
            pos += c


class TestUniqueVertices:
    """``unique_vertices`` must equal ``np.unique`` on both of its
    branches (boolean marks for dense id sets, sort for sparse ones)."""

    @staticmethod
    def _check(ids, n):
        got = unique_vertices(ids, n)
        want = np.unique(np.asarray(ids, dtype=np.int64))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_empty(self):
        self._check(np.empty(0, dtype=np.int64), 10)
        self._check([], 10)

    def test_all_vertices(self):
        self._check(np.arange(1000)[::-1], 1000)

    def test_heavy_duplicates(self):
        rng = np.random.default_rng(0)
        self._check(rng.integers(0, 5, 10_000), 1000)  # dense branch
        self._check(np.full(7, 3), 1000)  # sparse branch

    @pytest.mark.parametrize("size", [1, 10, 100, 1_000, 10_000, 100_000])
    def test_random_subsets(self, size):
        rng = np.random.default_rng(size)
        self._check(rng.integers(0, 50_000, size), 50_000)

    @given(st.lists(st.integers(0, 63), max_size=200),
           st.integers(64, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_np_unique(self, ids, n):
        self._check(np.asarray(ids, dtype=np.int64), n)

    def test_accepts_unsorted_nd_input(self):
        self._check(np.array([[5, 1], [5, 0]]), 6)

    @pytest.mark.parametrize("ids", [[-1, 2], [0, 10], [10]])
    def test_rejects_out_of_range(self, ids):
        with pytest.raises(ValidationError,
                           match="frontier vertex ids out of range"):
            unique_vertices(np.asarray(ids), 10)
