"""Unit and property tests for the segmented-reduction primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.arrays import (
    compact_relabel,
    repeat_by_counts,
    segment_argmax,
    segment_max,
    segment_sum,
)


def _offsets_from_counts(counts):
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


#: segmented layouts as plain python lists-of-lists (empty and
#: single-element segments included on purpose)
_segments = st.lists(
    st.lists(st.integers(-50, 50), min_size=0, max_size=5),
    min_size=1,
    max_size=8,
)


class TestSegmentSum:
    def test_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        offsets = np.array([0, 2, 2, 5])
        np.testing.assert_allclose(segment_sum(values, offsets), [3.0, 0.0, 12.0])

    def test_all_empty(self):
        out = segment_sum(np.empty(0), np.array([0, 0, 0]))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_trailing_empty_segment(self):
        values = np.array([1.0, 1.0])
        offsets = np.array([0, 2, 2])
        np.testing.assert_allclose(segment_sum(values, offsets), [2.0, 0.0])

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.array([1, 3]))
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.array([0, 2]))
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.array([0, 2, 1, 3]))

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_python_sums(self, segments):
        values = np.array([x for seg in segments for x in seg], dtype=np.float64)
        offsets = _offsets_from_counts([len(s) for s in segments])
        expected = [sum(s) for s in segments]
        np.testing.assert_allclose(segment_sum(values, offsets), expected, atol=1e-6)


class TestSegmentMax:
    def test_basic(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        offsets = np.array([0, 3, 5])
        np.testing.assert_allclose(segment_max(values, offsets), [4.0, 5.0])

    def test_empty_gets_fill(self):
        out = segment_max(np.array([2.0]), np.array([0, 0, 1]), fill=-1.0)
        np.testing.assert_allclose(out, [-1.0, 2.0])

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_python_max(self, segments):
        values = np.array([x for seg in segments for x in seg], dtype=np.float64)
        offsets = _offsets_from_counts([len(s) for s in segments])
        expected = [max(s) for s in segments]
        np.testing.assert_allclose(segment_max(values, offsets), expected)


class TestSegmentArgmax:
    def test_first_max_wins(self):
        values = np.array([1.0, 5.0, 5.0, 2.0])
        offsets = np.array([0, 4])
        idx, valid = segment_argmax(values, offsets)
        assert valid[0]
        assert idx[0] == 1  # first of the tied maxima

    def test_empty_segment_invalid(self):
        values = np.array([1.0])
        offsets = np.array([0, 0, 1])
        idx, valid = segment_argmax(values, offsets)
        assert not valid[0] and valid[1]
        assert idx[1] == 0

    @given(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_python_argmax(self, segments):
        values = np.array(
            [x for seg in segments for x in seg], dtype=np.float64
        )
        offsets = _offsets_from_counts([len(s) for s in segments])
        idx, valid = segment_argmax(values, offsets)
        pos = 0
        for i, seg in enumerate(segments):
            assert valid[i]
            expected_local = seg.index(max(seg))
            assert idx[i] == pos + expected_local
            pos += len(seg)


class TestRepeatByCounts:
    def test_basic(self):
        starts = np.array([10, 20, 30])
        counts = np.array([2, 0, 3])
        np.testing.assert_array_equal(
            repeat_by_counts(starts, counts), [10, 11, 30, 31, 32]
        )

    def test_empty(self):
        assert len(repeat_by_counts(np.array([5]), np.array([0]))) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            repeat_by_counts(np.array([1]), np.array([1, 2]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 6)),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_python_ranges(self, pairs):
        starts = np.array([p[0] for p in pairs])
        counts = np.array([p[1] for p in pairs])
        expected = [s + i for s, c in pairs for i in range(c)]
        np.testing.assert_array_equal(repeat_by_counts(starts, counts), expected)


class TestCompactRelabel:
    def test_preserves_order(self):
        labels = np.array([7, 3, 7, 9, 3])
        new, k = compact_relabel(labels)
        assert k == 3
        np.testing.assert_array_equal(new, [1, 0, 1, 2, 0])

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_same_partition(self, labels):
        arr = np.array(labels)
        new, k = compact_relabel(arr)
        assert new.min() == 0 and new.max() == k - 1
        # Same-label pairs stay same-label, different stay different.
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                assert (arr[i] == arr[j]) == (new[i] == new[j])
