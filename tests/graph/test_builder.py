"""Tests for edge-list to CSR construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphValidationError
from repro.graph.builder import coalesce_edges, from_edge_array, symmetrize_edges


class TestSymmetrize:
    def test_mirrors_nonloops(self):
        s, d, w = symmetrize_edges(
            np.array([0, 1]), np.array([1, 1]), np.array([1.0, 2.0])
        )
        # loop (1,1) passes through once; edge (0,1) mirrored
        assert len(s) == 3
        pairs = set(zip(s.tolist(), d.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs and (1, 1) in pairs


class TestCoalesce:
    def test_sums_parallel_edges(self):
        src = np.array([0, 0, 1, 1])
        dst = np.array([1, 1, 0, 0])
        w = np.array([1.0, 2.0, 1.0, 2.0])
        s, d, ww, loops = coalesce_edges(2, src, dst, w)
        assert len(s) == 2
        np.testing.assert_allclose(ww, [3.0, 3.0])
        assert loops.sum() == 0.0

    def test_splits_loops(self):
        src = np.array([0, 1, 1])
        dst = np.array([0, 1, 0])
        w = np.array([2.0, 3.0, 1.0])
        s, d, ww, loops = coalesce_edges(2, src, dst, w)
        np.testing.assert_allclose(loops, [2.0, 3.0])
        assert len(s) == 1

    def test_sorted_output(self):
        src = np.array([2, 0, 1, 2])
        dst = np.array([0, 2, 0, 1])
        w = np.ones(4)
        s, d, _, _ = coalesce_edges(3, src, dst, w)
        order = np.lexsort((d, s))
        np.testing.assert_array_equal(order, np.arange(len(s)))


class TestFromEdgeArray:
    def test_scalar_weight_broadcast(self):
        g = from_edge_array(3, [0, 1], [1, 2], 2.5)
        assert g.total_weight == pytest.approx(5.0)

    def test_default_weight_one(self):
        g = from_edge_array(3, [0, 1], [1, 2])
        assert g.total_weight == pytest.approx(2.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError, match="out of range"):
            from_edge_array(2, [0], [5], 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphValidationError, match="negative"):
            from_edge_array(2, [0], [1], -1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphValidationError):
            from_edge_array(3, [0, 1], [1], 1.0)
        with pytest.raises(GraphValidationError):
            from_edge_array(3, [0, 1], [1, 2], [1.0])

    def test_duplicate_undirected_edges_sum(self):
        # (0,1) given twice in opposite directions -> weight 2 after
        # symmetrisation+coalescing
        g = from_edge_array(2, [0, 1], [1, 0], 1.0)
        assert g.total_weight == pytest.approx(2.0)
        np.testing.assert_allclose(g.weights, [2.0, 2.0])

    @given(
        st.integers(2, 12),
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11),
                      st.floats(0.1, 10.0)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_valid_and_conserves_weight(self, n, edges):
        edges = [(u % n, v % n, w) for u, v, w in edges]
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        w = np.array([e[2] for e in edges])
        g = from_edge_array(n, src, dst, w)
        g.validate()
        # total weight conserved: every input edge contributes exactly once
        assert g.total_weight == pytest.approx(w.sum(), rel=1e-9)
