"""Tests for the CSR graph data structure and its invariants."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph


class TestBasicProperties:
    def test_counts(self, triangles):
        assert triangles.n == 6
        assert triangles.num_edges == 7
        assert triangles.num_directed_edges == 14

    def test_total_weight_and_two_m(self, triangles):
        assert triangles.total_weight == 7.0
        assert triangles.two_m == 14.0
        # 2|E| equals the sum of weighted degrees (paper Section 2.1)
        assert triangles.strength.sum() == pytest.approx(triangles.two_m)

    def test_strength(self, triangles):
        np.testing.assert_allclose(triangles.strength, [2, 2, 3, 3, 2, 2])

    def test_degrees(self, triangles):
        np.testing.assert_array_equal(triangles.degrees, [2, 2, 3, 3, 2, 2])

    def test_neighbors_sorted_views(self, triangles):
        nbrs = triangles.neighbors(2)
        np.testing.assert_array_equal(nbrs, [0, 1, 3])
        assert triangles.neighbor_weights(2).shape == (3,)


class TestSelfLoops:
    def test_loop_routed_to_self_weight(self):
        g = from_edge_array(3, [0, 1, 1], [1, 2, 1], [1.0, 1.0, 2.5])
        assert g.self_weight[1] == 2.5
        assert 1 not in g.neighbors(1)

    def test_loop_counts_twice_in_strength(self):
        g = from_edge_array(2, [0, 1], [1, 1], [1.0, 3.0])
        # vertex 1: edge to 0 (w=1) + loop (w=3, counted twice) = 7
        assert g.strength[1] == pytest.approx(7.0)

    def test_loop_counts_once_in_total_weight(self):
        g = from_edge_array(2, [0, 1], [1, 1], [1.0, 3.0])
        assert g.total_weight == pytest.approx(4.0)
        assert g.num_edges == 2

    def test_two_m_identity_with_loops(self):
        g = from_edge_array(3, [0, 0, 2], [1, 0, 2], [1.0, 2.0, 5.0])
        assert g.strength.sum() == pytest.approx(g.two_m)


class TestIterEdges:
    def test_each_edge_once(self, triangles):
        edges = list(triangles.iter_edges())
        assert len(edges) == 7
        assert all(u <= v for u, v, _ in edges)

    def test_includes_loops(self):
        g = from_edge_array(2, [0, 1], [1, 1], [1.0, 3.0])
        edges = list(g.iter_edges())
        assert (1, 1, 3.0) in edges


class TestValidation:
    def test_valid_graph_passes(self, triangles, weighted_graph, karate):
        triangles.validate()
        weighted_graph.validate()
        karate.validate()

    def test_asymmetric_rejected(self):
        g = CSRGraph(
            indptr=np.array([0, 1, 1]),
            indices=np.array([1]),
            weights=np.array([1.0]),
            self_weight=np.zeros(2),
        )
        with pytest.raises(GraphValidationError, match="symmetric"):
            g.validate()

    def test_loop_in_adjacency_rejected(self):
        g = CSRGraph(
            indptr=np.array([0, 1]),
            indices=np.array([0]),
            weights=np.array([1.0]),
            self_weight=np.zeros(1),
        )
        with pytest.raises(GraphValidationError, match="self-loop"):
            g.validate()

    def test_negative_weight_rejected(self):
        g = CSRGraph(
            indptr=np.array([0, 1, 2]),
            indices=np.array([1, 0]),
            weights=np.array([-1.0, -1.0]),
            self_weight=np.zeros(2),
        )
        with pytest.raises(GraphValidationError, match="negative"):
            g.validate()

    def test_bad_indptr_rejected(self):
        g = CSRGraph(
            indptr=np.array([0, 2, 1]),
            indices=np.array([1, 0]),
            weights=np.array([1.0, 1.0]),
            self_weight=np.zeros(2),
        )
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_out_of_range_neighbour_rejected(self):
        g = CSRGraph(
            indptr=np.array([0, 1, 2]),
            indices=np.array([5, 0]),
            weights=np.array([1.0, 1.0]),
            self_weight=np.zeros(2),
        )
        with pytest.raises(GraphValidationError, match="out of range"):
            g.validate()


class TestNetworkxRoundtrip:
    def test_roundtrip(self, karate):
        nxg = karate.to_networkx()
        src, dst, w = zip(*nxg.edges(data="weight"))
        back = from_edge_array(nxg.number_of_nodes(), src, dst, w)
        back.validate()
        assert back.n == karate.n
        assert back.num_edges == karate.num_edges
        assert back.total_weight == pytest.approx(karate.total_weight)
        np.testing.assert_array_equal(back.indptr, karate.indptr)
        np.testing.assert_array_equal(back.indices, karate.indices)


class TestEmptyAndTiny:
    def test_empty_graph(self):
        g = from_edge_array(0, [], [], None)
        g.validate()
        assert g.n == 0 and g.num_edges == 0 and g.total_weight == 0.0

    def test_isolated_vertices(self):
        g = from_edge_array(5, [0], [1], 2.0)
        g.validate()
        np.testing.assert_allclose(g.strength, [2, 2, 0, 0, 0])
        assert len(g.neighbors(3)) == 0


class TestStrengthRegression:
    def test_trailing_isolated_vertex_after_multi_edge_row(self):
        """Regression: a trailing empty row must not corrupt the previous
        row's strength (reduceat boundary handling)."""
        # v2 has two edges, v3 is isolated.
        g = from_edge_array(4, [0, 1], [2, 2], 1.0)
        np.testing.assert_allclose(g.strength, [1.0, 1.0, 2.0, 0.0])
        assert g.strength.sum() == pytest.approx(g.two_m)

    def test_interleaved_isolated_vertices(self):
        g = from_edge_array(6, [1, 1, 4], [3, 4, 3], [2.0, 1.0, 0.5])
        np.testing.assert_allclose(
            g.strength, [0.0, 3.0, 0.0, 2.5, 1.5, 0.0]
        )

    def test_single_isolated_graph(self):
        g = from_edge_array(1, [], [], None)
        np.testing.assert_allclose(g.strength, [0.0])
