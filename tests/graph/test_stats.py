"""Tests for graph statistics."""

import numpy as np
import pytest

from repro.graph.builder import from_edge_array
from repro.graph.generators import star
from repro.graph.stats import compute_stats, connected_components


class TestComputeStats:
    def test_karate(self, karate):
        s = compute_stats(karate)
        assert s.n == 34
        assert s.num_edges == 78
        assert s.min_degree == 1
        assert s.max_degree == 17
        assert s.mean_degree == pytest.approx(2 * 78 / 34)
        assert s.frac_small_degree == 1.0
        assert s.frac_large_degree == 0.0

    def test_skew_sign(self):
        hub = star(50)
        s = compute_stats(hub)
        assert s.degree_skew > 1.0  # one huge hub -> right skew

    def test_empty_graph(self):
        s = compute_stats(from_edge_array(0, [], [], None))
        assert s.n == 0 and s.num_edges == 0

    def test_as_row_format(self, karate):
        row = compute_stats(karate).as_row()
        assert row["graph"] == "karate"
        assert row["deg<32"].endswith("%")
        assert "/" in row["deg(min/mean/max)"]


class TestConnectedComponents:
    def test_single_component(self, karate):
        labels = connected_components(karate)
        assert len(np.unique(labels)) == 1

    def test_multiple_components(self):
        g = from_edge_array(6, [0, 2, 4], [1, 3, 5], 1.0)
        labels = connected_components(g)
        assert len(np.unique(labels)) == 3
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]

    def test_isolated_vertices_own_components(self):
        g = from_edge_array(4, [0], [1], 1.0)
        labels = connected_components(g)
        assert len(np.unique(labels)) == 3
