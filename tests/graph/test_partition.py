"""Tests for multi-GPU vertex partitioning."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.generators import ring_of_cliques, rmat_graph
from repro.graph.partition import (
    VertexPartition,
    partition_by_degree,
    partition_contiguous,
)


class TestVertexPartition:
    def test_sizes_and_vertices(self):
        p = VertexPartition(owner=np.array([0, 1, 0, 1, 2]), num_parts=3)
        np.testing.assert_array_equal(p.sizes(), [2, 2, 1])
        np.testing.assert_array_equal(p.vertices_of(1), [1, 3])

    def test_rejects_bad_owner(self):
        with pytest.raises(PartitionError):
            VertexPartition(owner=np.array([0, 5]), num_parts=2)

    def test_rejects_zero_parts(self):
        with pytest.raises(PartitionError):
            VertexPartition(owner=np.array([0]), num_parts=0)


class TestContiguous:
    def test_covers_all_vertices(self, ring):
        p = partition_contiguous(ring, 4)
        assert p.sizes().sum() == ring.n
        assert p.num_parts == 4

    def test_contiguity(self, ring):
        p = partition_contiguous(ring, 3)
        # owners must be non-decreasing over vertex ids
        assert np.all(np.diff(p.owner) >= 0)

    def test_edge_balance(self):
        g = rmat_graph(11, seed=5)
        p = partition_contiguous(g, 4)
        loads = p.edge_loads(g)
        assert loads.max() <= 2.0 * loads.mean() + g.degrees.max()

    def test_single_part(self, ring):
        p = partition_contiguous(ring, 1)
        assert np.all(p.owner == 0)


class TestMorePartsThanVertices:
    """ranks > vertices: trailing parts own nothing, everything stays valid."""

    def test_contiguous_allows_empty_parts(self):
        from repro.graph.generators import two_triangles

        g = two_triangles()  # n = 6
        p = partition_contiguous(g, 10)
        assert p.num_parts == 10
        assert p.sizes().sum() == g.n
        assert np.count_nonzero(p.sizes() == 0) >= 4
        # every vertex still has exactly one in-range owner
        assert p.owner.min() >= 0 and p.owner.max() < 10

    def test_rank_views_with_empty_parts(self):
        from repro.multigpu.halo import build_rank_views
        from repro.graph.generators import two_triangles

        g = two_triangles()
        views = build_rank_views(g, partition_contiguous(g, 10))
        assert len(views) == 10
        covered = np.concatenate([v.owned for v in views])
        np.testing.assert_array_equal(np.sort(covered), np.arange(g.n))
        for view in views:
            if view.num_owned == 0:
                assert view.num_ghosts == 0
                assert view.send_lists == {}


class TestEmptyBoundaries:
    """Partitions aligned with components exchange no halo at all."""

    def _two_cliques(self):
        # two disconnected triangles: vertices 0-2 and 3-5
        src = np.array([0, 0, 1, 3, 3, 4])
        dst = np.array([1, 2, 2, 4, 5, 5])
        from repro.graph.builder import from_edge_array

        return from_edge_array(6, src, dst, np.ones(6), name="2tri")

    def test_no_ghosts_across_components(self):
        from repro.multigpu.halo import build_rank_views
        from repro.graph.partition import VertexPartition

        g = self._two_cliques()
        part = VertexPartition(owner=np.array([0, 0, 0, 1, 1, 1]),
                               num_parts=2)
        views = build_rank_views(g, part)
        for view in views:
            assert view.num_ghosts == 0
            assert view.send_lists == {}

    def test_single_rank_has_no_halo(self, ring):
        from repro.multigpu.halo import build_rank_views

        views = build_rank_views(ring, partition_contiguous(ring, 1))
        assert len(views) == 1
        assert views[0].num_ghosts == 0
        assert views[0].send_lists == {}
        np.testing.assert_array_equal(views[0].owned, np.arange(ring.n))


class TestByDegree:
    def test_covers_all_vertices(self, ring):
        p = partition_by_degree(ring, 4)
        assert p.sizes().sum() == ring.n

    def test_tighter_balance_on_skewed_graph(self):
        g = rmat_graph(11, seed=5)
        greedy = partition_by_degree(g, 4).edge_loads(g)
        # LPT must be near-perfectly balanced
        assert greedy.max() <= 1.1 * greedy.mean() + g.degrees.max()

    def test_rejects_zero_parts(self, ring):
        with pytest.raises(PartitionError):
            partition_by_degree(ring, 0)
        with pytest.raises(PartitionError):
            partition_contiguous(ring, 0)
