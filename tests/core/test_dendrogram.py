"""Tests for the dendrogram hierarchy view."""

import numpy as np
import pytest

from repro.core import gala, louvain
from repro.core.dendrogram import Dendrogram, dendrogram_from_graph
from repro.graph.generators import load_dataset


@pytest.fixture(scope="module")
def dendro():
    return dendrogram_from_graph(load_dataset("LJ", 0.05))


class TestCut:
    def test_levels(self, dendro):
        assert dendro.num_levels >= 2
        singles = dendro.cut(-1)
        np.testing.assert_array_equal(singles, np.arange(dendro.n))
        final = dendro.cut(dendro.num_levels - 1)
        assert final.max() + 1 == dendro.num_communities(dendro.num_levels - 1)

    def test_coarsening_monotone(self, dendro):
        counts = [
            dendro.num_communities(level) for level in range(dendro.num_levels)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_out_of_range(self, dendro):
        with pytest.raises(IndexError):
            dendro.cut(dendro.num_levels)
        with pytest.raises(IndexError):
            dendro.cut(-2)


class TestTreeStructure:
    def test_children_partition_members(self, dendro):
        level = dendro.num_levels - 1
        for c in range(min(dendro.num_communities(level), 5)):
            members = set(dendro.members(level, c).tolist())
            kids = dendro.children(level, c)
            covered = set()
            prev = dendro.cut(level - 1)
            for k in kids:
                covered |= set(np.flatnonzero(prev == k).tolist())
            assert covered == members

    def test_children_at_level_zero_are_vertices(self, dendro):
        kids = dendro.children(0, 0)
        assert all(isinstance(k, (int, np.integer)) for k in kids)
        assert set(kids) == set(dendro.members(0, 0).tolist())

    def test_empty_community_raises(self, dendro):
        with pytest.raises(KeyError):
            dendro.children(0, 10**6)

    def test_refinement_chain(self, dendro):
        assert dendro.is_refinement_chain()

    def test_broken_chain_detected(self):
        bad = Dendrogram(
            assignments=[np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0])],
            n=4,
        )
        assert not bad.is_refinement_chain()


class TestFromResult:
    def test_matches_louvain_result(self):
        g = load_dataset("UK", 0.05)
        result = louvain(g)
        d = Dendrogram.from_result(result)
        final = d.cut(d.num_levels - 1)
        _, expected = np.unique(result.communities, return_inverse=True)
        np.testing.assert_array_equal(final, expected)
