"""Tests for CommunityState bookkeeping."""

import numpy as np
import pytest

from repro.core.modularity import modularity
from repro.core.state import CommunityState
from repro.graph.builder import from_edge_array
from repro.graph.generators import karate_club, planted_partition


class TestSingletons:
    def test_initial_state(self, triangles):
        s = CommunityState.singletons(triangles)
        np.testing.assert_array_equal(s.comm, np.arange(6))
        np.testing.assert_allclose(s.d_comm, 0.0)
        np.testing.assert_allclose(s.comm_strength, triangles.strength)
        np.testing.assert_array_equal(s.comm_size, 1)

    def test_singleton_modularity_matches(self, karate):
        s = CommunityState.singletons(karate)
        assert s.modularity() == pytest.approx(
            modularity(karate, np.arange(karate.n))
        )


class TestFromAssignment:
    def test_d_comm_computed(self, triangles):
        s = CommunityState.from_assignment(triangles, np.array([0, 0, 0, 1, 1, 1]))
        # each triangle vertex touches 2 in-community edges
        np.testing.assert_allclose(s.d_comm, [2, 2, 2, 2, 2, 2])
        np.testing.assert_allclose(s.comm_strength[:2], [7.0, 7.0])
        np.testing.assert_array_equal(s.comm_size[:2], [3, 3])

    def test_rejects_wrong_length(self, triangles):
        with pytest.raises(ValueError):
            CommunityState.from_assignment(triangles, np.array([0, 1]))

    def test_modularity_matches_reference(self, karate):
        rng = np.random.default_rng(0)
        for _ in range(5):
            comm = rng.integers(0, 7, karate.n)
            s = CommunityState.from_assignment(karate, comm)
            assert s.modularity() == pytest.approx(
                modularity(karate, comm), rel=1e-12, abs=1e-12
            )

    def test_self_loops_in_modularity(self):
        g = from_edge_array(3, [0, 1, 2], [1, 2, 2], [1.0, 1.0, 2.0])
        comm = np.array([0, 0, 1])
        s = CommunityState.from_assignment(g, comm)
        assert s.modularity() == pytest.approx(modularity(g, comm))


class TestAggregates:
    def test_min_community_strength_ignores_empty(self, triangles):
        s = CommunityState.from_assignment(triangles, np.array([0, 0, 0, 5, 5, 5]))
        # ids 1-4 are empty; min over non-empty = 7
        assert s.min_community_strength() == pytest.approx(7.0)

    def test_internal_weights_match_reference(self, karate):
        from repro.core.modularity import community_internal_weights

        comm = np.random.default_rng(3).integers(0, 4, karate.n)
        s = CommunityState.from_assignment(karate, comm)
        np.testing.assert_allclose(
            s.internal_weights()[:4],
            community_internal_weights(karate, comm, minlength=4),
        )

    def test_copy_is_deep(self, karate):
        s = CommunityState.singletons(karate)
        c = s.copy()
        c.comm[0] = 5
        c.d_comm[0] = 9.0
        assert s.comm[0] == 0
        assert s.d_comm[0] == 0.0
