"""Tests for the phase-1 BSP engine."""

import numpy as np
import pytest

from repro.core.modularity import modularity
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import (
    clique,
    karate_club,
    load_dataset,
    ring_of_cliques,
    star,
    two_triangles,
)


class TestConvergence:
    def test_two_triangles_optimum(self, triangles):
        r = run_phase1(triangles)
        assert len(np.unique(r.communities)) == 2
        # vertices 0-2 together, 3-5 together
        assert len(np.unique(r.communities[:3])) == 1
        assert len(np.unique(r.communities[3:])) == 1

    def test_clique_collapses(self):
        r = run_phase1(clique(8))
        assert len(np.unique(r.communities)) == 1

    def test_ring_of_cliques(self, ring):
        r = run_phase1(ring)
        assert len(np.unique(r.communities)) == 8

    def test_star_single_community(self):
        r = run_phase1(star(5))
        assert len(np.unique(r.communities)) == 1

    def test_terminates_within_budget(self, karate):
        r = run_phase1(karate, Phase1Config(max_iterations=100))
        assert r.num_iterations < 100

    def test_max_iterations_respected(self, karate):
        r = run_phase1(karate, Phase1Config(max_iterations=1))
        assert r.num_iterations == 1


class TestReportedState:
    def test_modularity_matches_reference(self, karate):
        r = run_phase1(karate)
        assert r.modularity == pytest.approx(
            modularity(karate, r.communities), abs=1e-12
        )

    def test_returns_best_state_seen(self, karate):
        """BSP sweeps may oscillate; the engine must return the best
        modularity observed, never a post-dip state."""
        r = run_phase1(karate)
        qs = [h.modularity for h in r.history]
        assert r.modularity == pytest.approx(max(qs), abs=1e-12)

    def test_history_counts_consistent(self, karate):
        r = run_phase1(karate)
        for h in r.history:
            assert h.num_active + h.num_inactive == karate.n
            assert 0 <= h.num_moved <= h.num_active

    def test_processed_counts(self, karate):
        r = run_phase1(karate, Phase1Config(pruning="none"))
        assert r.processed_vertices == karate.n * r.num_iterations
        assert r.processed_edges == karate.num_directed_edges * r.num_iterations

    def test_timers_populated(self, karate):
        r = run_phase1(karate)
        totals = r.timers
        assert "decide_and_move" in totals
        assert "weight_update" in totals
        assert totals["decide_and_move"] > 0.0


class TestInitialCommunities:
    def test_warm_start(self, triangles):
        init = np.array([0, 0, 0, 1, 1, 1])
        r = run_phase1(triangles, initial_communities=init)
        np.testing.assert_array_equal(np.unique(r.communities[:3]).size, 1)

    def test_warm_start_already_optimal_converges_immediately(self, ring):
        init = np.repeat(np.arange(8), 6)
        r = run_phase1(ring, initial_communities=init)
        assert r.num_iterations == 1
        assert all(h.num_moved == 0 for h in r.history)


class TestOracle:
    def test_oracle_fields_present(self, karate):
        r = run_phase1(karate, Phase1Config(oracle=True))
        for h in r.history:
            assert h.oracle_moved is not None
            assert h.false_negatives is not None
            assert h.false_positives is not None

    def test_oracle_fields_absent_by_default(self, karate):
        r = run_phase1(karate)
        assert all(h.oracle_moved is None for h in r.history)

    def test_unpruned_run_has_no_fn(self, karate):
        r = run_phase1(karate, Phase1Config(pruning="none", oracle=True))
        assert all(h.false_negatives == 0 for h in r.history)

    def test_iteration0_not_predicted(self, karate):
        r = run_phase1(karate, Phase1Config(oracle=True))
        assert r.history[0].predicted is False
        if len(r.history) > 1:
            assert r.history[1].predicted is True

    def test_oracle_does_not_change_result(self, karate):
        """Oracle mode slices the active-set result out of the full-set
        run — the trajectory must match a non-oracle run bit for bit."""
        a = run_phase1(karate, Phase1Config(pruning="mg"))
        b = run_phase1(karate, Phase1Config(pruning="mg", oracle=True))
        np.testing.assert_array_equal(a.communities, b.communities)
        assert a.modularity == b.modularity
        assert [h.num_moved for h in a.history] == [
            h.num_moved for h in b.history
        ]

    def test_oracle_single_kernel_call_per_iteration(self, karate):
        """The oracle must not run DecideAndMove twice per iteration: one
        full-set call serves both the oracle and the pruned engine."""
        from repro.core.kernels.vectorized import decide_moves

        calls = []

        def spy(state, idx, remove_self):
            calls.append(len(idx))
            return decide_moves(state, idx, remove_self=remove_self)

        r = run_phase1(
            karate, Phase1Config(pruning="mg", oracle=True, kernel=spy)
        )
        assert len(calls) == r.num_iterations
        assert all(c == karate.n for c in calls)

    def test_restrict_is_exact_slice(self, karate):
        """DecideAndMove is row-local: restricting a full-set result to a
        subset equals running the kernel on the subset directly."""
        from repro.core.kernels.vectorized import decide_moves
        from repro.core.state import CommunityState

        state = CommunityState.singletons(karate)
        full = decide_moves(state, np.arange(karate.n, dtype=np.int64))
        subset = np.array([0, 3, 5, 12, 33], dtype=np.int64)
        direct = decide_moves(state, subset)
        sliced = full.restrict(subset)
        np.testing.assert_array_equal(sliced.active_idx, direct.active_idx)
        np.testing.assert_array_equal(sliced.best_comm, direct.best_comm)
        np.testing.assert_array_equal(sliced.best_gain, direct.best_gain)
        np.testing.assert_array_equal(sliced.stay_gain, direct.stay_gain)
        np.testing.assert_array_equal(sliced.move, direct.move)


class TestConfigValidation:
    def test_bad_kernel_rejected(self, karate):
        with pytest.raises(ValueError, match="kernel"):
            run_phase1(karate, Phase1Config(kernel="quantum"))

    def test_custom_kernel_callable(self, karate):
        from repro.core.kernels.vectorized import decide_moves

        calls = []

        def spy_kernel(state, idx, remove_self):
            calls.append(len(idx))
            return decide_moves(state, idx, remove_self=remove_self)

        r = run_phase1(karate, Phase1Config(kernel=spy_kernel))
        assert len(calls) == r.num_iterations

    def test_empty_graph(self):
        from repro.graph.builder import from_edge_array

        g = from_edge_array(4, [], [], None)
        r = run_phase1(g)
        assert r.num_iterations == 1
        assert r.modularity == 0.0


class TestDeterminism:
    def test_identical_runs(self):
        g = load_dataset("OR", scale=0.05)
        a = run_phase1(g, Phase1Config(pruning="mg"))
        b = run_phase1(g, Phase1Config(pruning="mg"))
        np.testing.assert_array_equal(a.communities, b.communities)
        assert a.modularity == b.modularity
