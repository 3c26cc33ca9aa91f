"""Tests for community weight updating (paper Section 3.5)."""

import numpy as np
import pytest

from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.state import CommunityState
from repro.core.weights import delta_update, make_weight_updater, recompute_all
from repro.graph.generators import karate_club, load_dataset, planted_partition


def apply_random_moves(graph, state, rng, frac=0.3):
    """Move a random subset of vertices to random neighbouring communities,
    returning (prev_comm, moved)."""
    prev = state.comm.copy()
    nxt = state.comm.copy()
    movers = rng.choice(graph.n, size=max(1, int(frac * graph.n)), replace=False)
    for v in movers:
        nbrs = graph.neighbors(v)
        if len(nbrs):
            nxt[v] = state.comm[rng.choice(nbrs)]
    moved = nxt != prev
    state.comm = nxt
    return prev, moved


class TestDeltaEqualsRecompute:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_move_batches(self, karate, seed):
        rng = np.random.default_rng(seed)
        comm = rng.integers(0, 6, karate.n)
        s_delta = CommunityState.from_assignment(karate, comm)
        s_full = s_delta.copy()

        for _ in range(5):
            prev, moved = apply_random_moves(karate, s_delta, rng)
            s_full.comm = s_delta.comm.copy()
            delta_update(s_delta, prev, moved)
            recompute_all(s_full, prev, moved)
            np.testing.assert_allclose(
                s_delta.d_comm, s_full.d_comm, atol=1e-9
            )

    def test_on_real_trajectory(self):
        """Both update modes must give identical phase-1 results."""
        g = load_dataset("LJ", scale=0.05)
        a = run_phase1(g, Phase1Config(weight_update="delta"))
        b = run_phase1(g, Phase1Config(weight_update="recompute"))
        assert a.num_iterations == b.num_iterations
        assert a.modularity == pytest.approx(b.modularity, abs=1e-12)
        np.testing.assert_array_equal(a.communities, b.communities)
        np.testing.assert_allclose(a.state.d_comm, b.state.d_comm, atol=1e-9)


class TestDeltaUpdateEdgeCases:
    def test_no_moves_is_noop(self, karate):
        s = CommunityState.from_assignment(
            karate, np.zeros(karate.n, dtype=int)
        )
        before = s.d_comm.copy()
        delta_update(s, s.comm.copy(), np.zeros(karate.n, dtype=bool))
        np.testing.assert_allclose(s.d_comm, before)

    def test_single_mover(self, triangles):
        s = CommunityState.from_assignment(
            triangles, np.array([0, 0, 0, 1, 1, 1])
        )
        prev = s.comm.copy()
        s.comm = s.comm.copy()
        s.comm[2] = 1  # bridge vertex defects
        moved = prev != s.comm
        delta_update(s, prev, moved)
        ref = CommunityState.from_assignment(triangles, s.comm)
        np.testing.assert_allclose(s.d_comm, ref.d_comm)

    def test_mover_with_weighted_edges(self, weighted_graph):
        rng = np.random.default_rng(5)
        comm = rng.integers(0, 3, weighted_graph.n)
        s = CommunityState.from_assignment(weighted_graph, comm)
        prev, moved = apply_random_moves(weighted_graph, s, rng, frac=0.5)
        delta_update(s, prev, moved)
        ref = CommunityState.from_assignment(weighted_graph, s.comm)
        np.testing.assert_allclose(s.d_comm, ref.d_comm, atol=1e-12)


class TestMakeWeightUpdater:
    def test_known_modes(self):
        assert make_weight_updater("delta") is delta_update
        assert make_weight_updater("recompute") is recompute_all

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown weight update"):
            make_weight_updater("magic")

    def test_patched_registry_entry_wins_over_runtime_and_chunks(
        self, monkeypatch
    ):
        from repro.core import weights

        def patched(state, prev_comm, moved):
            pass

        monkeypatch.setitem(weights.WEIGHT_UPDATERS, "delta", patched)
        # any runtime object: the patched entry never looks at it
        assert (
            make_weight_updater("delta", runtime=object(), chunk_edges=8)
            is patched
        )
