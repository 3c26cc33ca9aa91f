"""Tests for the Vite-style distributed runtime and halo structures."""

import numpy as np
import pytest

from repro.core.phase1 import Phase1Config, run_phase1
from repro.distributed import (
    DistributedConfig,
    DistributedExecutor,
    build_rank_views,
    run_distributed_phase1,
)
from repro.distributed.halo import HALO_BYTES_PER_UPDATE
from repro.errors import PartitionError
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.graph.partition import (
    VertexPartition,
    partition_by_degree,
    partition_contiguous,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("LJ", 0.1)


class TestRankViews:
    def test_ownership_partitions_vertices(self, graph):
        views = build_rank_views(graph, partition_contiguous(graph, 3))
        owned = np.concatenate([v.owned for v in views])
        assert sorted(owned.tolist()) == list(range(graph.n))

    def test_ghosts_are_exactly_boundary_neighbours(self, graph):
        part = partition_contiguous(graph, 3)
        views = build_rank_views(graph, part)
        for view in views:
            expected = set()
            for v in view.owned:
                for u in graph.neighbors(v):
                    if part.owner[u] != view.rank:
                        expected.add(int(u))
            assert set(view.ghosts.tolist()) == expected

    def test_send_lists_transpose_ghosts(self, graph):
        views = build_rank_views(graph, partition_contiguous(graph, 4))
        for sender in views:
            for dest_rank, send_list in sender.send_lists.items():
                dest = views[dest_rank]
                # everything I send to you, you ghost
                assert set(send_list.tolist()) <= set(dest.ghosts.tolist())
                # and it is mine
                assert set(send_list.tolist()) <= set(sender.owned.tolist())

    def test_no_self_send_lists(self, graph):
        views = build_rank_views(graph, partition_contiguous(graph, 3))
        for view in views:
            assert view.rank not in view.send_lists

    def test_partition_size_mismatch(self, graph):
        small = VertexPartition(owner=np.zeros(3, dtype=np.int64), num_parts=1)
        with pytest.raises(PartitionError):
            build_rank_views(graph, small)


class TestDistributedEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_identical_to_single_engine(self, graph, k):
        single = run_phase1(graph, Phase1Config(pruning="mg"))
        dist = run_distributed_phase1(graph, DistributedConfig(num_ranks=k))
        np.testing.assert_array_equal(dist.communities, single.communities)
        assert dist.modularity == pytest.approx(single.modularity, abs=1e-12)

    def test_identical_under_degree_partition(self, graph):
        single = run_phase1(graph, Phase1Config(pruning="mg"))
        part = partition_by_degree(graph, 3)
        dist = run_distributed_phase1(
            graph, DistributedConfig(num_ranks=3), partition=part
        )
        np.testing.assert_array_equal(dist.communities, single.communities)

    def test_identical_without_pruning(self, graph):
        single = run_phase1(graph, Phase1Config(pruning="none"))
        dist = run_distributed_phase1(
            graph, DistributedConfig(num_ranks=2, pruning="none")
        )
        np.testing.assert_array_equal(dist.communities, single.communities)

    def test_structure_recovered(self):
        g = ring_of_cliques(8, 5)
        dist = run_distributed_phase1(g, DistributedConfig(num_ranks=3))
        assert len(np.unique(dist.communities)) == 8

    def test_rank_count_mismatch(self, graph):
        part = partition_contiguous(graph, 3)
        with pytest.raises(ValueError):
            run_distributed_phase1(
                graph, DistributedConfig(num_ranks=2), partition=part
            )


class TestHaloVolume:
    def test_single_rank_silent(self, graph):
        r = run_distributed_phase1(graph, DistributedConfig(num_ranks=1))
        assert r.stats.bytes_sent == 0
        assert r.stats.messages == 0

    def test_halo_cheaper_than_broadcast(self, graph):
        """The point of halo exchange: volume tracks boundary movement,
        not n * ranks per iteration."""
        r = run_distributed_phase1(graph, DistributedConfig(num_ranks=4))
        assert 0 < r.stats.bytes_sent < r.broadcast_bytes_equivalent

    def test_volume_decays_with_convergence(self, graph):
        """Late iterations move few vertices -> tiny halos (the same
        observation that motivates the paper's sparse sync)."""
        r = run_distributed_phase1(graph, DistributedConfig(num_ranks=4))
        series = r.stats.bytes_per_iteration
        assert len(series) >= 4
        early = sum(series[:2])
        late = sum(series[-2:])
        assert late < early

    def test_comm_seconds_positive_for_multirank(self, graph):
        r = run_distributed_phase1(graph, DistributedConfig(num_ranks=2))
        assert r.stats.comm_seconds() > 0.0


class _MoveLog(DistributedExecutor):
    """Records each iteration's committed ``moved`` mask."""

    def _sync(self, next_comm, moved):
        self.moved_log.append(moved.copy())
        return super()._sync(next_comm, moved)


class TestHaloVolumeReference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_match_brute_force(self, graph, k):
        """Rebuild every iteration's payloads from the graph alone — the
        movers owned by r with a neighbour owned by d — and check the
        runtime's bytes, messages and per-rank bytes against them."""
        part = partition_contiguous(graph, k)
        owner = part.owner
        foreign = [
            sorted({int(owner[u]) for u in graph.neighbors(v)} - {int(owner[v])})
            for v in range(graph.n)
        ]
        ex = _MoveLog(graph, DistributedConfig(num_ranks=k), part)
        ex.moved_log = []
        r = ex.run()

        want_bytes, want_messages = [], []
        want_rank = [0] * k
        for moved in ex.moved_log:
            sizes = {}
            for v in np.flatnonzero(moved).tolist():
                for d in foreign[v]:
                    pair = (int(owner[v]), d)
                    sizes[pair] = sizes.get(pair, 0) + 1
            for (sender, _), size in sizes.items():
                want_rank[sender] += size * HALO_BYTES_PER_UPDATE
            want_bytes.append(sum(sizes.values()) * HALO_BYTES_PER_UPDATE)
            want_messages.append(len(sizes))
        assert len(ex.moved_log) == r.num_iterations
        assert sum(want_messages) > 0
        assert r.stats.bytes_per_iteration == want_bytes
        assert r.stats.messages_per_iteration == want_messages
        assert r.rank_halo_bytes == want_rank
