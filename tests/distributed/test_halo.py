"""Tests for the Vite-style halo exchange (the multi-GPU runtime's
``SyncMode.HALO``) and its rank structures."""

import numpy as np
import pytest

from repro.core.phase1 import Phase1Config, run_phase1
from repro.errors import PartitionError
from repro.gpusim.device import DeviceConfig
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.graph.partition import (
    VertexPartition,
    partition_by_degree,
    partition_contiguous,
)
from repro.multigpu import (
    MultiGpuConfig,
    MultiGpuExecutor,
    SyncMode,
    run_multigpu_phase1,
)
from repro.multigpu.halo import HALO_BYTES_PER_UPDATE, build_rank_views


def halo_config(k, **kw):
    return MultiGpuConfig(num_gpus=k, sync_mode=SyncMode.HALO, **kw)


def run_halo(graph, k, partition=None, **kw):
    return run_multigpu_phase1(graph, halo_config(k, **kw), partition)


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
        dist = run_halo(graph, k)
        np.testing.assert_array_equal(dist.communities, single.communities)
        assert dist.modularity == pytest.approx(single.modularity, abs=1e-12)

    def test_identical_under_degree_partition(self, graph):
        single = run_phase1(graph, Phase1Config(pruning="mg"))
        dist = run_halo(graph, 3, partition_by_degree(graph, 3))
        np.testing.assert_array_equal(dist.communities, single.communities)

    def test_identical_without_pruning(self, graph):
        single = run_phase1(graph, Phase1Config(pruning="none"))
        dist = run_halo(graph, 2, pruning="none")
        np.testing.assert_array_equal(dist.communities, single.communities)

    def test_structure_recovered(self):
        g = ring_of_cliques(8, 5)
        dist = run_halo(g, 3)
        assert len(np.unique(dist.communities)) == 8

    def test_rank_count_mismatch(self, graph):
        part = partition_contiguous(graph, 3)
        with pytest.raises(ValueError):
            run_halo(graph, 2, part)


class TestHaloVolume:
    def test_single_rank_silent(self, graph):
        r = run_halo(graph, 1)
        assert r.stats.bytes_sent == 0
        assert r.stats.messages == 0

    def test_halo_cheaper_than_broadcast(self, graph):
        """The point of halo exchange: volume tracks boundary movement,
        not n * ranks per iteration."""
        r = run_halo(graph, 4)
        assert 0 < r.stats.bytes_sent < r.broadcast_bytes_equivalent

    def test_volume_decays_with_convergence(self, graph):
        """Late iterations move few vertices -> tiny halos (the same
        observation that motivates the paper's sparse sync)."""
        r = run_halo(graph, 4)
        series = r.stats.bytes_per_iteration
        assert len(series) >= 4
        early = sum(series[:2])
        late = sum(series[-2:])
        assert late < early

    def test_comm_seconds_match_point_to_point_formula(self):
        """Halo mode charges every device, per iteration, the slowest
        rank's ``messages * latency + bytes / bandwidth`` (bucket
        ``comm_halo``), rebuilt here from the graph on 3 devices; the
        collective modes charge no ``comm_halo`` cycles at all."""
        g = ring_of_cliques(6, 4)
        part = partition_contiguous(g, 3)
        ex = _MoveLog(g, halo_config(3), part)
        r = ex.run()
        cfg = DeviceConfig()
        want = 0.0
        for rank_bytes, rank_messages in _brute_force_volume(g, part, ex.moved_log):
            want += max(
                m * cfg.interconnect_latency + b / cfg.interconnect_bandwidth
                for b, m in zip(rank_bytes, rank_messages)
            )
        assert r.stats.messages > 0
        assert r.comm_seconds() == pytest.approx(want, rel=1e-12)
        halo = [d.profiler.cycles["comm_halo"] for d in r.devices]
        assert halo[0] > 0 and halo == [halo[0]] * 3
        for mode in (SyncMode.DENSE, SyncMode.SPARSE, SyncMode.ADAPTIVE):
            other = run_multigpu_phase1(g, MultiGpuConfig(num_gpus=3, sync_mode=mode))
            assert all("comm_halo" not in d.profiler.cycles for d in other.devices)
            assert other.comm_seconds() > 0.0


class _MoveLog(MultiGpuExecutor):
    """Records each iteration's committed ``moved`` mask."""

    def __init__(self, *args):
        super().__init__(*args)
        self.moved_log = []

    def _sync(self, next_comm, moved):
        self.moved_log.append(moved.copy())
        return super()._sync(next_comm, moved)


def _brute_force_volume(graph, part, moved_log):
    """Each iteration's per-rank halo bytes and messages, rebuilt from the
    graph alone: rank r sends rank d one message holding every mover
    owned by r with a neighbour owned by d."""
    k = part.num_parts
    owner = part.owner
    foreign = [
        sorted({int(owner[u]) for u in graph.neighbors(v)} - {int(owner[v])})
        for v in range(graph.n)
    ]
    for moved in moved_log:
        sizes = {}
        for v in np.flatnonzero(moved).tolist():
            for d in foreign[v]:
                pair = (int(owner[v]), d)
                sizes[pair] = sizes.get(pair, 0) + 1
        rank_bytes, rank_messages = [0] * k, [0] * k
        for (sender, _), size in sizes.items():
            rank_bytes[sender] += size * HALO_BYTES_PER_UPDATE
            rank_messages[sender] += 1
        yield rank_bytes, rank_messages


class TestHaloVolumeReference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_match_brute_force(self, graph, k):
        """Rebuild every iteration's payloads from the graph alone — the
        movers owned by r with a neighbour owned by d — and check the
        runtime's bytes, messages and per-rank bytes against them."""
        part = partition_contiguous(graph, k)
        ex = _MoveLog(graph, halo_config(k), part)
        r = ex.run()

        want_bytes, want_messages = [], []
        want_rank = [0] * k
        for rank_bytes, rank_messages in _brute_force_volume(
            graph, part, ex.moved_log
        ):
            want_rank = [a + b for a, b in zip(want_rank, rank_bytes)]
            want_bytes.append(sum(rank_bytes))
            want_messages.append(sum(rank_messages))
        assert len(ex.moved_log) == r.num_iterations
        assert sum(want_messages) > 0
        assert r.stats.bytes_per_iteration == want_bytes
        assert r.stats.messages_per_iteration == want_messages
        assert r.rank_halo_bytes == want_rank
        # the plans and the traces carry the same per-iteration volume
        assert [h.sync_plan.halo_bytes for h in r.history] == want_bytes
        assert [h.comm_messages for h in r.history] == want_messages
