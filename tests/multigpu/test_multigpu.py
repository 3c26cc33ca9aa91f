"""Tests for the multi-GPU runtime and synchronisation strategies."""

import numpy as np
import pytest

from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.graph.partition import partition_by_degree
from repro.gpusim.device import Device
from repro.gpusim.nccl import Communicator
from repro.multigpu import (
    MultiGpuConfig,
    SyncMode,
    choose_sync_mode,
    run_multigpu_phase1,
)
from repro.multigpu.runtime import MultiGpuExecutor
from repro.multigpu.sync import dense_sync_comm, sparse_sync_comm


def make_comm(k):
    return Communicator([Device(device_id=i) for i in range(k)])


def plan_for(n, movers, k=2, requested=SyncMode.ADAPTIVE):
    """The plan of an iteration whose rank ``r`` moved ``movers[r]``
    vertices and whose halo exchange is silent."""
    ids = [np.arange(m, dtype=np.int64) for m in movers]
    return choose_sync_mode(n, ids, ([0] * k, [0] * k), make_comm(k), requested)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("OR", scale=0.1)


class TestChooseSyncMode:
    def test_dense_when_everything_moves(self):
        plan = plan_for(1_000_000, [450_000, 450_000])
        assert plan.mode is SyncMode.DENSE
        assert plan.chosen_bytes == 1_000_000 * 8
        assert plan.chosen_s == plan.dense_s < plan.sparse_s

    def test_sparse_when_little_moves(self):
        plan = plan_for(1000, [3, 2])
        assert plan.mode is SyncMode.SPARSE
        # one int64 id and one int64 community per mover
        assert plan.chosen_bytes == 5 * 16
        assert plan.chosen_s == plan.sparse_s < plan.dense_s

    def test_threshold_crossover(self):
        """ADAPTIVE switches where the priced seconds cross: sparse
        strictly below dense, never on the byte counts alone."""
        n = 1_000_000

        def mode(moved):
            return plan_for(n, [moved, 0]).mode

        lo, hi = 0, n
        assert mode(lo) is SyncMode.SPARSE and mode(hi) is SyncMode.DENSE
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mode(mid) is SyncMode.SPARSE else (lo, mid)
        below, above = plan_for(n, [lo, 0]), plan_for(n, [hi, 0])
        assert below.sparse_s < below.dense_s <= above.sparse_s

    def test_sparse_priced_by_the_largest_chunk(self):
        """The ring AllGather is lockstep: one busy rank prices the
        gather, whatever the total."""
        skewed, even = plan_for(10**6, [1000, 0]), plan_for(10**6, [500, 500])
        assert skewed.sparse_bytes == even.sparse_bytes
        assert skewed.sparse_s > even.sparse_s

    def test_ties_go_dense(self):
        # one device: every price is 0 s
        plan = plan_for(1000, [5], k=1)
        assert plan.dense_s == plan.sparse_s == plan.halo_s == 0.0
        assert plan.mode is SyncMode.DENSE

    def test_forced_modes(self):
        # each forced against the cheaper price
        plan = plan_for(1000, [5, 0], requested=SyncMode.DENSE)
        assert plan.mode is SyncMode.DENSE and plan.chosen_s > plan.sparse_s
        plan = plan_for(10**6, [450_000, 450_000], requested=SyncMode.SPARSE)
        assert plan.mode is SyncMode.SPARSE and plan.chosen_s > plan.dense_s


class TestSyncPrimitives:
    def test_dense_reconstructs(self):
        comm = Communicator([Device(device_id=i) for i in range(2)])
        full = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        masks = [np.array([1, 1, 0, 0, 0], bool), np.array([0, 0, 1, 1, 1], bool)]
        merged = dense_sync_comm(full, masks, comm)
        np.testing.assert_array_equal(merged, full)

    def test_sparse_reconstructs(self):
        comm = Communicator([Device(device_id=i) for i in range(2)])
        arr = np.array([9, 1, 9, 3], dtype=np.int64)
        merged = sparse_sync_comm(arr, [np.array([0]), np.array([2])], comm)
        np.testing.assert_array_equal(merged, arr)


class TestRuntimeEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_identical_to_single_gpu_engine(self, graph, k):
        single = run_phase1(graph, Phase1Config(pruning="mg"))
        multi = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=k))
        np.testing.assert_array_equal(multi.communities, single.communities)
        assert multi.modularity == pytest.approx(single.modularity, abs=1e-12)

    @pytest.mark.parametrize("mode", [SyncMode.DENSE, SyncMode.SPARSE, SyncMode.ADAPTIVE])
    def test_sync_mode_does_not_change_result(self, graph, mode):
        ref = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2))
        got = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2, sync_mode=mode))
        np.testing.assert_array_equal(got.communities, ref.communities)

    def test_custom_partition(self, graph):
        part = partition_by_degree(graph, 3)
        r = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=3), partition=part)
        single = run_phase1(graph, Phase1Config(pruning="mg"))
        np.testing.assert_array_equal(r.communities, single.communities)

    def test_partition_count_mismatch(self, graph):
        part = partition_by_degree(graph, 3)
        with pytest.raises(ValueError):
            run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2), partition=part)


class TestScalingShape:
    def test_compute_scales_comm_does_not(self, graph):
        """Figure 10(b): computation drops with GPUs, communication stays
        roughly constant."""
        r1 = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=1))
        r8 = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=8))
        assert r8.compute_seconds() < r1.compute_seconds() / 4
        assert r8.comm_seconds() >= r1.comm_seconds()

    def test_speedup_sublinear(self, graph):
        r1 = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=1))
        r8 = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=8))
        speedup = r1.total_seconds() / r8.total_seconds()
        assert 1.0 < speedup < 8.0

    def test_adaptive_switches_modes(self, graph):
        """At 2 devices the prices cross mid-run: dense while most
        vertices move, sparse once few do."""
        r = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2))
        modes = "".join(h.sync_plan.mode.value[0] for h in r.history)
        assert modes == "ddd" + "s" * (len(modes) - 3)

    @pytest.mark.parametrize("k", [2, 4])
    def test_adaptive_picks_the_cheaper_price(self, graph, k):
        """Every iteration's choice is the argmin of the two prices."""
        r = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=k))
        for h in r.history:
            p = h.sync_plan
            assert p.chosen_s == min(p.dense_s, p.sparse_s)
            assert (p.mode is SyncMode.SPARSE) == (p.sparse_s < p.dense_s)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("abbr", ["LJ", "OR"])
    def test_adaptive_never_worse_than_fixed(self, abbr, k):
        """The trajectory does not depend on the sync mode, so taking the
        cheaper price in every iteration never loses to a fixed policy."""
        g = load_dataset(abbr, scale=0.1)

        def comm_time(mode):
            cfg = MultiGpuConfig(num_gpus=k, sync_mode=mode)
            return run_multigpu_phase1(g, cfg).comm_seconds()

        adaptive = comm_time(SyncMode.ADAPTIVE)
        assert adaptive <= min(comm_time(SyncMode.DENSE), comm_time(SyncMode.SPARSE))


class _MeteredExecutor(MultiGpuExecutor):
    """Records, per iteration, the plan next to what device 0 was
    charged and what the collective (or the halo exchange) moved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.iterations = []

    def _meter(self):
        dev = self.devices[0]
        comm = sum(c for b, c in dev.profiler.cycles.items() if b.startswith("comm"))
        moved = sum(dev.profiler.counters.get(k, 0) for k in ("dense_bytes", "sparse_bytes"))
        return dev.cycles_to_seconds(comm), moved + self.stats.bytes_sent

    def _sync(self, next_comm, moved):
        seconds, nbytes = self._meter()
        merged = super()._sync(next_comm, moved)
        after_s, after_bytes = self._meter()
        self.iterations.append((self._last_plan, after_s - seconds, after_bytes - nbytes))
        return merged


class TestPlanEqualsCharge:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("mode", list(SyncMode))
    def test_chosen_price_is_what_devices_pay(self, graph, mode, k):
        ex = _MeteredExecutor(graph, MultiGpuConfig(num_gpus=k, sync_mode=mode))
        ex.run()
        assert ex.iterations
        for plan, charged_s, moved_bytes in ex.iterations:
            if mode is not SyncMode.ADAPTIVE:
                assert plan.mode is mode
            assert charged_s == pytest.approx(plan.chosen_s, rel=1e-12)
            assert moved_bytes == plan.chosen_bytes
