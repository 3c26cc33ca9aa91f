"""Tests for the cycle-cost model and profiler."""

import pytest

from repro.gpusim.costmodel import CostModel, MemoryKind
from repro.gpusim.profiler import SimProfiler


class TestCostModel:
    def test_hierarchy_ordering(self):
        c = CostModel()
        assert c.access(MemoryKind.REGISTER) < c.access(MemoryKind.SHARED)
        assert c.access(MemoryKind.SHARED) < c.access(MemoryKind.GLOBAL)

    def test_coalescing_divides_global(self):
        c = CostModel()
        scattered = c.access(MemoryKind.GLOBAL, 32)
        coalesced = c.access(MemoryKind.GLOBAL, 32, coalesced=True)
        assert coalesced == pytest.approx(scattered / 32)

    def test_coalescing_rounds_up_transactions(self):
        c = CostModel()
        assert c.access(MemoryKind.GLOBAL, 33, coalesced=True) == pytest.approx(
            2 * c.global_cycles
        )

    def test_coalescing_ignored_for_shared(self):
        c = CostModel()
        assert c.access(MemoryKind.SHARED, 4, coalesced=True) == pytest.approx(
            c.access(MemoryKind.SHARED, 4)
        )

    def test_atomics_costlier_than_access(self):
        c = CostModel()
        assert c.atomic(MemoryKind.GLOBAL) > c.access(MemoryKind.GLOBAL)
        assert c.atomic(MemoryKind.SHARED) > c.access(MemoryKind.SHARED)

    def test_register_atomics_rejected(self):
        with pytest.raises(ValueError):
            CostModel().atomic(MemoryKind.REGISTER)


class TestProfiler:
    def test_charge_and_total(self):
        p = SimProfiler()
        p.charge("a", 10.0)
        p.charge("b", 5.0)
        p.charge("a", 1.0)
        assert p.cycles["a"] == 11.0
        assert p.total_cycles == 16.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimProfiler().charge("a", -1.0)

    def test_negative_count_rejected(self):
        p = SimProfiler()
        with pytest.raises(ValueError):
            p.count("hit", -1)
        assert p.counters.get("hit", 0) == 0  # nothing partially applied

    def test_counters_and_rate(self):
        p = SimProfiler()
        p.count("hit", 3)
        p.count("total", 4)
        assert p.rate("hit", "total") == pytest.approx(0.75)
        assert p.rate("hit", "missing") == 0.0

    def test_merge(self):
        a, b = SimProfiler(), SimProfiler()
        a.charge("x", 1.0)
        b.charge("x", 2.0)
        b.count("n", 5)
        a.merge(b)
        assert a.cycles["x"] == 3.0
        assert a.counters["n"] == 5

    def test_merge_self_rejected(self):
        """Merging a profiler into itself would silently double every
        bucket (and mutate the dict being iterated)."""
        p = SimProfiler()
        p.charge("x", 1.0)
        with pytest.raises(ValueError, match="itself"):
            p.merge(p)
        assert p.cycles["x"] == 1.0  # untouched after the rejected call

    def test_snapshot_merge_round_trip(self):
        """Splitting work across profilers and merging reproduces the
        single-profiler snapshot exactly."""
        whole = SimProfiler()
        part_a, part_b = SimProfiler(), SimProfiler()
        for p in (whole, part_a):
            p.charge("compute", 12.5)
            p.count("probes", 7)
        for p in (whole, part_b):
            p.charge("compute", 2.5)
            p.charge("sync", 4.0)
            p.count("probes", 3)
            p.count("messages", 2)
        part_a.merge(part_b)
        assert part_a.snapshot() == whole.snapshot()
        # merging an empty profiler is the identity
        before = part_a.snapshot()
        part_a.merge(SimProfiler())
        assert part_a.snapshot() == before

    def test_reset_and_snapshot(self):
        p = SimProfiler()
        p.charge("x", 1.0)
        snap = p.snapshot()
        assert snap["total_cycles"] == 1.0
        p.reset()
        assert p.total_cycles == 0.0
        assert snap["total_cycles"] == 1.0  # snapshot unaffected


class TestBankConflicts:
    def test_no_accesses(self):
        from repro.gpusim.costmodel import shared_bank_conflict_factor

        assert shared_bank_conflict_factor([]) == 0

    def test_conflict_free_stride_one(self):
        from repro.gpusim.costmodel import shared_bank_conflict_factor

        # 32 consecutive addresses hit 32 distinct banks
        assert shared_bank_conflict_factor(list(range(32))) == 1

    def test_same_address_broadcasts(self):
        from repro.gpusim.costmodel import shared_bank_conflict_factor

        assert shared_bank_conflict_factor([5] * 32) == 1

    def test_stride_32_worst_case(self):
        from repro.gpusim.costmodel import shared_bank_conflict_factor

        # stride equal to the bank count: every access in bank 0
        addrs = [i * 32 for i in range(8)]
        assert shared_bank_conflict_factor(addrs) == 8

    def test_mixed(self):
        from repro.gpusim.costmodel import shared_bank_conflict_factor

        # banks: 0,0,1 -> factor 2
        assert shared_bank_conflict_factor([0, 32, 1]) == 2

    def test_hash_kernel_charges_conflicts(self):
        import numpy as np

        from repro.core.kernels.hash import HashKernel
        from repro.core.state import CommunityState
        from repro.graph.generators import load_dataset
        from repro.gpusim.device import Device

        g = load_dataset("OR", 0.03)
        dev = Device()
        HashKernel(dev, "hierarchical", shared_buckets=64)(
            CommunityState.singletons(g), np.arange(g.n)
        )
        # with 64 buckets over 32 banks and many communities per vertex,
        # some warp step must conflict
        assert dev.profiler.counters.get("bank_conflict_steps", 0) > 0
        assert dev.profiler.cycles.get("bank_conflicts", 0.0) > 0.0
