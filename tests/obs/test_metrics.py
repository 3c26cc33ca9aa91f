"""Metrics registry: primitives, determinism, and the bridge exactness
invariant — bridged values equal the source subsystem's own report."""

import pytest

from repro.gpusim.profiler import SimProfiler
from repro.obs import BucketHistogram, Counter, Gauge, MetricsRegistry


class TestPrimitives:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter("bytes")
        c.add(5)
        c.add(2.5)
        assert c.value == 7.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.add(-1)

    def test_gauge_keeps_last_value(self):
        g = Gauge("cycles")
        g.set(10)
        g.set(3)
        assert g.value == 3

    def test_histogram_exact_stats(self):
        h = MetricsRegistry().histogram("x")
        assert isinstance(h, BucketHistogram)
        for v in [1, 2, 3, 4, 5]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 15.0
        assert snap["mean"] == 3.0
        # the p50 is the upper bound of the ladder bucket holding 3.0
        i = h.bounds.index(snap["p50"])
        assert h.bounds[i - 1] < 3.0 <= h.bounds[i]

    def test_histogram_empty_snapshot(self):
        assert MetricsRegistry().histogram("x").snapshot()["count"] == 0

    def test_histogram_percentile_bounds(self):
        h = MetricsRegistry().histogram("x")
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(1.01)


class TestRegistry:
    def test_namespaced_snapshot(self):
        m = MetricsRegistry()
        m.inc("engine/iterations", 3)
        m.set("gpusim/total_cycles", 1234.5)
        m.observe("serve/latency_ms", 10)
        snap = m.snapshot()
        assert snap["counters"] == {"engine/iterations": 3}
        assert snap["gauges"] == {"gpusim/total_cycles": 1234.5}
        assert snap["histograms"]["serve/latency_ms"]["count"] == 1

    def test_same_name_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")

    def test_cross_kind_name_collision_rejected(self):
        m = MetricsRegistry()
        m.inc("engine/iterations")
        with pytest.raises(ValueError, match="different kind"):
            m.set("engine/iterations", 1)

    def test_snapshot_keys_sorted(self):
        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        assert list(m.snapshot()["counters"]) == ["a", "b"]


class TestBridges:
    def test_bridge_timers_copies_totals_exactly(self):
        timers = {"decide_and_move": 0.125, "pruning": 0.0625}
        m = MetricsRegistry()
        m.bridge_timers(timers)
        snap = m.snapshot()["counters"]
        # the exactness invariant: values are copied, never re-measured
        assert snap == {
            "time/decide_and_move_seconds": 0.125,
            "time/pruning_seconds": 0.0625,
        }

    def test_bridge_timers_accumulates_across_runs(self):
        # each engine run owns a fresh phase clock; bridging twice sums
        t1, t2 = {"aggregate": 0.1}, {"aggregate": 0.2}
        m = MetricsRegistry()
        m.bridge_timers(t1)
        m.bridge_timers(t2)
        expected = t1["aggregate"] + t2["aggregate"]
        assert m.snapshot()["counters"]["time/aggregate_seconds"] == expected

    def test_bridge_sim_profiler_mirrors_snapshot(self):
        prof = SimProfiler()
        prof.charge("compute", 100.0)
        prof.charge("hashtable", 40.0)
        prof.count("bank_conflict_steps", 7)
        m = MetricsRegistry()
        m.bridge_sim_profiler(prof)
        gauges = m.snapshot()["gauges"]
        snap = prof.snapshot()
        for bucket, cycles in snap["cycles"].items():
            assert gauges[f"gpusim/cycles/{bucket}"] == cycles
        for name, n in snap["counters"].items():
            assert gauges[f"gpusim/counters/{name}"] == n
        assert gauges["gpusim/total_cycles"] == prof.total_cycles

    def test_bridge_sim_profiler_rebridge_converges(self):
        # profilers are cumulative for the device lifetime: bridging again
        # after more charges must converge on the new snapshot, not double
        prof = SimProfiler()
        prof.charge("compute", 10.0)
        m = MetricsRegistry()
        m.bridge_sim_profiler(prof)
        prof.charge("compute", 5.0)
        m.bridge_sim_profiler(prof)
        assert m.snapshot()["gauges"]["gpusim/cycles/compute"] == 15.0

    def test_bridge_halo(self):
        class Stats:
            bytes_sent = 4096
            messages = 12

        m = MetricsRegistry()
        m.bridge_halo(Stats())
        gauges = m.snapshot()["gauges"]
        assert gauges["comm/halo_bytes"] == 4096
        assert gauges["comm/halo_messages"] == 12
