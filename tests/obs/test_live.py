"""Live-telemetry primitives: histograms, windows, SLO policy/monitor."""

import pytest

from repro.obs.live import (
    BUCKET_BOUNDS_MS,
    BucketHistogram,
    SlidingWindowHistogram,
    SloMonitor,
    SloPolicy,
    WindowedCounter,
    parse_slo_spec,
)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestBucketHistogram:
    def test_ladder_is_log_spaced_and_shared(self):
        assert BUCKET_BOUNDS_MS[0] == pytest.approx(1e-3)
        assert BUCKET_BOUNDS_MS[-1] >= 6e5
        ratios = [
            b / a for a, b in zip(BUCKET_BOUNDS_MS, BUCKET_BOUNDS_MS[1:])
        ]
        assert all(r == pytest.approx(10 ** 0.125, rel=1e-9) for r in ratios)

    def test_observe_and_counts(self):
        h = BucketHistogram()
        for v in (0.5, 1.0, 10.0, 1e9):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(0.5 + 1.0 + 10.0 + 1e9)
        assert sum(h.counts) == 4
        assert h.counts[-1] == 1  # 1e9 ms overflows the ladder

    def test_quantile_upper_bound_semantics(self):
        h = BucketHistogram(bounds=(1.0, 10.0, 100.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(50.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 100.0
        assert BucketHistogram().quantile(0.99) == 0.0

    def test_merge_is_elementwise_and_exact(self):
        a, b = BucketHistogram(), BucketHistogram()
        merged_stream = BucketHistogram()
        for i, v in enumerate([0.1, 0.5, 3.0, 40.0, 900.0, 2.2]):
            (a if i % 2 else b).observe(v)
            merged_stream.observe(v)
        a.merge(b)
        assert a.counts == merged_stream.counts
        assert a.count == merged_stream.count
        assert a.total == pytest.approx(merged_stream.total)
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == merged_stream.quantile(q)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            BucketHistogram().merge(BucketHistogram(bounds=(1.0, 2.0)))

    def test_snapshot_keys(self):
        h = BucketHistogram()
        h.observe(5.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert snap["mean"] == pytest.approx(5.0)


class TestSlidingWindow:
    def test_window_expires_old_slots(self):
        clock = FakeClock()
        h = SlidingWindowHistogram(window_s=60, slots=6, clock=clock)
        h.observe(100.0)
        assert h.window().count == 1
        clock.t += 30
        h.observe(1.0)
        assert h.window().count == 2
        clock.t += 40  # first observation now outside the window
        assert h.window().count == 1
        clock.t += 120
        assert h.window().count == 0
        # the cumulative ladder never resets (Prometheus view)
        assert h.cumulative.count == 2

    def test_windowed_counter(self):
        clock = FakeClock()
        c = WindowedCounter(window_s=60, slots=6, clock=clock)
        c.add(5)
        clock.t += 30
        c.add(1)
        assert c.window_total() == 6
        assert c.rate_per_s() == pytest.approx(0.1)
        clock.t += 45
        assert c.window_total() == 1
        assert c.total == 6


class TestSloSpec:
    def test_parse_full_spec(self):
        policy = parse_slo_spec("p99_ms=250, error_rate=0.01,min_requests=5")
        assert policy.p99_ms == 250.0
        assert policy.error_rate == 0.01
        assert policy.min_requests == 5
        assert policy.enabled

    def test_rejects_unknown_key_and_junk(self):
        with pytest.raises(ValueError, match="unknown SLO key"):
            parse_slo_spec("p98_ms=250")
        with pytest.raises(ValueError, match="bad SLO value"):
            parse_slo_spec("p99_ms=fast")
        with pytest.raises(ValueError, match="no target"):
            parse_slo_spec("min_requests=5")
        with pytest.raises(ValueError):
            parse_slo_spec("error_rate=1.5")


class TestSloMonitor:
    def _monitor(self, policy, clock):
        latency = SlidingWindowHistogram(window_s=60, clock=clock)
        requests = WindowedCounter(window_s=60, clock=clock)
        errors = WindowedCounter(window_s=60, clock=clock)
        events = []
        monitor = SloMonitor(
            policy, latency, requests, errors,
            on_violation=events.append, clock=clock,
        )
        return monitor, latency, requests, errors, events

    def test_transition_fires_once(self):
        clock = FakeClock()
        policy = SloPolicy(p99_ms=10.0, window_s=60)
        monitor, latency, requests, _, events = self._monitor(policy, clock)
        requests.add()
        latency.observe(1.0)
        assert monitor.evaluate()["healthy"]
        assert events == []
        for _ in range(3):
            requests.add()
            latency.observe(500.0)
        status = monitor.evaluate()
        assert not status["healthy"]
        assert status["breaches"][0]["slo"] == "p99_ms"
        monitor.evaluate()  # still violating: no second event
        assert len(events) == 1
        assert events[0]["event"] == "slo_violation"
        assert monitor.violations == 1
        # recover (window rolls past the slow samples), then re-violate
        clock.t += 120
        assert monitor.evaluate()["healthy"]
        requests.add()
        latency.observe(500.0)
        monitor.evaluate()
        assert len(events) == 2

    def test_min_requests_gate(self):
        clock = FakeClock()
        policy = SloPolicy(p99_ms=1.0, min_requests=10, window_s=60)
        monitor, latency, requests, _, events = self._monitor(policy, clock)
        requests.add()
        latency.observe(1e6)
        assert monitor.evaluate()["healthy"]  # below min_requests
        assert events == []

    def test_error_rate_breach(self):
        clock = FakeClock()
        policy = SloPolicy(error_rate=0.1, window_s=60)
        monitor, _, requests, errors, events = self._monitor(policy, clock)
        for _ in range(10):
            requests.add()
        errors.add(5)
        status = monitor.evaluate()
        assert not status["healthy"]
        assert status["window_error_rate"] == pytest.approx(0.5)
        report = monitor.report()
        assert report["violations"] == 1
        assert report["policy"]["error_rate"] == 0.1
        assert report["last_event"] is not None
