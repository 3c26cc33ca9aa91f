"""Live-telemetry primitives: histograms, windows, SLO policy/monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: latencies around a p99 target at BUCKET_BOUNDS_MS[40] (about 100 ms):
#: bucket edges exactly, values just either side of them, and far off
_LATENCIES = st.one_of(
    st.sampled_from(BUCKET_BOUNDS_MS[36:44]),
    st.sampled_from([b * f for b in BUCKET_BOUNDS_MS[37:43]
                     for f in (0.999999, 1.000001)]),
    st.floats(1e-4, 1e7),
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["request", "request", "request", "health"]),
        _LATENCIES,
        st.booleans(),  # a 5xx reply
        # seconds before the request ends: often none, sometimes across
        # a slot (1 s) or the whole window (6 s)
        st.sampled_from([0.0, 0.0, 0.01, 0.4, 1.0, 2.5, 7.0]),
    ),
    max_size=80,
)


class TestSloSkipping:
    """``after_request`` evaluates only when a request can change the
    verdict; the violation events and counts must be those of a monitor
    that evaluates after every request."""

    @staticmethod
    def _session(policy, clock):
        latency = SlidingWindowHistogram(window_s=6, clock=clock)
        requests = WindowedCounter(window_s=6, clock=clock)
        errors = WindowedCounter(window_s=6, clock=clock)
        events = []
        monitor = SloMonitor(policy, latency, requests, errors,
                             on_violation=events.append, clock=clock)
        return monitor, latency, requests, errors, events

    @given(
        st.sampled_from([None, BUCKET_BOUNDS_MS[40],
                         BUCKET_BOUNDS_MS[40] * 1.1, 1e-4, 1e7]),
        st.sampled_from([None, 0.0, 0.2]),
        st.sampled_from([1, 3]),
        _STEPS,
    )
    @settings(max_examples=200, deadline=None)
    def test_same_events_as_evaluating_every_request(
        self, p99_ms, error_rate, min_requests, steps
    ):
        if p99_ms is None and error_rate is None:
            error_rate = 0.2
        policy = SloPolicy(p99_ms=p99_ms, error_rate=error_rate,
                           window_s=6, min_requests=min_requests)
        clock = FakeClock()
        every = self._session(policy, clock)
        skipping = self._session(policy, clock)
        for kind, latency_ms, error, dt in steps:
            if kind == "health":
                # a /healthz read evaluates either way
                clock.t += dt
                assert every[0].evaluate() == skipping[0].evaluate()
                continue
            # the server counts a request when it arrives and records its
            # latency and any 5xx when it ends
            for _, _, requests, _, _ in (every, skipping):
                requests.add(1)
            clock.t += dt
            for _, latency, _, errors, _ in (every, skipping):
                latency.observe(latency_ms)
                if error:
                    errors.add(1)
            every[0].evaluate()
            skipping[0].after_request(latency_ms, error)
            assert skipping[0].healthy == every[0].healthy
            assert skipping[0].violations == every[0].violations
            assert skipping[4] == every[4]
        assert skipping[0].report() == every[0].report()

    def test_skips_a_fast_success_in_a_healthy_window(self):
        clock = FakeClock()
        policy = SloPolicy(p99_ms=10.0, window_s=6)
        monitor, latency, requests, _, _ = self._session(policy, clock)
        calls = []
        evaluate = monitor.evaluate
        monitor.evaluate = lambda: calls.append(1) or evaluate()
        for latency_ms, error, dt in [(1.0, False, 0.0),   # first: settles
                                      (1.0, False, 0.0),   # skipped
                                      (9.9, False, 0.0),   # p99 bucket: runs
                                      (1.0, True, 0.0),    # a 5xx: runs
                                      (1.0, False, 1.0)]:  # new slot: runs
            clock.t += dt
            requests.add(1)
            latency.observe(latency_ms)
            monitor.after_request(latency_ms, error)
        assert len(calls) == 4
