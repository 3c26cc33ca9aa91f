"""Namespaced metrics registry: counters, gauges, bucket histograms.

One registry per observability session collects every runtime's
accounting under slash-namespaced names (``engine/iterations``,
``gpusim/cycles/compute``, ``comm/halo_bytes`` ...). Histograms are the
exactly-mergeable :class:`~repro.obs.live.BucketHistogram` on the shared
latency ladder. The *bridges* fold the repo's pre-existing
instrumentation — :class:`SimProfiler` cycle buckets, the engine's
per-phase seconds, NCCL byte counters — into the same snapshot, so the
numbers in a metrics export are exactly the numbers those subsystems
report (tested invariant: the bridge copies values, it never
re-measures).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Union

from repro.obs.live import BucketHistogram

Number = Union[int, float]


class Counter:
    """Monotonically accumulating value (ints or float seconds/bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def add(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {n})")
        self.value += n


class Gauge:
    """Last-written value (cumulative snapshots, sizes, configuration)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v


class MetricsRegistry:
    """Thread-safe named collection of counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, BucketHistogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_free(name, self._counters)
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_free(name, self._gauges)
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> BucketHistogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._check_free(name, self._histograms)
                h = self._histograms[name] = BucketHistogram()
            return h

    def _check_free(self, name: str, own: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric name {name!r} already registered as a different kind"
                )

    # convenience one-liners ------------------------------------------- #
    def inc(self, name: str, n: Number = 1) -> None:
        self.counter(name).add(n)

    def set(self, name: str, v: Number) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: Number) -> None:
        self.histogram(name).observe(v)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot: ``{"counters": {...}, "gauges": {...},
        "histograms": {name: {count, sum, ...}}}`` — JSON-serializable."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.snapshot() for k, h in sorted(self._histograms.items())
                },
            }

    # bridges from the pre-existing instrumentation -------------------- #
    def bridge_timers(self, timers: Dict[str, float], prefix: str = "time") -> None:
        """Accumulate one engine run's per-phase seconds
        (``EngineResult.timers``).

        Each engine run owns a fresh phase clock, so bridging *adds* —
        multi-round pipelines (Louvain levels) sum to the whole-run total.
        Values are copied verbatim, never re-measured.
        """
        for name, seconds in timers.items():
            self.counter(f"{prefix}/{name}_seconds").add(seconds)

    def bridge_sim_profiler(self, profiler, prefix: str = "gpusim") -> None:
        """Mirror a :class:`~repro.gpusim.profiler.SimProfiler` snapshot.

        Profilers accumulate for the lifetime of their device, so the
        bridge *sets gauges* to the cumulative values — re-bridging after
        every engine run converges on exactly ``profiler.snapshot()``.
        """
        for bucket, cycles in profiler.cycles.items():
            self.gauge(f"{prefix}/cycles/{bucket}").set(cycles)
        for name, n in profiler.counters.items():
            self.gauge(f"{prefix}/counters/{name}").set(n)
        self.gauge(f"{prefix}/total_cycles").set(profiler.total_cycles)

    def bridge_halo(self, stats, prefix: str = "comm") -> None:
        """Mirror a distributed run's cumulative :class:`HaloStats`."""
        self.gauge(f"{prefix}/halo_bytes").set(stats.bytes_sent)
        self.gauge(f"{prefix}/halo_messages").set(stats.messages)

    def bridge_result_cache(self, cache, prefix: str = "serve/cache") -> None:
        """Mirror a serving-layer :class:`~repro.serve.cache.ResultCache`.

        The cache keeps exact cumulative counters for its whole lifetime
        (like a device profiler), so the bridge *sets gauges* to the
        current ``cache.stats()`` values — re-bridging converges on
        exactly the cache's own numbers, never re-measures.
        """
        for name, value in cache.stats().items():
            self.gauge(f"{prefix}/{name}").set(value)
