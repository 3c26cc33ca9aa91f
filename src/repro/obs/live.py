"""Live telemetry primitives: mergeable histograms, windows, SLOs.

The PR-4 observability layer materializes *after* a run: traces and
manifests are written when the engine finishes. A serving process never
finishes, so its telemetry has to be readable while the process runs —
and aggregable across processes, because the serve stack spans three
tiers (server, subprocess workers, rank processes).

Two properties drive the design here:

* **exact merging** — :class:`BucketHistogram` uses one fixed,
  log-spaced bucket ladder shared by every histogram. Merging two
  histograms is element-wise addition of bucket counts, so a quantile
  computed from a merged histogram equals the quantile of the merged
  stream (to bucket resolution): a window's p99 is exactly what one
  histogram over the window's samples would report. A reservoir sample
  cannot do this — two reservoirs do not merge into the reservoir of
  the union — so this is the only histogram type; the metrics registry
  hands out the same class. Histograms never cross a process boundary:
  the server times every request itself, and workers ship per-run
  counters and spans with each reply (``repro.serve.pool``).
* **"right now", not "since boot"** — :class:`SlidingWindowHistogram`
  keeps the ladder per time slot and expires whole slots, so the p99 the
  SLO monitor evaluates covers the last window, not the whole uptime.
  The cumulative ladder is kept too: Prometheus histogram samples must
  be monotone counters (scrapers apply ``rate()`` themselves).

:class:`SloMonitor` evaluates a parsed ``p99_ms=...,error_rate=...``
policy (:func:`parse_slo_spec`) against the windows and reports status
transitions — the thing ``/healthz`` flips on and the structured
``slo_violation`` event fires from.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "BUCKET_BOUNDS_MS",
    "BucketHistogram",
    "SlidingWindowHistogram",
    "WindowedCounter",
    "SloPolicy",
    "SloMonitor",
    "parse_slo_spec",
]


def _log_bounds(lo: float, hi: float, per_decade: int) -> List[float]:
    """Upper bucket bounds ``lo * 10^(i/per_decade)`` up through ``hi``."""
    bounds = []
    i = 0
    while True:
        b = lo * 10.0 ** (i / per_decade)
        bounds.append(b)
        if b >= hi:
            return bounds
        i += 1


#: the shared bucket ladder for latency-in-milliseconds histograms:
#: 1 µs .. 10 min in 8 log-spaced buckets per decade (ratio ~1.33x —
#: a quantile read off the ladder is within one bucket, <= 33%, of the
#: exact stream quantile). Every histogram uses this exact ladder, which
#: is what makes percentile merging exact.
BUCKET_BOUNDS_MS: tuple = tuple(_log_bounds(1e-3, 6e5, 8))


class BucketHistogram:
    """Fixed-bound bucket histogram; merges exactly with any other on the
    same ladder.

    ``bounds[i]`` is the *upper* bound of bucket ``i`` (Prometheus
    ``le`` semantics); one overflow bucket catches the rest. Counts,
    ``sum`` and ``count`` are exact; :meth:`quantile` returns the upper
    bound of the bucket the target rank falls in — a deterministic,
    merge-stable estimate.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = BUCKET_BOUNDS_MS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0

    def _index(self, v: float) -> int:
        # binary search for the first bound >= v
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def observe(self, v: float) -> None:
        v = float(v)
        self.counts[self._index(v)] += 1
        self.count += 1
        self.total += v

    def merge(self, other: "BucketHistogram") -> None:
        """Element-wise addition — the exact merge of the two streams."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank.

        ``q`` in [0, 1]; 0.0 when empty. Overflow samples report the
        last finite bound (the ladder top is far above any sane
        latency, so this only under-reports pathological outliers).
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank and c:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class SlidingWindowHistogram:
    """Bucket histogram over the trailing ``window_s`` seconds.

    The window is ``slots`` sub-intervals; an observation lands in the
    current slot and whole slots expire as time advances — O(slots)
    worst case per observe, O(1) amortized. :meth:`window` merges the
    live slots into one :class:`BucketHistogram`; :attr:`cumulative`
    never resets (the Prometheus-exposition view).
    """

    def __init__(
        self,
        window_s: float = 60.0,
        slots: int = 6,
        bounds: Sequence[float] = BUCKET_BOUNDS_MS,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_s <= 0 or slots < 1:
            raise ValueError("window_s must be > 0 and slots >= 1")
        self.window_s = float(window_s)
        self.slots = slots
        self.bounds = tuple(bounds)
        self._slot_s = self.window_s / slots
        self._clock = clock
        self._ring: List[BucketHistogram] = [
            BucketHistogram(self.bounds) for _ in range(slots)
        ]
        self._slot_epoch: List[int] = [-1] * slots
        self.cumulative = BucketHistogram(self.bounds)

    def _slot_for(self, now: float) -> BucketHistogram:
        epoch = int(now / self._slot_s)
        idx = epoch % self.slots
        if self._slot_epoch[idx] != epoch:
            self._ring[idx] = BucketHistogram(self.bounds)
            self._slot_epoch[idx] = epoch
        return self._ring[idx]

    def observe(self, v: float) -> None:
        self._slot_for(self._clock()).observe(v)
        self.cumulative.observe(v)

    def epoch(self) -> int:
        """The current slot's number: the window loses a slot only when
        this advances."""
        return int(self._clock() / self._slot_s)

    def window(self) -> BucketHistogram:
        """The merged histogram of the non-expired slots."""
        now_epoch = self.epoch()
        merged = BucketHistogram(self.bounds)
        for idx in range(self.slots):
            epoch = self._slot_epoch[idx]
            if epoch >= 0 and now_epoch - epoch < self.slots:
                merged.merge(self._ring[idx])
        return merged

    def snapshot(self) -> Dict[str, Any]:
        return {
            "window": self.window().snapshot(),
            "cumulative": self.cumulative.snapshot(),
        }


class WindowedCounter:
    """Counter over the trailing window (same slot scheme as above)."""

    def __init__(
        self,
        window_s: float = 60.0,
        slots: int = 6,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.window_s = float(window_s)
        self.slots = slots
        self._slot_s = self.window_s / slots
        self._clock = clock
        self._ring = [0.0] * slots
        self._slot_epoch = [-1] * slots
        self.total = 0.0

    def add(self, n: float = 1.0) -> None:
        now = self._clock()
        epoch = int(now / self._slot_s)
        idx = epoch % self.slots
        if self._slot_epoch[idx] != epoch:
            self._ring[idx] = 0.0
            self._slot_epoch[idx] = epoch
        self._ring[idx] += n
        self.total += n

    def window_total(self) -> float:
        now_epoch = int(self._clock() / self._slot_s)
        return sum(
            self._ring[idx]
            for idx in range(self.slots)
            if self._slot_epoch[idx] >= 0
            and now_epoch - self._slot_epoch[idx] < self.slots
        )

    def rate_per_s(self) -> float:
        return self.window_total() / self.window_s


# --------------------------------------------------------------------- #
# SLO policy + monitor
# --------------------------------------------------------------------- #
@dataclass
class SloPolicy:
    """The targets one serving session promises (None = not tracked)."""

    #: rolling-window p99 request latency ceiling, milliseconds
    p99_ms: Optional[float] = None
    #: rolling-window error-rate ceiling in [0, 1] (errors / requests)
    error_rate: Optional[float] = None
    #: evaluation window in seconds
    window_s: float = 60.0
    #: below this many requests in the window the monitor stays/returns
    #: healthy — an empty window has no p99 to violate
    min_requests: int = 1

    @property
    def enabled(self) -> bool:
        return self.p99_ms is not None or self.error_rate is not None


def parse_slo_spec(spec: str, window_s: float = 60.0) -> SloPolicy:
    """Parse the CLI form ``p99_ms=250,error_rate=0.01``.

    Keys: ``p99_ms`` (milliseconds), ``error_rate`` (fraction in
    [0, 1]), ``min_requests``. Unknown keys are an error — a typoed SLO
    that silently never fires is worse than no SLO.
    """
    policy = SloPolicy(window_s=window_s)
    for part in filter(None, (p.strip() for p in spec.split(","))):
        if "=" not in part:
            raise ValueError(f"bad SLO term {part!r}; expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()

        def number(cast):
            try:
                return cast(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad SLO value for {key!r}: {value!r}"
                ) from exc

        if key == "p99_ms":
            policy.p99_ms = number(float)
        elif key == "error_rate":
            policy.error_rate = number(float)
            if not (0.0 <= policy.error_rate <= 1.0):
                raise ValueError("error_rate must be in [0, 1]")
        elif key == "min_requests":
            policy.min_requests = number(int)
        else:
            raise ValueError(
                f"unknown SLO key {key!r}; expected p99_ms, "
                "error_rate, or min_requests"
            )
    if not policy.enabled:
        raise ValueError(f"SLO spec {spec!r} sets no target")
    return policy


class SloMonitor:
    """Rolling-window SLO evaluator with transition events.

    :meth:`evaluate` recomputes the window stats and returns the current
    status dict; when the session transitions healthy -> violating, the
    ``on_violation`` sink fires once with the structured event (the
    ``slo_violation`` log line / metric bump), and again only after the
    session has recovered in between. ``violations`` counts transitions,
    not violating evaluations.

    A server calls :meth:`after_request` once per request, which
    evaluates only when that request can change the verdict; the three
    windows share one clock and slot width (as the server builds them).
    """

    def __init__(
        self,
        policy: SloPolicy,
        latency: SlidingWindowHistogram,
        requests: WindowedCounter,
        errors: WindowedCounter,
        on_violation: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.policy = policy
        self.latency = latency
        self.requests = requests
        self.errors = errors
        self.on_violation = on_violation
        self._clock = clock
        self.healthy = True
        self.violations = 0
        self.last_event: Optional[Dict[str, Any]] = None
        # a latency below the lower edge of the bucket holding p99_ms
        # lands in a lower bucket, so it cannot lift the window's p99
        # (read off the bucket bounds) above p99_ms
        self._latency_edge = math.inf
        if policy.p99_ms is not None:
            i = bisect.bisect_left(latency.bounds, policy.p99_ms)
            self._latency_edge = latency.bounds[i - 1] if i else -math.inf
        #: the slot number of the last evaluation when it found the
        #: window healthy with at least ``min_requests`` requests, else None
        self._settled_epoch: Optional[int] = None

    def after_request(self, latency_ms: float, error: bool) -> None:
        """Evaluate after one request the windows have recorded, unless it
        cannot change the verdict.

        It can only when it failed (``error``: a 5xx), when the window
        lost a slot since the last evaluation, while the monitor is
        unhealthy or its window is below ``min_requests``, or when its
        latency reaches the lower edge of the bucket that holds
        ``p99_ms``. Otherwise the last evaluation found the window
        healthy and the request only added a success and a latency in a
        lower bucket: the error rate cannot rise and the p99 bucket
        cannot pass ``p99_ms``, so :meth:`evaluate` would return the same
        verdict and fire nothing.
        """
        if (error or latency_ms >= self._latency_edge
                or self._settled_epoch != self.latency.epoch()):
            self.evaluate()

    def evaluate(self) -> Dict[str, Any]:
        policy = self.policy
        # read before the windows: a slot lost meanwhile makes the next
        # after_request evaluate
        epoch = self.latency.epoch()
        window = self.latency.window()
        n_requests = self.requests.window_total()
        n_errors = self.errors.window_total()
        p99 = window.quantile(0.99)
        error_rate = n_errors / n_requests if n_requests else 0.0
        breaches: List[Dict[str, Any]] = []
        if n_requests >= policy.min_requests:
            if policy.p99_ms is not None and p99 > policy.p99_ms:
                breaches.append(
                    {"slo": "p99_ms", "target": policy.p99_ms, "actual": p99}
                )
            if policy.error_rate is not None and error_rate > policy.error_rate:
                breaches.append(
                    {"slo": "error_rate", "target": policy.error_rate,
                     "actual": round(error_rate, 6)}
                )
        status = {
            "healthy": not breaches,
            "window_s": policy.window_s,
            "window_requests": int(n_requests),
            "window_errors": int(n_errors),
            "window_p99_ms": p99,
            "window_error_rate": round(error_rate, 6),
            "breaches": breaches,
            "violations": self.violations,
        }
        if breaches and self.healthy:
            self.violations += 1
            status["violations"] = self.violations
            event = {
                "event": "slo_violation",
                "unix_time": self._clock(),
                **{k: status[k] for k in (
                    "window_s", "window_requests", "window_errors",
                    "window_p99_ms", "window_error_rate", "breaches",
                )},
            }
            self.last_event = event
            if self.on_violation is not None:
                self.on_violation(event)
        self.healthy = not breaches
        settled = self.healthy and n_requests >= policy.min_requests
        self._settled_epoch = epoch if settled else None
        return status

    def report(self) -> Dict[str, Any]:
        """The drain-manifest summary of the session's SLO history."""
        status = self.evaluate()
        return {
            "policy": {
                "p99_ms": self.policy.p99_ms,
                "error_rate": self.policy.error_rate,
                "window_s": self.policy.window_s,
            },
            "healthy": status["healthy"],
            "violations": self.violations,
            "last_event": self.last_event,
        }
