"""The active observability session and its zero-cost accessors.

A session bundles one :class:`~repro.obs.tracer.Tracer`, one
:class:`~repro.obs.metrics.MetricsRegistry`, and (optionally) the output
paths for the trace / metrics-JSONL artifacts. Instrumented code never
holds a session: it calls the module-level accessors —

* :func:`span` / :func:`tracer` — the active tracer, or the shared
  :data:`~repro.obs.tracer.NULL_TRACER` when observability is off;
* :func:`inc` / :func:`observe` — metric updates that no-op when off;
* :func:`current` — the session itself for the few places that attach
  richer payloads (the engine's per-iteration records, result bridging).

Activation is a context manager (:func:`session`) so instrumentation is
strictly opt-in; the default state is *off* and costs one global read and
branch per call site. Sessions nest (innermost wins) and are visible
across threads — the tracer and registry are thread-safe.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.io import MetricsWriter
from repro.obs.metrics import MetricsRegistry, Number
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer


class ObsSession:
    """One observability scope: tracer + metrics + export destinations."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        process_name: str = "repro",
    ):
        self.tracer = Tracer(process_name=process_name)
        self.metrics = MetricsRegistry()
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self._writer = MetricsWriter(metrics_path) if metrics_path else None
        #: free-form tags merged into every iteration record (the Louvain
        #: driver sets ``level`` here so the JSONL stream is level-indexed)
        self.context: Dict[str, Any] = {}
        self._closed = False
        # pre-resolved instruments for the per-iteration fast path (skips
        # the registry's locked name lookup on every engine iteration)
        m = self.metrics
        self._c_iterations = m.counter("engine/iterations")
        self._c_moved = m.counter("engine/moved_total")
        self._c_active_edges = m.counter("engine/active_edges_total")

    # ------------------------------------------------------------------ #
    # hooks called by the engine
    # ------------------------------------------------------------------ #
    def record_iteration(self, trace, runtime: str) -> None:
        """Fold one :class:`IterationTrace` into the metrics + JSONL stream."""
        m = self.metrics
        self._c_iterations.add(1)
        self._c_moved.add(trace.num_moved)
        self._c_active_edges.add(trace.active_edges)
        if trace.comm_bytes:
            m.inc("comm/bytes_total", trace.comm_bytes)
        if trace.comm_messages:
            m.inc("comm/messages_total", trace.comm_messages)
        if trace.sim_cycles:
            m.inc("gpusim/iteration_cycles_total", trace.sim_cycles)
        if trace.kernel_backend is not None:
            m.inc(f"kernel/backend/{trace.kernel_backend}")
        plan = trace.sync_plan
        if plan is not None:
            m.inc(f"sync/{plan.mode.value}_iterations")

        if self._writer is not None:
            record = dataclasses.asdict(trace)
            record["sync_plan"] = None if plan is None else {
                "mode": str(plan.mode.value),
                "dense_bytes": plan.dense_bytes,
                "sparse_bytes": plan.sparse_bytes,
                "halo_bytes": plan.halo_bytes,
            }
            record["kind"] = "iteration"
            record["runtime"] = runtime
            record.update(self.context)
            self._writer.write(record)

    def record_engine_result(self, result, executor) -> None:
        """Bridge one finished engine run's accounting into the registry.

        Duck-typed over the executor: simulated-device profilers come from
        an optional ``profilers()`` method, halo-exchange accounting from
        an optional ``stats`` attribute.
        """
        self.metrics.bridge_timers(result.timers)
        profilers = getattr(executor, "profilers", None)
        if profilers is not None:
            from repro.gpusim.profiler import SimProfiler

            merged = SimProfiler()
            named = profilers()
            for name, prof in named.items():
                merged.merge(prof)
                if len(named) > 1:
                    self.metrics.bridge_sim_profiler(prof, prefix=f"gpusim/{name}")
            if named:
                self.metrics.bridge_sim_profiler(merged)
        stats = getattr(executor, "stats", None)
        if stats is not None and hasattr(stats, "bytes_sent"):
            self.metrics.bridge_halo(stats)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """The final metrics snapshot (also the JSONL summary record)."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Flush artifacts: trace JSON, JSONL summary record. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            record = {"kind": "summary"}
            record.update(self.summary())
            self._writer.write(record)
            self._writer.close()
        if self.trace_path:
            self.tracer.write(self.trace_path)


# --------------------------------------------------------------------- #
# the active-session stack
# --------------------------------------------------------------------- #
_lock = threading.Lock()
_stack: list[ObsSession] = []
_current: Optional[ObsSession] = None  # cached top-of-stack for fast reads


def current() -> Optional[ObsSession]:
    """The innermost active session, or None when observability is off."""
    return _current


def active() -> bool:
    return _current is not None


def tracer():
    """The active tracer (or the no-op :data:`NULL_TRACER`)."""
    s = _current
    return s.tracer if s is not None else NULL_TRACER


def span(name: str, **args: Any):
    """Open a span on the active tracer; a shared no-op when off."""
    s = _current
    if s is None:
        return NULL_SPAN
    return s.tracer.span(name, **args)


def instant(name: str, **args: Any) -> None:
    s = _current
    if s is not None:
        s.tracer.instant(name, **args)


def inc(name: str, n: Number = 1) -> None:
    """Bump a counter on the active registry; no-op when off."""
    s = _current
    if s is not None:
        s.metrics.inc(name, n)


def observe(name: str, v: Number) -> None:
    """Record a histogram sample on the active registry; no-op when off."""
    s = _current
    if s is not None:
        s.metrics.observe(name, v)


def push(sess: ObsSession) -> ObsSession:
    """Activate ``sess`` (innermost-wins). Prefer :func:`session`."""
    global _current
    with _lock:
        _stack.append(sess)
        _current = sess
    return sess


def pop(sess: ObsSession) -> None:
    """Deactivate ``sess``; it must be the innermost active session."""
    global _current
    with _lock:
        if not _stack or _stack[-1] is not sess:
            raise ValueError("obs session stack mismatch (pop out of order)")
        _stack.pop()
        _current = _stack[-1] if _stack else None


@contextmanager
def session(
    trace: Optional[str] = None,
    metrics: Optional[str] = None,
    process_name: str = "repro",
) -> Iterator[ObsSession]:
    """Activate observability for the enclosed code.

    Usage::

        from repro import obs

        with obs.session(trace="run.trace.json", metrics="run.jsonl") as s:
            result = gala(graph)
        print(s.summary()["counters"]["engine/iterations"])

    On exit the trace is written to ``trace`` (Chrome trace-event JSON,
    loadable in Perfetto) and the per-iteration stream plus a final
    summary record to ``metrics`` (JSON Lines). Both paths are optional —
    with neither, the artifacts stay in memory on the returned session.
    """
    sess = ObsSession(
        trace_path=trace, metrics_path=metrics, process_name=process_name
    )
    push(sess)
    try:
        with sess.tracer.span("obs/session"):
            yield sess
    finally:
        pop(sess)
        sess.close()
