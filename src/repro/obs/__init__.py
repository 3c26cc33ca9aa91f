"""``repro.obs`` — unified tracing, metrics, and run manifests.

The repo's cost accounting was historically fragmented: simulated cycles
in :class:`~repro.gpusim.profiler.SimProfiler`, per-phase wall clock in
the engine's :class:`~repro.core.engine.PhaseClock`, per-iteration schema
in :class:`~repro.core.engine.IterationTrace`, NCCL bytes in device
counters. This package is the one layer that sees a run end-to-end:

* :func:`session` activates observability for a scope; inside it, every
  runtime (local, multi-GPU, distributed, gpusim kernels, NCCL
  collectives, halo exchange) emits **spans** into one Chrome trace-event
  file and **metrics** into one namespaced registry; the engine's phase
  spans are the same measurements as its Figure-8 phase seconds (one
  timing source), and every histogram is a :class:`BucketHistogram`;
* :func:`span` / :func:`inc` / :func:`observe` are the zero-cost
  accessors instrumented code calls — when no session is active they
  return shared no-op singletons (no allocation on hot paths);
* :class:`RunManifest` captures a finished run (config, seed, graph
  fingerprint, environment, metrics summary, per-level breakdown) for
  ``repro report`` to render and diff.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    environment_info,
    graph_fingerprint,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.io import (
    MetricsWriter,
    load_manifest,
    read_metrics_jsonl,
    save_manifest,
    validate_chrome_trace,
)
from repro.obs.report import diff_manifests, render_diff, render_manifest
from repro.obs.collector import (
    ClockSync,
    TraceCollector,
    build_request_trace,
    make_span,
    shift_spans,
)
from repro.obs.exposition import (
    parse_prometheus_text,
    render_prometheus,
    sample_value,
    sanitize_metric_name,
)
from repro.obs.live import (
    BUCKET_BOUNDS_MS,
    BucketHistogram,
    SlidingWindowHistogram,
    SloMonitor,
    SloPolicy,
    WindowedCounter,
    parse_slo_spec,
)
from repro.obs._session import (
    ObsSession,
    active,
    current,
    inc,
    instant,
    observe,
    session,
    span,
    tracer,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer

__all__ = [
    # session / accessors
    "session",
    "ObsSession",
    "current",
    "active",
    "span",
    "instant",
    "inc",
    "observe",
    "tracer",
    # tracer
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    # manifest / io
    "RunManifest",
    "build_manifest",
    "graph_fingerprint",
    "environment_info",
    "save_manifest",
    "load_manifest",
    "read_metrics_jsonl",
    "MetricsWriter",
    "validate_chrome_trace",
    # report
    "render_manifest",
    "diff_manifests",
    "render_diff",
    # live telemetry
    "BUCKET_BOUNDS_MS",
    "BucketHistogram",
    "SlidingWindowHistogram",
    "WindowedCounter",
    "SloPolicy",
    "SloMonitor",
    "parse_slo_spec",
    # exposition
    "render_prometheus",
    "parse_prometheus_text",
    "sample_value",
    "sanitize_metric_name",
    # cross-process collection
    "ClockSync",
    "TraceCollector",
    "build_request_trace",
    "make_span",
    "shift_spans",
]
