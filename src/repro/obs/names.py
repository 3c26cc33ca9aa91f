"""The metric-name registry: every metric this repo emits, declared once.

This module is the single source of truth for observability metric names.
Code that emits a metric (``MetricsRegistry.counter/gauge/histogram``,
``obs.inc``, or the dictionaries handed to
:func:`repro.obs.exposition.render_prometheus`) must use a name declared
here — either one of the exact names in :data:`METRIC_NAMES` or an
instance of one of the dynamic families in :data:`METRIC_FAMILIES`
(``*`` matches exactly one path segment, or a segment's variable part).

The ``repro lint`` static checker (rule ``metric-names``,
:mod:`repro.analysis.staticcheck.rules.metric_names`) enforces three
directions of agreement:

* every emission site in ``src/`` resolves to a declared name/family;
* every declared name/family is actually emitted somewhere (no dead
  registry entries — a rename in code without a rename here is caught
  as *both* an undeclared emission and a stale declaration);
* every declared name/family is mentioned in the documentation files
  listed in :data:`DOC_FILES`, so the tables in docs/observability.md
  and docs/serving.md cannot drift from the code.

The Prometheus exposition shares these names verbatim:
:func:`repro.obs.exposition.sanitize_metric_name` maps a registry path
like ``serve/requests_total`` to the exported family
``repro_serve_requests_total``.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

__all__ = [
    "DOC_FILES",
    "METRIC_FAMILIES",
    "METRIC_NAMES",
    "is_declared",
    "match_family",
]

#: documentation files (repo-root relative) that must mention every
#: declared metric name/family — checked by the ``metric-names`` rule
DOC_FILES: Tuple[str, ...] = (
    "docs/observability.md",
    "docs/serving.md",
)

#: exact metric names emitted by the engine / runtimes / serving layer
METRIC_NAMES: frozenset = frozenset(
    {
        # BSP engine (repro.obs._session bridges run_engine's traces)
        "engine/iterations",
        "engine/moved_total",
        "engine/active_edges_total",
        # cross-rank communication (distributed / multiprocess runtimes)
        "comm/bytes_total",
        "comm/messages_total",
        "comm/halo_bytes_total",
        "comm/halo_messages_total",
        "comm/halo_bytes",
        "comm/halo_messages",
        # simulated GPU cost model
        "gpusim/iteration_cycles_total",
        "gpusim/total_cycles",
        # multi-GPU sync planning + simulated collectives
        "sync/plan_bytes_total",
        "nccl/collectives",
        # observability internals
        "obs/rank_spans_dropped",
        # serving layer: request lifecycle
        "serve/requests_total",
        "serve/cache_hits",
        "serve/cache_misses",
        "serve/shed_total",
        "serve/timeouts",
        "serve/errors",
        "serve/uploads",
        "serve/inflight",
        "serve/latency_ms",
        "serve/hit_latency_ms",
        "serve/miss_latency_ms",
        "serve/slo_violations",
        # serving layer: live exposition (/metrics and the metrics op)
        "serve/uptime_s",
        "serve/req_per_s",
        "serve/window_requests",
        "serve/window_errors",
        "serve/window_error_rate",
        "serve/window_p50_ms",
        "serve/window_p95_ms",
        "serve/window_p99_ms",
        "serve/backlog_depth",
        "serve/healthy",
        "serve/request_latency_ms",
    }
)

#: dynamic metric families: ``*`` stands for the variable part of one
#: path segment (a kernel backend, a sanitizer checker, a cycle bucket,
#: a stats-dict key ...). An f-string emission site must collapse to one
#: of these patterns exactly.
METRIC_FAMILIES: Tuple[str, ...] = (
    # per-phase wall-clock seconds bridged from EngineResult.timers
    "time/*_seconds",
    # per-backend kernel dispatch accounting
    "kernel/backend/*",
    "kernel/*_vertices",
    # multi-GPU sync-mode decisions
    "sync/*_iterations",
    # simulated-GPU profiler buckets/counters
    "gpusim/cycles/*",
    "gpusim/counters/*",
    # sanitizer finding counters (repro.analysis)
    "sanitizer/findings/*",
    "sanitizer/kind/*",
    # serving-layer stats mirrors (cache/registry/pool/worker)
    "serve/cache/*",
    "serve/registry/*",
    "serve/pool/*",
    "serve/worker/*",
    "serve/worker/kernel/*",
)


def _family_regex(pattern: str) -> "re.Pattern[str]":
    parts = [re.escape(p) for p in pattern.split("*")]
    return re.compile("^" + "[^/]+".join(parts) + "$")


_FAMILY_REGEXES = tuple(
    (pattern, _family_regex(pattern)) for pattern in METRIC_FAMILIES
)


def match_family(name: str) -> Optional[str]:
    """The family pattern covering ``name``, or None.

    ``name`` may itself carry ``*`` placeholders (the static checker
    collapses f-string holes to ``*``); such a name matches only the
    identical family pattern.
    """
    if "*" in name:
        return name if name in METRIC_FAMILIES else None
    for pattern, regex in _FAMILY_REGEXES:
        if regex.match(name):
            return pattern
    return None


def is_declared(name: str) -> bool:
    """True when ``name`` is an exact registry name or a family instance."""
    return name in METRIC_NAMES or match_family(name) is not None
