"""Hierarchical span tracer emitting Chrome trace-event JSON.

The tracer records *complete* events (``"ph": "X"``) with microsecond
timestamps, the format Perfetto and ``chrome://tracing`` load natively:
nesting is inferred from timestamp containment on the same track, so a
``span()`` opened inside another span renders as its child without any
explicit parent bookkeeping. Spans carry free-form ``args`` tags (bytes
moved, kernel chosen, iteration number ...) that show up in the trace
viewer's detail pane.

Two cost regimes:

* **enabled** — each span is one ``perf_counter`` pair and one tuple
  appended to a shared list (``list.append`` is atomic under the GIL, so
  the tracer tolerates threaded use without a hot-path lock);
* **disabled** — the module-level :data:`NULL_TRACER` returns one shared
  no-op context manager from every call, so an instrumented hot path
  allocates nothing and branches once per span when tracing is off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional


class _NullSpan:
    """Shared no-op context manager handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def tag(self, **args: Any) -> None:
        """No-op counterpart of :meth:`_Span.tag`."""


#: the singleton no-op span (identity-tested: disabled tracing must hand
#: back the same object every call — zero allocations on the hot path)
NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records a complete event when the context exits."""

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0

    def tag(self, **args: Any) -> None:
        """Attach tags decided mid-span (e.g. the branch that was taken)."""
        if self.args is None:
            self.args = args
        else:
            self.args.update(args)

    def __enter__(self) -> "_Span":
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer.record(self.name, self._start, self._tracer._clock(), self.args)


class Tracer:
    """Thread-safe span recorder; serializes to Chrome trace-event JSON."""

    def __init__(self, process_name: str = "repro"):
        self.process_name = process_name
        self._clock = time.perf_counter
        self._t0 = self._clock()
        #: raw records ``(ph, name, start, end, os_thread_ident, args)`` —
        #: kept as tuples on the hot path and appended without a lock
        #: (``list.append`` is atomic under the GIL); the Chrome event
        #: dicts and the small per-thread track ids are built lazily in
        #: :meth:`events`, so a span costs one tuple append
        self._raw: List[tuple] = []
        #: spans adopted from other processes (:meth:`ingest`) — wire
        #: dicts whose times are already in *this* tracer's clock domain
        self._foreign: List[Dict[str, Any]] = []
        #: process labels for foreign pids, rendered as ``process_name``
        #: metadata so Perfetto names the extra tracks
        self._labels: Dict[int, str] = {}

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------ #
    def record(self, name: str, start: float, end: float, args: Optional[dict]) -> None:
        """Record one complete span from ``perf_counter`` times measured
        by the caller (the engine's phase clock times each phase once)."""
        self._raw.append(("X", name, start, end, threading.get_ident(), args))

    # ------------------------------------------------------------------ #
    def span(self, name: str, **args: Any) -> _Span:
        """Context manager timing one named span.

        ``name`` uses ``category/detail`` form (``engine/decide``,
        ``nccl/allreduce``); the prefix becomes the Chrome ``cat`` field.
        """
        return _Span(self, name, args or None)

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration marker event."""
        now = self._clock()
        self._raw.append(("i", name, now, now, threading.get_ident(), args or None))

    def counter(self, name: str, **values: float) -> None:
        """Record a counter sample (renders as a stacked area track)."""
        now = self._clock()
        self._raw.append(("C", name, now, now, threading.get_ident(), values))

    # ------------------------------------------------------------------ #
    # cross-process span transport
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        spans: Iterable[Dict[str, Any]],
        labels: Optional[Dict[int, str]] = None,
    ) -> None:
        """Adopt spans recorded in another process.

        ``spans`` are wire dicts (``name``/``ph``/``start``/``end``/
        ``pid``/``tid``, optional ``args``) whose ``start``/``end`` are
        absolute seconds **already mapped into this tracer's clock
        domain** — the caller applies the clock-sync offset before
        ingesting. ``labels`` names the foreign pids for the trace
        viewer (``{pid: "rank[0]"}``).
        """
        if labels:
            self._labels.update({int(k): str(v) for k, v in labels.items()})
        for span in spans:
            self._foreign.append(span)

    def export_spans(self, limit: int = 4096) -> Dict[str, Any]:
        """This tracer's spans as a portable payload.

        Wire times are absolute ``perf_counter`` seconds in *this*
        process's clock domain; the receiver shifts them by its clock
        offset and hands them to :meth:`ingest` on its own tracer.
        Already-ingested foreign spans are passed through unchanged, so
        the payload may span several pids. At most ``limit`` spans ship;
        the rest are counted in ``dropped``.
        """
        own_pid = os.getpid()
        spans: List[Dict[str, Any]] = []
        tids: Dict[int, int] = {}
        for ph, name, start, end, ident, args in list(self._raw):
            tid = tids.get(ident)
            if tid is None:
                tid = tids[ident] = len(tids)
            span: Dict[str, Any] = {
                "name": name,
                "ph": ph,
                "start": start,
                "end": end,
                "pid": own_pid,
                "tid": tid,
            }
            if args is not None:
                span["args"] = args
            spans.append(span)
        spans.extend(self._foreign)
        dropped = max(0, len(spans) - limit)
        if dropped:
            spans = spans[:limit]
        labels = dict(self._labels)
        labels.setdefault(own_pid, self.process_name)
        return {"spans": spans, "labels": labels, "dropped": dropped}

    # ------------------------------------------------------------------ #
    def events(self) -> List[Dict[str, Any]]:
        """Recorded events as Chrome dicts (chronological append order).

        OS thread identifiers compress to stable small track ids here
        (track 0 = first thread to record an event).
        """
        raw = list(self._raw)
        t0 = self._t0
        tids: Dict[int, int] = {}
        events: List[Dict[str, Any]] = []
        for ph, name, start, end, ident, args in raw:
            tid = tids.get(ident)
            if tid is None:
                tid = tids[ident] = len(tids)
            event: Dict[str, Any] = {
                "name": name,
                "ph": ph,
                "ts": (start - t0) * 1e6,
                "pid": 0,
                "tid": tid,
                "cat": name.split("/", 1)[0],
            }
            if ph == "X":
                event["dur"] = (end - start) * 1e6
            elif ph == "i":
                event["s"] = "t"
            if args is not None:
                event["args"] = (
                    {k: float(v) for k, v in args.items()} if ph == "C" else args
                )
            events.append(event)
        for span in list(self._foreign):
            event = {
                "name": span["name"],
                "ph": span.get("ph", "X"),
                "ts": (span["start"] - t0) * 1e6,
                "pid": span.get("pid", 0),
                "tid": span.get("tid", 0),
                "cat": span.get("cat", span["name"].split("/", 1)[0]),
            }
            if event["ph"] == "X":
                event["dur"] = (span["end"] - span["start"]) * 1e6
            elif event["ph"] == "i":
                event["s"] = "t"
            if span.get("args") is not None:
                event["args"] = span["args"]
            events.append(event)
        return events

    def to_chrome(self) -> Dict[str, Any]:
        """The full Chrome trace-event JSON object."""
        events = self.events()
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": self.process_name},
            }
        ]
        for pid in sorted(self._labels):
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": self._labels[pid]},
                }
            )
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        """Write the trace to ``path`` (open in Perfetto / chrome://tracing)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def __len__(self) -> int:
        return len(self._raw)


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared singletons."""

    process_name = "null"

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **args: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, start: float, end: float, args: Optional[dict]) -> None:
        return None

    def instant(self, name: str, **args: Any) -> None:
        return None

    def counter(self, name: str, **values: float) -> None:
        return None

    def ingest(
        self,
        spans: Iterable[Dict[str, Any]],
        labels: Optional[Dict[int, str]] = None,
    ) -> None:
        return None

    def export_spans(self, limit: int = 4096) -> Dict[str, Any]:
        return {"spans": [], "labels": {}, "dropped": 0}

    def events(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


#: module-level disabled tracer; ``repro.obs.tracer()`` returns this when
#: no session is active so call sites never need a None check
NULL_TRACER = NullTracer()
