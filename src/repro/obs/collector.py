"""Cross-process trace collection: clock sync, span transport, merging.

Two process trees record spans against their *own*
``time.perf_counter``: a served request spans the asyncio server and one
subprocess pool worker (which runs the ``local`` runtime in-process), and
a ``runtime="multiprocess"`` run spans the engine's process and its rank
processes. ``perf_counter`` origins are arbitrary per process, so
merging requires estimating each child's clock offset relative to its
parent. Two mechanisms, matched to the two transports:

* **request/reply handshake** (server ↔ worker): the job carries the
  parent's send timestamp; the reply carries the worker's receive and
  send timestamps; the parent stamps the reply's arrival. That is the
  classic NTP exchange: the true offset θ (``parent = worker + θ``) is
  bounded by ``t_send − t_job_recv ≤ θ ≤ t_recv − t_reply_send`` and
  :class:`ClockSync` uses the midpoint. The bounds give a *guarantee*,
  not just an estimate: any θ inside them maps the worker's service
  interval ``[t_job_recv, t_reply_send]`` strictly inside the parent's
  ``[t_send, t_recv]`` — so worker spans nest under the dispatch span
  by construction, no tolerance required.
* **round-release stamp** (parent ↔ rank): the multiprocess executor
  writes its ``perf_counter`` into a shared-memory slot immediately
  before releasing the round; each rank reads the slot and its own
  clock right after waking. The rank's offset estimate errs only by
  the wake latency, and errs in the direction that maps rank
  spans slightly *early* — still after the parent wrote the stamp, so
  rank spans stay inside the parent's engine span.

Spans travel as plain "wire dicts" (:meth:`Tracer.export_spans`):
``{name, ph, start, end, pid, tid, args?}`` with times in absolute
seconds of the sender's clock. :func:`shift_spans` maps them into the
receiver's domain; ``Tracer.ingest`` adopts them; and
:func:`build_request_trace` emits the final Chrome JSON with flow
events (phases ``s``/``t``/``f``) linking the tiers by trace id.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .tracer import Tracer

__all__ = [
    "ClockSync",
    "shift_spans",
    "make_span",
    "build_request_trace",
    "TraceCollector",
]


@dataclass(frozen=True)
class ClockSync:
    """Bounded clock-offset estimate mapping child time → parent time.

    ``offset_low ≤ θ ≤ offset_high`` holds exactly (assuming only that
    both clocks run forward); :attr:`offset` is the midpoint. The
    uncertainty equals the request round-trip minus the child's service
    time, typically well under a millisecond for a local pipe.
    """

    offset_low: float
    offset_high: float

    @classmethod
    def from_handshake(
        cls,
        t_send: float,
        t_child_recv: float,
        t_child_send: float,
        t_recv: float,
    ) -> "ClockSync":
        """Build from the four handshake timestamps.

        ``t_send``/``t_recv`` are parent-clock stamps bracketing the
        exchange; ``t_child_recv``/``t_child_send`` are child-clock
        stamps bracketing the child's service interval.
        """
        return cls(
            offset_low=t_send - t_child_recv,
            offset_high=t_recv - t_child_send,
        )

    @property
    def offset(self) -> float:
        return (self.offset_low + self.offset_high) / 2.0

    @property
    def uncertainty(self) -> float:
        return max(0.0, self.offset_high - self.offset_low)


def shift_spans(
    spans: List[Dict[str, Any]], offset: float
) -> List[Dict[str, Any]]:
    """Map wire spans from the sender's clock domain into the receiver's."""
    shifted = []
    for span in spans:
        out = dict(span)
        out["start"] = span["start"] + offset
        out["end"] = span["end"] + offset
        shifted.append(out)
    return shifted


def make_span(
    name: str,
    start: float,
    end: float,
    pid: Optional[int] = None,
    tid: int = 0,
    args: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One wire span. ``pid`` defaults to the calling process."""
    span: Dict[str, Any] = {
        "name": name,
        "ph": "X",
        "start": start,
        "end": end,
        "pid": os.getpid() if pid is None else pid,
        "tid": tid,
    }
    if args:
        span["args"] = args
    return span


def _flow_id(trace_id: str) -> int:
    """Stable small integer flow id for a trace id string."""
    return zlib.crc32(trace_id.encode()) & 0x7FFFFFFF


def build_request_trace(
    tracer: Tracer, trace_id: str, request_id: str
) -> Dict[str, Any]:
    """The merged per-request Chrome trace with cross-pid flow links.

    Takes the request's tracer (server spans local, worker spans
    ingested) and appends one flow chain: a flow-start (``ph: "s"``) on
    the earliest span of the server pid, flow-steps (``"t"``) on the
    earliest span of each other pid in time order, and a flow-end
    (``"f"``) on the last of those — all sharing the id derived from
    ``trace_id``, which is how Perfetto draws the arrows connecting
    ``serve.request → worker.detect`` across process tracks.
    """
    chrome = tracer.to_chrome()
    events = chrome["traceEvents"]
    # earliest complete event per pid anchors that tier's flow node
    anchors: Dict[int, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        pid = event["pid"]
        best = anchors.get(pid)
        if best is None or event["ts"] < best["ts"]:
            anchors[pid] = event
    ordered = sorted(anchors.values(), key=lambda e: e["ts"])
    flow = []
    fid = _flow_id(trace_id)
    for i, anchor in enumerate(ordered):
        if i == 0:
            ph = "s"
        elif i == len(ordered) - 1:
            ph = "f"
        else:
            ph = "t"
        flow.append(
            {
                "name": "request",
                "cat": "flow",
                "ph": ph,
                "id": fid,
                "ts": anchor["ts"],
                "pid": anchor["pid"],
                "tid": anchor["tid"],
            }
        )
    if len(flow) < 2:
        flow = []  # a single-tier trace has nothing to link
    chrome["traceEvents"] = events + flow
    chrome["metadata"] = {"trace_id": trace_id, "request_id": request_id}
    return chrome


_SAFE_ID = re.compile(r"[^a-zA-Z0-9_-]")


class TraceCollector:
    """Writes one merged Chrome trace file per traced request.

    Files land in ``trace_dir`` as ``req-<seq>-<trace_id>.trace.json``
    (sequence keeps listings chronological; the trace id makes the file
    greppable from a log line). ``keep`` caps retained files so a
    long-lived server does not fill the disk: the oldest traces are
    unlinked once the cap is exceeded.
    """

    def __init__(self, trace_dir: str, keep: int = 256):
        self.trace_dir = trace_dir
        self.keep = keep
        self.written = 0
        self._paths: List[str] = []
        os.makedirs(trace_dir, exist_ok=True)

    def write(self, seq: int, trace_id: str, chrome: Dict[str, Any]) -> str:
        safe = _SAFE_ID.sub("_", trace_id)
        path = os.path.join(
            self.trace_dir, f"req-{seq:06d}-{safe}.trace.json"
        )
        with open(path, "w") as fh:
            json.dump(chrome, fh)
        self.written += 1
        self._paths.append(path)
        while len(self._paths) > self.keep:
            stale = self._paths.pop(0)
            try:
                os.unlink(stale)
            except OSError:
                pass
        return path
