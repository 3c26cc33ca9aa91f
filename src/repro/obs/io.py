"""Serialization for the observability artifacts.

Three formats, all plain-text and tool-friendly:

* **trace** — one Chrome trace-event JSON object (load in Perfetto);
* **metrics** — JSON Lines, one record per engine iteration plus one
  ``{"kind": "summary"}`` record with the final registry snapshot;
* **manifest** — one pretty-printed JSON object per run
  (:class:`~repro.obs.manifest.RunManifest`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO, Union

import numpy as np

from repro.obs.manifest import RunManifest


def _json_default(obj: Any) -> Any:
    """Make NumPy scalars/arrays and odd objects JSON-safe."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


def dump_json(obj: Any, path: str, indent: Optional[int] = 2) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent, default=_json_default)
        fh.write("\n")


def save_manifest(manifest: RunManifest, path: str) -> None:
    dump_json(manifest.to_dict(), path)


def load_manifest(path: str) -> RunManifest:
    """Read a manifest file; ``ValueError`` when it is not a JSON object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return RunManifest.from_dict(data)


class MetricsWriter:
    """Buffered JSON-Lines writer for the per-iteration metrics stream."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = open(path, "w")

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"metrics writer for {self.path} already closed")
        json.dump(record, self._fh, default=_json_default)
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_metrics_jsonl(path: str) -> List[Dict[str, Any]]:
    """All records of a metrics JSONL file."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --------------------------------------------------------------------- #
# trace validation (used by the schema tests and `repro report --check`)
# --------------------------------------------------------------------- #
_VALID_PHASES = {"X", "B", "E", "i", "I", "C", "M", "s", "t", "f"}


def validate_chrome_trace(trace: Union[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a Chrome trace-event object (or file path).

    Checks the containment contract Perfetto relies on: a ``traceEvents``
    list where every event has a name, a known phase, integer-like
    non-negative timestamps, and — for complete events — a non-negative
    duration. Returns the parsed object; raises ``ValueError`` on the
    first violation.
    """
    if isinstance(trace, str):
        with open(trace) as fh:
            trace = json.load(fh)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} missing required key {key!r}")
        if ev["ph"] not in _VALID_PHASES:
            raise ValueError(f"event {i} has unknown phase {ev['ph']!r}")
        if ev["ph"] == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
            raise ValueError(f"event {i} has invalid ts {ev.get('ts')!r}")
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                raise ValueError(f"event {i} has invalid dur {ev.get('dur')!r}")
    return trace
