"""Wire protocol of the detection service: JSON lines over TCP.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
No HTTP framing — the service is infrastructure-internal, and a framing
you can drive with ``nc`` keeps the bench harness, the tests, and the
client honest about what a request costs. Error responses carry an
HTTP-flavoured ``status`` anyway (``503`` for shed load, ``404`` for an
unknown fingerprint ...) because those numbers are lingua franca for
load-balancer and client-retry policy.

Operations
----------
``ping``     liveness probe
``upload``   register a graph (CSR arrays or an edge list) → fingerprint
``detect``   run/serve one detection for (fingerprint, config, seed)
``stats``    server metrics + cache/registry/pool counters
``graphs``   list resident graphs
``evict``    drop a graph (and its cached results)
``metrics``  live telemetry: dashboard summary + Prometheus exposition
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # annotation-only: protocol must not import the engine
    from repro.core.gala import GalaConfig
    from repro.serve.cache import CachedResult

#: per-line size cap for the asyncio stream reader; uploads of
#: multi-million-edge graphs are JSON arrays on one line
DEFAULT_LINE_LIMIT = 256 << 20

#: error codes and their HTTP-flavoured status numbers
STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "overloaded": 503,
    "draining": 503,
    "timeout": 504,
    "internal": 500,
}

KNOWN_OPS = ("ping", "upload", "detect", "stats", "graphs", "evict", "metrics")


class ProtocolError(ValueError):
    """A request the server refuses; carries the error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode(message: Dict[str, Any]) -> bytes:
    """One response/request as a wire line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    return message


def error_response(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": code,
        "status": STATUS.get(code, 500),
        "message": message,
        **extra,
    }


# --------------------------------------------------------------------- #
# graph payloads
# --------------------------------------------------------------------- #
def graph_from_payload(message: Dict[str, Any]) -> CSRGraph:
    """Build the uploaded graph from a ``csr`` or ``edges`` payload.

    ``csr`` ships the exact arrays (bit-faithful, fingerprint-stable);
    ``edges`` is the convenient form (``[[u, v], ...]`` or
    ``[[u, v, w], ...]``) and goes through the canonicalizing builder, so
    any edge ordering of the same graph lands on the same fingerprint.
    """
    name = str(message.get("name", "uploaded"))
    csr = message.get("csr")
    if csr is not None:
        try:
            graph = CSRGraph(
                indptr=np.asarray(csr["indptr"], dtype=np.int64),
                indices=np.asarray(csr["indices"], dtype=np.int64),
                weights=np.asarray(csr["weights"], dtype=np.float64),
                self_weight=np.asarray(csr["self_weight"], dtype=np.float64),
                name=name,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", f"malformed csr payload: {exc}") from exc
        _validate_uploaded(graph)
        return graph
    edges = message.get("edges")
    if edges is None:
        raise ProtocolError("bad_request", "upload needs a 'csr' or 'edges' payload")
    try:
        arr = np.asarray(edges, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3) or not len(arr):
            raise ValueError("edges must be a non-empty list of [u, v(, w)] rows")
        src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
        w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
        if np.any(src < 0) or np.any(dst < 0):
            raise ValueError("negative vertex id")
        n = int(message.get("n", max(src.max(), dst.max()) + 1))
        from repro.graph.builder import from_edge_array

        return from_edge_array(n, src, dst, w, name=name)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError("bad_request", f"malformed edge payload: {exc}") from exc


def _validate_uploaded(graph: CSRGraph) -> None:
    """Uploaded CSR arrays are untrusted input: full structural audit."""
    from repro.errors import GraphValidationError

    try:
        graph.validate()
    except GraphValidationError as exc:
        raise ProtocolError("bad_request", f"invalid CSR upload: {exc}") from exc


def graph_to_payload(graph: CSRGraph) -> Dict[str, Any]:
    """The exact-form upload payload for a client-side graph."""
    return {
        "name": graph.name,
        "csr": {
            "indptr": graph.indptr.tolist(),
            "indices": graph.indices.tolist(),
            "weights": graph.weights.tolist(),
            "self_weight": graph.self_weight.tolist(),
        },
    }


# --------------------------------------------------------------------- #
# detect requests
# --------------------------------------------------------------------- #
def parse_detect_config(message: Dict[str, Any]) -> "GalaConfig":
    """Build the :class:`~repro.core.gala.GalaConfig` for one request.

    The request's ``config`` object maps straight onto ``GalaConfig``
    fields; a top-level ``seed`` overrides the config's. Unknown fields
    are a ``bad_request`` — silently ignoring a typoed knob would cache
    the result under the key the caller *thinks* they asked for.

    A served detection runs in its pool worker on the ``local`` runtime,
    so ``runtime: "multiprocess"`` is a ``bad_request`` too — checked
    here, before the cache lookup, because execution fields are outside
    ``GalaConfig.cache_key()`` and would otherwise hit a cached result.
    """
    import dataclasses

    from repro.core.gala import GalaConfig

    raw = message.get("config") or {}
    if not isinstance(raw, dict):
        raise ProtocolError("bad_request", "'config' must be an object")
    known = {f.name for f in dataclasses.fields(GalaConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown config fields: {sorted(unknown)}"
        )
    if raw.get("runtime", "local") != "local":
        raise ProtocolError(
            "bad_request",
            f"runtime {raw['runtime']!r} is not served; detections run "
            "on the 'local' runtime in the pool worker",
        )
    raw = dict(raw)
    seed = message.get("seed")
    if seed is not None:
        raw["seed"] = int(seed)
    try:
        return GalaConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_request", f"invalid config: {exc}") from exc


def require_fingerprint(message: Dict[str, Any]) -> str:
    fp = message.get("fingerprint")
    if not isinstance(fp, str) or not fp:
        raise ProtocolError("bad_request", "'fingerprint' (string) is required")
    return fp


def detect_response(
    cached: bool,
    result: "CachedResult",
    include_assignment: bool,
    fingerprint: str,
) -> Dict[str, Any]:
    """Build the detect reply from a :class:`CachedResult`."""
    response: Dict[str, Any] = {
        "ok": True,
        "cached": cached,
        "fingerprint": fingerprint,
        "modularity": result.modularity,
        "num_communities": result.num_communities,
        "num_levels": result.num_levels,
        "iterations": result.iterations,
        "assignment_sha256": result.assignment_sha256,
    }
    if include_assignment:
        response["assignment"] = result.communities.tolist()
    return response


def parse_optional_number(
    message: Dict[str, Any], key: str, default: Optional[float]
) -> Optional[float]:
    value = message.get(key, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_request", f"{key!r} must be a number") from exc
