"""Run manifests: everything needed to identify and compare two runs.

A manifest is a plain JSON-serializable record of *what ran* (config,
seed, graph fingerprint, package/environment versions) and *what it
cost and produced* (per-level breakdown, metrics summary, modularity).
``repro report`` renders one manifest as a breakdown table and diffs two
(cycles, bytes, iterations, Q) — the comparison loop every perf PR in
this repo needs.

The builders are duck-typed over the result objects (``EngineResult`` has
``history``/``timers``; ``LouvainResult`` has ``levels``) so this module
never imports :mod:`repro.core` — the core imports *us*.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

# Fingerprinting lives with the graph substrate now (CSRGraph caches the
# digest; the serving layer's registry and result cache key on it) — the
# re-export keeps this module the import site manifest consumers know.
from repro.graph.fingerprint import graph_fingerprint

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "build_manifest",
    "environment_info",
    "graph_fingerprint",
]

#: bump when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1


def environment_info() -> Dict[str, Optional[str]]:
    """Package/interpreter versions that can change a run's numbers, plus
    the jit provider ``kernel="auto"`` resolved to, the threads its
    compiled loops may use in this process, and the
    ``REPRO_JIT_PROVIDER`` setting behind that choice.

    The provider and its threads are read from the jit module's probe
    cache (None when nothing in this process probed it), so building a
    manifest never compiles — and never imports :mod:`repro.core`.
    """
    import scipy

    from repro import __version__ as repro_version

    jit = sys.modules.get("repro.core.kernels.jit")
    return {
        "repro": repro_version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "jit_provider": jit.probed_provider() if jit is not None else None,
        "jit_threads": jit.probed_threads() if jit is not None else None,
        "REPRO_JIT_PROVIDER": os.environ.get("REPRO_JIT_PROVIDER"),
    }


def _config_dict(config) -> Dict[str, Any]:
    """A config dataclass (or dict, or None) as JSON-safe key/values."""
    if config is None:
        return {}
    if isinstance(config, dict):
        raw = config
    elif dataclasses.is_dataclass(config):
        raw = dataclasses.asdict(config)
    else:
        raw = {k: v for k, v in vars(config).items() if not k.startswith("_")}
    out = {}
    for k, v in raw.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        else:
            out[k] = repr(v)
    return out


@dataclass
class RunManifest:
    """One run, fully described. Serializable via :mod:`repro.obs.io`."""

    schema_version: int = MANIFEST_SCHEMA_VERSION
    created_unix: float = field(default_factory=time.time)
    #: how the run was invoked (CLI argv, example name, test id ...)
    command: Optional[str] = None
    runtime: str = "local"
    config: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    graph: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Optional[str]] = field(default_factory=environment_info)
    #: one row per hierarchy level (a phase-1-only run has exactly one)
    levels: List[Dict[str, Any]] = field(default_factory=list)
    #: final metrics-registry snapshot (empty when no session was active)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: headline outcome: modularity, iterations, communities, cost totals
    result: Dict[str, Any] = field(default_factory=dict)
    #: sanitizer report when the run was sanitized (mode, per-checker
    #: counts, stored findings); empty dict otherwise
    sanitizer: Dict[str, Any] = field(default_factory=dict)
    #: static-check (``repro lint``) summary when the manifest came from
    #: a lint run (total, waived, per-rule counts); empty dict otherwise
    staticcheck: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Build from a decoded JSON object; ``ValueError`` when a field
        ``repro report`` reads has the wrong JSON type, or the schema is
        newer than this code."""
        fields = {k: v for k, v in data.items() if k in _FIELD_TYPES}
        for name, value in fields.items():
            _check_type(name, value, _FIELD_TYPES[name])
        for i, row in enumerate(fields.get("levels", [])):
            _check_type(f"levels[{i}]", row, (dict,))
            for key in _LEVEL_NUMBERS:
                _check_type(f"levels[{i}].{key}", row.get(key), _NUMBER)
            _check_type(
                f"levels[{i}].kernel_compile_s",
                row.get("kernel_compile_s"),
                _NUMBER_OR_NULL,
            )
            for key in ("timers", "kernel_backends"):
                table = row.get(key, {})
                _check_type(f"levels[{i}].{key}", table, (dict,))
                for entry, number in table.items():
                    _check_type(f"levels[{i}].{key}.{entry}", number, _NUMBER)
        result = fields.get("result", {})
        for key in _RESULT_NUMBERS:
            _check_type(f"result.{key}", result.get(key), _NUMBER_OR_NULL)
        for key in ("live", "slo"):
            _check_type(f"result.{key}", result.get(key), (dict, type(None)))
        live = result.get("live") or {}
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            _check_type(f"result.live.{key}", live.get(key), _NUMBER_OR_NULL)
        slo = result.get("slo") or {}
        _check_type("result.slo.policy", slo.get("policy"), (dict, type(None)))
        metrics = fields.get("metrics", {})
        for key in ("gauges", "histograms"):
            _check_type(f"metrics.{key}", metrics.get(key, {}), (dict,))
        for name, value in metrics.get("gauges", {}).items():
            _check_type(f"metrics.gauges.{name}", value, _NUMBER)
        for name, hist in metrics.get("histograms", {}).items():
            _check_type(f"metrics.histograms.{name}", hist, (dict,))
            _check_type(
                f"metrics.histograms.{name}.p50", hist.get("p50", 0), _NUMBER
            )
        version = fields.get("schema_version", 0)
        if version > MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema {version} newer than supported "
                f"{MANIFEST_SCHEMA_VERSION}"
            )
        return cls(**fields)


_NUMBER = (int, float)
_NUMBER_OR_NULL = _NUMBER + (type(None),)

#: the JSON types each manifest field may hold
_FIELD_TYPES: Dict[str, tuple] = {
    "schema_version": (int,),
    "created_unix": _NUMBER,
    "command": (str, type(None)),
    "runtime": (str,),
    "config": (dict,),
    "seed": (int, type(None)),
    "graph": (dict,),
    "environment": (dict,),
    "levels": (list,),
    "metrics": (dict,),
    "result": (dict,),
    "sanitizer": (dict,),
    "staticcheck": (dict,),
}

#: the ``result`` numbers ``repro report`` formats (each may be absent
#: or null): a run's headline, then a serving session's
_RESULT_NUMBERS = (
    "modularity", "iterations", "num_levels", "sim_cycles", "comm_bytes",
    "cache_hits", "cache_misses", "cache_hit_rate", "uptime_s",
    "latency_p50_ms", "latency_p99_ms",
)

#: the numbers every ``levels`` row carries (``_level_row`` writes them,
#: ``repro report`` indexes them)
_LEVEL_NUMBERS = (
    "level", "n", "num_edges", "iterations", "moved", "modularity",
    "sim_cycles", "comm_bytes",
)

_JSON_NAMES = {
    int: "an integer", float: "a number", str: "a string", bool: "a boolean",
    dict: "an object", list: "an array", type(None): "null",
}


def _check_type(name: str, value: Any, allowed: tuple) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is one of the
    ``allowed`` types (a JSON ``true``/``false`` is never a number)."""
    if isinstance(value, allowed) and not isinstance(value, bool):
        return
    expected = " or ".join(
        _JSON_NAMES[t] for t in allowed if not (t is int and float in allowed)
    )
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    raise ValueError(f"manifest field {name!r} must be {expected}, got {got}")


# --------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------- #
def _history_totals(history) -> Dict[str, Any]:
    totals = {
        "iterations": len(history),
        "moved": int(sum(t.num_moved for t in history)),
        "comm_bytes": int(sum(t.comm_bytes for t in history)),
        "comm_messages": int(sum(t.comm_messages for t in history)),
        "sim_cycles": float(sum(t.sim_cycles for t in history)),
        "active_edges": int(sum(t.active_edges for t in history)),
        "kernel_compile_s": float(
            sum(getattr(t, "kernel_compile_s", 0.0) for t in history)
        ),
    }
    backends: Dict[str, int] = {}
    for t in history:
        b = getattr(t, "kernel_backend", None)
        if b is not None:
            backends[b] = backends.get(b, 0) + 1
    if backends:
        totals["kernel_backends"] = backends
    return totals


def _level_row(index: int, graph, phase1) -> Dict[str, Any]:
    row = {
        "level": index,
        "n": int(graph.n),
        "num_edges": int(graph.num_edges),
        "modularity": float(phase1.modularity),
        "timers": dict(phase1.timers),
    }
    row.update(_history_totals(phase1.history))
    return row


def build_manifest(
    result,
    graph,
    config=None,
    metrics: Optional[Dict[str, Any]] = None,
    command: Optional[str] = None,
    runtime: str = "local",
    sanitizer: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Build a manifest for any runtime's result.

    ``result`` may be a ``LouvainResult`` (multi-level) or any runtime's
    :class:`~repro.core.engine.EngineResult` (every runtime result is
    one, so each carries ``history`` and ``timers``).
    """
    seed = getattr(config, "seed", None) if config is not None else None
    manifest = RunManifest(
        command=command,
        runtime=runtime,
        config=_config_dict(config),
        seed=seed if isinstance(seed, int) else None,
        graph=graph_fingerprint(graph),
        metrics=metrics or {},
        sanitizer=sanitizer or {},
    )

    levels = getattr(result, "levels", None)
    if levels:
        for i, lvl in enumerate(levels):
            manifest.levels.append(_level_row(i, lvl.graph, lvl.phase1))
    elif getattr(result, "history", None) is not None:
        manifest.levels.append(_level_row(0, graph, result))

    communities = getattr(result, "communities", None)
    manifest.result = {
        "modularity": float(result.modularity),
        "num_communities": (
            int(len(np.unique(communities))) if communities is not None else None
        ),
        "num_levels": len(manifest.levels),
        "iterations": int(sum(row["iterations"] for row in manifest.levels)),
        "sim_cycles": float(sum(row["sim_cycles"] for row in manifest.levels)),
        "comm_bytes": int(sum(row["comm_bytes"] for row in manifest.levels)),
    }
    return manifest
