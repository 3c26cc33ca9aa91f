"""Shared pieces of the benchmark's workloads: statistics, result
digests, deterministic counts, pins and the jit warm-up."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.core.modularity import modularity
from repro.serve.cache import assignment_sha256

HERE = os.path.dirname(os.path.abspath(__file__))

#: run by the warm-up child: compiles the kernels, reports the provider
JIT_PROBE = (
    "import json, time; t = time.perf_counter()\n"
    "from repro.core.kernels.jit import get_runtime\n"
    "rt = get_runtime()\n"
    "print(json.dumps({'provider': rt.provider if rt else None,"
    " 'seconds': time.perf_counter() - t}))\n"
)


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[8])


def beyond_p90(values) -> int:
    """Samples strictly above the 90th percentile."""
    cut = p90(values)
    return sum(1 for v in values if v > cut)


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process plus, when asked, its largest waited-for
    child (a rank worker or a pool worker), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def warm_jit(cache_dir: str) -> dict:
    """Compile the jit kernels into a fresh cache directory.

    The compile runs in a child interpreter with ``REPRO_JIT_CACHE``
    pointed at ``cache_dir`` — what a user's first process pays — and
    this process then uses the same directory, so no later call
    compiles. Returns the provider the child's ``get_runtime()`` chose.
    """
    os.makedirs(cache_dir, exist_ok=True)
    os.environ["REPRO_JIT_CACHE"] = cache_dir
    out = subprocess.run(
        [sys.executable, "-c", JIT_PROBE],
        check=True,
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def result_counts(result) -> dict:
    """Deterministic counts of one ``gala()`` result: every run of the
    same code on the same input must reproduce them exactly."""
    traces = [t for lvl in result.levels for t in lvl.phase1.history]
    return {
        "levels": len(result.levels),
        "iterations": len(traces),
        "active": int(sum(t.num_active for t in traces)),
        "active_edges": int(sum(t.active_edges for t in traces)),
        "moved": int(sum(t.num_moved for t in traces)),
        "halo_bytes": int(sum(t.comm_bytes for t in traces)),
        # IterationTrace.sim_cycles of a level's first iteration also
        # carries every earlier level's cycles (each level's executor
        # starts its running total at 0 on the shared device), so this
        # is a deterministic count, not the device total; the traced run
        # reports the device total as gpusim.sim_cycles
        "sim_cycles_history": float(sum(t.sim_cycles for t in traces)),
    }


def result_digest(graph, result, resolution: float = 1.0) -> dict:
    """Assignment sha256, reported Q, and Q recomputed with the public
    ``modularity()`` on the returned assignment."""
    return {
        "sha256": assignment_sha256(result.communities),
        "modularity": float(result.modularity),
        "modularity_check": float(
            modularity(graph, np.asarray(result.communities), resolution=resolution)
        ),
    }


def load_pins(workload: str, seed: int):
    """The pinned digest and counts for ``(workload, seed)``, or None."""
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    return pins.get("workloads", {}).get(workload, {}).get("seeds", {}).get(str(seed))


def pin_mismatches(pins, observed: dict) -> list:
    """Observed keys whose value differs from its pin."""
    if pins is None:
        return []
    bad = []
    for key, want in pins.items():
        if key not in observed:
            continue
        got = observed[key]
        if isinstance(want, float):
            if abs(float(got) - want) > 1e-9 * max(1.0, abs(want)):
                bad.append(key)
        elif got != want:
            bad.append(key)
    return bad


class Deadline:
    """The measuring window of one run."""

    def __init__(self, seconds: float):
        self.t0 = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def open(self) -> bool:
        return self.elapsed() < self.seconds
